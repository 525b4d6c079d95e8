// The testbed "measurement pass": PRR and mean signal strength for every
// directed pair that clears the delivery floor, extracted from Testbed's
// constructor into a reusable subsystem.
//
// The pass never walks the n^2 pair space. A spatial grid limits it to
// pairs within the propagation model's guard-banded candidate radius, a
// cheap per-pair bound rejects most of those, and only pairs whose exact
// mean signal clears the floor are stored, as a CSR. Pairs outside it are
// answered lazily through measure_one(), which computes exactly what the
// pass would have stored (see Testbed).
//
// Key insight behind the fast PRR path: with one shared RadioConfig, probe
// rate and probe size, the fading-averaged packet reception rate is a pure
// 1-D function of the pair's mean received power. So PRR is tabulated ONCE
// over a fine dBm grid (stratified Gaussian quadrature over the fading
// distribution, near-exact) and each pair costs a single table
// interpolation instead of `samples` error-model evaluations. The per-pair
// Monte-Carlo estimator is retained as MeasurementMode::kReference behind
// a config knob; it draws per-pair substreams, so it is what defines "the
// measured building" when bitwise reproducibility of the sampling path
// matters.
//
// The per-row loop shards across sim::parallel_for; results are identical
// for any thread count because every pair's output depends only on
// (seed, pair).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "phy/error_model.h"
#include "phy/propagation.h"
#include "phy/radio.h"
#include "phy/types.h"
#include "phy/wifi_rate.h"
#include "sim/random.h"

namespace cmap::testbed {

enum class MeasurementMode {
  kFast,       // tabulated fading-averaged PRR, one interpolation per pair
  kReference,  // per-pair stratified Monte-Carlo over the fading Gaussian
};

struct MeasurementConfig {
  MeasurementMode mode = MeasurementMode::kFast;
  /// Threads sharding the per-pair loop; 0 = sim::default_thread_count().
  /// Results are identical for any value.
  int threads = 1;
  /// Fast-mode PRR table resolution in dB of mean received power.
  double table_step_db = 0.05;
  /// Fading strata per fast-mode table entry (quadrature accuracy ~1/strata
  /// worst-case, far better in practice).
  int table_strata = 512;
  /// Confidence (in model sigmas) of the candidate radius
  /// (phy::max_candidate_range_m over the delivery floor): a pair outside
  /// it would need a shadowing realization beyond this many sigmas to
  /// clear the delivery floor. At the default 6 the per-pair miss
  /// probability is ~1e-9.
  double sparse_guard_sigmas = 6.0;
  bool operator==(const MeasurementConfig&) const = default;
};

/// Substream id for the directed pair's fading draws. SplitMix64-mixes the
/// packed pair so distinct pairs always get distinct streams — the old
/// `from * 1000 + to` packing collided once testbeds passed 1000 nodes
/// (e.g. (0,1005) and (1,5)).
std::uint64_t pair_stream_id(phy::NodeId from, phy::NodeId to);

/// Linear-interpolated percentile (0-100) over an ascending-sorted sample.
/// THE percentile definition for signal strengths: Testbed's predicates
/// compare against values cached at measurement time, so every computation
/// must share this one implementation. NaN when `sorted` is empty.
double percentile_of(const std::vector<double>& sorted, double p);

/// Everything the measurement pass needs, decoupled from TestbedConfig
/// (testbed.h composes one of these from its own fields).
struct LinkMeasurementSpec {
  phy::RadioConfig radio;  // shared by all nodes
  // Defaults mirror phy::MediumConfig's; note Testbed overrides the floor
  // to -110 via TestbedConfig::default_medium(), so standalone users who
  // want Testbed-identical connected_signals/p10/p90 must copy the floor
  // from the same MediumConfig.
  double fading_sigma_db = 2.0;        // per-probe lognormal fading
  double delivery_floor_dbm = -104.0;  // "any connectivity" threshold
  phy::WifiRate probe_rate = phy::WifiRate::k6Mbps;
  std::size_t probe_bytes = 1400;
  int fading_samples = 100;  // reference-mode draws per directed link
  std::uint64_t seed = 1;    // root of the per-pair fading substreams
  MeasurementConfig config;
};

struct LinkMeasurementResult {
  // CSR over directed pairs whose mean signal clears the delivery floor;
  // row r covers dst/link_prr/link_signal indices
  // [row_begin[r], row_begin[r + 1]), dst ascending within a row.
  std::vector<std::uint32_t> row_begin;  // size n + 1
  std::vector<phy::NodeId> dst;
  std::vector<double> link_prr;
  std::vector<double> link_signal;  // dBm
  std::vector<double> connected_signals;  // link_signal, sorted ascending
  double p10 = 0.0;  // 10th / 90th percentile of connected_signals,
  double p90 = 0.0;  // NaN when no pair clears the delivery floor
};

class LinkMeasurement {
 public:
  LinkMeasurement(const LinkMeasurementSpec& spec,
                  std::shared_ptr<const phy::PropagationModel> propagation,
                  std::shared_ptr<const phy::ErrorModel> error_model);

  /// Run the pass over the grid candidates of `positions` and store every
  /// directed pair whose mean signal clears the delivery floor.
  LinkMeasurementResult measure(
      const std::vector<phy::Position>& positions) const;

  /// One directed pair, computed exactly as measure() would — the lazy
  /// path for pairs outside the CSR, and the reference the CSR is checked
  /// against. Returns {prr, signal_dbm}.
  std::pair<double, double> measure_one(phy::NodeId from, phy::NodeId to,
                                        const phy::Position& from_pos,
                                        const phy::Position& to_pos) const;

  /// Mean received power below which the configured estimator returns a
  /// PRR of exactly 0: fast_prr's own cut-off (the table's lower edge, or
  /// the lock sensitivity without fading). -infinity for the reference
  /// estimator with fading, whose draws have no such cut-off.
  double zero_prr_below_dbm() const;

  const LinkMeasurementSpec& spec() const { return spec_; }

  // ---- The two PRR estimators (exposed for tolerance tests) ----

  /// Fast path: interpolate the tabulated fading-averaged PRR at the
  /// pair's mean received power.
  double fast_prr(double mean_dbm) const;

  /// Reference path: `fading_samples` stratified Monte-Carlo fading draws
  /// from `stream` (the pair's substream), each invoking the error model.
  /// Stratification keeps the estimate within 1/samples of the exact
  /// fading average (the integrand is monotone), while remaining a genuine
  /// per-pair sampling path.
  double reference_prr(double mean_dbm, sim::Rng stream) const;

  /// Probability a probe decodes at received power `rx_dbm` with no
  /// fading: the preamble-lock gates, then the error model over the probe
  /// bits. Both estimators average this function over the fading Gaussian.
  double probe_success(double rx_dbm) const;

 private:
  void build_tables();
  double success_from_table(double rx_dbm) const;
  /// The configured estimator's PRR for the directed pair at `mean_dbm`.
  double pair_prr(phy::NodeId from, phy::NodeId to, double mean_dbm) const;

  LinkMeasurementSpec spec_;
  std::shared_ptr<const phy::PropagationModel> propagation_;
  std::shared_ptr<const phy::ErrorModel> error_model_;

  // Derived constants.
  double noise_mw_ = 0.0;
  double impl_loss_linear_ = 1.0;
  double probe_bits_ = 0.0;
  double gate_dbm_ = 0.0;  // below this received power, decode prob is 0

  // Fast-path tables (built only for kFast with fading; ~ms to build).
  double success_lo_dbm_ = 0.0;
  std::vector<double> success_table_;  // probe_success on a fine grid
  double prr_lo_dbm_ = 0.0;
  std::vector<double> prr_table_;  // fading-averaged PRR on the config grid
};

}  // namespace cmap::testbed
