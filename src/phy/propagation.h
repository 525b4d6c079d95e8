// Propagation models: mean received power between two nodes. The testbed
// substitute is log-distance path loss plus deterministic per-pair
// lognormal shadowing; shadowing is what creates the irregular
// exposed/hidden geometry the paper exploits (a pure disk model has none).
#pragma once

#include <cstdint>
#include <limits>

#include "phy/types.h"

namespace cmap::phy {

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  /// Mean received power in dBm at node `to` for a transmission from node
  /// `from` at `tx_power_dbm`. Node ids allow per-pair shadowing.
  virtual double rx_power_dbm(double tx_power_dbm, NodeId from, NodeId to,
                              const Position& from_pos,
                              const Position& to_pos) const = 0;

  /// Upper bound (dBm) on rx_power_dbm() for this one pair, never below
  /// the double rx_power_dbm() returns for the same arguments. Callers
  /// that only want pairs clearing some floor test this first and pay for
  /// the exact value only when it passes, so an override should cost much
  /// less than rx_power_dbm(). The default is the exact value itself.
  virtual double pair_rx_power_bound_dbm(double tx_power_dbm, NodeId from,
                                         NodeId to, const Position& from_pos,
                                         const Position& to_pos) const {
    return rx_power_dbm(tx_power_dbm, from, to, from_pos, to_pos);
  }

  // ---- Sparse link-state support ----

  /// Upper bound (dBm) on rx_power_dbm() between ANY pair of nodes
  /// separated by `distance_m`, letting each of the model's random
  /// per-pair components (shadowing, dynamic offsets) conspire up to
  /// `guard_sigmas` standard deviations above its mean. The sparse link
  /// state culls candidate pairs by distance through this bound, so it
  /// must be non-increasing in distance and clamp distance the same way
  /// rx_power_dbm() does. The default (+infinity) says "this model cannot
  /// bound itself": sparse candidate queries then degrade to all-pairs —
  /// still correct, just not sparse.
  virtual double rx_power_bound_dbm(double /*tx_power_dbm*/,
                                    double /*distance_m*/,
                                    double /*guard_sigmas*/) const {
    return std::numeric_limits<double>::infinity();
  }

  /// Upper bound (dB) on how much any single link's rx power can move
  /// across ONE channel-epoch advance, again at `guard_sigmas` confidence.
  /// Static models return 0 (their answers never change between position
  /// updates); time-varying wrappers (dynamics::DynamicShadowing) return
  /// their per-epoch AR(1) step bound. The sparse Medium uses this to
  /// schedule below-floor links for re-check only once the accumulated
  /// bound says they could have crossed the floor.
  virtual double epoch_delta_bound_db(double /*guard_sigmas*/) const {
    return 0.0;
  }
};

/// Largest distance (m) at which `model.rx_power_bound_dbm(tx_power_dbm,
/// d, guard_sigmas)` still clears `min_rx_dbm`, found by bisection over
/// the bound's monotone-in-distance contract (with a small conservative
/// margin). Returns +infinity when the model cannot bound itself or still
/// clears the floor at planetary range, and 0 when even the 1 m clamp
/// distance cannot clear it.
double max_candidate_range_m(const PropagationModel& model,
                             double tx_power_dbm, double min_rx_dbm,
                             double guard_sigmas);

/// Free-space (Friis) propagation; mostly for unit tests and controlled
/// topologies.
class FriisPropagation final : public PropagationModel {
 public:
  explicit FriisPropagation(double frequency_hz = 5.18e9);
  double rx_power_dbm(double tx_power_dbm, NodeId from, NodeId to,
                      const Position& from_pos,
                      const Position& to_pos) const override;
  /// Friis has no random component: the bound is the deterministic power
  /// at `distance_m` (guard_sigmas is irrelevant).
  double rx_power_bound_dbm(double tx_power_dbm, double distance_m,
                            double guard_sigmas) const override;

 private:
  double ref_loss_db_;  // path loss at 1 m
};

struct LogDistanceConfig {
  double frequency_hz = 5.18e9;   // 802.11a channel 36 region
  double exponent = 4.0;          // indoor office with walls
  double shadow_sigma_db = 8.0;   // per unordered pair, symmetric
  double asym_sigma_db = 2.0;     // extra per ordered pair (link asymmetry)
  std::uint64_t seed = 1;         // shadowing realization

  bool operator==(const LogDistanceConfig&) const = default;
};

/// Log-distance path loss with deterministic per-pair shadowing: the same
/// (seed, i, j) always yields the same loss, so "the building" is fixed
/// across runs and MAC schemes see identical channels.
class LogDistanceShadowing final : public PropagationModel {
 public:
  explicit LogDistanceShadowing(LogDistanceConfig config = {});
  double rx_power_dbm(double tx_power_dbm, NodeId from, NodeId to,
                      const Position& from_pos,
                      const Position& to_pos) const override;
  /// Exact path loss plus each shadowing term with its Gaussian replaced
  /// by sim::hash_normal_bound: no log or cos in the shadowing.
  double pair_rx_power_bound_dbm(double tx_power_dbm, NodeId from, NodeId to,
                                 const Position& from_pos,
                                 const Position& to_pos) const override;
  /// Deterministic path loss at `distance_m` plus `guard_sigmas` standard
  /// deviations of each shadowing component (pair-symmetric + asymmetric).
  double rx_power_bound_dbm(double tx_power_dbm, double distance_m,
                            double guard_sigmas) const override;

  const LogDistanceConfig& config() const { return config_; }

 private:
  double path_loss_db(const Position& from_pos, const Position& to_pos) const;
  std::uint64_t pair_key(NodeId from, NodeId to) const;
  std::uint64_t dir_key(NodeId from, NodeId to) const;
  double shadow_db(NodeId from, NodeId to) const;

  LogDistanceConfig config_;
  double ref_loss_db_;
};

}  // namespace cmap::phy
