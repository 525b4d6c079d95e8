// Tracks the signals impinging on one radio and evaluates chunked SINR:
// a reception window is partitioned at interference change-points, each
// sub-interval contributes (1 - BER)^bits, and the product is the success
// probability of that window (the ns-3 InterferenceHelper approach).
//
// evaluate() runs as a single event-sweep over the sorted start/end edges
// of overlapping signals, maintaining a running interference sum — O(S log
// S) in the number of tracked signals instead of the O(sub-intervals x S)
// rescan of the original implementation (kept as evaluate_reference() for
// validation and benchmarking).
//
// Two views of the same signals keep every per-event cost proportional to
// what is on the air rather than to how much has been heard:
//   - the history (signals()) holds every signal that can still overlap an
//     evaluation window. Every window lies inside the signal it evaluates,
//     so expire(now) drops whatever ended before now minus the longest
//     airtime the tracker has seen, a few milliseconds;
//   - the active set holds the signals on the air now, in insertion order.
//     carrier_power() takes one pass over it for carrier sense and trims
//     the signals that have ended.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "phy/error_model.h"
#include "phy/frame.h"
#include "sim/time.h"

namespace cmap::phy {

/// One signal as seen at one receiver. `frame` may be null for raw energy
/// (e.g. injected noise); such signals interfere but can never be a
/// decoding target.
struct Signal {
  std::shared_ptr<const Frame> frame;
  double power_mw = 0.0;  // received power (after fading) at this radio
  sim::Time start = 0;
  sim::Time end = 0;
};

struct ChunkOutcome {
  double success_prob = 1.0;
  double min_sinr = 1e30;  // linear; worst sub-interval SINR
};

/// Power on the air at one instant, as carrier sense reads it.
struct CarrierPower {
  double max_mw = 0.0;    // strongest single signal, or 0
  double total_mw = 0.0;  // sum over every signal, in insertion order
};

class InterferenceTracker {
 public:
  explicit InterferenceTracker(double noise_floor_mw)
      : noise_mw_(noise_floor_mw) {}

  /// Track `signal` in the history and the active set.
  void add(Signal signal);

  /// Drop signals that ended before `horizon` (they can no longer overlap
  /// any evaluation window). Amortized: the horizon is recorded on every
  /// call, but the O(S) compaction only runs once the live vector has
  /// grown past a threshold that doubles with the surviving size, so a
  /// caller pruning on every delivery pays O(1) amortized. Expired signals
  /// may therefore linger in signals(); every query is time-windowed, so
  /// results are unaffected.
  void prune(sim::Time horizon);

  /// prune() at the tracker's own airtime bound: now minus the longest
  /// signal ever added. evaluate() windows lie inside their target signal
  /// (asserted there), and a target evaluated at or after `now` started no
  /// earlier than that bound, so nothing expire() drops can overlap one.
  void expire(sim::Time now) { prune(now - longest_airtime_); }

  /// Strongest and summed power of the signals on the air at `now` (start
  /// <= now < end), from one pass over the active set. Signals that ended
  /// by `now` leave the active set, so successive calls must not go back
  /// in time. The sum adds the same doubles in the same order as a scan of
  /// signals() would, which keeps threshold comparisons bit-exact.
  CarrierPower carrier_power(sim::Time now);

  /// The tracked signal carrying frame `frame_id`, or null.
  const Signal* find(std::uint64_t frame_id) const;

  /// Success probability and worst SINR for decoding `bits` of frame
  /// `target_frame_id` over the window [begin, end) at `rate`, given all
  /// other tracked signals and the noise floor. `sinr_scale` divides the
  /// SINR before the error model (implementation loss). The window must
  /// lie inside the target signal.
  ChunkOutcome evaluate(std::uint64_t target_frame_id, sim::Time begin,
                        sim::Time end, double bits, WifiRate rate,
                        const ErrorModel& model, double sinr_scale) const;

  /// Linear SINR of the target over [begin, end) — worst sub-interval.
  double min_sinr(std::uint64_t target_frame_id, sim::Time begin,
                  sim::Time end) const;

  const std::vector<Signal>& signals() const { return signals_; }
  double noise_mw() const { return noise_mw_; }

 private:
  std::vector<Signal> signals_;
  double noise_mw_;
  sim::Time prune_horizon_ = 0;
  std::size_t compact_at_ = 0;
  sim::Time longest_airtime_ = 0;
  // The active set: signals not yet seen to have ended, in insertion order.
  struct Active {
    sim::Time start;
    sim::Time end;
    double power_mw;
  };
  std::vector<Active> active_;
  // Sweep-edge scratch, reused across evaluate() calls to avoid a per-call
  // allocation. A tracker belongs to one radio in one (single-threaded)
  // simulation, so the mutable buffer is never contended.
  struct Edge {
    sim::Time t;
    double delta;
  };
  mutable std::vector<Edge> edges_;
};

/// The original O(sub-intervals x S) implementation of evaluate(), over the
/// same tracked signal set. Retained as the validation oracle for the swept
/// evaluator (unit tests compare the two on random signal sets) and as the
/// "before" side of the bench_micro comparison.
ChunkOutcome evaluate_reference(const InterferenceTracker& tracker,
                                std::uint64_t target_frame_id, sim::Time begin,
                                sim::Time end, double bits, WifiRate rate,
                                const ErrorModel& model, double sinr_scale);

}  // namespace cmap::phy
