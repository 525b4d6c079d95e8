// The simulation executive: owns the clock and the event queue. Components
// hold a reference to the Simulator and schedule callbacks; run() drains
// events in time order until a stop condition. One Simulator drives a
// whole run; parallelism lives across runs (scenario::SweepRunner).
#pragma once

#include <functional>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace cmap::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (valid inside executing events).
  Time now() const { return queue_.current_time(); }

  /// Schedule `fn` to run at absolute time `at` (>= now()).
  EventId at(Time when, std::function<void()> fn) {
    return queue_.schedule(when, std::move(fn));
  }

  /// Schedule `fn` to run `delay` nanoseconds from now (delay >= 0).
  EventId in(Time delay, std::function<void()> fn) {
    return queue_.schedule(now() + delay, std::move(fn));
  }

  /// Ranked variants: explicit same-tick ordering (see EventRank). The
  /// medium schedules deliveries and the dynamics subsystem its global
  /// steps through these, so same-instant events sort by what they are
  /// rather than by when they were scheduled.
  EventId at_ranked(Time when, EventRank rank, std::function<void()> fn) {
    return queue_.schedule_ranked(when, rank, std::move(fn));
  }
  EventId in_ranked(Time delay, EventRank rank, std::function<void()> fn) {
    return queue_.schedule_ranked(now() + delay, rank, std::move(fn));
  }

  /// Run until the queue drains or stop() is called.
  void run();

  /// Run until simulated time reaches `until` (events at exactly `until`
  /// are executed), the queue drains, or stop() is called.
  void run_until(Time until);

  /// Request that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  std::uint64_t events_executed() const { return queue_.executed(); }

  /// Direct queue access for drivers that step events themselves (the
  /// perfbench per-event-class timer). Components should schedule via
  /// at()/in().
  EventQueue& queue() { return queue_; }

 private:
  EventQueue queue_;
  bool stopped_ = false;
};

}  // namespace cmap::sim
