// A binary-heap event queue with O(log n) insertion and lazily cancelled
// events. The heap sifts small trivially-copyable keys; each key names a
// slot in a pooled array that holds the event's callable and cancel state,
// and freed slots are reused, so no sift moves a std::function and no
// event allocates its own cancel flag. Same-instant ordering is defined by
// an explicit EventRank rather than raw insertion order: dynamics events
// first, then local events, then deliveries in (frame id, receiver id)
// order (docs/determinism.md, "Event order"). Within one rank, events
// still execute in insertion order (FIFO), which keeps protocol state
// machines deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"

namespace cmap::sim {

/// Deterministic same-tick ordering key. At one instant, events execute by
/// ascending (cls, a, b), then FIFO. The three classes:
///   0 (global)   — dynamics events (mobility ticks, channel epochs).
///                  They mutate state every node reads (positions, link
///                  gains), so at one instant they run before any node
///                  event sees that state.
///   2 (local)    — MAC timers, signal ends, rx completions: one node's
///                  own events, where FIFO insertion order is itself
///                  deterministic.
///   3 (delivery) — a frame arriving at a receiver; keyed (frame id,
///                  receiver id), both intrinsic to the delivery, so
///                  same-tick arrivals order by what they are rather than
///                  by which transmit happened to schedule them first.
/// Deliveries sort AFTER local events at the same tick on purpose: a
/// signal-end (or finish_rx) at T must run before a new signal starting
/// at exactly T, or back-to-back frame trains would overlap for zero
/// nanoseconds and the receiver — still nominally in Rx — would never
/// evaluate the new preamble. The legacy insertion-order queue got this
/// right by accident (end events are inserted a frame-duration earlier);
/// the rank encodes it explicitly.
struct EventRank {
  std::uint8_t cls = 2;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

inline constexpr EventRank kGlobalRank{0, 0, 0};
constexpr EventRank delivery_rank(std::uint64_t frame_id,
                                  std::uint64_t receiver) {
  return EventRank{3, frame_id, receiver};
}

/// The comparable head-of-queue key, seq tie-breaker included: drivers
/// that step the queue themselves (next_key/advance_to/run_one) read the
/// exact order the queue will pop in.
struct EventKey {
  Time at = 0;
  EventRank rank;
  std::uint64_t seq = 0;

  friend bool operator<(const EventKey& x, const EventKey& y) {
    if (x.at != y.at) return x.at < y.at;
    if (x.rank.cls != y.rank.cls) return x.rank.cls < y.rank.cls;
    if (x.rank.a != y.rank.a) return x.rank.a < y.rank.a;
    if (x.rank.b != y.rank.b) return x.rank.b < y.rank.b;
    return x.seq < y.seq;
  }
};

class EventQueue;

/// Handle to a scheduled event. Copyable; cancelling any copy cancels the
/// event. A default-constructed EventId refers to no event. An id names
/// its event's slot and the slot's generation; the generation moves on
/// when the event runs or its cancelled entry leaves the heap, so a stale
/// id never touches the event that later reuses the slot. Ids must not be
/// used after their queue is destroyed.
class EventId {
 public:
  EventId() = default;

  /// True if the event is still pending (scheduled, not cancelled, not run).
  bool pending() const;

  /// Cancel the event if still pending. Safe to call repeatedly, on
  /// already-run events, and on default-constructed ids.
  void cancel();

 private:
  friend class EventQueue;
  EventId(EventQueue* queue, std::uint32_t slot, std::uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// Time-ordered queue of callbacks. Not thread-safe: a queue belongs to
/// one run, driven by one thread.
class EventQueue {
 public:
  EventQueue() = default;
  // EventIds point at the queue.
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `at` with the default local rank.
  /// `at` must not precede the time of the event currently being executed
  /// (no scheduling into the past).
  EventId schedule(Time at, std::function<void()> fn) {
    return schedule_ranked(at, EventRank{}, std::move(fn));
  }

  /// Schedule with an explicit same-tick ordering rank (see EventRank).
  EventId schedule_ranked(Time at, EventRank rank, std::function<void()> fn);

  /// Pop and run the earliest pending event; returns false if none remain.
  bool run_one();

  /// Time of the earliest pending event, or kTimeForever when empty.
  Time next_time();

  /// Full ordering key of the earliest pending event; at == kTimeForever
  /// when empty.
  EventKey next_key();

  bool empty();

  /// Number of events executed so far (for micro-benchmarks and tests).
  std::uint64_t executed() const { return executed_; }

  /// Largest heap size observed (live + not-yet-compacted cancelled
  /// entries), for the metrics execution section.
  std::size_t depth_high_water() const { return depth_high_water_; }

  /// Number of cancelled-entry compaction rebuilds performed.
  std::uint64_t compactions() const { return compactions_; }

  /// Entries currently held, including not-yet-compacted cancelled ones
  /// (observability for the compaction regression test).
  std::size_t heap_size() const { return heap_.size(); }

  /// Slots currently holding an event, pending or cancelled-but-still-
  /// heaped (observability for the slot-pool tests).
  std::size_t slots_in_use() const {
    return slots_.size() - free_slots_.size();
  }

  /// Time of the event currently executing (or last executed).
  Time current_time() const { return current_time_; }

  /// Advance the clock without running events, as Simulator::run_until
  /// does when the next event lies beyond its horizon. Never moves
  /// backwards.
  void advance_to(Time t) {
    if (t > current_time_) current_time_ = t;
  }

 private:
  friend class EventId;

  // The heap element: the (at, rank, seq) order key plus the slot of the
  // payload, packed into 40 trivially-copyable bytes.
  struct Entry {
    Time at = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t seq = 0;  // tie-breaker: FIFO among same-(time, rank)
    std::uint32_t slot = 0;
    std::uint8_t cls = 0;
  };
  // Max-heap comparator for "later", so the heap root is the earliest
  // entry. (at, cls, a, b, seq) is a total order — seq is unique — so the
  // pop *sequence* is independent of heap layout, which is what makes
  // compaction (a re-heapify) determinism-safe.
  struct Later {
    bool operator()(const Entry& x, const Entry& y) const {
      if (x.at != y.at) return x.at > y.at;
      if (x.cls != y.cls) return x.cls > y.cls;
      if (x.a != y.a) return x.a > y.a;
      if (x.b != y.b) return x.b > y.b;
      return x.seq > y.seq;
    }
  };
  // An event's payload. The slot is held from schedule until the event
  // runs or its cancelled entry leaves the heap.
  struct Slot {
    std::function<void()> fn;
    std::uint32_t generation = 0;
    bool cancelled = false;
  };

  bool pending(std::uint32_t slot, std::uint32_t generation) const {
    const Slot& s = slots_[slot];
    return s.generation == generation && !s.cancelled;
  }
  void cancel(std::uint32_t slot, std::uint32_t generation) {
    Slot& s = slots_[slot];
    if (s.generation == generation) s.cancelled = true;
  }
  bool cancelled(const Entry& e) const { return slots_[e.slot].cancelled; }
  // Return the slot to the free list and hand back its callable.
  std::function<void()> release(std::uint32_t slot);
  void drop_cancelled_head();
  void maybe_compact();

  std::vector<Entry> heap_;  // std::push_heap/pop_heap managed
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t depth_high_water_ = 0;
  std::uint64_t compactions_ = 0;
  Time current_time_ = 0;
  // Cancelled-entry compaction (see maybe_compact): scan when the heap has
  // doubled past the size it had after the last scan, so the amortized
  // cost per schedule() is O(1) and a cancellation-heavy workload
  // (defer-TTL churn) cannot retain dead entries unboundedly.
  std::size_t compact_watermark_ = 0;
};

inline bool EventId::pending() const {
  return queue_ != nullptr && queue_->pending(slot_, generation_);
}

inline void EventId::cancel() {
  if (queue_ != nullptr) queue_->cancel(slot_, generation_);
}

}  // namespace cmap::sim
