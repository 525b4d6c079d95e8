#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/random.h"

namespace cmap::sim {
namespace {

TEST(EventQueue, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeEventsRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (q.run_one()) {
  }
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(id.pending());
  id.cancel();
  EXPECT_FALSE(id.pending());
  while (q.run_one()) {
  }
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterRun) {
  EventQueue q;
  EventId id = q.schedule(1, [] {});
  while (q.run_one()) {
  }
  EXPECT_FALSE(id.pending());
  id.cancel();  // no-op, must not crash
  EventId empty;
  empty.cancel();  // default-constructed id, must not crash
  EXPECT_FALSE(empty.pending());
}

TEST(EventQueue, PendingFlipsAfterExecution) {
  EventQueue q;
  EventId id = q.schedule(1, [] {});
  EXPECT_TRUE(id.pending());
  q.run_one();
  EXPECT_FALSE(id.pending());
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  std::vector<Time> times;
  q.schedule(10, [&] {
    times.push_back(q.current_time());
    q.schedule(20, [&] { times.push_back(q.current_time()); });
  });
  while (q.run_one()) {
  }
  EXPECT_EQ(times, (std::vector<Time>{10, 20}));
}

TEST(EventQueue, NextTimeReflectsEarliestPending) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), kTimeForever);
  EventId a = q.schedule(50, [] {});
  q.schedule(70, [] {});
  EXPECT_EQ(q.next_time(), 50);
  a.cancel();
  EXPECT_EQ(q.next_time(), 70);
}

TEST(EventQueue, EmptySkipsCancelledEvents) {
  EventQueue q;
  EventId a = q.schedule(5, [] {});
  a.cancel();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ExecutedCounterCountsOnlyRunEvents) {
  EventQueue q;
  EventId a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  a.cancel();
  while (q.run_one()) {
  }
  EXPECT_EQ(q.executed(), 1u);
}

TEST(EventQueueDeathTest, SchedulingIntoThePastAborts) {
  EventQueue q;
  q.schedule(100, [&q] {
    EXPECT_DEATH(q.schedule(50, [] {}), "past");
  });
  while (q.run_one()) {
  }
}

// A callable that counts how many times it is copied: dispatch must move
// the entry out of the heap, not deep-copy the std::function per event.
struct CopyCounter {
  int* copies;
  explicit CopyCounter(int* c) : copies(c) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = delete;
  void operator()() const {}
};

TEST(EventQueue, DispatchMovesTheCallableInsteadOfCopying) {
  EventQueue q;
  int copies = 0;
  q.schedule(1, CopyCounter(&copies));
  const int after_schedule = copies;  // wrapping into std::function may copy
  while (q.run_one()) {
  }
  EXPECT_EQ(copies, after_schedule);
}

TEST(EventQueue, CompactionBoundsCancelledEntries) {
  // Defer-TTL churn shape: schedule far-future events and cancel them
  // before they reach the head. Without compaction the heap retains every
  // cancelled entry; with it, live + dead stays within a constant factor
  // of the live count.
  EventQueue q;
  std::vector<EventId> pending;
  for (int i = 0; i < 100000; ++i) {
    pending.push_back(q.schedule(1000000 + i, [] {}));
    if (pending.size() > 16) {
      pending.front().cancel();
      pending.erase(pending.begin());
    }
  }
  // 16 live entries; the watermark doubling rule admits at most
  // max(2 * live-after-last-scan, 64) total before the next scan fires.
  EXPECT_LE(q.heap_size(), 64u);
}

TEST(EventQueue, AdvanceToNeverMovesBackwards) {
  EventQueue q;
  q.schedule(100, [] {});
  while (q.run_one()) {
  }
  EXPECT_EQ(q.current_time(), 100);
  q.advance_to(50);  // stale horizon: clock must hold
  EXPECT_EQ(q.current_time(), 100);
  q.advance_to(200);
  EXPECT_EQ(q.current_time(), 200);
}

TEST(EventQueueDeathTest, SchedulePastAdvancedClockAborts) {
  EventQueue q;
  q.advance_to(500);
  EXPECT_DEATH(q.schedule(499, [] {}), "past");
}

TEST(EventQueue, RankClassesOrderSameTickEvents) {
  EventQueue q;
  std::vector<int> order;
  // Insertion order deliberately scrambled: local first, then deliveries
  // (in descending key), then a global event, all at t=10.
  q.schedule(10, [&] { order.push_back(4); });  // cls 2 FIFO #1
  q.schedule_ranked(10, delivery_rank(7, 2), [&] { order.push_back(7); });
  q.schedule_ranked(10, delivery_rank(7, 1), [&] { order.push_back(6); });
  q.schedule_ranked(10, delivery_rank(3, 9), [&] { order.push_back(5); });
  q.schedule_ranked(10, kGlobalRank, [&] { order.push_back(1); });
  q.schedule(10, [&] { order.push_back(8); });  // inserted after deliveries,
                                                // still runs before them
  q.schedule_ranked(10, kGlobalRank, [&] { order.push_back(2); });
  q.schedule(10, [&] { order.push_back(9); });
  while (q.run_one()) {
  }
  // global (FIFO) < local (FIFO) < delivery (by frame, then receiver).
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 8, 9, 5, 6, 7}));
}

TEST(EventQueue, StaleIdNeverCancelsTheEventReusingItsSlot) {
  EventQueue q;
  bool first_ran = false, second_ran = false;
  EventId first = q.schedule(10, [&] { first_ran = true; });
  first.cancel();
  EXPECT_TRUE(q.empty());  // drops the cancelled entry, freeing its slot
  EXPECT_EQ(q.slots_in_use(), 0u);
  EventId second = q.schedule(20, [&] { second_ran = true; });
  EXPECT_EQ(q.slots_in_use(), 1u);  // the freed slot, reused
  first.cancel();                   // stale: must not touch `second`
  EXPECT_FALSE(first.pending());
  EXPECT_TRUE(second.pending());
  while (q.run_one()) {
  }
  EXPECT_FALSE(first_ran);
  EXPECT_TRUE(second_ran);
  EXPECT_FALSE(second.pending());

  // Same after a run rather than a cancel: the executed event's id goes
  // stale the moment it is dispatched.
  bool third_ran = false;
  EventId third = q.schedule(30, [&] { third_ran = true; });
  second.cancel();
  EXPECT_TRUE(third.pending());
  while (q.run_one()) {
  }
  EXPECT_TRUE(third_ran);
}

TEST(EventQueue, RunningEventMayRescheduleIntoItsOwnSlot) {
  EventQueue q;
  std::vector<int> order;
  EventId self;
  EventId next;
  self = q.schedule(1, [&] {
    EXPECT_FALSE(self.pending());
    next = q.schedule(2, [&] { order.push_back(2); });
    self.cancel();  // stale, and its slot is now `next`'s
    order.push_back(1);
  });
  while (q.run_one()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.slots_in_use(), 0u);
}

TEST(EventQueue, CompactionReleasesTheSlotsOfCancelledEntries) {
  EventQueue q;
  std::vector<EventId> pending;
  for (int i = 0; i < 100000; ++i) {
    pending.push_back(q.schedule(1000000 + i, [] {}));
    if (pending.size() > 16) {
      pending.front().cancel();
      pending.erase(pending.begin());
    }
  }
  EXPECT_GT(q.compactions(), 0u);
  // Every slot in use belongs to an entry still in the heap: compaction
  // handed the dead entries' slots back, so the pool stays as small as
  // the heap.
  EXPECT_EQ(q.slots_in_use(), q.heap_size());
  EXPECT_LE(q.slots_in_use(), 64u);
  for (const EventId& id : pending) EXPECT_TRUE(id.pending());
  while (q.run_one()) {
  }
  EXPECT_EQ(q.executed(), 16u);
  EXPECT_EQ(q.slots_in_use(), 0u);
}

// The ordering contract as a plain list: pop the live entry with the
// smallest (at, rank, seq), nothing else. The pooled heap must match it
// event for event.
class ListQueue {
 public:
  std::uint64_t schedule(Time at, EventRank rank, int tag) {
    entries_.push_back({EventKey{at, rank, next_seq_}, tag, false});
    return next_seq_++;
  }
  void cancel(std::uint64_t seq) { entries_[seq].cancelled = true; }
  bool pending(std::uint64_t seq) const { return !entries_[seq].cancelled; }
  // Tag of the next event, or -1 when none is live.
  int pop() {
    Item* best = nullptr;
    for (Item& e : entries_) {
      if (!e.cancelled && (best == nullptr || e.key < best->key)) best = &e;
    }
    if (best == nullptr) return -1;
    best->cancelled = true;
    return best->tag;
  }

 private:
  struct Item {
    EventKey key;
    int tag;
    bool cancelled;
  };
  std::vector<Item> entries_;
  std::uint64_t next_seq_ = 0;
};

TEST(EventQueue, PopOrderMatchesTheOrderingContractUnderRandomChurn) {
  Rng rng(2024);
  EventQueue q;
  ListQueue ref;
  std::vector<EventId> ids;         // by tag
  std::vector<std::uint64_t> seqs;  // by tag
  std::vector<int> got;
  std::vector<int> want;
  Time now = 0;
  auto schedule = [&](Time at) {
    const int tag = static_cast<int>(ids.size());
    EventRank rank;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        rank = kGlobalRank;
        break;
      case 1:
        rank = delivery_rank(static_cast<std::uint64_t>(rng.uniform_int(0, 3)),
                             static_cast<std::uint64_t>(rng.uniform_int(0, 3)));
        break;
      default:
        break;
    }
    ids.push_back(q.schedule_ranked(at, rank, [&got, tag] {
      got.push_back(tag);
    }));
    seqs.push_back(ref.schedule(at, rank, tag));
  };
  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 9));
    if (op < 5) {
      // Coarse times so same-tick ties are common.
      schedule(now + rng.uniform_int(0, 20));
    } else if (op < 7 && !ids.empty()) {
      // Any id, live, run, cancelled or with a reused slot.
      const auto tag =
          static_cast<std::size_t>(rng.uniform_int(0, ids.size() - 1));
      ASSERT_EQ(ids[tag].pending(), ref.pending(seqs[tag])) << step;
      ids[tag].cancel();
      ref.cancel(seqs[tag]);
    } else {
      const int tag = ref.pop();
      if (tag >= 0) want.push_back(tag);
      const bool ran = q.run_one();
      ASSERT_EQ(ran, tag >= 0) << step;
      now = q.current_time();
    }
  }
  for (int tag = ref.pop(); tag >= 0; tag = ref.pop()) want.push_back(tag);
  while (q.run_one()) {
  }
  EXPECT_EQ(got, want);
  EXPECT_GT(want.size(), 5000u);
  EXPECT_EQ(q.slots_in_use(), 0u);
}

}  // namespace
}  // namespace cmap::sim
