#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "sim/assert.h"

namespace cmap::sim {
namespace {
// Below this size a compaction scan costs more than the dead entries it
// could reclaim are worth.
constexpr std::size_t kCompactFloor = 64;
}  // namespace

EventId EventQueue::schedule_ranked(Time at, EventRank rank,
                                    std::function<void()> fn) {
  CMAP_ASSERT(at >= current_time_, "event scheduled into the past");
  maybe_compact();
  auto slot = static_cast<std::uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.cancelled = false;
  Entry e;
  e.at = at;
  e.cls = rank.cls;
  e.a = rank.a;
  e.b = rank.b;
  e.seq = next_seq_++;
  e.slot = slot;
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  if (heap_.size() > depth_high_water_) depth_high_water_ = heap_.size();
  return EventId(this, slot, s.generation);
}

std::function<void()> EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;
  ++s.generation;  // every id of the old event goes stale
  free_slots_.push_back(slot);
  return fn;
}

void EventQueue::maybe_compact() {
  // Amortized-O(1) trigger: only scan once the heap has doubled past its
  // size at the previous scan, and only rebuild when at least half the
  // entries are dead (so a rebuild at least halves the heap). Rebuilding
  // re-heapifies, which is safe because the comparator is a total order:
  // the pop sequence never depends on the heap's internal layout.
  if (heap_.size() < std::max(compact_watermark_ * 2, kCompactFloor)) return;
  const auto dead = static_cast<std::size_t>(std::count_if(
      heap_.begin(), heap_.end(),
      [this](const Entry& e) { return cancelled(e); }));
  if (dead * 2 >= heap_.size()) {
    std::size_t kept = 0;
    for (const Entry& e : heap_) {
      if (cancelled(e)) {
        release(e.slot);
      } else {
        heap_[kept++] = e;
      }
    }
    heap_.resize(kept);
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    ++compactions_;
  }
  compact_watermark_ = heap_.size();
}

void EventQueue::drop_cancelled_head() {
  while (!heap_.empty() && cancelled(heap_.front())) {
    release(heap_.front().slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

bool EventQueue::run_one() {
  drop_cancelled_head();
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  current_time_ = e.at;
  ++executed_;
  // Move the callable out before running it: the event may schedule more
  // events, which can reuse this slot or grow the slot array. Releasing
  // first also flips EventId::pending() for the running event.
  const std::function<void()> fn = release(e.slot);
  fn();
  return true;
}

Time EventQueue::next_time() {
  drop_cancelled_head();
  return heap_.empty() ? kTimeForever : heap_.front().at;
}

EventKey EventQueue::next_key() {
  drop_cancelled_head();
  if (heap_.empty()) return EventKey{kTimeForever, EventRank{}, 0};
  const Entry& e = heap_.front();
  return EventKey{e.at, EventRank{e.cls, e.a, e.b}, e.seq};
}

bool EventQueue::empty() {
  drop_cancelled_head();
  return heap_.empty();
}

}  // namespace cmap::sim
