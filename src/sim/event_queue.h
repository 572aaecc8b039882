// Deterministic discrete-event queue.
//
// The queue orders events by (time, schedule order) so that events scheduled
// for the same instant run in FIFO order. Every stateful component of the
// simulated machine (CPUs, disks, daemons) advances exclusively by posting
// events here; there is no wall-clock anywhere in the simulation.
//
// Hot-path design (the simulator's own throughput is bounded here):
//
//   * Actions are InlineCallable — no heap allocation for the small lambdas
//     the kernel and disks schedule by the tens of millions — and are
//     emplaced directly into their storage slot by the templated
//     ScheduleAt(), so scheduling never copies a capture buffer.
//
//   * Events live in a 64-ary radix timer wheel. Because ScheduleAt() only
//     accepts times >= Now(), the queue is *monotone*, which a comparison
//     heap cannot exploit but a radix structure can: an event is filed by the
//     highest base-64 digit in which its time differs from the wheel's
//     reference time (`cur_`), at the slot given by that digit. Buckets are
//     plain vectors appended in schedule order, so equal-time FIFO falls out
//     structurally — no sequence numbers, no comparisons. Push is O(1); pop
//     re-files the lowest nonempty bucket into lower levels when the
//     reference time advances, which touches each event at most
//     ceil(64/6) times over its whole lifetime (2-3 times in practice).
//     All bucket traffic is sequential, unlike a binary heap's random walks.
//
//   * There is no cancellation: no component of the simulated machine
//     withdraws an event once it is posted, so every wheel item is live and
//     dispatch needs no liveness check.
//
//   * Wheel items are 16 trivially-copyable bytes; the action body lives in
//     a chunked slot table whose chunks never move. Cascades therefore
//     shuffle raw PODs (memmove), and each action is constructed exactly once
//     (in its slot at schedule) and invoked in place.

#ifndef TMH_SRC_SIM_EVENT_QUEUE_H_
#define TMH_SRC_SIM_EVENT_QUEUE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/inline_callable.h"
#include "src/sim/time.h"

namespace tmh {

class EventQueue {
 public:
  using Action = InlineCallable;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Current simulated time. Advances only inside RunWhile().
  [[nodiscard]] SimTime Now() const { return now_; }

  // Schedules `action` to run at absolute time `when` (>= Now()). Accepts any
  // void() callable (constructed in place in its slot) or a prebuilt Action
  // (moved in).
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void ScheduleAt(SimTime when, F&& action);

  // Schedules `action` to run `delay` nanoseconds from now.
  template <typename F,
            typename = std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void ScheduleAfter(SimDuration delay, F&& action) {
    ScheduleAt(now_ + delay, std::forward<F>(action));
  }

  // Runs events in (time, schedule order) and calls `stop()` after each one,
  // returning as soon as it yields true, when the queue drains, or when
  // `max_events` have run (a safety cap against runaway self-rescheduling
  // loops). Returns the number executed. This is the only function that
  // invokes actions. The callable is a template parameter, so a cheap
  // predicate (e.g. a generation-counter compare) inlines into the dispatch
  // loop instead of costing a std::function call per event.
  template <typename Stop,
            typename = std::enable_if_t<std::is_invocable_r_v<bool, Stop&>>>
  uint64_t RunWhile(Stop&& stop, uint64_t max_events = UINT64_MAX);

  // Runs events until the queue drains or `max_events` have run.
  uint64_t RunToCompletion(uint64_t max_events = UINT64_MAX) {
    return RunWhile([] { return false; }, max_events);
  }

  // Time of the earliest pending event, or `fallback` if none. Also exact
  // when called from inside a running action.
  [[nodiscard]] SimTime NextEventTime(SimTime fallback) const;

  [[nodiscard]] uint64_t ExecutedCount() const { return executed_; }

 private:
  // Base-64 digits: 6 bits per level, 11 levels cover the full 63-bit time
  // range. In a steady-state simulation only the bottom 2-3 levels are hot.
  static constexpr int kDigitBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kDigitBits;
  static constexpr int kLevels = 11;

  // Wheel entry: 16 trivially-copyable bytes, so cascades and bucket growth
  // are memmoves. The action itself lives in the slot table, where it never
  // moves while the event is pending.
  struct Item {
    uint64_t key;   // absolute time
    uint32_t slot;  // slot-table index of the action
  };
  static_assert(std::is_trivially_copyable_v<Item> && sizeof(Item) == 16);

  // One pending event's action. Free slots form an intrusive LIFO through
  // next_free, so recycling a slot touches only this (already hot) cache
  // line: with the 24-byte action buffer the whole record is 48 bytes.
  struct Slot {
    Action action;
    uint32_t next_free = kNoFreeSlot;
  };

  // A bucket whose bit is set in slot_masks_ holds at least one pending item
  // at or after `head`: RunWhile clears a level-0 bucket the moment it takes
  // the last item, and cascades clear the buckets they empty.
  struct Bucket {
    std::vector<Item> items;
    // Pop cursor; nonzero only in level-0 buckets, which hold a single exact
    // time and drain FIFO without erasing from the front.
    size_t head = 0;
  };

  // Files `key` relative to `cur_`: level = highest differing base-64 digit,
  // slot = that digit of `key`.
  void Locate(uint64_t key, int* level, int* slot) const;

  // Lowest occupied slot of `level`.
  [[nodiscard]] int FirstSlot(int level) const {
    return __builtin_ctzll(slot_masks_[level]);
  }

  void Append(int level, int slot, Item item);
  void ClearBucket(int level, int slot);

  // Makes the earliest pending event the head of a level-0 bucket, advancing
  // `cur_` and cascading buckets as needed. Returns that bucket's slot, or -1
  // if the queue is empty. Only RunWhile calls it: advancing `cur_` past
  // Now() would break the monotonicity contract for later ScheduleAt() calls.
  int AdvanceToHead();

  // Allocates a slot (recycled or fresh) for one pending event.
  uint32_t AllocSlot();

  SimTime now_ = 0;
  uint64_t executed_ = 0;

  // Wheel reference time: cur_ <= every pending key, and cur_ <= now_ at
  // every public API boundary.
  uint64_t cur_ = 0;
  Bucket buckets_[kLevels][kSlotsPerLevel];
  uint64_t slot_masks_[kLevels] = {};  // nonempty-slot bitmap per level
  uint32_t level_mask_ = 0;            // nonempty-level bitmap

  // Slot table: fixed-size chunks that are never reallocated, so a Slot&
  // stays valid across ScheduleAt() calls made from inside a running action
  // (which lets RunWhile() invoke in place instead of moving the action out).
  static constexpr uint32_t kSlotChunkShift = 9;
  static constexpr uint32_t kSlotChunkSize = 1u << kSlotChunkShift;

  [[nodiscard]] Slot& SlotAt(uint32_t slot) {
    return slot_chunks_[slot >> kSlotChunkShift][slot & (kSlotChunkSize - 1)];
  }

  static constexpr uint32_t kNoFreeSlot = UINT32_MAX;

  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  uint32_t next_slot_ = 0;  // slots ever allocated
  uint32_t slot_cap_ = 0;   // next_slot_ == slot_cap_ => grow a chunk
  uint32_t free_head_ = kNoFreeSlot;  // intrusive free-slot LIFO
};

// ---------------------------------------------------------------------------
// Hot path, defined inline: ScheduleAt/RunWhile and their helpers sit inside
// the simulator's innermost loops, and keeping them visible to callers is
// worth several ns/event. The peek stays out of line in event_queue.cc.

inline void EventQueue::Locate(uint64_t key, int* level, int* slot) const {
  assert(key >= cur_);
  const uint64_t diff = key ^ cur_;
  if (diff == 0) {
    *level = 0;
    *slot = static_cast<int>(key & (kSlotsPerLevel - 1));
    return;
  }
  const int l = (63 - __builtin_clzll(diff)) / kDigitBits;
  *level = l;
  *slot = static_cast<int>((key >> (l * kDigitBits)) & (kSlotsPerLevel - 1));
}

inline void EventQueue::Append(int level, int slot, Item item) {
  buckets_[level][slot].items.push_back(item);
  slot_masks_[level] |= 1ULL << slot;
  level_mask_ |= 1U << level;
}

inline void EventQueue::ClearBucket(int level, int slot) {
  Bucket& b = buckets_[level][slot];
  b.items.clear();
  b.head = 0;
  slot_masks_[level] &= ~(1ULL << slot);
  if (slot_masks_[level] == 0) {
    level_mask_ &= ~(1U << level);
  }
}

inline int EventQueue::AdvanceToHead() {
  while (level_mask_ != 0) {
    const int level = __builtin_ctz(level_mask_);
    const int slot = FirstSlot(level);
    if (level == 0) {
      return slot;
    }
    // Cascade: advance the reference time to this bucket's earliest key and
    // re-file its items, which all land in levels below `level`. The loop over
    // items is stable, so equal-time items keep their schedule order.
    Bucket& b = buckets_[level][slot];
    uint64_t min_key = b.items[0].key;
    for (const Item& it : b.items) {
      min_key = it.key < min_key ? it.key : min_key;
    }
    cur_ = min_key;
    for (const Item& it : b.items) {
      int l, s;
      Locate(it.key, &l, &s);
      assert(l < level);
      if (l == 0) {
        // This item dispatches within the next ~64 events; start pulling its
        // slot line (the action) toward the cache now.
        __builtin_prefetch(&SlotAt(it.slot));
      }
      Append(l, s, it);
    }
    ClearBucket(level, slot);
  }
  return -1;
}

inline uint32_t EventQueue::AllocSlot() {
  const uint32_t slot = free_head_;
  if (slot != kNoFreeSlot) {
    free_head_ = SlotAt(slot).next_free;
    return slot;
  }
  const uint32_t fresh = next_slot_++;
  if (fresh == slot_cap_) {
    slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunkSize));
    slot_cap_ += kSlotChunkSize;
  }
  return fresh;
}

template <typename F, typename>
void EventQueue::ScheduleAt(SimTime when, F&& action) {
  assert(when >= now_ && "cannot schedule events in the simulated past");
  if (when < now_) {
    when = now_;
  }
  const uint32_t action_slot = AllocSlot();
  Slot& rec = SlotAt(action_slot);
  if constexpr (std::is_same_v<std::decay_t<F>, Action>) {
    rec.action = std::forward<F>(action);
  } else {
    rec.action.Emplace(std::forward<F>(action));
  }
  int level, slot;
  Locate(static_cast<uint64_t>(when), &level, &slot);
  Append(level, slot, Item{static_cast<uint64_t>(when), action_slot});
}

template <typename Stop, typename>
uint64_t EventQueue::RunWhile(Stop&& stop, uint64_t max_events) {
  // Drains level-0 buckets whole: a level-0 bucket holds a single exact time,
  // so once AdvanceToHead() lands on one, every item in it (including
  // same-time items the running actions append) dispatches back-to-back
  // without re-scanning the wheel masks. The bucket is cleared as soon as its
  // last item is taken, before that item's action runs; same-time events the
  // action schedules then refill it from index 0 and run in this same pass.
  // Items are re-indexed each pass because an action may grow the bucket's
  // vector; the bucket object itself never moves.
  uint64_t count = 0;
  while (count < max_events) {
    const int slot = AdvanceToHead();
    if (slot < 0) {
      break;
    }
    Bucket& b = buckets_[0][slot];
    assert(static_cast<SimTime>(b.items[b.head].key) >= now_);
    now_ = static_cast<SimTime>(b.items[b.head].key);
    while (b.head < b.items.size() && count < max_events) {
      const Item item = b.items[b.head];
      if (++b.head == b.items.size()) {
        ClearBucket(0, slot);
      } else {
        // Hide the slot-table miss of the next dispatch behind this action.
        __builtin_prefetch(&SlotAt(b.items[b.head].slot));
      }
      // Slot chunks never move, so `rec` stays valid across the ScheduleAt()
      // calls the action makes, and the action runs in place. The slot joins
      // the free list only after the action returns, so those calls cannot
      // reuse (and overwrite) the slot being executed.
      Slot& rec = SlotAt(item.slot);
      ++executed_;
      rec.action();
      rec.action.Reset();
      rec.next_free = free_head_;
      free_head_ = item.slot;
      ++count;
      if (stop()) {
        return count;
      }
    }
  }
  return count;
}

}  // namespace tmh

#endif  // TMH_SRC_SIM_EVENT_QUEUE_H_
