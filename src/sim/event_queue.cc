#include "src/sim/event_queue.h"

namespace tmh {

SimTime EventQueue::NextEventTime(SimTime fallback) const {
  if (level_mask_ == 0) {
    return fallback;
  }
  // Every bucket with its mask bit set holds a pending item, and each level's
  // keys all precede the next level's, so the earliest event is in the
  // lowest level's first bucket: at its head on level 0, else its minimum.
  const int level = __builtin_ctz(level_mask_);
  const Bucket& b = buckets_[level][FirstSlot(level)];
  if (level == 0) {
    return static_cast<SimTime>(b.items[b.head].key);
  }
  uint64_t min_key = b.items[0].key;
  for (const Item& it : b.items) {
    min_key = it.key < min_key ? it.key : min_key;
  }
  return static_cast<SimTime>(min_key);
}

}  // namespace tmh
