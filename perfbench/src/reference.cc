#include "perfbench/src/reference.h"

#include <utility>

#include "perfbench/src/timing.h"

namespace tmh::perfbench {

namespace {

constexpr size_t kRingEntries = (64 * 1024) / sizeof(uint32_t);
constexpr size_t kCodeLength = 4096;
constexpr size_t kTableEntries = (256 * 1024) / sizeof(uint64_t);
constexpr int kMultiplySteps = 50'000;
constexpr int kChaseSteps = 50'000;
constexpr int kDispatchSteps = 25'000;

uint64_t Lcg(uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

}  // namespace

ReferenceLoop::ReferenceLoop()
    : ring_(kRingEntries), code_(kCodeLength), table_(kTableEntries) {
  // One cycle through every entry, in a fixed shuffled order.
  std::vector<uint32_t> order(kRingEntries);
  for (size_t i = 0; i < kRingEntries; ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  uint64_t state = 1;
  for (size_t i = kRingEntries - 1; i > 1; --i) {
    std::swap(order[i], order[1 + Lcg(state) % i]);
  }
  for (size_t i = 0; i < kRingEntries; ++i) {
    ring_[order[i]] = order[(i + 1) % kRingEntries];
  }
  for (uint8_t& op : code_) {
    op = static_cast<uint8_t>(Lcg(state) % 8);
  }
  for (uint64_t& v : table_) {
    v = Lcg(state);
  }
}

double ReferenceLoop::TimePass() {
  // Warm the buffers with a linear sweep (prefetch-friendly, so cheap).
  uint64_t warm = 0;
  for (const uint32_t v : ring_) {
    warm += v;
  }
  for (const uint64_t v : table_) {
    warm += v;
  }
  const int64_t t0 = NowNs();
  uint64_t acc = warm | 1;
  for (int i = 0; i < kMultiplySteps; ++i) {
    acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    acc ^= acc >> 13;
  }
  uint32_t next = 0;
  for (int i = 0; i < kChaseSteps; ++i) {
    next = ring_[next];
  }
  acc += next;
  constexpr uint64_t kMask = kTableEntries - 1;
  size_t pc = 0;
  for (int i = 0; i < kDispatchSteps; ++i) {
    switch (code_[pc]) {
      case 0:
        acc += table_[acc & kMask];
        break;
      case 1:
        acc ^= acc << 7;
        break;
      case 2:
        acc -= table_[(acc >> 3) & kMask] >> 1;
        break;
      case 3:
        if ((acc & 1) != 0) {
          pc += 3;
        }
        break;
      case 4:
        acc *= 0x9e3779b97f4a7c15ULL;
        break;
      case 5:
        acc += pc;
        break;
      case 6:
        if (((acc >> 5) & 1) != 0) {
          pc += 17;
        }
        break;
      default:
        acc ^= acc >> 11;
        break;
    }
    pc = (pc + 1) & (kCodeLength - 1);
  }
  const int64_t t1 = NowNs();
  sink_ = acc;
  return static_cast<double>(t1 - t0) * 1e-9;
}

}  // namespace tmh::perfbench
