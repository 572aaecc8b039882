// Residency bitmap shared between the OS and an application.
//
// Models the 16 KB shared page of the PagingDirected policy module
// (Section 3.1.1): a bitmap indexed by virtual page number whose bits the OS
// sets when a physical page is allocated for the virtual page and clears when
// the page is reclaimed, plus two header words — the current number of pages
// in use and the recommended upper limit. The header words are updated lazily,
// only when the process experiences memory-system activity.

#ifndef TMH_SRC_VM_RESIDENCY_BITMAP_H_
#define TMH_SRC_VM_RESIDENCY_BITMAP_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/vm/types.h"

namespace tmh {

class ResidencyBitmap {
 public:
  explicit ResidencyBitmap(VPage num_pages)
      : bits_((static_cast<size_t>(num_pages) + 63) / 64, 0),
        num_pages_(num_pages) {}

  [[nodiscard]] VPage size() const { return num_pages_; }

  void Set(VPage vpage) {
    assert(InRange(vpage));
    bits_[Word(vpage)] |= Mask(vpage);
  }

  void Clear(VPage vpage) {
    assert(InRange(vpage));
    bits_[Word(vpage)] &= ~Mask(vpage);
  }

  [[nodiscard]] bool Test(VPage vpage) const {
    assert(InRange(vpage));
    return (bits_[Word(vpage)] & Mask(vpage)) != 0;
  }

  void SetAll() {
    for (auto& w : bits_) {
      w = ~0ULL;
    }
    MaskTail();
  }

  // Word-wise range ops: one masked store for each partial edge word and
  // whole-word stores in between, instead of a bit-by-bit loop.
  void ClearRange(VPage first, VPage count) { ApplyRange<false>(first, count); }
  void SetRange(VPage first, VPage count) { ApplyRange<true>(first, count); }

  // First resident page in [first, first + count), or -1 if none. Scans a
  // word at a time with ctz on the first nonzero word.
  [[nodiscard]] VPage FindFirstResident(VPage first, VPage count) const {
    if (count <= 0) {
      return -1;
    }
    assert(InRange(first) && InRange(first + count - 1));
    const size_t w0 = Word(first);
    const size_t w1 = Word(first + count - 1);
    uint64_t w = bits_[w0] & (~0ULL << (static_cast<uint64_t>(first) % 64));
    for (size_t i = w0; i <= w1; w = (++i <= w1) ? bits_[i] : 0) {
      if (i == w1) {
        w &= LowMask(static_cast<uint64_t>(first + count) - i * 64);
      }
      if (w != 0) {
        const VPage page = static_cast<VPage>(i * 64 + static_cast<size_t>(__builtin_ctzll(w)));
        return page;
      }
    }
    return -1;
  }

  // Number of resident pages in [first, first + count).
  [[nodiscard]] int64_t CountRange(VPage first, VPage count) const {
    if (count <= 0) {
      return 0;
    }
    assert(InRange(first) && InRange(first + count - 1));
    const size_t w0 = Word(first);
    const size_t w1 = Word(first + count - 1);
    int64_t n = 0;
    for (size_t i = w0; i <= w1; ++i) {
      uint64_t w = bits_[i];
      if (i == w0) {
        w &= ~0ULL << (static_cast<uint64_t>(first) % 64);
      }
      if (i == w1) {
        w &= LowMask(static_cast<uint64_t>(first + count) - i * 64);
      }
      n += __builtin_popcountll(w);
    }
    return n;
  }

  [[nodiscard]] int64_t PopCount() const {
    int64_t n = 0;
    for (uint64_t w : bits_) {
      n += __builtin_popcountll(w);
    }
    return n;
  }

  // Word view (64 pages per word) for word-parallel scans. Bits at positions
  // >= size() in the last word are zero while range ops stay inside the
  // bitmap, as they assert.
  [[nodiscard]] const uint64_t* words() const { return bits_.data(); }

  // Header words of the shared page (Section 3.1.1). The OS writes them; the
  // run-time layer reads them. Values may be stale between memory activity.
  [[nodiscard]] int64_t current_usage() const { return current_usage_; }
  [[nodiscard]] int64_t upper_limit() const { return upper_limit_; }
  void SetHeader(int64_t current_usage, int64_t upper_limit) {
    current_usage_ = current_usage;
    upper_limit_ = upper_limit;
  }

 private:
  [[nodiscard]] bool InRange(VPage vpage) const { return vpage >= 0 && vpage < num_pages_; }
  static size_t Word(VPage vpage) { return static_cast<size_t>(vpage) / 64; }
  static uint64_t Mask(VPage vpage) { return 1ULL << (static_cast<uint64_t>(vpage) % 64); }

  // Mask with the low `n` bits set, for n in [1, 64].
  static uint64_t LowMask(uint64_t n) { return (n >= 64) ? ~0ULL : (1ULL << n) - 1; }

  template <bool kSet>
  void ApplyRange(VPage first, VPage count) {
    if (count <= 0) {
      return;
    }
    assert(InRange(first) && InRange(first + count - 1));
    const size_t w0 = Word(first);
    const size_t w1 = Word(first + count - 1);
    uint64_t head = ~0ULL << (static_cast<uint64_t>(first) % 64);
    const uint64_t tail = LowMask(static_cast<uint64_t>(first + count) - w1 * 64);
    if (w0 == w1) {
      head &= tail;
      if constexpr (kSet) {
        bits_[w0] |= head;
      } else {
        bits_[w0] &= ~head;
      }
      return;
    }
    if constexpr (kSet) {
      bits_[w0] |= head;
      for (size_t i = w0 + 1; i < w1; ++i) {
        bits_[i] = ~0ULL;
      }
      bits_[w1] |= tail;
    } else {
      bits_[w0] &= ~head;
      for (size_t i = w0 + 1; i < w1; ++i) {
        bits_[i] = 0;
      }
      bits_[w1] &= ~tail;
    }
  }

  // Clears bits beyond num_pages_ in the last word so PopCount() and word
  // scans never see phantom pages.
  void MaskTail() {
    const uint64_t used = static_cast<uint64_t>(num_pages_) % 64;
    if (used != 0 && !bits_.empty()) {
      bits_.back() &= LowMask(used);
    }
  }

  std::vector<uint64_t> bits_;
  VPage num_pages_;
  int64_t current_usage_ = 0;
  int64_t upper_limit_ = 0;
};

}  // namespace tmh

#endif  // TMH_SRC_VM_RESIDENCY_BITMAP_H_
