// Per-address-space page table.
//
// The MIPS TLB has no hardware reference bits, so IRIX approximates reference
// information by periodically *invalidating* mappings: the next touch of an
// invalidated page takes a soft fault whose handler re-validates the mapping
// and thereby proves the page is live (Section 4.3). The PTE therefore keeps
// `resident` (a frame holds the data) separate from `valid` (a touch proceeds
// without faulting). Prefetched pages arrive resident-but-not-valid because
// prefetch completion deliberately skips TLB/PTE validation (Section 3.1.2).

#ifndef TMH_SRC_VM_PAGE_TABLE_H_
#define TMH_SRC_VM_PAGE_TABLE_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/vm/types.h"

namespace tmh {

// Why a resident page is currently invalid — determines the fault flavor
// charged when it is next touched.
enum class InvalidReason : uint8_t {
  kNone = 0,          // page is valid
  kFreshPrefetch,     // never validated since prefetch completion (cheap refill)
  kDaemonInvalidated, // paging daemon cleared it to sample the reference bit
  kReleasePending,    // a release request cleared it; re-touch cancels the release
  kMonitorSampled,    // access monitor cleared it to sample for an access
};

struct Pte {
  FrameId frame = kNoFrame;
  bool resident = false;
  bool valid = false;
  InvalidReason invalid_reason = InvalidReason::kNone;
  // True once the page has been written at least once; a never-written page is
  // zero-filled on first touch instead of paged in from swap.
  bool ever_materialized = false;
  // Slow-tier residency (memory-tiering extension). 0 = not held in a slow
  // tier; k > 0 = the page's contents live in slow tier k (1-based), in that
  // tier's frame `tier_frame`. A tiered page is never `resident`: promotion
  // back to DRAM goes through the normal fault path.
  uint8_t tier = 0;
  FrameId tier_frame = kNoFrame;
};

class PageTable {
 public:
  explicit PageTable(VPage num_pages) : ptes_(static_cast<size_t>(num_pages)) {}

  [[nodiscard]] VPage size() const { return static_cast<VPage>(ptes_.size()); }

  [[nodiscard]] Pte& at(VPage vpage) {
    assert(vpage >= 0 && vpage < size());
    return ptes_[static_cast<size_t>(vpage)];
  }
  [[nodiscard]] const Pte& at(VPage vpage) const {
    assert(vpage >= 0 && vpage < size());
    return ptes_[static_cast<size_t>(vpage)];
  }

  // All size() entries, contiguous, for whole-table scans.
  [[nodiscard]] const Pte* data() const { return ptes_.data(); }

  // Number of resident pages (the process's RSS in pages). Maintained by the
  // kernel on map/unmap, kept here for cheap Eq. 1 evaluation.
  [[nodiscard]] int64_t resident_count() const { return resident_count_; }
  void IncrementResident() { ++resident_count_; }
  void DecrementResident() {
    assert(resident_count_ > 0);
    --resident_count_;
  }

 private:
  std::vector<Pte> ptes_;
  int64_t resident_count_ = 0;
};

}  // namespace tmh

#endif  // TMH_SRC_VM_PAGE_TABLE_H_
