// Reuse and locality analysis (Section 3.2).
//
// Mirrors the structure of the SUIF pass the paper describes:
//   1. *Reuse analysis* finds the intrinsic temporal reuse of each reference
//      (loops whose induction variable the subscript does not depend on) and
//      its spatial stride in the innermost loop.
//   2. *Group locality* clusters references to the same array that differ only
//      by a constant; the leading reference receives the prefetch, the
//      trailing reference receives the release.
//   3. *Locality analysis* uses the page size and the assumed memory size to
//      decide whether a temporal reuse is exploitable: if the volume of data
//      touched between reuses exceeds the expected available memory, the page
//      is unlikely to survive, so a release is inserted anyway — carrying the
//      Eq. 2 priority that lets the run-time layer retain the pages with the
//      earliest reuse.
//
// Indirect references (a[b[i]]) may be prefetched but are never released,
// since the compiler cannot reason statically about their reuse.

#ifndef TMH_SRC_COMPILER_ANALYSIS_H_
#define TMH_SRC_COMPILER_ANALYSIS_H_

#include <cstdint>
#include <vector>

#include "src/compiler/ir.h"
#include "src/sim/time.h"

namespace tmh {

// Parameters given to the compiler to describe the target system (Sec. 3.2):
// "the size of main memory, the page size, and the page fault latency."
struct CompilerTarget {
  int64_t page_size = 16 * 1024;
  int64_t memory_bytes = 75ll * 1024 * 1024;  // assumed available memory
  SimDuration fault_latency = 9 * kMsec;
};

// Cap on the software-pipelining prefetch distance, in pages (affine refs)
// or iterations (indirect refs).
inline constexpr int64_t kMaxPrefetchDistance = 64;

// Per-reference analysis result.
struct RefReuse {
  // Loop depths (outermost = 0) in which the compiler believes the reference
  // has temporal reuse. For FFTPDE-style deception this includes loops the
  // reference does not actually reuse across.
  std::vector<int> temporal_loops;
  bool indirect = false;
  // Byte stride per innermost-loop iteration (0 = invariant in that loop).
  int64_t innermost_byte_stride = 0;
  // Group locality.
  int group = -1;
  bool is_group_leader = false;
  bool is_group_trailer = false;
  // True if the deepest temporal reuse fits in the assumed memory, i.e. the
  // data survives between reuses and neither prefetch nor release is needed.
  bool exploitable_temporal = false;
  // Eq. 2: priority(x) = sum over temporal loops i of 2^depth(i).
  int32_t priority = 0;
  // Hint-insertion decisions.
  bool needs_prefetch = false;
  bool needs_release = false;
};

struct NestAnalysis {
  std::vector<RefReuse> refs;
  int num_groups = 0;
  bool bounds_known = true;  // every loop bound usable at compile time
  // Pages of data one full execution of the nest touches (+inf-ish when
  // bounds are unknown); used for reports.
  int64_t footprint_pages = 0;
};

// Analyzes one nest. `program` supplies array metadata.
NestAnalysis AnalyzeNest(const SourceProgram& program, const LoopNest& nest,
                         const ArrayLayout& layout, const CompilerTarget& target);

// Eq. 2 priority over a set of temporal-reuse loop depths.
int32_t ReusePriority(const std::vector<int>& temporal_loops);

// Pages touched by `ref` while the loops at depth >= `from_depth` run once
// (approximate footprint). Returns a large sentinel when a needed bound is
// unknown (conservative: the compiler assumes the data will not fit).
int64_t FootprintPages(const SourceProgram& program, const LoopNest& nest, const ArrayRef& ref,
                       int from_depth, const ArrayLayout& layout);

inline constexpr int64_t kUnknownFootprint = INT64_MAX / 4;

}  // namespace tmh

#endif  // TMH_SRC_COMPILER_ANALYSIS_H_
