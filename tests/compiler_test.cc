// Tests for the compiler: IR layout, reuse analysis, group locality, locality
// (exploitability) analysis, Eq. 2 priorities, and hint insertion.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/compiler/analysis.h"
#include "src/compiler/compile.h"
#include "src/compiler/ir.h"

namespace tmh {
namespace {

constexpr int64_t kPage = 16 * 1024;

CompilerTarget SmallTarget(int64_t memory_pages = 64) {
  CompilerTarget target;
  target.page_size = kPage;
  target.memory_bytes = memory_pages * kPage;
  target.fault_latency = 10 * kMsec;
  return target;
}

// A 2-deep nest over arrays A[m][n] (streaming) and x[n] (reused across i).
SourceProgram MatvecLike(int64_t m, int64_t n) {
  SourceProgram p;
  p.name = "matveclike";
  p.arrays = {{"A", 8, m * n, true, nullptr}, {"x", 8, n, true, nullptr}};
  LoopNest nest;
  nest.loops = {Loop{"i", 0, m, 1, true}, Loop{"j", 0, n, 1, true}};
  ArrayRef a;
  a.array = 0;
  a.affine.coeffs = {n, 1};
  ArrayRef x;
  x.array = 1;
  x.affine.coeffs = {0, 1};
  nest.refs = {a, x};
  nest.compute_per_iteration = 100 * kNsec;
  p.nests.push_back(nest);
  return p;
}

TEST(ArrayLayoutTest, ArraysArePageAlignedAndDisjoint) {
  SourceProgram p;
  p.arrays = {{"a", 8, 3000, false, nullptr},   // 24000 B -> 2 pages
              {"b", 4, 100, false, nullptr},    // 400 B   -> 1 page
              {"c", 16, 2048, false, nullptr}}; // 32768 B -> 2 pages
  ArrayLayout layout(p, kPage);
  EXPECT_EQ(layout.base_page(0), 0);
  EXPECT_EQ(layout.PageCount(0), 2);
  EXPECT_EQ(layout.base_page(1), 2);
  EXPECT_EQ(layout.PageCount(1), 1);
  EXPECT_EQ(layout.base_page(2), 3);
  EXPECT_EQ(layout.PageCount(2), 2);
  EXPECT_EQ(layout.total_pages(), 5);
}

TEST(ArrayLayoutTest, PageOfMapsElementsToPages) {
  SourceProgram p;
  p.arrays = {{"a", 8, 10000, false, nullptr}};
  ArrayLayout layout(p, kPage);
  EXPECT_EQ(layout.PageOf(0, 0), 0);
  EXPECT_EQ(layout.PageOf(0, 2047), 0);  // 2048 8-byte elements per page
  EXPECT_EQ(layout.PageOf(0, 2048), 1);
  EXPECT_EQ(layout.ElementsPerPage(0), 2048);
}

TEST(ArrayLayoutTest, PageOfHoldsForEveryPageSizeInUse) {
  SourceProgram p;
  p.arrays = {{"a", 24, 10000, false, nullptr}};  // 24-byte elements straddle pages
  for (const int64_t page_size : {4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024}) {
    ArrayLayout layout(p, page_size);
    EXPECT_EQ(int64_t{1} << layout.page_shift(), page_size);
    for (const int64_t element : {0, 1, 170, 171, 682, 683, 9999}) {
      EXPECT_EQ(layout.PageOf(0, element), element * 24 / page_size) << page_size;
    }
  }
}

// The layout maps elements to pages with a shift, so a page size that is not
// a power of two would silently misplace them; it must stop the run in every
// build, assertions compiled out or not.
TEST(ArrayLayoutDeathTest, RejectsPageSizeThatIsNotAPowerOfTwo) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SourceProgram p;
  p.arrays = {{"a", 8, 10000, false, nullptr}};
  EXPECT_DEATH(ArrayLayout(p, 12 * 1024), "page size 12288 bytes is not a power of two");
  EXPECT_DEATH(ArrayLayout(p, 0), "page size 0 bytes is not a power of two");
}

TEST(AffineExprTest, EvaluatesConstantPlusCoeffs) {
  AffineExpr e;
  e.constant = 5;
  e.coeffs = {10, 1};
  EXPECT_EQ(e.Eval({3, 7}), 5 + 30 + 7);
  EXPECT_EQ(e.Eval({0, 0}), 5);
}

TEST(ReusePriorityTest, FollowsEquationTwo) {
  // priority(x) = sum over temporal loops i of 2^depth(i)
  EXPECT_EQ(ReusePriority({}), 0);
  EXPECT_EQ(ReusePriority({0}), 1);
  EXPECT_EQ(ReusePriority({1}), 2);
  EXPECT_EQ(ReusePriority({2}), 4);
  EXPECT_EQ(ReusePriority({0, 1}), 3);
  EXPECT_EQ(ReusePriority({0, 2}), 5);
}

TEST(AnalysisTest, DetectsTemporalReuseLoops) {
  SourceProgram p = MatvecLike(8, 4096);
  ArrayLayout layout(p, kPage);
  const NestAnalysis analysis = AnalyzeNest(p, p.nests[0], layout, SmallTarget());
  EXPECT_TRUE(analysis.refs[0].temporal_loops.empty());      // A streams
  EXPECT_EQ(analysis.refs[1].temporal_loops, std::vector<int>{0});  // x reused over i
  EXPECT_EQ(analysis.refs[1].priority, 1);
}

TEST(AnalysisTest, SmallReuseVolumeIsExploitable) {
  // Row + x = 2 * 4096 * 8 B = 4 pages; memory = 64 pages: reuse survives.
  SourceProgram p = MatvecLike(8, 4096);
  ArrayLayout layout(p, kPage);
  const NestAnalysis analysis = AnalyzeNest(p, p.nests[0], layout, SmallTarget(64));
  EXPECT_TRUE(analysis.refs[1].exploitable_temporal);
  EXPECT_FALSE(analysis.refs[1].needs_release);   // data survives in memory
  EXPECT_FALSE(analysis.refs[1].needs_prefetch);  // and stays there
}

TEST(AnalysisTest, LargeReuseVolumeForcesRelease) {
  // Row + x = 2 * 256K * 8 B = 256 pages > 64-page memory: release anyway,
  // carrying the Eq. 2 priority.
  SourceProgram p = MatvecLike(8, 256 * 1024);
  ArrayLayout layout(p, kPage);
  const NestAnalysis analysis = AnalyzeNest(p, p.nests[0], layout, SmallTarget(64));
  EXPECT_FALSE(analysis.refs[1].exploitable_temporal);
  EXPECT_TRUE(analysis.refs[1].needs_release);
  EXPECT_EQ(analysis.refs[1].priority, 1);
  EXPECT_TRUE(analysis.refs[0].needs_release);  // streaming ref released too
  EXPECT_EQ(analysis.refs[0].priority, 0);
}

TEST(AnalysisTest, UnknownBoundsAssumeSmallestWorkingSet) {
  // "It is preferable to assume that only the smallest working set will fit."
  SourceProgram p = MatvecLike(8, 4096);
  p.nests[0].loops[1].upper_known = false;
  ArrayLayout layout(p, kPage);
  const NestAnalysis analysis = AnalyzeNest(p, p.nests[0], layout, SmallTarget(64));
  EXPECT_FALSE(analysis.bounds_known);
  EXPECT_FALSE(analysis.refs[1].exploitable_temporal);
  EXPECT_TRUE(analysis.refs[1].needs_release);
}

TEST(AnalysisTest, IndirectRefsPrefetchButNeverRelease) {
  SourceProgram p;
  p.arrays = {{"a", 8, 100000, true, nullptr},
              {"b", 4, 100000, true, std::make_shared<std::vector<int64_t>>(
                                          std::vector<int64_t>{1, 2, 3})}};
  LoopNest nest;
  nest.loops = {Loop{"i", 0, 100000, 1, true}};
  ArrayRef indirect;
  indirect.array = 0;
  indirect.index_array = 1;
  indirect.affine.coeffs = {1};
  ArrayRef idx;
  idx.array = 1;
  idx.affine.coeffs = {1};
  nest.refs = {indirect, idx};
  p.nests.push_back(nest);
  ArrayLayout layout(p, kPage);
  const NestAnalysis analysis = AnalyzeNest(p, p.nests[0], layout, SmallTarget());
  EXPECT_TRUE(analysis.refs[0].indirect);
  EXPECT_TRUE(analysis.refs[0].needs_prefetch);
  EXPECT_FALSE(analysis.refs[0].needs_release);  // "too hard to predict reuse"
  EXPECT_TRUE(analysis.refs[1].needs_release);   // the index array itself streams
}

TEST(AnalysisTest, GroupLocalityPicksLeaderAndTrailer) {
  // Stencil a[i-1], a[i], a[i+1]: one group, leader a[i+1], trailer a[i-1].
  SourceProgram p;
  p.arrays = {{"a", 8, 1 << 20, true, nullptr}};
  LoopNest nest;
  nest.loops = {Loop{"i", 1, (1 << 20) - 1, 1, true}};
  for (int64_t c : {-1, 0, 1}) {
    ArrayRef ref;
    ref.array = 0;
    ref.affine.coeffs = {1};
    ref.affine.constant = c;
    nest.refs.push_back(ref);
  }
  p.nests.push_back(nest);
  ArrayLayout layout(p, kPage);
  const NestAnalysis analysis = AnalyzeNest(p, p.nests[0], layout, SmallTarget());
  EXPECT_EQ(analysis.num_groups, 1);
  EXPECT_EQ(analysis.refs[0].group, analysis.refs[2].group);
  EXPECT_TRUE(analysis.refs[2].is_group_leader);   // +1 touches data first
  EXPECT_TRUE(analysis.refs[0].is_group_trailer);  // -1 touches it last
  EXPECT_FALSE(analysis.refs[1].is_group_leader);
  EXPECT_TRUE(analysis.refs[2].needs_prefetch);
  EXPECT_TRUE(analysis.refs[0].needs_release);
  EXPECT_FALSE(analysis.refs[1].needs_release);
}

TEST(AnalysisTest, DescendingTraversalFlipsLeaderAndTrailer) {
  SourceProgram p;
  p.arrays = {{"a", 8, 1 << 20, true, nullptr}};
  LoopNest nest;
  nest.loops = {Loop{"i", 1, (1 << 20) - 1, 1, true}};
  for (int64_t c : {-1, 1}) {
    ArrayRef ref;
    ref.array = 0;
    ref.affine.coeffs = {-1};  // descending sweep
    ref.affine.constant = c;
    nest.refs.push_back(ref);
  }
  p.nests.push_back(nest);
  ArrayLayout layout(p, kPage);
  const NestAnalysis analysis = AnalyzeNest(p, p.nests[0], layout, SmallTarget());
  EXPECT_TRUE(analysis.refs[0].is_group_leader);   // -1 leads when descending
  EXPECT_TRUE(analysis.refs[1].is_group_trailer);
}

TEST(AnalysisTest, DistantConstantsSplitIntoSeparateGroups) {
  // Two refs a[i] and a[i + BIG] are independent streams, not one group.
  SourceProgram p;
  p.arrays = {{"a", 8, 1 << 22, true, nullptr}};
  LoopNest nest;
  nest.loops = {Loop{"i", 0, 1 << 20, 1, true}};
  for (int64_t c : {0, 1 << 21}) {
    ArrayRef ref;
    ref.array = 0;
    ref.affine.coeffs = {1};
    ref.affine.constant = c;
    nest.refs.push_back(ref);
  }
  p.nests.push_back(nest);
  ArrayLayout layout(p, kPage);
  const NestAnalysis analysis = AnalyzeNest(p, p.nests[0], layout, SmallTarget());
  EXPECT_EQ(analysis.num_groups, 2);
  EXPECT_TRUE(analysis.refs[0].is_group_leader);
  EXPECT_TRUE(analysis.refs[0].is_group_trailer);
  EXPECT_TRUE(analysis.refs[1].needs_prefetch);
  EXPECT_TRUE(analysis.refs[0].needs_prefetch);
}

TEST(AnalysisTest, ReleaseAnalyzableFlagSuppressesReleases) {
  SourceProgram p = MatvecLike(8, 256 * 1024);
  p.nests[0].refs[0].release_analyzable = false;
  ArrayLayout layout(p, kPage);
  const NestAnalysis analysis = AnalyzeNest(p, p.nests[0], layout, SmallTarget(64));
  EXPECT_FALSE(analysis.refs[0].needs_release);
  EXPECT_TRUE(analysis.refs[0].needs_prefetch);  // prefetching unaffected
}

TEST(FootprintTest, StreamingRefFootprintMatchesSpan) {
  SourceProgram p = MatvecLike(8, 256 * 1024);
  ArrayLayout layout(p, kPage);
  // x over the j loop alone: 256K elements * 8 B = 2 MB = 128 pages.
  const int64_t fp = FootprintPages(p, p.nests[0], p.nests[0].refs[1], 1, layout);
  EXPECT_GE(fp, 128);
  EXPECT_LE(fp, 130);
}

TEST(FootprintTest, UnknownBoundIsConservative) {
  SourceProgram p = MatvecLike(8, 256 * 1024);
  p.nests[0].loops[1].upper_known = false;
  ArrayLayout layout(p, kPage);
  EXPECT_EQ(FootprintPages(p, p.nests[0], p.nests[0].refs[1], 1, layout), kUnknownFootprint);
}

TEST(FootprintTest, InvariantRefTouchesOnePage) {
  SourceProgram p = MatvecLike(8, 4096);
  ArrayLayout layout(p, kPage);
  // x from depth 2 (inside everything): single position.
  EXPECT_EQ(FootprintPages(p, p.nests[0], p.nests[0].refs[1], 2, layout), 1);
}

// --- Compile (hint insertion) --------------------------------------------------

TEST(CompileTest, OriginalVersionHasNoDirectives) {
  const SourceProgram p = MatvecLike(8, 256 * 1024);
  const CompiledProgram compiled =
      Compile(p, SmallTarget(64), CompileOptions{false, false});
  EXPECT_TRUE(compiled.nests[0].directives.empty());
  EXPECT_EQ(compiled.stats.prefetch_directives, 0);
  EXPECT_EQ(compiled.stats.release_directives, 0);
}

TEST(CompileTest, PrefetchOnlyVersionOmitsReleases) {
  const SourceProgram p = MatvecLike(8, 256 * 1024);
  const CompiledProgram compiled =
      Compile(p, SmallTarget(64), CompileOptions{true, false});
  EXPECT_GT(compiled.stats.prefetch_directives, 0);
  EXPECT_EQ(compiled.stats.release_directives, 0);
}

TEST(CompileTest, ReleaseVersionEmitsBothKinds) {
  const SourceProgram p = MatvecLike(8, 256 * 1024);
  const CompiledProgram compiled = Compile(p, SmallTarget(64), CompileOptions{true, true});
  EXPECT_EQ(compiled.stats.prefetch_directives, 2);  // A and x
  EXPECT_EQ(compiled.stats.release_directives, 2);
  EXPECT_EQ(compiled.stats.release_directives_with_reuse, 1);  // x carries priority 1
}

TEST(CompileTest, TagsAreUniqueAcrossDirectives) {
  const SourceProgram p = MatvecLike(8, 256 * 1024);
  const CompiledProgram compiled = Compile(p, SmallTarget(64), CompileOptions{true, true});
  std::set<int32_t> tags;
  for (const CompiledNest& nest : compiled.nests) {
    for (const HintDirective& d : nest.directives) {
      EXPECT_TRUE(tags.insert(d.tag).second) << "duplicate tag " << d.tag;
    }
  }
}

TEST(CompileTest, PrefetchDistanceCoversFaultLatency) {
  const SourceProgram p = MatvecLike(8, 256 * 1024);
  CompilerTarget target = SmallTarget(64);
  const CompiledProgram compiled = Compile(p, target, CompileOptions{true, false});
  for (const HintDirective& d : compiled.nests[0].directives) {
    // One page = 2048 iterations * 100 ns = 204.8 us; latency 10 ms => ~49.
    EXPECT_GE(d.distance, 40);
    EXPECT_LE(d.distance, kMaxPrefetchDistance);
  }
}

TEST(CompileTest, SlowerComputeShortensPrefetchDistance) {
  SourceProgram p = MatvecLike(8, 256 * 1024);
  p.nests[0].compute_per_iteration = 10 * kUsec;  // 20 ms per page
  const CompiledProgram compiled = Compile(p, SmallTarget(64), CompileOptions{true, false});
  for (const HintDirective& d : compiled.nests[0].directives) {
    EXPECT_EQ(d.distance, 1);
  }
}

TEST(CompileTest, UnknownBoundsForceEveryIterationEvaluation) {
  SourceProgram p = MatvecLike(8, 256 * 1024);
  p.nests[0].loops[0].upper_known = false;
  const CompiledProgram compiled = Compile(p, SmallTarget(64), CompileOptions{true, true});
  for (const HintDirective& d : compiled.nests[0].directives) {
    EXPECT_TRUE(d.every_iteration);
  }
  EXPECT_EQ(compiled.stats.nests_with_unknown_bounds, 1);
}

TEST(CompileTest, KnownBoundsStripMineToPageCrossings) {
  const SourceProgram p = MatvecLike(8, 256 * 1024);
  const CompiledProgram compiled = Compile(p, SmallTarget(64), CompileOptions{true, true});
  for (const HintDirective& d : compiled.nests[0].directives) {
    EXPECT_FALSE(d.every_iteration);
  }
}

TEST(CompileTest, DeceptiveRuntimeAffineKeepsCompilerViewPriorities) {
  // FFTPDE-style: compiler sees no k-dependence, so it claims temporal reuse
  // and attaches a nonzero priority to a reference that actually streams.
  SourceProgram p;
  p.arrays = {{"X", 16, 1 << 22, true, nullptr}};
  LoopNest nest;
  nest.loops = {Loop{"k", 0, 1024, 1, false}, Loop{"j", 0, 2048, 1, false}};
  ArrayRef ref;
  ref.array = 0;
  ref.affine.coeffs = {0, 1};  // compiler's (wrong) view
  ref.runtime_affine = std::make_shared<AffineExpr>();
  ref.runtime_affine->coeffs = {4096, 1};  // the truth
  nest.refs = {ref};
  p.nests.push_back(nest);
  const CompiledProgram compiled = Compile(p, SmallTarget(64), CompileOptions{true, true});
  ASSERT_EQ(compiled.nests[0].directives.size(), 2u);
  const HintDirective& release = compiled.nests[0].directives[1];
  EXPECT_EQ(release.kind, HintDirective::Kind::kRelease);
  EXPECT_EQ(release.priority, 1);  // false reuse in loop k (depth 0)
}

}  // namespace
}  // namespace tmh
