// Tests for the differential oracle and the kernel invariant checker:
// the oracle's own divergence detection, release/rescue adversarial paths
// under the checker, Eq. 1 conformance (maxrss clamp and min_freemem floor),
// and detection of hand-corrupted kernel state.

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "src/check/invariants.h"
#include "src/check/oracle.h"
#include "src/core/experiment.h"
#include "src/os/kernel.h"
#include "src/workloads/extra.h"
#include "tests/testutil.h"

namespace tmh {
namespace {

VmHookEvent Ev(VmHookOp op, FrameId frame, AsId as = 0, VPage vpage = 0) {
  VmHookEvent e;
  e.op = op;
  e.as = as;
  e.vpage = vpage;
  e.frame = frame;
  return e;
}

// --- oracle as a standalone model --------------------------------------------

TEST(OracleUnitTest, AllocationMustPopTheFreeListHead) {
  VmOracle oracle;
  oracle.Apply(Ev(VmHookOp::kFreePushTail, 1));
  oracle.Apply(Ev(VmHookOp::kFreePushTail, 2));
  ASSERT_TRUE(oracle.ok());
  oracle.Apply(Ev(VmHookOp::kAlloc, 2));  // head is frame 1
  EXPECT_FALSE(oracle.ok());
  EXPECT_NE(oracle.failure().find("head"), std::string::npos) << oracle.failure();
}

TEST(OracleUnitTest, DoubleFreeIsDivergence) {
  VmOracle oracle;
  oracle.Apply(Ev(VmHookOp::kFreePushTail, 3));
  oracle.Apply(Ev(VmHookOp::kFreePushHead, 3));
  EXPECT_FALSE(oracle.ok());
  EXPECT_NE(oracle.failure().find("double free"), std::string::npos) << oracle.failure();
}

TEST(OracleUnitTest, WritebackOfCleanFrameIsDivergence) {
  VmOracle oracle;
  oracle.Apply(Ev(VmHookOp::kWritebackBegin, 5));
  EXPECT_FALSE(oracle.ok());
  EXPECT_NE(oracle.failure().find("clean"), std::string::npos) << oracle.failure();
}

TEST(OracleUnitTest, FreeingAMappedFrameIsDivergence) {
  VmOracle oracle;
  oracle.Apply(Ev(VmHookOp::kFreePushTail, 7));
  oracle.Apply(Ev(VmHookOp::kAlloc, 7));
  oracle.Apply(Ev(VmHookOp::kMap, 7, /*as=*/1, /*vpage=*/4));
  ASSERT_TRUE(oracle.ok());
  oracle.Apply(Ev(VmHookOp::kFreePushTail, 7));  // never unmapped
  EXPECT_FALSE(oracle.ok());
  EXPECT_NE(oracle.failure().find("still mapped"), std::string::npos) << oracle.failure();
}

// --- every divergence message, pinned whole ----------------------------------

VmHookEvent Ev(VmHookOp op, FrameId frame, AsId as, VPage vpage, int64_t a, int64_t b) {
  VmHookEvent e = Ev(op, frame, as, vpage);
  e.a = a;
  e.b = b;
  return e;
}

// Applies `events` to `oracle` in order and returns its failure ("" when the
// model agreed with every one).
std::string Replay(VmOracle& oracle, const std::vector<VmHookEvent>& events) {
  for (const VmHookEvent& e : events) {
    oracle.Apply(e);
  }
  return oracle.failure();
}

// An oracle seeded from a fresh machine of eight DRAM frames and one slow
// tier of four: every frame of both levels free, in ascending order.
VmOracle Seeded() {
  MachineConfig config = TestMachine(8);
  config.tiers.push_back(TierSpec{});  // tiers[0] = DRAM
  TierSpec slow;
  slow.frames = 4;
  config.tiers.push_back(slow);
  const Kernel kernel(config);
  VmOracle oracle;
  oracle.SeedFromKernel(kernel);
  return oracle;
}

TEST(OracleUnitTest, SeededOracleStartsWithEveryFrameFreeInOrder) {
  VmOracle oracle = Seeded();
  ASSERT_EQ(oracle.num_nodes(), 1);
  EXPECT_EQ(oracle.free_node(0), std::deque<FrameId>({0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(oracle.FreeCount(), 8);
  ASSERT_EQ(oracle.num_slow_tiers(), 1);
  EXPECT_EQ(oracle.tier(0).free, std::deque<FrameId>({0, 1, 2, 3}));
  // Eq. 1 on the empty machine: free 8 - min_freemem 4.
  EXPECT_EQ(oracle.UpperLimit(0), 4);
}

TEST(OracleUnitTest, AllocationFromAnEmptyListIsDivergence) {
  VmOracle oracle;
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kAlloc, 3)}),
            "oracle divergence on alloc (as=0 vpage=0 frame=3 a=0 b=0 t=0): "
            "allocation from an empty free list");
}

TEST(OracleUnitTest, MappingAnAlreadyResidentPageIsDivergence) {
  VmOracle oracle;
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kMap, 1, 0, 5), Ev(VmHookOp::kMap, 2, 0, 5)}),
            "oracle divergence on map (as=0 vpage=5 frame=2 a=0 b=0 t=0): "
            "mapping an already-resident page");
}

TEST(OracleUnitTest, MappingAFreeListedFrameIsDivergence) {
  VmOracle oracle;
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kFreePushTail, 4), Ev(VmHookOp::kMap, 4, 0, 0)}),
            "oracle divergence on map (as=0 vpage=0 frame=4 a=0 b=0 t=0): "
            "mapping a frame still on the free list");
}

TEST(OracleUnitTest, MappingAFrameMappedByAnotherPageIsDivergence) {
  VmOracle oracle;
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kMap, 5, 1, 0), Ev(VmHookOp::kMap, 5, 2, 3)}),
            "oracle divergence on map (as=2 vpage=3 frame=5 a=0 b=0 t=0): "
            "frame already mapped by as=1");
}

TEST(OracleUnitTest, UnmappingANonResidentPageIsDivergence) {
  VmOracle never_mapped;
  EXPECT_EQ(Replay(never_mapped, {Ev(VmHookOp::kUnmap, 5, 0, 0)}),
            "oracle divergence on unmap (as=0 vpage=0 frame=5 a=0 b=0 t=0): "
            "unmapping a page the model has non-resident");
  // The address space is known, the page is not.
  VmOracle other_page;
  EXPECT_EQ(Replay(other_page, {Ev(VmHookOp::kMap, 5, 0, 1), Ev(VmHookOp::kUnmap, 5, 0, 2)}),
            "oracle divergence on unmap (as=0 vpage=2 frame=5 a=0 b=0 t=0): "
            "unmapping a page the model has non-resident");
}

TEST(OracleUnitTest, UnmappingTheWrongFrameIsDivergence) {
  VmOracle oracle;
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kMap, 5, 0, 2), Ev(VmHookOp::kUnmap, 6, 0, 2)}),
            "oracle divergence on unmap (as=0 vpage=2 frame=6 a=0 b=0 t=0): "
            "unmap frame mismatch (model frame=5)");
}

TEST(OracleUnitTest, RescueOfAFrameNotOnTheListIsDivergence) {
  VmOracle oracle;
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kFreePushTail, 8), Ev(VmHookOp::kRescue, 9, 0, 1)}),
            "oracle divergence on rescue (as=0 vpage=1 frame=9 a=0 b=0 t=0): "
            "rescue of a frame not on the model free list");
}

TEST(OracleUnitTest, RescueTakesTheFrameFromMidList) {
  VmOracle oracle;
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kFreePushTail, 1), Ev(VmHookOp::kFreePushTail, 2),
                            Ev(VmHookOp::kFreePushTail, 3), Ev(VmHookOp::kRescue, 2)}),
            "");
  EXPECT_EQ(oracle.free_node(0), std::deque<FrameId>({1, 3}));
  EXPECT_EQ(oracle.FreeCount(), 2);
  EXPECT_EQ(oracle.rescues(), 1u);
  // Off the list, the frame can be mapped and freed again.
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kMap, 2, 0, 0), Ev(VmHookOp::kUnmap, 2, 0, 0),
                            Ev(VmHookOp::kFreePushHead, 2)}),
            "");
  EXPECT_EQ(oracle.free_node(0), std::deque<FrameId>({2, 1, 3}));
}

TEST(OracleUnitTest, DuplicateInFlightWritebackIsDivergence) {
  VmOracle oracle;
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kDirty, 3), Ev(VmHookOp::kWritebackBegin, 3),
                            Ev(VmHookOp::kWritebackBegin, 3)}),
            "oracle divergence on writeback_begin (as=0 vpage=0 frame=3 a=0 b=0 t=0): "
            "duplicate in-flight writeback");
}

TEST(OracleUnitTest, WritebackEndWithoutABeginIsDivergence) {
  VmOracle oracle;
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kDirty, 3), Ev(VmHookOp::kWritebackEnd, 3)}),
            "oracle divergence on writeback_end (as=0 vpage=0 frame=3 a=0 b=0 t=0): "
            "writeback completion without a matching begin");
}

TEST(OracleUnitTest, WritebackEndOnACleanFrameIsDivergence) {
  // A demotion carries the dirty bit into the tier, so the DRAM frame turns
  // clean under its in-flight writeback.
  VmOracle oracle = Seeded();
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kAlloc, 0), Ev(VmHookOp::kMap, 0, 0, 0),
                             Ev(VmHookOp::kDirty, 0), Ev(VmHookOp::kWritebackBegin, 0),
                             Ev(VmHookOp::kDemote, 0, 0, 0, /*a=*/1, /*b=*/0),
                             Ev(VmHookOp::kWritebackEnd, 0)}),
            "oracle divergence on writeback_end (as=0 vpage=0 frame=0 a=0 b=0 t=0): "
            "writeback completion on a clean frame");
}

TEST(OracleUnitTest, DirtyingADirtyFrameIsDivergence) {
  VmOracle oracle;
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kDirty, 3), Ev(VmHookOp::kDirty, 3)}),
            "oracle divergence on dirty (as=0 vpage=0 frame=3 a=0 b=0 t=0): "
            "clean->dirty transition on an already-dirty frame");
}

TEST(OracleUnitTest, AllocatingADirtyFrameIsDivergence) {
  VmOracle oracle;
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kFreePushTail, 3), Ev(VmHookOp::kDirty, 3),
                            Ev(VmHookOp::kAlloc, 3)}),
            "oracle divergence on alloc (as=0 vpage=0 frame=3 a=0 b=0 t=0): "
            "allocated frame is dirty in the model");
}

TEST(OracleUnitTest, FreeingADirtyFrameIsDivergence) {
  VmOracle oracle;
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kDirty, 3), Ev(VmHookOp::kFreePushTail, 3)}),
            "oracle divergence on free_push_tail (as=0 vpage=0 frame=3 a=0 b=0 t=0): "
            "freeing a dirty frame without a writeback");
}

TEST(OracleUnitTest, PublishedHeaderMustMatchTheModel) {
  // One page resident, seven frames free: usage 1, Eq. 1 gives 1 + 7 - 4.
  VmOracle usage = Seeded();
  EXPECT_EQ(Replay(usage, {Ev(VmHookOp::kAlloc, 0), Ev(VmHookOp::kMap, 0, 0, 0),
                            Ev(VmHookOp::kHeaderUpdate, kNoFrame, 0, kNoVPage, 1, 4),
                            Ev(VmHookOp::kHeaderUpdate, kNoFrame, 0, kNoVPage, 2, 4)}),
            "oracle divergence on header_update (as=0 vpage=-1 frame=-1 a=2 b=4 t=0): "
            "published current usage != model resident count (1)");
  VmOracle upper = Seeded();
  EXPECT_EQ(Replay(upper, {Ev(VmHookOp::kAlloc, 0), Ev(VmHookOp::kMap, 0, 0, 0),
                            Ev(VmHookOp::kHeaderUpdate, kNoFrame, 0, kNoVPage, 1, 5)}),
            "oracle divergence on header_update (as=0 vpage=-1 frame=-1 a=1 b=5 t=0): "
            "published upper limit != model Eq. 1 value (4)");
}

TEST(OracleUnitTest, DemotingAPageOffItsFrameIsDivergence) {
  VmOracle oracle = Seeded();
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kAlloc, 0), Ev(VmHookOp::kMap, 0, 0, 0),
                             Ev(VmHookOp::kDemote, 1, 0, 0, /*a=*/1, /*b=*/0)}),
            "oracle divergence on demote (as=0 vpage=0 frame=1 a=1 b=0 t=0): "
            "demoted page not resident on the hook's frame");
}

TEST(OracleUnitTest, PromotingOntoAFrameThePageIsNotOnIsDivergence) {
  // The page is still resident on frame 0 when frame 1 claims it.
  VmOracle oracle = Seeded();
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kAlloc, 0), Ev(VmHookOp::kMap, 0, 0, 0),
                             Ev(VmHookOp::kDemote, 0, 0, 0, /*a=*/1, /*b=*/0),
                             Ev(VmHookOp::kPromote, 1, 0, 0, /*a=*/1, /*b=*/0)}),
            "oracle divergence on promote (as=0 vpage=0 frame=1 a=1 b=0 t=0): "
            "promoted page not resident on the hook's frame");
}

TEST(OracleUnitTest, CarriedDirtyBitOntoADirtyFrameIsDivergence) {
  VmOracle oracle = Seeded();
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kAlloc, 0), Ev(VmHookOp::kMap, 0, 0, 0),
                             Ev(VmHookOp::kDirty, 0),
                             Ev(VmHookOp::kDemote, 0, 0, 0, /*a=*/1, /*b=*/0),
                             Ev(VmHookOp::kUnmap, 0, 0, 0), Ev(VmHookOp::kAlloc, 1),
                             Ev(VmHookOp::kMap, 1, 0, 0), Ev(VmHookOp::kDirty, 1),
                             Ev(VmHookOp::kPromote, 1, 0, 0, /*a=*/1, /*b=*/0)}),
            "oracle divergence on promote (as=0 vpage=0 frame=1 a=1 b=0 t=0): "
            "carried dirty bit restored onto an already-dirty frame");
}

// --- ids the model was never seeded with -------------------------------------

TEST(OracleUnitTest, NegativeIdsAreAbsentOrDivergeButNeverIndexed) {
  // A lookup of a negative id finds nothing, like any absent id.
  struct Pinned {
    std::vector<VmHookEvent> events;
    const char* failure;
  };
  const Pinned pinned[] = {
      {{Ev(VmHookOp::kUnmap, kNoFrame, kNoAs, kNoVPage)},
       "oracle divergence on unmap (as=-1 vpage=-1 frame=-1 a=0 b=0 t=0): "
       "unmapping a page the model has non-resident"},
      {{Ev(VmHookOp::kMap, 1, 0, 0), Ev(VmHookOp::kUnmap, 1, 0, -5)},
       "oracle divergence on unmap (as=0 vpage=-5 frame=1 a=0 b=0 t=0): "
       "unmapping a page the model has non-resident"},
      {{Ev(VmHookOp::kRescue, -3)},
       "oracle divergence on rescue (as=0 vpage=0 frame=-3 a=0 b=0 t=0): "
       "rescue of a frame not on the model free list"},
      {{Ev(VmHookOp::kWritebackBegin, kNoFrame)},
       "oracle divergence on writeback_begin (as=0 vpage=0 frame=-1 a=0 b=0 t=0): "
       "writeback of a frame the model has clean"},
      {{Ev(VmHookOp::kWritebackEnd, -7)},
       "oracle divergence on writeback_end (as=0 vpage=0 frame=-7 a=0 b=0 t=0): "
       "writeback completion without a matching begin"},
      {{Ev(VmHookOp::kAlloc, kNoFrame)},
       "oracle divergence on alloc (as=0 vpage=0 frame=-1 a=0 b=0 t=0): "
       "allocation from an empty free list"},
      {{Ev(VmHookOp::kFreePushTail, 2), Ev(VmHookOp::kAlloc, kNoFrame)},
       "oracle divergence on alloc (as=0 vpage=0 frame=-1 a=0 b=0 t=0): "
       "allocation did not pop the free-list head of node 0 (model head=2)"},
      {{Ev(VmHookOp::kHeaderUpdate, kNoFrame, kNoAs, kNoVPage, 0, 0)}, ""},
  };
  for (const Pinned& c : pinned) {
    VmOracle oracle;
    EXPECT_EQ(Replay(oracle, c.events), c.failure);
    EXPECT_EQ(oracle.FrameOf(kNoAs, kNoVPage), kNoFrame);
    EXPECT_FALSE(oracle.IsResident(0, -5));
    EXPECT_EQ(oracle.ResidentCount(kNoAs), 0);
  }
  // A hook that would store a negative id may be held or refused, but a
  // refusal is a divergence on that hook.
  const std::vector<VmHookEvent> stores[] = {
      {Ev(VmHookOp::kMap, kNoFrame, 0, 0)},
      {Ev(VmHookOp::kMap, 3, kNoAs, 0)},
      {Ev(VmHookOp::kMap, 3, 0, kNoVPage)},
      {Ev(VmHookOp::kFreePushTail, kNoFrame)},
      {Ev(VmHookOp::kFreePushHead, -3)},
      {Ev(VmHookOp::kDirty, kNoFrame)},
      {Ev(VmHookOp::kFreePushTail, 2), Ev(VmHookOp::kAlloc, 2, kNoAs, 0)},
  };
  for (const std::vector<VmHookEvent>& events : stores) {
    VmOracle oracle;
    const VmHookEvent& last = events.back();
    const std::string prefix = std::string("oracle divergence on ") + VmHookOpName(last.op) +
                               " (as=" + std::to_string(last.as) +
                               " vpage=" + std::to_string(last.vpage) +
                               " frame=" + std::to_string(last.frame) + " ";
    const std::string failure = Replay(oracle, events);
    EXPECT_TRUE(failure.empty() || failure.rfind(prefix, 0) == 0) << failure;
  }
}

TEST(OracleUnitTest, UnseededOracleHoldsFrameOneMillion) {
  constexpr FrameId kFar = 1'000'000;
  VmOracle oracle;
  ASSERT_EQ(Replay(oracle, {Ev(VmHookOp::kFreePushTail, 2), Ev(VmHookOp::kFreePushTail, kFar),
                            Ev(VmHookOp::kRescue, 2), Ev(VmHookOp::kAlloc, kFar, 0, 9),
                            Ev(VmHookOp::kMap, kFar, 0, 9), Ev(VmHookOp::kDirty, kFar)}),
            "");
  EXPECT_EQ(oracle.FrameOf(0, 9), kFar);
  EXPECT_EQ(oracle.ResidentCount(0), 1);
  EXPECT_EQ(oracle.FreeCount(), 0);
  ASSERT_EQ(Replay(oracle, {Ev(VmHookOp::kWritebackBegin, kFar), Ev(VmHookOp::kUnmap, kFar, 0, 9),
                            Ev(VmHookOp::kWritebackEnd, kFar), Ev(VmHookOp::kFreePushHead, kFar)}),
            "");
  EXPECT_FALSE(oracle.IsResident(0, 9));
  EXPECT_EQ(oracle.free_node(0), std::deque<FrameId>({kFar}));
  EXPECT_EQ(oracle.writebacks(), 1u);
  // Held like any other frame: a second push is a double free.
  EXPECT_EQ(Replay(oracle, {Ev(VmHookOp::kFreePushTail, kFar)}),
            "oracle divergence on free_push_tail (as=0 vpage=0 frame=1000000 a=0 b=0 t=0): "
            "double free: frame already on the model free list");
}

// A seeded model holds exactly the machine's frames, and no model grows an
// array to kMaxGrownId: a hook that would store such an id diverges instead
// of indexing past the model.
TEST(OracleUnitTest, IdsPastWhatTheModelHoldsDiverge) {
  const std::string far = std::to_string(VmOracle::kMaxGrownId);
  struct Pinned {
    std::vector<VmHookEvent> events;
    std::string failure;
  };
  const Pinned pinned[] = {
      {{Ev(VmHookOp::kFreePushTail, 8)},
       "oracle divergence on free_push_tail (as=0 vpage=0 frame=8 a=0 b=0 t=0): "
       "frame 8 is outside the machine's 8 frames"},
      {{Ev(VmHookOp::kMap, 1'000'000, 0, 0)},
       "oracle divergence on map (as=0 vpage=0 frame=1000000 a=0 b=0 t=0): "
       "frame 1000000 is outside the machine's 8 frames"},
      {{Ev(VmHookOp::kDirty, 8)},
       "oracle divergence on dirty (as=0 vpage=0 frame=8 a=0 b=0 t=0): "
       "frame 8 is outside the machine's 8 frames"},
      {{Ev(VmHookOp::kRescue, 1'000'000)},
       "oracle divergence on rescue (as=0 vpage=0 frame=1000000 a=0 b=0 t=0): "
       "rescue of a frame not on the model free list"},
      {{Ev(VmHookOp::kAlloc, 0), Ev(VmHookOp::kMap, 0, 0, VmOracle::kMaxGrownId)},
       "oracle divergence on map (as=0 vpage=" + far + " frame=0 a=0 b=0 t=0): page (as=0 vpage=" +
           far + ") is outside what the model can hold"},
      {{Ev(VmHookOp::kAlloc, 0, kNoAs, 0)},
       "oracle divergence on alloc (as=-1 vpage=0 frame=0 a=0 b=0 t=0): "
       "allocation for an address space with no home node"},
  };
  for (const Pinned& c : pinned) {
    VmOracle oracle = Seeded();
    EXPECT_EQ(Replay(oracle, c.events), c.failure);
  }
  VmOracle unseeded;
  const auto past = static_cast<FrameId>(VmOracle::kMaxGrownId);
  EXPECT_EQ(Replay(unseeded, {Ev(VmHookOp::kFreePushTail, past)}),
            "oracle divergence on free_push_tail (as=0 vpage=0 frame=" + far +
                " a=0 b=0 t=0): frame " + far + " is outside what the model can hold");
}

// --- release/rescue adversarial paths under the checker ----------------------

TEST(OracleKernelTest, RescueFromFreeListTailNeedsNoDiskRead) {
  // Release a clean page, let the releaser push it to the free-list tail,
  // touch it before reclaim: the rescue must pull it from mid-list with no
  // second swap read, and the oracle must agree step for step.
  Kernel kernel(TestMachine());
  InvariantChecker checker(kernel);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 2);
  as->AttachPagingDirected(0, 2);
  ScriptProgram program({Op::Touch(0, false, 0), Op::Release(0, 1, 0, 1),
                         Op::Sleep(10 * kMsec),  // let the releaser free it
                         Op::Touch(0, false, 0)});
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));

  EXPECT_EQ(t->faults().rescue_faults, 1u);
  EXPECT_EQ(kernel.swap().reads(), 1u);  // only the initial page-in
  EXPECT_EQ(checker.oracle().rescues(), 1u);
  EXPECT_EQ(checker.oracle().releases_enqueued(), 1u);
  EXPECT_EQ(checker.oracle().releaser_freed(), 1u);
  EXPECT_TRUE(checker.CheckNow(kernel)) << checker.failure();
}

TEST(OracleKernelTest, DirtyReleaseWritesBackExactlyOnce) {
  // A dirtied-then-released page must be written back exactly once on the
  // release path; re-reading it and releasing again (now clean) must not.
  Kernel kernel(TestMachine());
  kernel.EnableObservability();
  InvariantChecker checker(kernel);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 2);
  as->AttachPagingDirected(0, 2);
  ScriptProgram program({Op::Touch(0, true, 0),  // dirty it
                         Op::Release(0, 1, 0, 1),
                         Op::Sleep(50 * kMsec),  // releaser frees + writeback
                         Op::Touch(0, false, 0),  // page back in, now clean
                         Op::Release(0, 1, 0, 2),
                         Op::Sleep(50 * kMsec)});
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));

  EXPECT_EQ(kernel.stats().releaser_pages_freed, 2u);
  EXPECT_EQ(kernel.stats().writebacks, 1u);
  EXPECT_EQ(kernel.swap().writes(), 1u);
  EXPECT_EQ(checker.oracle().writebacks(), 1u);
  kernel.PublishMetrics();
  EXPECT_EQ(kernel.recorder()->metrics().GetCounter("kernel.writebacks")->value(), 1u);
  EXPECT_TRUE(checker.CheckNow(kernel)) << checker.failure();
}

// --- Eq. 1 conformance -------------------------------------------------------

TEST(Eq1Test, PublishedHeaderMatchesOracleRecomputation) {
  // The oracle re-derives Eq. 1 from its own state at every kHeaderUpdate;
  // any published header that disagrees fails the run. Drive enough faults
  // to publish many headers, then cross-check the final one by hand.
  Kernel kernel(TestMachine());
  InvariantChecker checker(kernel);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 8);
  as->AttachPagingDirected(0, 8);
  std::vector<Op> ops;
  for (VPage p = 0; p < 8; ++p) {
    ops.push_back(Op::Touch(p, false, kUsec));
  }
  ScriptProgram program(ops);
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  ASSERT_TRUE(checker.ok()) << checker.failure();

  const int64_t expected =
      std::max<int64_t>(0, std::min(kernel.config().tunables.maxrss_pages,
                                    as->page_table().resident_count() +
                                        kernel.frame_pool().size() -
                                        kernel.config().tunables.min_freemem_pages));
  EXPECT_EQ(as->bitmap()->current_usage(), as->page_table().resident_count());
  EXPECT_EQ(as->bitmap()->upper_limit(), expected);
  EXPECT_EQ(checker.oracle().UpperLimit(as->id()), expected);
  EXPECT_TRUE(checker.CheckNow(kernel)) << checker.failure();
}

TEST(Eq1Test, MaxrssClampsThePublishedUpperLimit) {
  MachineConfig config = TestMachine(32);
  config.tunables.maxrss_pages = 10;
  Kernel kernel(config);
  InvariantChecker checker(kernel);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 20);
  as->AttachPagingDirected(0, 20);
  std::vector<Op> ops;
  for (VPage p = 0; p < 20; ++p) {
    ops.push_back(Op::Touch(p, false, 10 * kUsec));
  }
  ScriptProgram program(ops);
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  ASSERT_TRUE(checker.ok()) << checker.failure();

  // Plenty of free memory, so without the clamp Eq. 1 would exceed 10.
  EXPECT_EQ(as->bitmap()->upper_limit(), 10);
  EXPECT_EQ(checker.oracle().UpperLimit(as->id()), 10);
  EXPECT_TRUE(checker.CheckNow(kernel)) << checker.failure();
}

TEST(Eq1Test, MinFreememFloorClampsUpperLimitToZero) {
  // A small paging-directed task next to a hog: with free memory below
  // min_freemem, Eq. 1 goes negative and must publish as zero. No daemons,
  // so nothing reclaims behind the test's back.
  Kernel kernel(TestMachine(16));  // min_freemem = 4
  InvariantChecker checker(kernel);
  AddressSpace* small = MakeSwapAs(kernel, "small", 4);
  small->AttachPagingDirected(0, 4);
  AddressSpace* hog = MakeSwapAs(kernel, "hog", 12);
  std::vector<Op> hog_ops;
  for (VPage p = 0; p < 12; ++p) {
    hog_ops.push_back(Op::Touch(p, false, 0));
  }
  ScriptProgram hog_program(hog_ops);
  ScriptProgram small_program({Op::Sleep(500 * kMsec),  // let the hog fill memory
                               Op::Touch(0, false, 0), Op::Touch(1, false, 0)});
  Thread* th = kernel.Spawn("hog", hog, &hog_program);
  Thread* ts = kernel.Spawn("small", small, &small_program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({th, ts}));
  ASSERT_TRUE(checker.ok()) << checker.failure();

  // 14 of 16 frames resident: resident(small)=2, free=2, min_freemem=4.
  ASSERT_EQ(kernel.frame_pool().size(), 2);
  EXPECT_EQ(small->bitmap()->upper_limit(), 0);
  EXPECT_EQ(checker.oracle().UpperLimit(small->id()), 0);
  EXPECT_TRUE(checker.CheckNow(kernel)) << checker.failure();
}

// --- release policies end to end under the checker ---------------------------

TEST(PolicyCheckTest, AggressiveAndBufferedReleasePoliciesPassChecks) {
  // Full compiled-workload runs at both release-policy treatment levels (and
  // both buffered drain orders) with the checker attached: every release,
  // drain, writeback, and rescue is replayed through the oracle.
  struct Case {
    AppVersion version;
    bool drain_newest_first;
  };
  const Case cases[] = {{AppVersion::kRelease, false},
                        {AppVersion::kBuffered, false},
                        {AppVersion::kBuffered, true}};
  for (const Case& c : cases) {
    ExperimentSpec spec;
    spec.machine.user_memory_bytes = 6 * 1024 * 1024;
    spec.workload = FindWorkload("MATVEC")->factory(0.05);
    spec.version = c.version;
    spec.runtime.drain_newest_first = c.drain_newest_first;
    spec.checks = true;
    const ExperimentResult result = RunExperiment(spec);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(result.check_failure.empty())
        << VersionLabel(c.version) << ": " << result.check_failure;
    EXPECT_GT(result.checks_run, 0u);
  }
}

// --- the checker actually detects corruption ---------------------------------

TEST(DetectionTest, CorruptedResidencyBitmapIsCaught) {
  Kernel kernel(TestMachine());
  InvariantChecker checker(kernel);
  AddressSpace* as = MakeSwapAs(kernel, "as", 4);
  as->AttachPagingDirected(0, 4);
  ScriptProgram program({Op::Touch(0, false, 0), Op::Touch(1, false, 0)});
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  ASSERT_TRUE(checker.CheckNow(kernel)) << checker.failure();

  as->bitmap()->Clear(0);  // page 0 is resident: its bit must be set
  EXPECT_FALSE(checker.CheckNow(kernel));
  EXPECT_NE(checker.failure().find("I-BM"), std::string::npos) << checker.failure();
}

TEST(DetectionTest, CorruptedPteResidencyIsCaught) {
  Kernel kernel(TestMachine());
  InvariantChecker checker(kernel);
  AddressSpace* as = MakeSwapAs(kernel, "as", 4);
  ScriptProgram program({Op::Touch(2, false, 0)});
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  ASSERT_TRUE(checker.CheckNow(kernel)) << checker.failure();

  as->page_table().at(2).resident = false;  // frame still mapped underneath
  EXPECT_FALSE(checker.CheckNow(kernel));
  EXPECT_NE(checker.failure().find("I-"), std::string::npos) << checker.failure();
}

TEST(DetectionTest, InjectedBitmapFlipIsCaughtByTheSelfTestHook) {
  Kernel kernel(TestMachine());
  CheckOptions options;
  options.inject_bitmap_flip_after = 1;
  InvariantChecker checker(kernel, options);
  AddressSpace* as = MakeSwapAs(kernel, "as", 4);
  as->AttachPagingDirected(0, 4);
  ScriptProgram program({Op::Touch(0, false, 0), Op::Touch(1, false, 0),
                         Op::Touch(2, false, 0)});
  Thread* t = kernel.Spawn("t", as, &program);
  kernel.RunUntilThreadsDone({t});
  EXPECT_FALSE(checker.ok());
  EXPECT_NE(checker.failure().find("I-BM"), std::string::npos) << checker.failure();
}

}  // namespace
}  // namespace tmh
