// Tests for the memory-tiering extension: releases demote pages into slow
// tiers (Eq. 2 priority picks the depth), re-touches promote them back, and
// full tiers evict by cascading down the hierarchy (disk from the last tier).
// Every scenario here runs with the InvariantChecker attached, so the tier
// planes are cross-validated against the oracle's per-tier reference model
// (I-TIER) as the migrations happen; a dedicated suite then tier-thrashes
// fresh fuzz seeds and proves deterministic replay by digest.

#include <gtest/gtest.h>

#include "src/check/fuzz_scenario.h"
#include "src/check/invariants.h"
#include "src/core/experiment.h"
#include "src/os/kernel.h"
#include "src/workloads/extra.h"
#include "tests/testutil.h"

namespace tmh {
namespace {

// TestMachine plus `slow_tiers` slow tiers of `tier_frames` pages each.
MachineConfig TieredMachine(int slow_tiers, int64_t tier_frames,
                            int64_t dram_frames = 64) {
  MachineConfig config = TestMachine(dram_frames);
  config.tiers.push_back(TierSpec{});  // tiers[0] = DRAM
  for (int t = 0; t < slow_tiers; ++t) {
    TierSpec tier;
    tier.frames = tier_frames;
    config.tiers.push_back(tier);
  }
  return config;
}

TEST(TieringTest, ReleaseDemotesInsteadOfFreeing) {
  Kernel kernel(TieredMachine(1, 16));
  InvariantChecker checker(kernel);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 2);
  as->AttachPagingDirected(0, 2);
  ScriptProgram program({Op::Touch(0, false, 0), Op::Release(0, 1, 0, 1),
                         Op::Sleep(50 * kMsec)});  // releaser demotes
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  ASSERT_TRUE(checker.ok()) << checker.failure();

  EXPECT_EQ(kernel.stats().tier_demotions, 1u);
  EXPECT_EQ(kernel.stats().releaser_pages_freed, 1u);
  const Pte& pte = as->page_table().at(0);
  EXPECT_FALSE(pte.resident);
  EXPECT_EQ(pte.frame, kNoFrame);
  EXPECT_EQ(pte.tier, 1);
  const Kernel::TierPlane& plane = kernel.tier_planes()[0];
  ASSERT_GE(pte.tier_frame, 0);
  ASSERT_LT(pte.tier_frame, plane.frames);
  EXPECT_EQ(plane.owner[static_cast<size_t>(pte.tier_frame)], as->id());
  EXPECT_EQ(plane.vpage[static_cast<size_t>(pte.tier_frame)], 0);
  EXPECT_TRUE(checker.CheckNow(kernel)) << checker.failure();
}

TEST(TieringTest, RoundTripPreservesContentsAndDirtyBit) {
  // Dirty a page, demote it, touch it back: the promotion must be a soft
  // fault (contents migrate through the tier, no disk read) and the dirty
  // bit must come back with it — silently, not as a second kDirty event.
  Kernel kernel(TieredMachine(1, 16));
  kernel.EnableObservability();
  InvariantChecker checker(kernel);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 2);
  as->AttachPagingDirected(0, 2);
  ScriptProgram program({Op::Touch(0, true, 0),  // dirty it
                         Op::Release(0, 1, 0, 1),
                         Op::Sleep(50 * kMsec),   // releaser demotes
                         Op::Touch(0, false, 0),  // promote (read: no MarkDirty)
                         Op::Compute(kMsec)});
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  ASSERT_TRUE(checker.ok()) << checker.failure();

  EXPECT_EQ(kernel.stats().tier_demotions, 1u);
  EXPECT_EQ(kernel.stats().tier_promotions, 1u);
  // Demotion is a memory-to-memory migration: no writeback, no swap write.
  EXPECT_EQ(kernel.stats().writebacks, 0u);
  EXPECT_EQ(kernel.swap().writes(), 0u);
  // Promotion re-validated the contents without a disk read.
  EXPECT_EQ(kernel.swap().reads(), 1u);  // only the initial page-in
  EXPECT_EQ(t->faults().hard_faults, 1u);
  EXPECT_GE(t->faults().soft_faults, 1u);
  const Pte& pte = as->page_table().at(0);
  ASSERT_TRUE(pte.resident);
  EXPECT_EQ(pte.tier, 0);
  EXPECT_EQ(pte.tier_frame, kNoFrame);
  // The carried dirty bit survived the round trip.
  EXPECT_TRUE(kernel.frames().dirty(pte.frame));
  EXPECT_TRUE(checker.CheckNow(kernel)) << checker.failure();
}

TEST(TieringTest, Eq2PriorityPicksTheDemotionDepth) {
  // Two slow tiers: priority 0 (cold, per Eq. 2) sinks to the deepest tier,
  // a warmer priority lands one level up.
  Kernel kernel(TieredMachine(2, 16));
  InvariantChecker checker(kernel);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 4);
  as->AttachPagingDirected(0, 4);
  ScriptProgram program({Op::Touch(0, false, 0), Op::Touch(1, false, 0),
                         Op::Release(0, 1, /*prio=*/0, 1),
                         Op::Release(1, 1, /*prio=*/1, 2),
                         Op::Sleep(50 * kMsec)});
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  ASSERT_TRUE(checker.ok()) << checker.failure();

  EXPECT_EQ(kernel.stats().tier_demotions, 2u);
  EXPECT_EQ(as->page_table().at(0).tier, 2);  // coldest: deepest tier
  EXPECT_EQ(as->page_table().at(1).tier, 1);
  EXPECT_TRUE(checker.CheckNow(kernel)) << checker.failure();
}

TEST(TieringTest, FullTierEvictsToDiskWithOneWriteback) {
  // A 4-frame slow tier fed 8 dirty demotions: the overflow evicts the
  // clock-hand victims out of the hierarchy, each dirty eviction counting
  // exactly one tier writeback. Tier writebacks are charged as migration-
  // engine CPU cost, not routed through the swap disks, so the kernel-wide
  // swap_writes == writebacks identity is untouched.
  Kernel kernel(TieredMachine(1, 4));
  InvariantChecker checker(kernel);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 8);
  as->AttachPagingDirected(0, 8);
  std::vector<Op> ops;
  for (VPage p = 0; p < 8; ++p) {
    ops.push_back(Op::Touch(p, true, 0));  // dirty
    ops.push_back(Op::Release(p, 1, 0, 1));
    ops.push_back(Op::Sleep(20 * kMsec));  // demote before the next fills DRAM
  }
  ScriptProgram program(ops);
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  ASSERT_TRUE(checker.ok()) << checker.failure();

  EXPECT_EQ(kernel.stats().tier_demotions, 8u);
  EXPECT_EQ(kernel.stats().tier_evictions, 4u);
  EXPECT_EQ(kernel.stats().tier_writebacks, 4u);
  EXPECT_EQ(kernel.stats().writebacks, 0u);
  EXPECT_EQ(kernel.swap().writes(), 0u);
  // Evicted pages fell all the way out of the hierarchy...
  EXPECT_EQ(as->page_table().at(0).tier, 0);
  EXPECT_FALSE(as->page_table().at(0).resident);
  // ...while the last demotions still sit in the tier.
  EXPECT_EQ(as->page_table().at(7).tier, 1);
  EXPECT_TRUE(checker.CheckNow(kernel)) << checker.failure();
}

TEST(TieringTest, PingPongPromotionStormConverges) {
  // Release/touch the same pages dozens of times: every demotion must be
  // matched by a promotion, with zero disk traffic beyond the initial
  // page-ins, and the checker must stay clean through the whole storm.
  Kernel kernel(TieredMachine(1, 16));
  InvariantChecker checker(kernel);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 4);
  as->AttachPagingDirected(0, 4);
  std::vector<Op> ops;
  for (VPage p = 0; p < 4; ++p) {
    ops.push_back(Op::Touch(p, false, 0));
  }
  for (int round = 0; round < 25; ++round) {
    for (VPage p = 0; p < 4; ++p) {
      ops.push_back(Op::Release(p, 1, 0, 1));
    }
    ops.push_back(Op::Sleep(50 * kMsec));  // demote all four
    for (VPage p = 0; p < 4; ++p) {
      ops.push_back(Op::Touch(p, false, 0));  // promote all four
    }
  }
  ScriptProgram program(ops);
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  ASSERT_TRUE(checker.ok()) << checker.failure();

  EXPECT_EQ(kernel.stats().tier_demotions, 100u);
  EXPECT_EQ(kernel.stats().tier_promotions, 100u);
  EXPECT_EQ(kernel.stats().tier_evictions, 0u);
  EXPECT_EQ(kernel.swap().reads(), 4u);  // initial page-ins only
  EXPECT_EQ(kernel.swap().writes(), 0u);
  // Converged: all four pages resident in DRAM, tier fully drained.
  for (VPage p = 0; p < 4; ++p) {
    EXPECT_TRUE(as->page_table().at(p).resident);
    EXPECT_EQ(as->page_table().at(p).tier, 0);
  }
  EXPECT_EQ(kernel.tier_planes()[0].pool->size(), 16);
  EXPECT_TRUE(checker.CheckNow(kernel)) << checker.failure();
}

TEST(TieringTest, CheckedTieredWorkloadRunsStayClean) {
  // Full compiled-workload runs on 2- and 3-tier machines at both release
  // treatment levels, with the checker replaying every migration through the
  // oracle's tier model.
  for (const int slow_tiers : {1, 2}) {
    for (const AppVersion version : {AppVersion::kRelease, AppVersion::kBuffered}) {
      ExperimentSpec spec;
      spec.machine.user_memory_bytes = 6 * 1024 * 1024;
      spec.machine.tiers.push_back(TierSpec{});
      for (int t = 0; t < slow_tiers; ++t) {
        TierSpec tier;
        tier.frames = spec.machine.num_frames() / 2;
        spec.machine.tiers.push_back(tier);
      }
      spec.workload = FindWorkload("MATVEC")->factory(0.05);
      spec.version = version;
      spec.checks = true;
      const ExperimentResult result = RunExperiment(spec);
      ASSERT_TRUE(result.completed);
      EXPECT_TRUE(result.check_failure.empty())
          << slow_tiers + 1 << " tiers, " << VersionLabel(version) << ": "
          << result.check_failure;
      EXPECT_GT(result.checks_run, 0u);
      EXPECT_GT(result.kernel.tier_demotions, 0u);
    }
  }
}

// Tier-thrash armor: fresh fuzz seeds (disjoint from fuzz_smoke's 1..6 and
// the chaos soak's 101..112) forced onto a tiered machine, each run twice to
// prove deterministic replay by digest.
class TieringFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TieringFuzzTest, ForcedTierScenarioIsCleanAndDeterministic) {
  const uint64_t seed = GetParam();
  Scenario scenario = MakeScenario(seed);
  ForceTiers(scenario);

  const ScenarioOutcome first = RunScenario(scenario);
  ASSERT_TRUE(first.completed) << Describe(scenario);
  ASSERT_TRUE(first.ok) << first.failure << "\n" << Describe(scenario);
  EXPECT_GT(first.checks_run, 0u);

  const ScenarioOutcome second = RunScenario(scenario);
  ASSERT_TRUE(second.ok) << second.failure;
  EXPECT_EQ(first.digest, second.digest) << Describe(scenario);
  EXPECT_EQ(first.sim_events, second.sim_events);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TieringFuzzTest,
                         ::testing::Range<uint64_t>(501, 509));

}  // namespace
}  // namespace tmh
