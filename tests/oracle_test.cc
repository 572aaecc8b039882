// Tests for the differential oracle and the kernel invariant checker:
// the oracle's own divergence detection, release/rescue adversarial paths
// under the checker, Eq. 1 conformance (maxrss clamp and min_freemem floor),
// and detection of hand-corrupted kernel state.

#include <gtest/gtest.h>

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
