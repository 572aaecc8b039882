// Edge-case tests for the OS substrate: stale rescue identities, duplicate
// releases, release-range clipping, writeback hazards, and prefetch-pipeline
// corner cases.

#include <gtest/gtest.h>

#include "src/os/kernel.h"
#include "tests/testutil.h"

namespace tmh {
namespace {

TEST(OsEdgeTest, ReallocationBreaksStaleRescueIdentity) {
  // Process A's released page gets reallocated to process B; A's later touch
  // must NOT rescue B's frame — it must page in from swap.
  // Keep the paging daemon dormant (it would otherwise replenish the list
  // head and shield the tail frame): B's allocations must drain the whole
  // free list, so the tail frame (A's released page) is guaranteed recycled.
  MachineConfig config = TestMachine(10);
  config.tunables.min_freemem_pages = 0;
  config.tunables.target_freemem_pages = 0;
  Kernel kernel(config);
  kernel.StartDaemons();
  AddressSpace* a = MakeSwapAs(kernel, "a", 8);
  a->AttachPagingDirected(0, 8);
  AddressSpace* b = MakeSwapAs(kernel, "b", 16);
  b->AttachPagingDirected(0, 16);

  ScriptProgram pa({Op::Touch(0, false, 0), Op::Release(0, 1, 0, 1), Op::Sleep(20 * kMsec)});
  Thread* ta = kernel.Spawn("a", a, &pa);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({ta}));
  ASSERT_FALSE(a->page_table().at(0).resident);
  const FrameId freed_frame = a->page_table().at(0).frame;
  ASSERT_TRUE(kernel.frame_pool().Contains(freed_frame));

  // B touches exactly as many pages as there are frames, so every free frame
  // — including the tail one holding A's data — is reallocated; it then
  // releases one page so A has a frame to fault into.
  std::vector<Op> ops;
  for (VPage p = 0; p < 10; ++p) {
    ops.push_back(Op::Touch(p, false, 0));
  }
  ops.push_back(Op::Release(3, 1, 0, 1));
  ops.push_back(Op::Sleep(20 * kMsec));  // let the releaser free it
  ScriptProgram pb(ops);
  Thread* tb = kernel.Spawn("b", b, &pb);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({tb}));

  ScriptProgram pa2({Op::Touch(0, false, 0)});
  Thread* ta2 = kernel.Spawn("a2", a, &pa2);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({ta2}));
  EXPECT_EQ(ta2->faults().rescue_faults, 0u);
  EXPECT_EQ(ta2->faults().hard_faults, 1u);  // honest page-in
}

TEST(OsEdgeTest, DuplicateReleaseRequestIsIdempotent) {
  MachineConfig config = TestMachine(32);
  config.num_cpus = 1;
  Kernel kernel(config);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 4);
  as->AttachPagingDirected(0, 4);
  ScriptProgram program({Op::Touch(0, false, 0), Op::Release(0, 1, 0, 1),
                         Op::Release(0, 1, 0, 1),  // duplicate while pending
                         Op::Sleep(20 * kMsec)});
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  EXPECT_EQ(kernel.stats().release_pages_enqueued, 1u);  // second was a no-op
  EXPECT_EQ(kernel.stats().releaser_pages_freed, 1u);
}

TEST(OsEdgeTest, ReleaseRangeClippedToAddressSpace) {
  Kernel kernel(TestMachine(32));
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 4);
  as->AttachPagingDirected(0, 4);
  ScriptProgram program({Op::Touch(3, false, 0),
                         Op::Release(2, 100, 0, 1),  // range runs off the end
                         Op::Sleep(20 * kMsec)});
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  EXPECT_EQ(kernel.stats().release_pages_enqueued, 1u);  // only page 3 qualified
}

TEST(OsEdgeTest, TouchDuringWritebackWaitsForCompletion) {
  // A page released dirty is mid-writeback when re-touched: the touch must
  // wait for the write and then rescue, not read stale data from swap.
  MachineConfig config = TestMachine(32);
  config.num_cpus = 1;
  Kernel kernel(config);
  kernel.StartDaemons();
  AddressSpace* as = MakeAnonAs(kernel, "as", 4);
  as->AttachPagingDirected(0, 4);
  ScriptProgram program({
      Op::Touch(0, true, 0),       // dirty zero-fill page
      Op::Release(0, 1, 0, 1),
      Op::Sleep(2 * kMsec),        // releaser starts the writeback (~1.5 ms I/O)
      Op::Touch(0, false, 0),      // arrives while the write is in flight
  });
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  EXPECT_EQ(kernel.stats().writebacks, 1u);
  // The page came back via rescue (after the writeback) or collapse; either
  // way no second swap READ happened.
  EXPECT_EQ(kernel.swap().reads(), 0u);
  EXPECT_TRUE(as->page_table().at(0).resident);
}

TEST(OsEdgeTest, PrefetchedButNeverTouchedPageGetsInvalidatedThenStolen) {
  // A fresh prefetched page is protected for one clock pass (treated as
  // possibly referenced), then stolen if still untouched.
  MachineConfig config = TestMachine(16);
  Kernel kernel(config);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 24);
  as->AttachPagingDirected(0, 24);
  std::vector<Op> ops;
  ops.push_back(Op::Prefetch(23));  // prefetched, never used
  for (VPage p = 0; p < 23; ++p) {
    ops.push_back(Op::Touch(p, false, 100 * kUsec));  // pressure
  }
  ops.push_back(Op::Sleep(4 * config.tunables.daemon_period));
  ScriptProgram program(ops);
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  EXPECT_FALSE(as->page_table().at(23).resident);  // eventually reclaimed
}

TEST(OsEdgeTest, InterleavedProcessesKeepSeparateBitmaps) {
  Kernel kernel(TestMachine(64));
  AddressSpace* a = MakeSwapAs(kernel, "a", 8);
  a->AttachPagingDirected(0, 8);
  AddressSpace* b = MakeSwapAs(kernel, "b", 8);
  b->AttachPagingDirected(0, 8);
  ScriptProgram pa({Op::Touch(1, false, 0)});
  ScriptProgram pb({Op::Touch(2, false, 0)});
  Thread* ta = kernel.Spawn("a", a, &pa);
  Thread* tb = kernel.Spawn("b", b, &pb);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({ta, tb}));
  EXPECT_TRUE(a->bitmap()->Test(1));
  EXPECT_FALSE(a->bitmap()->Test(2));
  EXPECT_TRUE(b->bitmap()->Test(2));
  EXPECT_FALSE(b->bitmap()->Test(1));
}

TEST(OsEdgeTest, ZeroPageAddressSpaceTouchFaultsOnce) {
  Kernel kernel(TestMachine());
  AddressSpace* as = MakeSwapAs(kernel, "as", 1);
  ScriptProgram program({Op::Touch(0, false, 0), Op::Touch(0, true, 0)});
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  EXPECT_EQ(t->faults().hard_faults, 1u);
}

TEST(OsEdgeTest, ManyProcessesShareMemoryFairlyEnoughToFinish) {
  // Four sweeping processes over 4x the physical memory all complete.
  MachineConfig config = TestMachine(32);
  Kernel kernel(config);
  kernel.StartDaemons();
  std::vector<std::unique_ptr<ScriptProgram>> programs;
  std::vector<Thread*> threads;
  for (int i = 0; i < 4; ++i) {
    AddressSpace* as = MakeSwapAs(kernel, "p" + std::to_string(i), 32);
    std::vector<Op> ops;
    for (VPage p = 0; p < 32; ++p) {
      ops.push_back(Op::Touch(p, false, 50 * kUsec));
    }
    programs.push_back(std::make_unique<ScriptProgram>(std::move(ops)));
    threads.push_back(kernel.Spawn("p" + std::to_string(i), as, programs.back().get()));
  }
  ASSERT_TRUE(kernel.RunUntilThreadsDone(threads, 20'000'000));
  EXPECT_GT(kernel.stats().daemon_pages_stolen, 0u);
}

}  // namespace
}  // namespace tmh
