// The invariant checker's full sweep runs after every simulated event, so a
// clean sweep must not touch the heap: its scratch lives in the checker and
// is sized once. This binary replaces global operator new with a counting
// one, which is why it is built apart from tmh_tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/check/invariants.h"
#include "src/os/kernel.h"
#include "tests/testutil.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tmh {
namespace {

// Heap allocations made by one clean CheckNow, after one warm-up sweep.
uint64_t SweepAllocations(Kernel& kernel, InvariantChecker& checker) {
  EXPECT_TRUE(checker.CheckNow(kernel)) << checker.failure();
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const bool clean = checker.CheckNow(kernel);
  const uint64_t made = g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(clean) << checker.failure();
  return made;
}

// Two paging-directed tenants touch more pages than the machine holds, then
// release some. The first sweep runs while releases are still queued (the
// I-RQ lookup is built), the second after the run has drained.
void ExpectAllocationFreeSweeps(const MachineConfig& config) {
  Kernel kernel(config);
  InvariantChecker checker(kernel);
  kernel.StartDaemons();
  std::vector<ScriptProgram> programs;
  programs.reserve(2);
  std::vector<Thread*> threads;
  for (int i = 0; i < 2; ++i) {
    AddressSpace* as = MakeSwapAs(kernel, i == 0 ? "a" : "b", 40);
    as->AttachPagingDirected(0, 40);
    std::vector<Op> ops;
    for (VPage p = 0; p < 40; ++p) {
      ops.push_back(Op::Touch(p, p % 4 == 0, 50 * kUsec));
    }
    ops.push_back(Op::Release(8, 16, 0, 1));
    ops.push_back(Op::Sleep(50 * kMsec));
    programs.emplace_back(ops);
    threads.push_back(kernel.Spawn(i == 0 ? "a" : "b", as, &programs.back()));
  }
  ASSERT_TRUE(kernel.RunUntilDone([&] { return !kernel.release_work().empty(); }));
  EXPECT_EQ(SweepAllocations(kernel, checker), 0u);
  ASSERT_TRUE(kernel.RunUntilThreadsDone(threads));
  EXPECT_EQ(SweepAllocations(kernel, checker), 0u);
}

TEST(CheckAllocTest, FlatMachineSweepAllocatesNothing) {
  ExpectAllocationFreeSweeps(TestMachine(48));
}

TEST(CheckAllocTest, EightNodeMachineSweepAllocatesNothing) {
  MachineConfig config = TestMachine(64);
  config.num_nodes = 8;
  ExpectAllocationFreeSweeps(config);
}

TEST(CheckAllocTest, ThreeTierMachineSweepAllocatesNothing) {
  MachineConfig config = TestMachine(48);
  config.tiers.push_back(TierSpec{});  // tiers[0] = DRAM
  for (int t = 0; t < 2; ++t) {
    TierSpec tier;
    tier.frames = 16;
    config.tiers.push_back(tier);
  }
  ExpectAllocationFreeSweeps(config);
}

}  // namespace
}  // namespace tmh
