// Datacenter-scale structure tests: the sharded frame pool, the per-node
// allocation paths, the O(1) over-maxrss index, the kernel's per-frame
// memory footprint at 10^7 frames, and a pinned multi-node daemon storm.
//
// The unit tests pin the FramePool's contract (contiguous partition, wrap-
// order fallback; vm_test pins the single-node list order); the kernel tests
// drive the same paths through real faults; the scale tests construct the
// full 10^7-frame machine and hold footprint and per-op cost to their
// documented bounds — generous wall-clock ceilings that an O(frames) scan on
// any per-op path would blow by orders of magnitude.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/fuzz_scenario.h"
#include "src/core/experiment.h"
#include "src/vm/frame_pool.h"
#include "src/workloads/workloads.h"
#include "tests/testutil.h"

namespace tmh {
namespace {

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

// --- FramePool unit tests ----------------------------------------------------

TEST(FramePoolTest, ContiguousPartitionWithUnevenTail) {
  FramePool pool(10, 4);  // ceil(10/4) = 3 frames per node; node 3 holds 1
  EXPECT_EQ(pool.num_nodes(), 4);
  EXPECT_EQ(pool.frames_per_node(), 3);
  EXPECT_EQ(pool.NodeOf(0), 0);
  EXPECT_EQ(pool.NodeOf(2), 0);
  EXPECT_EQ(pool.NodeOf(3), 1);
  EXPECT_EQ(pool.NodeOf(9), 3);
  EXPECT_EQ(pool.NodeBegin(0), 0);
  EXPECT_EQ(pool.NodeEnd(0), 3);
  EXPECT_EQ(pool.NodeBegin(3), 9);
  EXPECT_EQ(pool.NodeEnd(3), 10);  // short final node
}

TEST(FramePoolTest, NodeCountClamped) {
  EXPECT_EQ(FramePool(100, 0).num_nodes(), 1);
  EXPECT_EQ(FramePool(100, -3).num_nodes(), 1);
  EXPECT_EQ(FramePool(100, 1000).num_nodes(), FramePool::kMaxNodes);
}

TEST(FramePoolTest, PopPrefersHomeThenWrapsAscending) {
  FramePool pool(8, 4);  // 2 frames per node
  for (FrameId f = 0; f < 8; ++f) {
    pool.PushTail(f);
  }
  // Home node served first, in list order.
  EXPECT_EQ(pool.PopHead(2), 4);
  EXPECT_EQ(pool.PopHead(2), 5);
  // Node 2 empty: fallback wraps ascending to node 3.
  EXPECT_EQ(pool.PopHead(2), 6);
  EXPECT_EQ(pool.PopHead(2), 7);
  // Nodes 2 and 3 empty: wrap past the end to node 0.
  EXPECT_EQ(pool.PopHead(2), 0);
  EXPECT_EQ(pool.PopHead(3), 1);  // home 3 empty -> wraps to node 0's remainder
  EXPECT_EQ(pool.PopHead(0), 2);  // node 0 empty -> node 1
  EXPECT_EQ(pool.PopHead(0), 3);
  EXPECT_EQ(pool.PopHead(0), kNoFrame);  // everything empty
  EXPECT_TRUE(pool.empty());
}

TEST(FramePoolTest, RemoveUnlinksAndCountsRescue) {
  FramePool pool(6, 2);
  for (FrameId f = 0; f < 6; ++f) {
    pool.PushTail(f);
  }
  ASSERT_TRUE(pool.Contains(4));
  pool.Remove(4);  // mid-list removal in node 1
  EXPECT_FALSE(pool.Contains(4));
  EXPECT_EQ(pool.total_rescues(), 1u);
  EXPECT_EQ(pool.node_size(1), 2);
  EXPECT_EQ(pool.NodeToVector(1), (std::vector<FrameId>{3, 5}));
  EXPECT_EQ(pool.node_size(0), 3);
}

// --- kernel integration: per-node allocation ---------------------------------

TEST(ScaleKernelTest, HomeNodeAllocationIsolation) {
  MachineConfig machine = TestMachine(64);
  machine.num_nodes = 4;  // 16 frames per node
  Kernel kernel(machine);
  std::vector<ScriptProgram> programs;
  programs.reserve(4);
  std::vector<Thread*> threads;
  for (int i = 0; i < 4; ++i) {
    AddressSpace* as = MakeAnonAs(kernel, "as" + std::to_string(i), 8);
    EXPECT_EQ(as->home_node(), i);  // id % nodes
    std::vector<Op> ops;
    for (VPage p = 0; p < 4; ++p) {
      ops.push_back(Op::Touch(p, /*write=*/false, 0));
    }
    programs.emplace_back(std::move(ops));
  }
  for (int i = 0; i < 4; ++i) {
    threads.push_back(kernel.Spawn("t" + std::to_string(i),
                                   kernel.address_spaces()[static_cast<size_t>(i)].get(),
                                   &programs[static_cast<size_t>(i)]));
  }
  ASSERT_TRUE(kernel.RunUntilThreadsDone(threads));
  // With every home list non-empty, no allocation ever crossed nodes.
  const std::vector<uint64_t>& per_node = kernel.node_allocations();
  ASSERT_EQ(per_node.size(), 4u);
  for (int node = 0; node < 4; ++node) {
    EXPECT_EQ(per_node[static_cast<size_t>(node)], 4u) << "node " << node;
  }
  // Every frame left on a node's free list belongs to that node's range.
  const FramePool& pool = kernel.frame_pool();
  for (int node = 0; node < pool.num_nodes(); ++node) {
    for (const FrameId f : pool.NodeToVector(node)) {
      EXPECT_EQ(pool.NodeOf(f), node);
    }
  }
}

TEST(ScaleKernelTest, ExhaustedHomeNodeFallsBackToNextInWrapOrder) {
  MachineConfig machine = TestMachine(16);
  machine.num_nodes = 4;  // 4 frames per node
  machine.tunables.min_freemem_pages = 0;  // keep the daemon out of the way
  Kernel kernel(machine);
  AddressSpace* as = MakeAnonAs(kernel, "as0", 8);
  ASSERT_EQ(as->home_node(), 0);
  std::vector<Op> ops;
  for (VPage p = 0; p < 6; ++p) {
    ops.push_back(Op::Touch(p, /*write=*/false, 0));
  }
  ScriptProgram program(std::move(ops));
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  // First 4 allocations drain node 0; the next 2 spill into node 1.
  const std::vector<uint64_t>& per_node = kernel.node_allocations();
  EXPECT_EQ(per_node[0], 4u);
  EXPECT_EQ(per_node[1], 2u);
  EXPECT_EQ(per_node[2], 0u);
  EXPECT_EQ(per_node[3], 0u);
}

TEST(ScaleKernelTest, FirstOverMaxrssTracksLowestId) {
  MachineConfig machine = TestMachine(64);
  machine.tunables.min_freemem_pages = 0;
  machine.tunables.maxrss_pages = 4;
  Kernel kernel(machine);
  AddressSpace* a = MakeAnonAs(kernel, "a", 16);
  AddressSpace* b = MakeAnonAs(kernel, "b", 16);
  EXPECT_EQ(kernel.FirstOverMaxrss(), nullptr);

  auto touch_range = [&kernel](AddressSpace* as, VPage first, VPage count) {
    std::vector<Op> ops;
    for (VPage p = first; p < first + count; ++p) {
      ops.push_back(Op::Touch(p, /*write=*/false, 0));
    }
    ScriptProgram program(std::move(ops));
    Thread* t = kernel.Spawn("t", as, &program);
    ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  };

  touch_range(a, 0, 3);  // a under maxrss
  EXPECT_EQ(kernel.FirstOverMaxrss(), nullptr);
  touch_range(b, 0, 6);  // b over
  EXPECT_EQ(kernel.FirstOverMaxrss(), b);
  touch_range(a, 3, 4);  // both over: lowest id wins (creation order)
  EXPECT_EQ(kernel.FirstOverMaxrss(), a);
}

// --- multi-node end-to-end under the checker ---------------------------------

TEST(ScaleKernelTest, MultiNodeCheckedExperimentStaysClean) {
  MultiExperimentSpec spec;
  spec.machine = TestMachine(384);
  spec.machine.num_nodes = 4;
  spec.checks = true;
  spec.check_options.full_check_period = 64;
  spec.max_events = 30'000'000;
  for (int i = 0; i < 3; ++i) {
    MultiAppSpec app;
    app.workload = MakeMatvec(0.02);
    app.version = i == 0 ? AppVersion::kOriginal : AppVersion::kBuffered;
    // Staggered arrivals: tenant churn under the per-node oracle.
    app.start_delay = i * 40 * kMsec;
    spec.apps.push_back(std::move(app));
  }
  const MultiExperimentResult result = RunMultiExperiment(spec);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.check_failure, "") << result.check_failure;
  EXPECT_GT(result.checks_run, 0u);
}

TEST(ScaleKernelTest, StartDelayChargesSleepBeforeFirstInstruction) {
  MultiExperimentSpec spec;
  spec.machine = TestMachine(256);
  spec.max_events = 30'000'000;
  const SimDuration delay = 200 * kMsec;
  for (int i = 0; i < 2; ++i) {
    MultiAppSpec app;
    app.workload = MakeMatvec(0.02);
    app.version = AppVersion::kRelease;
    app.start_delay = i == 1 ? delay : 0;
    spec.apps.push_back(std::move(app));
  }
  const MultiExperimentResult result = RunMultiExperiment(spec);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.apps.size(), 2u);
  EXPECT_LT(result.apps[0].times.sleep, delay);
  EXPECT_GE(result.apps[1].times.sleep, delay);
}

TEST(ScaleKernelTest, FuzzScenarioMultiTenantDrawsReachTheSpec) {
  Scenario s;
  s.num_nodes = 4;
  s.storm_delay = 100 * kMsec;
  FuzzApp app;
  app.workload = "MATVEC";
  s.apps = {app, app, app};
  MultiExperimentSpec spec = ToSpec(s);
  EXPECT_EQ(spec.machine.num_nodes, 4);
  ASSERT_EQ(spec.apps.size(), 3u);
  EXPECT_EQ(spec.apps[0].start_delay, 0);  // first tenant is the incumbent
  EXPECT_EQ(spec.apps[1].start_delay, 100 * kMsec);
  EXPECT_EQ(spec.apps[2].start_delay, 100 * kMsec);

  s.storm_delay = 0;
  s.churn_stagger = 60 * kMsec;
  spec = ToSpec(s);
  EXPECT_EQ(spec.apps[0].start_delay, 0);
  EXPECT_EQ(spec.apps[1].start_delay, 60 * kMsec);
  EXPECT_EQ(spec.apps[2].start_delay, 120 * kMsec);
}

// --- 10^7-frame scale --------------------------------------------------------

constexpr int64_t kTenMillion = 10'000'000;

TEST(ScaleTest, TenMillionFrameKernelFitsFootprintBound) {
  MachineConfig machine;
  machine.page_size_bytes = 4 * 1024;
  machine.user_memory_bytes = kTenMillion * machine.page_size_bytes;
  machine.num_nodes = 8;
  ASSERT_EQ(machine.num_frames(), kTenMillion);
  Kernel kernel(machine);
  const int64_t bytes = kernel.frames().MemoryFootprintBytes() +
                        kernel.frame_pool().MemoryFootprintBytes();
  // Documented bound: FrameTable ~13.6 B/frame + FramePool 8 B/frame < 24.
  EXPECT_LT(static_cast<double>(bytes) / static_cast<double>(kTenMillion), 24.0);
  EXPECT_EQ(kernel.frame_pool().size(), kTenMillion);
  EXPECT_EQ(kernel.frame_pool().num_nodes(), 8);
}

// Resident bytes of this process, from /proc/self/statm (0 if unreadable).
int64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  long long size = 0;
  long long resident = 0;
  const int read = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  return read == 2 ? resident * sysconf(_SC_PAGESIZE) : 0;
}

// Booting the machine writes O(nodes) words: the per-frame arrays are zero
// pages the host commits only when a simulated frame first uses them. Filling
// them (as the kernel once did) commits about 206 MB here.
TEST(ScaleTest, TenMillionFrameKernelCommitsOnlyWhatItTouches) {
  MachineConfig machine;
  machine.page_size_bytes = 4 * 1024;
  machine.user_memory_bytes = kTenMillion * machine.page_size_bytes;
  machine.num_nodes = 8;
  const int64_t before = ResidentBytes();
  ASSERT_GT(before, 0) << "/proc/self/statm unreadable";
  Kernel kernel(machine);
  const int64_t committed = ResidentBytes() - before;
  EXPECT_LT(committed, int64_t{4} << 20) << committed << " bytes committed by construction";
  const FramePool& pool = kernel.frame_pool();
  EXPECT_EQ(pool.size(), kTenMillion);
  for (int node = 0; node < pool.num_nodes(); ++node) {
    EXPECT_EQ(pool.head(node), pool.NodeBegin(node)) << "node " << node;
  }
}

TEST(ScaleTest, PoolOpsStayConstantTimeAtTenMillionFrames) {
  FramePool pool(kTenMillion, 8);
  for (FrameId f = 0; f < kTenMillion; ++f) {
    pool.PushTail(f);
  }
  // 1M mixed alloc/free/rescue ops. Any O(frames) scan inside one of these
  // ops would turn this loop into ~10^13 work; the 5 s ceiling is thousands
  // of times above what the O(1) implementation needs.
  const double start = NowSeconds();
  uint64_t x = 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < 1'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const FrameId f = pool.PopHead(static_cast<int>(x % 8));
    ASSERT_NE(f, kNoFrame);
    if ((x & 3) == 0) {
      // Rescue path: push, remove from mid-list, push back.
      pool.PushTail(f);
      pool.Remove(f);
      pool.PushHead(f);
    } else if ((x & 1) != 0) {
      pool.PushTail(f);
    } else {
      pool.PushHead(f);
    }
  }
  const double elapsed = NowSeconds() - start;
  EXPECT_LT(elapsed, 5.0) << "per-frame ops are not O(1)";
  EXPECT_EQ(pool.size(), kTenMillion);
}

// --- multi-node reclaim pin --------------------------------------------------

// Sleeps `arrival`, then touches its pages front to back `laps` times.
class LapToucher : public Program {
 public:
  LapToucher(VPage pages, int laps, SimDuration arrival)
      : pages_(pages), laps_(laps), arrival_(arrival) {}

  Op Next(Kernel&) override {
    if (arrival_ > 0) {
      const SimDuration d = arrival_;
      arrival_ = 0;
      return Op::Sleep(d);
    }
    if (page_ == pages_) {
      page_ = 0;
      if (++lap_ == laps_) {
        return Op::Exit();
      }
    }
    return Op::Touch(page_++, /*write=*/false, 0);
  }

 private:
  const VPage pages_;
  const int laps_;
  SimDuration arrival_;
  VPage page_ = 0;
  int lap_ = 0;
};

// FNV-1a over 64-bit values.
class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  }
  [[nodiscard]] uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

// A daemon storm shaped like perfbench's smoke one: 16 tenants of 2048 pages
// on a 2^18-frame, 8-node machine, free memory pinned below min_freemem and
// maxrss at half the working set, so the per-node clock hands and the
// over-maxrss hunt run throughout: the smoke storm gathers about 26K
// batches, about 740 of them for a hunt, and about 200 passes lap a node
// without finding one. Which frames a batch holds, where a hand stops and how
// many frames a pass counts all move a kernel stat, a tenant's times or a
// node's allocations, so the digest pins the multi-node reclaim path.
TEST(ScaleTest, MultiNodeDaemonStormMatchesPinnedDigest) {
  constexpr int64_t kFrames = int64_t{1} << 18;
  constexpr int kTenants = 16;
  constexpr VPage kPages = 2048;
  MachineConfig machine;
  machine.page_size_bytes = 4 * 1024;
  machine.user_memory_bytes = kFrames * machine.page_size_bytes;
  machine.num_nodes = 8;
  machine.tunables.min_freemem_pages = kFrames - kTenants * kPages / 2;
  machine.tunables.target_freemem_pages = kFrames - kTenants * kPages / 4;
  machine.tunables.maxrss_pages = kPages / 2;
  Kernel kernel(machine);
  kernel.StartDaemons();
  std::vector<std::unique_ptr<LapToucher>> programs;
  std::vector<Thread*> threads;
  uint64_t x = 0x2545f4914f6cdd1dULL;
  for (int i = 0; i < kTenants; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::string name = "t" + std::to_string(i);
    AddressSpace* as = kernel.CreateAddressSpace(name, kPages * machine.page_size_bytes);
    as->AddRegion(Region{"data", 0, kPages, Backing::kZeroFill});
    programs.push_back(std::make_unique<LapToucher>(
        kPages, /*laps=*/2, static_cast<SimDuration>(x % static_cast<uint64_t>(kMsec))));
    threads.push_back(kernel.Spawn(name, as, programs.back().get()));
  }
  ASSERT_TRUE(kernel.RunUntilThreadsDone(threads));

  const KernelStats& stats = kernel.stats();
  EXPECT_GT(stats.daemon_pages_stolen, 0u);
  Fnv digest;
#define TMH_DIGEST_STAT(field) digest.Add(stats.field);
  TMH_KERNEL_STATS(TMH_DIGEST_STAT)
#undef TMH_DIGEST_STAT
  for (const Thread* t : threads) {
    const TimeBreakdown& times = t->times();
    for (const SimDuration d :
         {times.user, times.system, times.resource_stall, times.io_stall, times.sleep}) {
      digest.Add(static_cast<uint64_t>(d));
    }
  }
  for (const uint64_t n : kernel.node_allocations()) {
    digest.Add(n);
  }
  EXPECT_EQ(digest.value(), 0xcd6747b7a40ca5b7ull) << std::hex << digest.value() << std::dec
                                    << " stolen=" << stats.daemon_pages_stolen
                                    << " invalidations=" << stats.daemon_invalidations
                                    << " activations=" << stats.daemon_activations;
}

}  // namespace
}  // namespace tmh
