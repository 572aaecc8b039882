// ext_scale — datacenter-scale benches for the kernel's per-frame
// structures.
//
// The paper's machine has 4,800 frames; these benches hold the same kernel to
// a 10^7-frame, 8-node machine with ~100 tenants, where any per-frame or
// per-AS linear scan on a hot path stops being noise and starts being the
// bill. Four storms drive the paths that must stay O(1)-amortized:
//
//   scale_fault_storm     tenants zero-fill-fault and re-touch their working
//                         sets (allocation, fault, map/unmap)
//   scale_release_storm   touch + explicit release + re-touch (releaser
//                         frees, tail pushes, rescue from the free list)
//   scale_daemon_storm    free memory pinned below min_freemem and tight
//                         maxrss, so the paging daemon's per-node clock hands
//                         and the over-maxrss index run continuously
//   scale_tenant_churn    staggered tenant arrivals/departures (the daemon
//                         reclaims each leaver's residue while later tenants
//                         run)
//
// Each storm reports sim-events/s, next to a micro bench of the sharded frame
// pool and a footprint entry holding the per-frame metadata to its documented
// bound (FrameTable ~13.6 B/frame + FramePool 2*sizeof(FrameId) B/frame,
// < 24 B total at the default type widths); the report is printed to stdout
// as JSON. The binary exits nonzero if the bound, per-node allocation
// isolation, or storm completion fails, so the smoke ctest is a correctness
// check as well as a build check. perfbench's kernel_storms workload times
// seeded variants of these storms at full scale.
//
// Usage: ext_scale [--smoke] [--nodes N]
//   --smoke    reduced machine (2^18 frames) for the <30 s ctest target
//   --nodes N  memory nodes for every bench (default 8, max 64)

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cli_args.h"
#include "src/os/address_space.h"
#include "src/os/config.h"
#include "src/os/kernel.h"
#include "src/os/thread.h"
#include "src/vm/frame_pool.h"

namespace tmh {
namespace {

struct ScaleParams {
  int64_t frames = 10'000'000;  // 40 GB of 4 KB pages
  int num_nodes = 8;
  int tenants = 96;
  VPage pages_per_tenant = 4096;
  int laps = 3;
  uint64_t pool_churn_iters = 5'000'000;
  uint64_t max_events = 400'000'000;
};

ScaleParams SmokeParams() {
  ScaleParams p;
  p.frames = 262'144;  // 1 GB of 4 KB pages
  p.tenants = 16;
  p.pages_per_tenant = 2048;
  p.laps = 2;
  p.pool_churn_iters = 500'000;
  return p;
}

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

MachineConfig ScaleMachine(const ScaleParams& p) {
  MachineConfig machine;
  machine.page_size_bytes = 4 * 1024;
  machine.user_memory_bytes = p.frames * machine.page_size_bytes;
  machine.num_nodes = p.num_nodes;
  return machine;
}

// Sequential reader: optional arrival sleep, then `laps` passes over
// [0, pages). First-lap touches are zero-fill faults; later laps re-touch.
class SequentialToucher : public Program {
 public:
  SequentialToucher(VPage pages, int laps, SimDuration arrival = 0)
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

// Touch a window, release it, move on; re-touches of released-but-unfreed
// pages rescue frames from the free list (Section 3.1.2 at scale).
class ReleaseStormer : public Program {
 public:
  ReleaseStormer(VPage pages, int laps, int32_t tag)
      : pages_(pages), laps_(laps), tag_(tag) {}

  Op Next(Kernel&) override {
    if (pending_release_) {
      pending_release_ = false;
      const VPage first = page_ - kWindow;
      return Op::Release(first, kWindow, /*prio=*/0, tag_);
    }
    if (page_ == pages_) {
      page_ = 0;
      if (++lap_ == laps_) {
        return Op::Exit();
      }
    }
    const Op op = Op::Touch(page_++, /*write=*/false, 0);
    if (page_ % kWindow == 0) {
      pending_release_ = true;
    }
    return op;
  }

 private:
  static constexpr VPage kWindow = 64;
  const VPage pages_;
  const int laps_;
  const int32_t tag_;
  VPage page_ = 0;
  int lap_ = 0;
  bool pending_release_ = false;
};

struct StormResult {
  std::string name;
  double wall_s = 0;
  uint64_t sim_events = 0;
  double sim_events_per_s = 0;
  bool completed = false;
};

struct Tenant {
  AddressSpace* as = nullptr;
  std::unique_ptr<Program> program;
  Thread* thread = nullptr;
};

// Builds `tenants` identical tenants, each with its own zero-fill AS, runs
// every tenant thread to completion, and reports event throughput.
template <typename MakeProgram>
StormResult RunStorm(const std::string& name, const ScaleParams& p,
                     const MachineConfig& machine, bool attach_pm,
                     MakeProgram&& make_program, Kernel** kernel_out = nullptr,
                     std::unique_ptr<Kernel>* keep = nullptr) {
  auto kernel = std::make_unique<Kernel>(machine);
  kernel->StartDaemons();
  std::vector<Tenant> tenants(static_cast<size_t>(p.tenants));
  std::vector<Thread*> threads;
  threads.reserve(tenants.size());
  for (size_t i = 0; i < tenants.size(); ++i) {
    Tenant& t = tenants[i];
    const std::string tenant_name = "t" + std::to_string(i);
    t.as = kernel->CreateAddressSpace(
        tenant_name, p.pages_per_tenant * machine.page_size_bytes);
    t.as->AddRegion(Region{"data", 0, p.pages_per_tenant, Backing::kZeroFill});
    if (attach_pm) {
      t.as->AttachPagingDirected(0, t.as->num_pages());
    }
    t.program = make_program(static_cast<int>(i));
    t.thread = kernel->Spawn(tenant_name, t.as, t.program.get());
    threads.push_back(t.thread);
  }

  const double start = NowSeconds();
  const bool completed = kernel->RunUntilThreadsDone(threads, p.max_events);
  const double elapsed = NowSeconds() - start;

  StormResult r;
  r.name = name;
  r.wall_s = elapsed;
  r.sim_events = kernel->event_queue().ExecutedCount();
  r.sim_events_per_s = static_cast<double>(r.sim_events) / elapsed;
  r.completed = completed;
  if (kernel_out != nullptr && keep != nullptr) {
    *keep = std::move(kernel);
    *kernel_out = keep->get();
  }
  return r;
}

struct PoolChurnResult {
  double ns_per_op = 0;
  double items_per_s = 0;
  uint64_t items = 0;
};

// FramePool alone at full scale: pop from a rotating home node, push back
// alternating head/tail. Every operation must stay O(1) — one slow op in
// 5 million iterations over a 10^7-frame arena shows up immediately.
PoolChurnResult PoolChurn(const ScaleParams& p) {
  FramePool pool(p.frames, p.num_nodes);
  for (FrameId f = 0; f < p.frames; ++f) {
    pool.PushTail(f);
  }
  const double start = NowSeconds();
  uint64_t x = 0x9e3779b97f4a7c15ULL;  // cheap deterministic mixer
  for (uint64_t i = 0; i < p.pool_churn_iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const int node = static_cast<int>(x % static_cast<uint64_t>(pool.num_nodes()));
    const FrameId f = pool.PopHead(node);
    if ((x & 1) != 0) {
      pool.PushTail(f);
    } else {
      pool.PushHead(f);
    }
  }
  const double elapsed = NowSeconds() - start;
  PoolChurnResult r;
  r.items = p.pool_churn_iters;
  r.ns_per_op = elapsed * 1e9 / static_cast<double>(p.pool_churn_iters);
  r.items_per_s = static_cast<double>(p.pool_churn_iters) / elapsed;
  return r;
}

// Documented per-frame metadata bound: FrameTable's SoA planes plus the
// pool's two link arrays. Generous headroom over the ~21.6 B/frame the
// default type widths produce, tight enough to catch any per-frame field
// creeping in (one added int64 plane would blow it).
constexpr double kBytesPerFrameBound = 24.0;

bool EmitAndCheck(const ScaleParams& p) {
  bool ok = true;

  // Kernel construction + footprint at full scale.
  const MachineConfig machine = ScaleMachine(p);
  double construct_wall = 0;
  double bytes_per_frame = 0;
  {
    const double start = NowSeconds();
    Kernel kernel(machine);
    construct_wall = NowSeconds() - start;
    const int64_t bytes = kernel.frames().MemoryFootprintBytes() +
                          kernel.frame_pool().MemoryFootprintBytes();
    bytes_per_frame = static_cast<double>(bytes) / static_cast<double>(p.frames);
    if (bytes_per_frame > kBytesPerFrameBound) {
      std::fprintf(stderr,
                   "ext_scale: frame metadata is %.2f B/frame, bound is %.1f\n",
                   bytes_per_frame, kBytesPerFrameBound);
      ok = false;
    }
  }

  const PoolChurnResult pool = PoolChurn(p);

  std::vector<StormResult> storms;

  {
    std::unique_ptr<Kernel> keep;
    Kernel* kernel = nullptr;
    storms.push_back(RunStorm(
        "scale_fault_storm", p, machine, /*attach_pm=*/false,
        [&p](int) {
          return std::make_unique<SequentialToucher>(p.pages_per_tenant, p.laps);
        },
        &kernel, &keep));
    // Per-node isolation: with tenants on every home node (id % nodes) and a
    // mostly-empty machine, every node must have served allocations.
    const std::vector<uint64_t>& per_node = kernel->node_allocations();
    for (size_t node = 0; node < per_node.size(); ++node) {
      if (per_node[node] == 0) {
        std::fprintf(stderr,
                     "ext_scale: node %zu served zero allocations "
                     "(home-node routing broken)\n",
                     node);
        ok = false;
      }
    }
  }

  storms.push_back(RunStorm("scale_release_storm", p, machine,
                            /*attach_pm=*/true, [&p](int i) {
                              return std::make_unique<ReleaseStormer>(
                                  p.pages_per_tenant, p.laps, i);
                            }));

  {
    // Pin free memory below min_freemem and cap maxrss below the tenant
    // working set, so the per-node clock hands and the over-maxrss index are
    // exercised for the whole run rather than just at the edges.
    MachineConfig pressured = machine;
    pressured.tunables.min_freemem_pages =
        p.frames - p.tenants * p.pages_per_tenant / 2;
    pressured.tunables.target_freemem_pages =
        p.frames - p.tenants * p.pages_per_tenant / 4;
    pressured.tunables.maxrss_pages = p.pages_per_tenant / 2;
    storms.push_back(RunStorm("scale_daemon_storm", p, pressured,
                              /*attach_pm=*/false, [&p](int) {
                                return std::make_unique<SequentialToucher>(
                                    p.pages_per_tenant, p.laps);
                              }));
  }

  storms.push_back(RunStorm("scale_tenant_churn", p, machine,
                            /*attach_pm=*/false, [&p](int i) {
                              return std::make_unique<SequentialToucher>(
                                  p.pages_per_tenant, /*laps=*/1,
                                  /*arrival=*/i * 50 * kMsec);
                            }));

  for (const StormResult& s : storms) {
    if (!s.completed) {
      std::fprintf(stderr, "ext_scale: %s hit the event budget before finishing\n",
                   s.name.c_str());
      ok = false;
    }
  }

  std::printf("{\n  \"benchmarks\": [\n");
  std::printf("    {\"name\": \"scale_kernel_construct\", \"wall_s\": %.4f, "
              "\"bytes_per_frame\": %.2f, \"frames\": %" PRId64 ", \"nodes\": %d},\n",
              construct_wall, bytes_per_frame, p.frames, p.num_nodes);
  std::printf("    {\"name\": \"scale_pool_churn\", \"ns_per_op\": %.4f, "
              "\"items_per_s\": %.0f, \"items\": %" PRIu64 "},\n",
              pool.ns_per_op, pool.items_per_s, pool.items);
  for (size_t i = 0; i < storms.size(); ++i) {
    const StormResult& s = storms[i];
    std::printf("    {\"name\": \"%s\", \"wall_s\": %.4f, \"sim_events\": %" PRIu64
                ", \"sim_events_per_s\": %.0f, \"completed\": %s}%s\n",
                s.name.c_str(), s.wall_s, s.sim_events, s.sim_events_per_s,
                s.completed ? "true" : "false", i + 1 == storms.size() ? "" : ",");
  }
  std::printf("  ]\n}\n");
  return ok;
}

}  // namespace
}  // namespace tmh

int main(int argc, char** argv) {
  bool smoke = false;
  int nodes = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--nodes requires a value\n");
        return 2;
      }
      nodes = static_cast<int>(tmh::IntegerArg("--nodes", argv[++i], 1, tmh::FramePool::kMaxNodes));
    } else {
      std::fprintf(stderr, "ext_scale: unexpected argument '%s' (usage: [--smoke] [--nodes N])\n",
                   argv[i]);
      return 2;
    }
  }

  tmh::ScaleParams params = smoke ? tmh::SmokeParams() : tmh::ScaleParams{};
  if (nodes > 0) {
    params.num_nodes = nodes;
  }
  return tmh::EmitAndCheck(params) ? 0 : 1;
}
