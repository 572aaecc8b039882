// Micro-benchmarks (google-benchmark) for the substrate's hot paths: the
// event queue, the frame pool, the residency bitmap, the paging daemon's
// clock pass, the compiler pass, small end-to-end experiments and the
// parallel Figure-7 sweep. These guard the simulator's own performance, which
// bounds how large a paper-scale experiment is practical.
//
// The entries named in bench/micro_bench_snapshot.json are gated by
// tools/perf_gate.py (the perf_gate ctest target). Their repetition counts
// are fixed here, because the gate reads each entry's best repetition.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/compiler/compile.h"
#include "src/core/experiment.h"
#include "src/os/paging_daemon.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/runtime_layer.h"
#include "src/sim/event_queue.h"
#include "src/sim/ring_buffer.h"
#include "src/sim/rng.h"
#include "src/vm/frame_pool.h"
#include "src/vm/frame_table.h"
#include "src/vm/residency_bitmap.h"
#include "src/workloads/workloads.h"

namespace tmh {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    for (int i = 0; i < state.range(0); ++i) {
      q.ScheduleAt((i * 7919) % 100000, [] {});
    }
    q.RunToCompletion();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000)->Repetitions(5);

void BM_FramePoolChurn(benchmark::State& state) {
  const int64_t frames = state.range(0);
  FramePool pool(frames, 1, FramePool::AllFree{});
  Rng rng(1);
  for (auto _ : state) {
    const FrameId f = pool.PopHead(0);
    benchmark::DoNotOptimize(f);
    if (rng.NextBelow(2) == 0) {
      pool.PushTail(f);
    } else {
      pool.PushHead(f);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FramePoolChurn)->Arg(4800)->Repetitions(5);

void BM_BitmapSetTestClear(benchmark::State& state) {
  ResidencyBitmap bitmap(32768);
  Rng rng(2);
  for (auto _ : state) {
    const auto page = static_cast<VPage>(rng.NextBelow(32768));
    bitmap.Set(page);
    benchmark::DoNotOptimize(bitmap.Test(page));
    bitmap.Clear(page);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitmapSetTestClear);

void BM_BitmapRangeOps(benchmark::State& state) {
  // Word-wise SetRange/FindFirstResident/ClearRange over region-sized spans —
  // the paging-directed setup/teardown and rescue-scan paths.
  const int64_t pages = 32768;
  const int64_t span = state.range(0);
  ResidencyBitmap bitmap(pages);
  for (auto _ : state) {
    for (int64_t first = 0; first + span <= pages; first += span) {
      bitmap.SetRange(first, span);
      benchmark::DoNotOptimize(bitmap.FindFirstResident(first, span));
      bitmap.ClearRange(first, span);
    }
  }
  state.SetItemsProcessed(state.iterations() * (pages / span) * span * 3);
}
BENCHMARK(BM_BitmapRangeOps)->Arg(512)->Arg(37)->Repetitions(5);

void BM_DaemonClockPass(benchmark::State& state) {
  // The paging daemon's clock pass as it ships (GatherClockBatch) on a
  // kernel_storms-shaped node: 1.25M frames, the low 4% mapped by 12 owners
  // interleaved in runs of about two frames, ~6% of those io_busy, the rest
  // empty. Passes run back to back from the hand the last one left, batch
  // limit 96, with the over-maxrss filter off (first arg 0) or hunting owner
  // 0 (1), unbounded (second arg 0) or bounded at the mapped top as the
  // daemon bounds it at the node's high-water mark (1); items = frames the
  // hand passed.
  constexpr int64_t kFrames = 1'250'000;
  FrameTable table(kFrames);
  Rng rng(3);
  AsId owner = 0;
  for (FrameId f = 0; f < kFrames / 25; ++f) {
    if (rng.NextBelow(2) == 0) {
      owner = static_cast<AsId>(rng.NextBelow(12));
    }
    table.set_mapped(f, true);
    table.set_owner(f, owner);
    table.set_io_busy(f, rng.NextBelow(16) == 0);
  }
  const AsId filter = state.range(0) == 0 ? kNoAs : 0;
  const int64_t bound = state.range(1) == 0 ? kFrames : kFrames / 25;
  std::vector<FrameId> batch;
  int64_t hand = 0;
  int64_t passed = 0;
  for (auto _ : state) {
    const ClockPass pass =
        GatherClockBatch(table, 0, kFrames, hand, filter, 96, &batch, bound);
    hand = pass.hand;
    passed += pass.passed;
    benchmark::DoNotOptimize(batch.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(passed);
}
BENCHMARK(BM_DaemonClockPass)->Args({0, 0})->Args({1, 0})->Args({0, 1})->Args({1, 1});

void BM_FrameTablePerFrameScan(benchmark::State& state) {
  // A frame-at-a-time scan via per-frame accessor calls (no word-level
  // fusion), kept as the comparison point for BM_DaemonClockPass's frames
  // passed per second; items = frames examined.
  const int64_t frames = state.range(0);
  FrameTable table(frames);
  Rng rng(3);
  for (FrameId f = 0; f < frames; ++f) {
    table.set_mapped(f, rng.NextBelow(4) != 0);
    table.set_io_busy(f, rng.NextBelow(16) == 0);
    table.set_referenced(f, rng.NextBelow(2) == 0);
  }
  for (auto _ : state) {
    int64_t eligible = 0;
    for (FrameId f = 0; f < frames; ++f) {
      if (!table.mapped(f) || table.io_busy(f)) {
        continue;
      }
      eligible += table.referenced(f) ? 0 : 1;
    }
    benchmark::DoNotOptimize(eligible);
  }
  state.SetItemsProcessed(state.iterations() * frames);
}
BENCHMARK(BM_FrameTablePerFrameScan)->Arg(4800)->Arg(32768);

void BM_RingBufferChurn(benchmark::State& state) {
  // The release-work queue pattern: small bursts pushed by the releaser's
  // gather, drained by the worker, occupancy near zero but total traffic in
  // the millions. After warm-up the ring never allocates.
  struct Item {
    void* as;
    int64_t vpage;
  };
  RingBuffer<Item> ring;
  const int burst = static_cast<int>(state.range(0));
  int64_t next = 0;
  for (auto _ : state) {
    for (int i = 0; i < burst; ++i) {
      ring.push_back(Item{nullptr, next++});
    }
    while (!ring.empty()) {
      benchmark::DoNotOptimize(ring.front().vpage);
      ring.pop_front();
    }
  }
  state.SetItemsProcessed(state.iterations() * burst);
}
BENCHMARK(BM_RingBufferChurn)->Arg(8)->Arg(64);

void BM_CompilerPass(benchmark::State& state) {
  const SourceProgram program = MakeMgrid(1.0);  // the most nests and refs
  const MachineConfig machine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompileVersion(program, machine, AppVersion::kBuffered));
  }
}
BENCHMARK(BM_CompilerPass);

void BM_InterpreterThroughput(benchmark::State& state) {
  // How fast the interpreter hands ops to the kernel (ops/sec bounds how large
  // an experiment is practical). Arg 0: a paper-scale EMBAR O, a streaming
  // nest with no hints. Arg 1: the Figure-7 grid's op shape, CGM P at scale
  // 0.01 drained through a real RuntimeLayer as OpStreamPinTest sets it up
  // (every third page resident, the kernel never runs): one-iteration
  // indirect steps with hints on every iteration. Items = ops.
  const bool grid_shape = state.range(0) == 1;
  constexpr double kGridScale = 0.01;
  MachineConfig machine;
  if (grid_shape) {
    machine.user_memory_bytes =
        static_cast<int64_t>(static_cast<double>(machine.user_memory_bytes) * kGridScale);
  }
  const SourceProgram source = grid_shape ? MakeCgm(kGridScale) : MakeEmbar(1.0);
  const CompiledProgram program =
      grid_shape ? CompileVersion(source, machine, AppVersion::kPrefetch)
                 : Compile(source, CompilerTarget{}, CompileOptions{false, false});
  for (auto _ : state) {
    Kernel kernel(machine);
    AddressSpace* as = kernel.CreateAddressSpace(
        "as", (program.layout.total_pages() + source.text_pages) * machine.page_size_bytes);
    as->AddRegion(Region{"data", 0, program.layout.total_pages(), Backing::kSwap});
    as->AddRegion(Region{"text", program.layout.total_pages(), source.text_pages,
                         Backing::kZeroFill});
    std::unique_ptr<RuntimeLayer> runtime;
    if (grid_shape) {
      as->AttachPagingDirected(0, as->num_pages());
      runtime = std::make_unique<RuntimeLayer>(&kernel, as, RuntimeOptions{});
      for (VPage page = 0; page < as->num_pages(); page += 3) {
        as->bitmap()->Set(page);
      }
    }
    Interpreter interp(&program, as, runtime.get());
    int64_t ops = 0;
    while (interp.Next(kernel).kind != Op::Kind::kExit) {
      ++ops;
    }
    state.SetItemsProcessed(state.items_processed() + ops);
  }
}
BENCHMARK(BM_InterpreterThroughput)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RuntimeHintFiltering(benchmark::State& state) {
  // The hint-check fast path: CGM issues tens of millions of these.
  MachineConfig machine;
  machine.user_memory_bytes = 8 * 1024 * 1024;
  Kernel kernel(machine);
  kernel.StartDaemons();
  AddressSpace* as = kernel.CreateAddressSpace("as", 4 * 1024 * 1024);
  as->AddRegion(Region{"data", 0, as->num_pages(), Backing::kSwap});
  as->AttachPagingDirected(0, as->num_pages());
  RuntimeOptions options;
  options.num_prefetch_threads = 1;
  RuntimeLayer layer(&kernel, as, options);
  for (VPage p = 0; p < as->num_pages(); ++p) {
    as->bitmap()->Set(p);
  }
  std::vector<Op> out;
  VPage page = 0;
  for (auto _ : state) {
    layer.OnReleaseHint(page, 0, 1, out);
    page = (page + 1) % as->num_pages();
    out.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimeHintFiltering)->Repetitions(5);

void BM_RuntimeBufferedDrain(benchmark::State& state) {
  // The buffered policy at its worst: every hint buffers a page while the
  // process sits at its recommended limit, so each accept enters MaybeDrain
  // and issues from the per-tag queues (exercising the once-per-drain tag
  // resolution and the hoisted bitmap stale check).
  MachineConfig machine;
  machine.user_memory_bytes = 8 * 1024 * 1024;
  Kernel kernel(machine);
  kernel.StartDaemons();
  AddressSpace* as = kernel.CreateAddressSpace("as", 4 * 1024 * 1024);
  as->AddRegion(Region{"data", 0, as->num_pages(), Backing::kSwap});
  as->AttachPagingDirected(0, as->num_pages());
  RuntimeOptions options;
  options.buffered = true;
  options.num_prefetch_threads = 1;
  RuntimeLayer layer(&kernel, as, options);
  const VPage num_pages = as->num_pages();
  for (VPage p = 0; p < num_pages; ++p) {
    as->bitmap()->Set(p);
  }
  // At the limit: every buffered page triggers a drain pass.
  as->bitmap()->SetHeader(num_pages, num_pages);
  std::vector<Op> out;
  VPage page = 0;
  int32_t tag = 1;
  for (auto _ : state) {
    layer.OnReleaseHint(page, /*priority=*/1, tag, out);
    page = (page + 1) % num_pages;
    tag = 1 + (tag & 3);  // rotate four tags
    out.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimeBufferedDrain);

void BM_EndToEndExperiment(benchmark::State& state) {
  // A complete MATVEC experiment: compiler + runtime + kernel + disks.
  // Arg 0: version B at scale 0.1. Arg 1: the same at 0.25, where the
  // steady-state paths outweigh set-up. Arg 2: version O at 0.1 with the
  // access monitor on (the unhinted program is the monitor's target), so the
  // rates carry the whole monitoring overhead. Arg 3: version B at 0.1 on a
  // 3-tier machine, where releases demote, re-touches promote and evictions
  // cascade. Arg 4: version B at 0.05 with the invariant checker attached,
  // so the rates carry the oracle's replay and a full sweep after every VM
  // transition. pages_touched_per_s is the work rate that op batching cannot
  // inflate; sim_events_per_s is the event queue's load.
  struct Config {
    double scale;
    AppVersion version;
    bool monitor;
    int tiers;
    bool checks;
  };
  static constexpr Config kConfigs[] = {{0.1, AppVersion::kBuffered, false, 0, false},
                                        {0.25, AppVersion::kBuffered, false, 0, false},
                                        {0.1, AppVersion::kOriginal, true, 0, false},
                                        {0.1, AppVersion::kBuffered, false, 3, false},
                                        {0.05, AppVersion::kBuffered, false, 0, true}};
  const Config& config = kConfigs[state.range(0)];
  const WorkloadInfo& matvec = *std::find_if(
      AllWorkloads().begin(), AllWorkloads().end(),
      [](const WorkloadInfo& info) { return info.name == "MATVEC"; });
  ExperimentSpec spec = BenchSpec(matvec, config.scale, config.version,
                                  /*with_interactive=*/false);
  ApplyTierGeometry(spec.machine, config.tiers);
  spec.monitor = config.monitor;
  spec.checks = config.checks;
  double sim_events = 0;
  double pages_touched = 0;
  for (auto _ : state) {
    const ExperimentResult result = RunExperiment(spec);
    if (!result.completed) {
      state.SkipWithError("the experiment did not complete within its event budget");
      break;
    }
    if (!result.check_failure.empty()) {
      state.SkipWithError("the invariant checker reported a violation");
      break;
    }
    sim_events += static_cast<double>(result.sim_events);
    pages_touched += static_cast<double>(result.app.interp.page_touches);
  }
  state.counters["sim_events_per_s"] = benchmark::Counter(sim_events, benchmark::Counter::kIsRate);
  state.counters["pages_touched_per_s"] =
      benchmark::Counter(pages_touched, benchmark::Counter::kIsRate);
}
// Each repetition runs for at least 0.2 s whatever --benchmark_min_time
// says, so one noisy experiment of 6-40 ms cannot set a repetition's rate.
BENCHMARK(BM_EndToEndExperiment)
    ->DenseRange(0, 4)
    ->MinTime(0.2)
    ->Repetitions(3)
    ->Unit(benchmark::kMillisecond);

void BM_SweepFig07(benchmark::State& state) {
  // The Figure-7 grid (every workload at every version) at scale 0.05
  // (arg 1), or at 0.04, 0.05 and 0.06 (arg 3), which gives each worker
  // enough independent experiments for the speedup to approach the core
  // count. Each iteration runs the grid serially, then on an 8-job
  // SweepRunner, each with a fresh pool and compile cache. The speedup is
  // held to the workers the machine can run at once: efficiency = speedup /
  // min(8, AvailableCpus()). The rendered tables must not depend on the jobs
  // count.
  constexpr int kJobs = 8;
  const std::vector<double> scales =
      state.range(0) == 1 ? std::vector<double>{0.05} : std::vector<double>{0.04, 0.05, 0.06};
  std::vector<ExperimentSpec> specs;
  for (const double scale : scales) {
    std::vector<std::string> labels;
    const std::vector<ExperimentSpec> grid = Fig07Specs(scale, /*tiers=*/0, &labels);
    specs.insert(specs.end(), grid.begin(), grid.end());
  }
  // Runs the grid on `jobs` workers; returns its wall seconds and sets `text`
  // to each scale's fig07_breakdown output.
  auto run = [&](int jobs, std::string* text) {
    SweepRunner runner(SweepOptions{jobs});
    const auto start = std::chrono::steady_clock::now();
    const std::vector<ExperimentResult> results = runner.Run(specs);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    const auto per_grid = static_cast<ptrdiff_t>(results.size() / scales.size());
    text->clear();
    for (size_t i = 0; i < scales.size(); ++i) {
      const auto first = results.begin() + static_cast<ptrdiff_t>(i) * per_grid;
      *text += Fig07Text(scales[i], std::vector<ExperimentResult>(first, first + per_grid));
    }
    return elapsed.count();
  };
  double speedup = 0;
  for (auto _ : state) {
    std::string serial_text;
    std::string parallel_text;
    const double serial_s = run(1, &serial_text);
    const double parallel_s = run(kJobs, &parallel_text);
    if (serial_text != parallel_text) {
      state.SkipWithError("the serial and parallel Figure-7 tables differ");
      break;
    }
    speedup += serial_s / parallel_s;
  }
  const double usable_workers = std::min(kJobs, AvailableCpus());
  state.counters["speedup"] = benchmark::Counter(speedup, benchmark::Counter::kAvgIterations);
  state.counters["efficiency"] =
      benchmark::Counter(speedup / usable_workers, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SweepFig07)->Arg(1)->Iterations(1)->Repetitions(2)->UseRealTime()->Unit(
    benchmark::kMillisecond);
BENCHMARK(BM_SweepFig07)->Arg(3)->Iterations(1)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tmh

BENCHMARK_MAIN();
