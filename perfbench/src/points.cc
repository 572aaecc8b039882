#include "perfbench/src/points.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>

#include "bench/bench_util.h"
#include "perfbench/src/timing.h"
#include "src/check/invariants.h"
#include "src/monitor/access_monitor.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/runtime_layer.h"
#include "src/workloads/interactive.h"

namespace tmh::perfbench {

void LayerHost::Add(const LayerHost& o) {
  compiler += o.compiler;
  teardown += o.teardown;
  os_setup += o.os_setup;
  run += o.run;
  runtime += o.runtime;
  workloads += o.workloads;
  check_event += o.check_event;
  check_quiescent += o.check_quiescent;
  check_final += o.check_final;
  collect += o.collect;
  next_calls += o.next_calls;
  quiescent_calls += o.quiescent_calls;
}

void SimCounters::Add(const SimCounters& o) {
  page_touches += o.page_touches;
  iterations += o.iterations;
  prefetch_hints += o.prefetch_hints;
  prefetch_enqueued += o.prefetch_enqueued;
  release_hints += o.release_hints;
  releases_issued += o.releases_issued;
  sim_events += o.sim_events;
  daemon_pages_stolen += o.daemon_pages_stolen;
  releaser_pages_freed += o.releaser_pages_freed;
  releaser_skipped += o.releaser_skipped;
  rescues += o.rescues;
  memory_waits += o.memory_waits;
  swap_reads += o.swap_reads;
  swap_writes += o.swap_writes;
  tier_demotions += o.tier_demotions;
  tier_promotions += o.tier_promotions;
  tier_evictions += o.tier_evictions;
  samples_armed += o.samples_armed;
  samples_checked += o.samples_checked;
  samples_hit += o.samples_hit;
  cold_pages_enqueued += o.cold_pages_enqueued;
  app_exec_s += o.app_exec_s;
  app_io_stall_s += o.app_io_stall_s;
  app_resource_stall_s += o.app_resource_stall_s;
  interactive_response_ms_sum += o.interactive_response_ms_sum;
  interactive_points += o.interactive_points;
}

int64_t CurrentRssBytes() {
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

int64_t PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

constexpr uint64_t kMaxEvents = 400'000'000;
// Sweeps of the interactive task alone, as the fig10a baseline runs it.
constexpr int64_t kAloneSweeps = 12;

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Canonical "name=value" text of the end-of-run simulated counters; its hash
// is the point's digest. Counters that only describe which host code path ran
// (fused touch runs, event counts) are left out: a change that only speeds up
// the simulator may move them.
class DigestText {
 public:
  template <typename Int>
  DigestText& Add(const char* name, Int value) {
    text_ += name;
    text_ += '=';
    text_ += std::to_string(value);
    text_ += ';';
    return *this;
  }
  DigestText& AddKernel(const KernelStats& k) {
    Add("daemon_activations", k.daemon_activations);
    Add("daemon_pages_stolen", k.daemon_pages_stolen);
    Add("daemon_invalidations", k.daemon_invalidations);
    Add("releaser_batches", k.releaser_batches);
    Add("releaser_pages_freed", k.releaser_pages_freed);
    Add("releaser_skipped", k.releaser_skipped);
    Add("rescued_daemon_freed", k.rescued_daemon_freed);
    Add("rescued_release_freed", k.rescued_release_freed);
    Add("allocations", k.allocations);
    Add("zero_fills", k.zero_fills);
    Add("writebacks", k.writebacks);
    Add("hard_faults", k.hard_faults);
    Add("soft_faults", k.soft_faults);
    Add("prefetch_requests", k.prefetch_requests);
    Add("prefetch_dropped", k.prefetch_dropped);
    Add("prefetch_noop", k.prefetch_noop);
    Add("prefetch_io", k.prefetch_io);
    Add("release_requests", k.release_requests);
    Add("release_pages_enqueued", k.release_pages_enqueued);
    Add("memory_waits", k.memory_waits);
    Add("reactive_evictions", k.reactive_evictions);
    Add("local_evictions", k.local_evictions);
    Add("readahead_reads", k.readahead_reads);
    Add("monitor_invalidations", k.monitor_invalidations);
    Add("monitor_soft_faults", k.monitor_soft_faults);
    Add("monitor_releases_enqueued", k.monitor_releases_enqueued);
    Add("monitor_pages_protected", k.monitor_pages_protected);
    Add("tier_demotions", k.tier_demotions);
    Add("tier_promotions", k.tier_promotions);
    Add("tier_evictions", k.tier_evictions);
    Add("tier_writebacks", k.tier_writebacks);
    return *this;
  }
  DigestText& AddTimes(const char* who, const TimeBreakdown& t) {
    text_ += who;
    Add(".user", t.user);
    Add(".system", t.system);
    Add(".resource_stall", t.resource_stall);
    Add(".io_stall", t.io_stall);
    Add(".sleep", t.sleep);
    return *this;
  }
  DigestText& AddFaults(const char* who, const FaultStats& f) {
    text_ += who;
    Add(".hard", f.hard_faults);
    Add(".soft", f.soft_faults);
    Add(".fresh_prefetch", f.fresh_prefetch_touches);
    Add(".rescue", f.rescue_faults);
    Add(".zero_fill", f.zero_fill_faults);
    Add(".release_saves", f.release_saves);
    Add(".collapsed", f.collapsed_faults);
    return *this;
  }
  DigestText& AddMonitor(const MonitorStats& m) {
    Add("mon.ticks", m.ticks);
    Add("mon.aggregations", m.aggregations);
    Add("mon.samples_armed", m.samples_armed);
    Add("mon.samples_checked", m.samples_checked);
    Add("mon.samples_hit", m.samples_hit);
    Add("mon.region_splits", m.region_splits);
    Add("mon.region_merges", m.region_merges);
    Add("mon.max_regions_seen", m.max_regions_seen);
    Add("mon.cold_regions_actioned", m.cold_regions_actioned);
    Add("mon.cold_pages_enqueued", m.cold_pages_enqueued);
    Add("mon.hot_regions_actioned", m.hot_regions_actioned);
    Add("mon.hot_pages_protected", m.hot_pages_protected);
    return *this;
  }
  DigestText& AddSwap(Kernel& kernel) {
    Add("swap_reads", kernel.swap().reads());
    Add("swap_writes", kernel.swap().writes());
    return *this;
  }
  [[nodiscard]] uint64_t Hash() const { return Fnv1a(text_); }

 private:
  std::string text_;
};

// Kernel::RunUntilThreadsDone in slices of kChunkEvents events, each slice's
// host time appended to `chunk_s`. The event queue stops and resumes between
// two events, so slicing changes nothing simulated.
bool RunChunked(Kernel& kernel, const std::vector<Thread*>& threads, uint64_t max_events,
                std::vector<double>* chunk_s) {
  const uint64_t start = kernel.event_queue().ExecutedCount();
  while (true) {
    const uint64_t before = kernel.event_queue().ExecutedCount();
    const uint64_t budget = std::min(kChunkEvents, max_events - (before - start));
    const double t0 = NowSeconds();
    const bool done = kernel.RunUntilThreadsDone(threads, budget);
    chunk_s->push_back(NowSeconds() - t0);
    if (done) {
      return true;
    }
    const uint64_t after = kernel.event_queue().ExecutedCount();
    if (after - before < budget || after - start >= max_events) {
      return false;  // the queue ran dry, or the budget is spent
    }
  }
}

void CountKernel(Kernel& kernel, SimCounters* sim) {
  const KernelStats& k = kernel.stats();
  sim->sim_events += kernel.event_queue().ExecutedCount();
  sim->daemon_pages_stolen += k.daemon_pages_stolen;
  sim->releaser_pages_freed += k.releaser_pages_freed;
  sim->releaser_skipped += k.releaser_skipped;
  sim->rescues += k.rescued_daemon_freed + k.rescued_release_freed;
  sim->memory_waits += k.memory_waits;
  sim->swap_reads += kernel.swap().reads();
  sim->swap_writes += kernel.swap().writes();
  sim->tier_demotions += k.tier_demotions;
  sim->tier_promotions += k.tier_promotions;
  sim->tier_evictions += k.tier_evictions;
}

// The machine the repository's figure binaries build: shrunk with the
// workload so it stays out-of-core, plus any slow tiers.
MachineConfig ScaledMachine(double scale, int total_tiers) {
  MachineConfig config = BenchMachine(scale);
  ApplyTierGeometry(config, total_tiers);
  return config;
}

// Mean response of the sweeps after the first (which zero-fills the data set),
// as the library's experiment runner reports it.
double MeanResponseNs(const InteractiveTask& task) {
  const std::vector<SimDuration>& series = task.response_series();
  if (series.size() <= 1) {
    return task.response_times().mean();
  }
  double sum = 0;
  for (size_t i = 1; i < series.size(); ++i) {
    sum += static_cast<double>(series[i]);
  }
  return sum / static_cast<double>(series.size() - 1);
}

void DigestInteractive(const InteractiveTask& task, const Thread* thread, DigestText* d) {
  d->Add("int.sweeps", static_cast<uint64_t>(task.sweeps_completed()));
  uint64_t series_hash = 0xcbf29ce484222325ULL;
  for (const SimDuration r : task.response_series()) {
    series_hash = (series_hash ^ static_cast<uint64_t>(r)) * 0x100000001b3ULL;
  }
  d->Add("int.series", series_hash);
  d->AddFaults("int", thread->faults());
  d->AddTimes("int", thread->times());
}

PointResult RunApp(const PointSpec& spec, bool traced) {
  PointResult r;
  const MachineConfig machine = ScaledMachine(spec.scale, spec.tiers);
  const SourceProgram source = spec.workload->factory(spec.scale);

  const double t_compile = NowSeconds();
  const CompiledProgram compiled = CompileVersion(source, machine, spec.version);
  const double t_setup = NowSeconds();
  r.host.compiler = t_setup - t_compile;

  // Same construction order as the library's experiment runner, so thread and
  // address-space ids — and with them every simulated result — match it.
  Kernel kernel(machine);
  std::unique_ptr<InvariantChecker> checker;
  std::unique_ptr<TimedChecker> timed_checker;
  if (spec.checks) {
    checker = std::make_unique<InvariantChecker>(kernel, CheckOptions{});
    if (traced) {
      timed_checker = std::make_unique<TimedChecker>(checker.get(), spec.seed * 2 + 1);
      kernel.AttachChecker(timed_checker.get());
    }
  }
  kernel.StartDaemons();

  AddressSpace* as = kernel.CreateAddressSpace(
      source.name, (compiled.layout.total_pages() + source.text_pages) * machine.page_size_bytes);
  for (size_t a = 0; a < source.arrays.size(); ++a) {
    const ArrayDecl& array = source.arrays[a];
    as->AddRegion(Region{array.name, compiled.layout.base_page(static_cast<int32_t>(a)),
                         compiled.layout.PageCount(static_cast<int32_t>(a)),
                         array.on_disk ? Backing::kSwap : Backing::kZeroFill});
  }
  if (source.text_pages > 0) {
    as->AddRegion(
        Region{"text", compiled.layout.total_pages(), source.text_pages, Backing::kZeroFill});
  }
  std::unique_ptr<RuntimeLayer> runtime;
  if (spec.version != AppVersion::kOriginal) {
    as->AttachPagingDirected(0, as->num_pages());
    kernel.UpdateSharedHeader(as);
    RuntimeOptions options;
    options.buffered = spec.version == AppVersion::kBuffered;
    runtime = std::make_unique<RuntimeLayer>(&kernel, as, options);
  }
  Interpreter interp(&compiled, as, runtime.get());
  std::optional<TimedProgram> timed_interp;
  Program* program = &interp;
  if (traced) {
    program = &timed_interp.emplace(&interp, spec.seed * 2 + 3);
  }
  Thread* app_thread = kernel.Spawn(source.name, as, program);

  std::unique_ptr<AccessMonitor> monitor;
  if (spec.monitor) {
    monitor = std::make_unique<AccessMonitor>(kernel, MonitorConfig{});
    monitor->AddTarget(as);
    monitor->Start();
  }

  std::unique_ptr<InteractiveTask> task;
  std::optional<TimedProgram> timed_task;
  Thread* task_thread = nullptr;
  if (spec.interactive) {
    InteractiveConfig config;
    config.sleep_time = spec.sleep;
    const int64_t pages = config.data_pages + config.text_pages;
    AddressSpace* ias = kernel.CreateAddressSpace("interactive", pages * machine.page_size_bytes);
    ias->AddRegion(Region{"data", 0, pages, Backing::kZeroFill});
    task = std::make_unique<InteractiveTask>(ias, config);
    Program* task_program = task.get();
    if (traced) {
      task_program = &timed_task.emplace(task.get(), spec.seed * 2 + 5);
    }
    task_thread = kernel.Spawn("interactive", ias, task_program);
    task->BindThread(task_thread);
  }

  const double t_run = NowSeconds();
  r.host.os_setup = t_run - t_setup;
  const bool completed = RunChunked(kernel, {app_thread}, kMaxEvents, &r.chunk_s);
  const double t_collect = NowSeconds();
  r.host.run = t_collect - t_run;

  if (!completed) {
    r.ok = false;
    r.failure = "did not complete within the event budget";
  }
  if (checker != nullptr) {
    checker->CheckNow(kernel);
    r.host.check_final = NowSeconds() - t_collect;
    if (!checker->ok()) {
      r.ok = false;
      r.failure = "invariant violation: " + checker->failure();
    }
  }
  if (timed_interp) {
    r.host.runtime = timed_interp->timer().EstimateSeconds();
    r.host.next_calls = timed_interp->timer().calls();
  }
  if (timed_task) {
    r.host.workloads = timed_task->timer().EstimateSeconds();
  }
  if (timed_checker) {
    r.host.check_event = timed_checker->on_event().EstimateSeconds();
    r.host.check_quiescent = timed_checker->on_quiescent().EstimateSeconds();
    r.host.quiescent_calls = timed_checker->on_quiescent().calls();
  }

  const double t_digest = NowSeconds();
  DigestText d;
  d.AddTimes("app", app_thread->times())
      .AddFaults("app", app_thread->faults())
      .Add("app.wall", app_thread->finished_at() - app_thread->started_at())
      .AddKernel(kernel.stats())
      .AddSwap(kernel);
  if (monitor != nullptr) {
    d.AddMonitor(monitor->stats());
    const MonitorStats& m = monitor->stats();
    r.sim.samples_armed = m.samples_armed;
    r.sim.samples_checked = m.samples_checked;
    r.sim.samples_hit = m.samples_hit;
    r.sim.cold_pages_enqueued = m.cold_pages_enqueued;
  }
  if (task != nullptr) {
    DigestInteractive(*task, task_thread, &d);
    r.interactive_mean_response_ns = MeanResponseNs(*task);
    r.sim.interactive_response_ms_sum = r.interactive_mean_response_ns / 1e6;
    r.sim.interactive_points = 1;
  }
  r.digest = d.Hash();

  const TimeBreakdown& t = app_thread->times();
  r.app_times = t;
  r.app_hard_faults = app_thread->faults().hard_faults;
  r.sim.app_exec_s = ToSeconds(t.Execution());
  r.sim.app_io_stall_s = ToSeconds(t.io_stall);
  r.sim.app_resource_stall_s = ToSeconds(t.resource_stall);
  r.sim.page_touches = interp.stats().page_touches;
  r.sim.iterations = interp.stats().iterations;
  if (runtime != nullptr) {
    const RuntimeStats& rs = runtime->stats();
    r.sim.prefetch_hints = rs.prefetch_hints;
    r.sim.prefetch_enqueued = rs.prefetch_enqueued;
    r.sim.release_hints = rs.release_hints;
    r.sim.releases_issued = rs.releases_issued_immediate + rs.releases_issued_from_buffer;
  }
  CountKernel(kernel, &r.sim);
  r.finished_s = NowSeconds();
  r.host.collect = r.finished_s - t_digest;
  return r;
}

PointResult RunAlone(const PointSpec& spec, bool traced) {
  PointResult r;
  const MachineConfig machine = ScaledMachine(spec.scale, spec.tiers);
  const double t_setup = NowSeconds();
  Kernel kernel(machine);
  kernel.StartDaemons();
  InteractiveConfig config;
  config.sleep_time = spec.sleep;
  config.max_sweeps = kAloneSweeps;
  const int64_t pages = config.data_pages + config.text_pages;
  AddressSpace* ias = kernel.CreateAddressSpace("interactive", pages * machine.page_size_bytes);
  ias->AddRegion(Region{"data", 0, pages, Backing::kZeroFill});
  InteractiveTask task(ias, config);
  std::optional<TimedProgram> timed_task;
  Program* program = &task;
  if (traced) {
    program = &timed_task.emplace(&task, spec.seed * 2 + 5);
  }
  Thread* thread = kernel.Spawn("interactive", ias, program);
  task.BindThread(thread);

  const double t_run = NowSeconds();
  r.host.os_setup = t_run - t_setup;
  const bool completed = RunChunked(kernel, {thread}, kMaxEvents, &r.chunk_s);
  const double t_collect = NowSeconds();
  r.host.run = t_collect - t_run;
  if (!completed) {
    r.ok = false;
    r.failure = "did not complete within the event budget";
  }
  if (timed_task) {
    r.host.workloads = timed_task->timer().EstimateSeconds();
  }
  DigestText d;
  d.AddKernel(kernel.stats()).AddSwap(kernel);
  DigestInteractive(task, thread, &d);
  r.digest = d.Hash();
  r.interactive_mean_response_ns = MeanResponseNs(task);
  r.sim.interactive_response_ms_sum = r.interactive_mean_response_ns / 1e6;
  r.sim.interactive_points = 1;
  CountKernel(kernel, &r.sim);
  r.finished_s = NowSeconds();
  r.host.collect = r.finished_s - t_collect;
  return r;
}

// A storm tenant: an optional arrival sleep, then `laps` passes over its
// pages. Pages are visited one 64-page window at a time, windows in the given
// order, each window front to back; a releasing tenant releases each window
// right after touching it, so re-touches rescue frames from the free list.
class StormTenant : public Program {
 public:
  static constexpr int64_t kWindow = 64;

  StormTenant(std::vector<int64_t> window_order, int laps, SimDuration arrival, bool release,
              int32_t tag)
      : order_(std::move(window_order)),
        laps_(laps),
        arrival_(arrival),
        release_(release),
        tag_(tag) {}

  Op Next(Kernel&) override {
    if (arrival_ > 0) {
      const SimDuration d = arrival_;
      arrival_ = 0;
      return Op::Sleep(d);
    }
    if (pending_release_) {
      pending_release_ = false;
      return Op::Release(order_[window_] * kWindow, kWindow, /*prio=*/0, tag_);
    }
    if (offset_ == kWindow) {
      offset_ = 0;
      if (++window_ == order_.size()) {
        window_ = 0;
        if (++lap_ == laps_) {
          return Op::Exit();
        }
      }
    }
    const VPage page = order_[window_] * kWindow + offset_++;
    ++touches_;
    // The release names the window just finished; the next call moves past it.
    pending_release_ = release_ && offset_ == kWindow;
    return Op::Touch(page, /*write=*/false, 0);
  }

  [[nodiscard]] uint64_t touches() const { return touches_; }

 private:
  std::vector<int64_t> order_;
  const int laps_;
  SimDuration arrival_;
  const bool release_;
  const int32_t tag_;
  size_t window_ = 0;
  int64_t offset_ = 0;
  int lap_ = 0;
  bool pending_release_ = false;
  uint64_t touches_ = 0;
};

const char* StormName(StormKind kind) {
  switch (kind) {
    case StormKind::kFault:
      return "fault";
    case StormKind::kRelease:
      return "release";
    case StormKind::kDaemon:
      return "daemon";
    case StormKind::kChurn:
      return "churn";
  }
  return "?";
}

PointResult RunStorm(const PointSpec& spec) {
  PointResult r;
  const StormParams& p = spec.storm_params;
  MachineConfig machine;
  machine.page_size_bytes = 4 * 1024;
  machine.user_memory_bytes = p.frames * machine.page_size_bytes;
  machine.num_nodes = p.num_nodes;
  if (spec.storm == StormKind::kDaemon) {
    // Free memory pinned below min_freemem and maxrss under the working set,
    // so the per-node clock hands and the over-maxrss index run throughout.
    machine.tunables.min_freemem_pages = p.frames - p.tenants * p.pages_per_tenant / 2;
    machine.tunables.target_freemem_pages = p.frames - p.tenants * p.pages_per_tenant / 4;
    machine.tunables.maxrss_pages = p.pages_per_tenant / 2;
  }
  const bool release = spec.storm == StormKind::kRelease;
  const int laps = spec.storm == StormKind::kChurn ? 1 : p.laps;
  const int64_t windows = p.pages_per_tenant / StormTenant::kWindow;

  // Inputs first, outside the timed set-up: per-tenant window orders and
  // arrival times, all drawn from the seed.
  uint64_t rng = spec.seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(spec.storm);
  std::vector<std::unique_ptr<StormTenant>> tenants;
  for (int i = 0; i < p.tenants; ++i) {
    std::vector<int64_t> order(static_cast<size_t>(windows));
    for (int64_t w = 0; w < windows; ++w) {
      order[static_cast<size_t>(w)] = w;
    }
    // The daemon storm's tenants sweep their windows in order and its seed
    // jitters arrivals only: permuted windows reshape what the clock hands
    // find, which moved its host time by up to 25% from one seed to another,
    // more than the benchmark's bound on wall_s.
    if (spec.storm != StormKind::kDaemon) {
      for (size_t w = order.size(); w > 1; --w) {
        std::swap(order[w - 1], order[SplitMix64(rng) % w]);
      }
    }
    SimDuration arrival = static_cast<SimDuration>(SplitMix64(rng) % kMsec);
    if (spec.storm == StormKind::kChurn) {
      arrival += i * 50 * kMsec;
    }
    tenants.push_back(std::make_unique<StormTenant>(std::move(order), laps, arrival, release,
                                                    static_cast<int32_t>(i)));
  }

  const double t_setup = NowSeconds();
  const int64_t rss_before = CurrentRssBytes();
  Kernel kernel(machine);
  r.kernel_bytes_per_frame =
      static_cast<double>(CurrentRssBytes() - rss_before) / static_cast<double>(p.frames);
  kernel.StartDaemons();
  std::vector<Thread*> threads;
  for (int i = 0; i < p.tenants; ++i) {
    const std::string name = "t" + std::to_string(i);
    AddressSpace* as =
        kernel.CreateAddressSpace(name, p.pages_per_tenant * machine.page_size_bytes);
    as->AddRegion(Region{"data", 0, p.pages_per_tenant, Backing::kZeroFill});
    if (release) {
      as->AttachPagingDirected(0, as->num_pages());
    }
    threads.push_back(kernel.Spawn(name, as, tenants[static_cast<size_t>(i)].get()));
  }

  const double t_run = NowSeconds();
  r.host.os_setup = t_run - t_setup;
  const bool completed = RunChunked(kernel, threads, kMaxEvents, &r.chunk_s);
  const double t_collect = NowSeconds();
  r.host.run = t_collect - t_run;

  if (!completed) {
    r.ok = false;
    r.failure = std::string(StormName(spec.storm)) + " storm hit the event budget";
  }
  const std::vector<uint64_t>& per_node = kernel.node_allocations();
  if (spec.storm == StormKind::kFault) {
    // Tenants live on every home node of a mostly empty machine, so every
    // node must have served allocations.
    for (size_t node = 0; node < per_node.size(); ++node) {
      if (per_node[node] == 0) {
        r.ok = false;
        r.failure = "node " + std::to_string(node) + " served no allocations";
      }
    }
  }

  DigestText d;
  d.AddKernel(kernel.stats()).AddSwap(kernel);
  for (size_t node = 0; node < per_node.size(); ++node) {
    d.Add("node_alloc", per_node[node]);
  }
  for (const Thread* t : threads) {
    d.AddTimes("tenant", t->times()).AddFaults("tenant", t->faults());
    d.Add("finished_at", t->finished_at());
  }
  r.digest = d.Hash();
  for (const auto& tenant : tenants) {
    r.sim.page_touches += tenant->touches();
  }
  CountKernel(kernel, &r.sim);
  r.finished_s = NowSeconds();
  r.host.collect = r.finished_s - t_collect;
  return r;
}

}  // namespace

PointResult RunPoint(const PointSpec& spec, bool traced) {
  PointResult r;
  switch (spec.kind) {
    case PointKind::kApp:
      r = RunApp(spec, traced);
      break;
    case PointKind::kAlone:
      r = RunAlone(spec, traced);
      break;
    case PointKind::kStorm:
      r = RunStorm(spec);
      break;
  }
  // The runner's kernel and programs were destroyed on its return.
  r.host.teardown = NowSeconds() - r.finished_s;
  r.label = spec.label;
  r.digest_key = spec.digest_key;
  return r;
}

}  // namespace tmh::perfbench
