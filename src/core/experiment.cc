#include "src/core/experiment.h"

#include <cassert>

#include "src/core/sweep.h"

namespace tmh {

const char* VersionLabel(AppVersion version) {
  switch (version) {
    case AppVersion::kOriginal:
      return "O";
    case AppVersion::kPrefetch:
      return "P";
    case AppVersion::kRelease:
      return "R";
    case AppVersion::kBuffered:
      return "B";
    case AppVersion::kReactive:
      return "V";
  }
  return "?";
}

const std::vector<AppVersion>& AllVersions() {
  static const std::vector<AppVersion> kVersions = {
      AppVersion::kOriginal, AppVersion::kPrefetch, AppVersion::kRelease, AppVersion::kBuffered};
  return kVersions;
}

CompilerTarget TargetFor(const MachineConfig& machine) {
  CompilerTarget target;
  target.page_size = machine.page_size_bytes;
  target.memory_bytes = machine.user_memory_bytes;
  const DiskParams& disk = machine.swap.disk_params;
  target.fault_latency = disk.avg_seek + disk.half_rotation +
                         disk.TransferTime(machine.page_size_bytes) + disk.controller_overhead +
                         machine.costs.hard_fault_service;
  return target;
}

CompileOptions CompileOptionsFor(AppVersion version, bool adaptive, bool oracle) {
  CompileOptions options;
  options.insert_prefetches = version != AppVersion::kOriginal;
  options.insert_releases = version == AppVersion::kRelease ||
                            version == AppVersion::kBuffered ||
                            version == AppVersion::kReactive;
  options.adaptive_recompilation = adaptive;
  options.oracle = oracle;
  return options;
}

CompiledProgram CompileVersion(const SourceProgram& source, const MachineConfig& machine,
                               AppVersion version, bool adaptive, bool oracle) {
  return Compile(source, TargetFor(machine), CompileOptionsFor(version, adaptive, oracle));
}

namespace {

InteractiveMetrics CollectInteractive(const InteractiveTask& task, const Thread* thread) {
  InteractiveMetrics m;
  m.sweeps = task.sweeps_completed();
  m.responses = task.response_series();
  m.faults = thread->faults();
  // The first sweep materializes the data set (zero-fill) and is excluded, as
  // a steady-state response-time measurement would.
  Accumulator warm;
  for (size_t i = 1; i < m.responses.size(); ++i) {
    warm.Add(static_cast<double>(m.responses[i]));
  }
  if (warm.count() > 0) {
    m.mean_response_ns = warm.mean();
    m.max_response_ns = warm.max();
  } else {
    m.mean_response_ns = task.response_times().mean();
    m.max_response_ns = task.response_times().max();
  }
  if (m.sweeps > 1) {
    m.hard_faults_per_sweep = static_cast<double>(thread->faults().hard_faults) /
                              static_cast<double>(m.sweeps - 1);
  }
  m.mean_fault_service_ns = thread->fault_service().mean();
  return m;
}

}  // namespace

namespace {

// One launched out-of-core application: everything that must stay alive for
// the duration of the run. The compiled program is const and may be shared
// with concurrent experiments via the CompileCache: the Interpreter only
// reads it (adaptive re-specialization goes into the Interpreter's private
// CompiledNest, never back into the program).
struct LaunchedApp {
  std::shared_ptr<const CompiledProgram> compiled;
  std::unique_ptr<RuntimeLayer> runtime;
  std::unique_ptr<Interpreter> interp;
  std::unique_ptr<Program> delayed;  // start_delay wrapper, when used
  AddressSpace* as = nullptr;
  Thread* thread = nullptr;
};

// Delays a program's first instruction by a fixed sleep, modeling a tenant
// that arrives mid-run. The wrapper delegates every subsequent Next() to the
// real program, so versions, hints, and stats are untouched — the only
// difference from an immediate start is the one leading Op::Sleep.
class DelayedProgram : public Program {
 public:
  DelayedProgram(SimDuration delay, Program* inner) : delay_(delay), inner_(inner) {}

  Op Next(Kernel& kernel) override {
    if (!slept_) {
      slept_ = true;
      return Op::Sleep(delay_);
    }
    return inner_->Next(kernel);
  }

 private:
  SimDuration delay_;
  Program* inner_;
  bool slept_ = false;
};

LaunchedApp LaunchApp(Kernel& kernel, const MachineConfig& machine, const MultiAppSpec& spec,
                      const std::string& name, CompileCache* compile_cache) {
  LaunchedApp app;
  if (compile_cache != nullptr) {
    app.compiled = compile_cache->GetOrCompile(spec.workload, machine, spec.version,
                                               spec.adaptive, spec.oracle);
  } else {
    app.compiled = std::make_shared<const CompiledProgram>(
        CompileVersion(spec.workload, machine, spec.version, spec.adaptive, spec.oracle));
  }
  app.as = kernel.CreateAddressSpace(
      name, (app.compiled->layout.total_pages() + spec.workload.text_pages) *
                machine.page_size_bytes);
  // Regions: one per array, preserving on-disk backing, plus text/stack.
  for (size_t a = 0; a < spec.workload.arrays.size(); ++a) {
    const ArrayDecl& array = spec.workload.arrays[a];
    app.as->AddRegion(Region{array.name,
                             app.compiled->layout.base_page(static_cast<int32_t>(a)),
                             app.compiled->layout.PageCount(static_cast<int32_t>(a)),
                             array.on_disk ? Backing::kSwap : Backing::kZeroFill});
  }
  if (spec.workload.text_pages > 0) {
    app.as->AddRegion(Region{"text", app.compiled->layout.total_pages(),
                             spec.workload.text_pages, Backing::kZeroFill});
  }
  if (spec.version != AppVersion::kOriginal) {
    app.as->AttachPagingDirected(0, app.as->num_pages());
    kernel.UpdateSharedHeader(app.as);
    RuntimeOptions options = spec.runtime;
    options.buffered = spec.version == AppVersion::kBuffered;
    options.reactive = spec.version == AppVersion::kReactive;
    app.runtime = std::make_unique<RuntimeLayer>(&kernel, app.as, options);
    if (options.reactive) {
      RuntimeLayer* layer = app.runtime.get();
      app.as->set_eviction_handler(
          [layer](int64_t count) { return layer->TakeEvictionCandidates(count); });
    }
  }
  app.interp = std::make_unique<Interpreter>(app.compiled.get(), app.as, app.runtime.get());
  Program* program = app.interp.get();
  if (spec.start_delay > 0) {
    app.delayed = std::make_unique<DelayedProgram>(spec.start_delay, program);
    program = app.delayed.get();
  }
  app.thread = kernel.Spawn(name, app.as, program);
  return app;
}

AppMetrics CollectApp(const LaunchedApp& app) {
  AppMetrics m;
  m.times = app.thread->times();
  m.faults = app.thread->faults();
  m.as_stats = app.as->stats();
  m.interp = app.interp->stats();
  m.compile = app.compiled->stats;
  if (app.runtime != nullptr) {
    m.runtime = app.runtime->stats();
  }
  m.wall = app.thread->finished_at() - app.thread->started_at();
  return m;
}

}  // namespace

MultiExperimentResult RunMultiExperiment(const MultiExperimentSpec& spec,
                                         CompileCache* compile_cache) {
  Kernel kernel(spec.machine);
  if (spec.observe) {
    // Before StartDaemons/LaunchApp so every thread and AS name reaches the
    // trace's metadata records.
    kernel.EnableObservability();
  }
  std::unique_ptr<InvariantChecker> checker;
  if (spec.checks) {
    // Before StartDaemons so the checker observes every VM transition.
    checker = std::make_unique<InvariantChecker>(kernel, spec.check_options);
  }
  kernel.StartDaemons();

  std::vector<LaunchedApp> apps;
  apps.reserve(spec.apps.size());
  for (size_t i = 0; i < spec.apps.size(); ++i) {
    std::string name = spec.apps[i].workload.name;
    // Disambiguate identical workload names (two copies of the same program).
    for (size_t j = 0; j < i; ++j) {
      if (spec.apps[j].workload.name == name) {
        name += "#" + std::to_string(i);
        break;
      }
    }
    apps.push_back(LaunchApp(kernel, spec.machine, spec.apps[i], name, compile_cache));
  }

  std::unique_ptr<AccessMonitor> monitor;
  if (spec.monitor) {
    monitor = std::make_unique<AccessMonitor>(kernel, spec.monitor_config);
    // Explicit targeting: sample the out-of-core apps only. The interactive
    // task is the beneficiary being protected, not a monitoring target — its
    // idle pages during a sleep must not be released out from under it.
    for (const LaunchedApp& app : apps) {
      monitor->AddTarget(app.as);
    }
    monitor->Start();
  }

  std::unique_ptr<InteractiveTask> interactive;
  Thread* interactive_thread = nullptr;
  if (spec.with_interactive) {
    const int64_t pages = spec.interactive.data_pages + spec.interactive.text_pages;
    AddressSpace* ias =
        kernel.CreateAddressSpace("interactive", pages * spec.machine.page_size_bytes);
    ias->AddRegion(Region{"data", 0, pages, Backing::kZeroFill});
    interactive = std::make_unique<InteractiveTask>(ias, spec.interactive);
    interactive_thread = kernel.Spawn("interactive", ias, interactive.get());
    interactive->BindThread(interactive_thread);
  }

  if (spec.trace_period > 0) {
    kernel.StartTracing(spec.trace_period);
  }

  std::vector<Thread*> app_threads;
  for (const LaunchedApp& app : apps) {
    app_threads.push_back(app.thread);
  }
  MultiExperimentResult result;
  result.completed = kernel.RunUntilThreadsDone(app_threads, spec.max_events);

  if (checker != nullptr) {
    // Final full pass even if the periodic cadence skipped the last events.
    checker->CheckNow(kernel);
    result.check_failure = checker->failure();
    result.checks_run = checker->checks_run();
  }

  for (const LaunchedApp& app : apps) {
    result.apps.push_back(CollectApp(app));
  }
  if (interactive != nullptr) {
    result.interactive = CollectInteractive(*interactive, interactive_thread);
  }
  if (monitor != nullptr) {
    result.monitor = monitor->stats();
  }
  result.kernel = kernel.stats();
  result.trace = kernel.trace();
  result.swap_reads = kernel.swap().reads();
  result.swap_writes = kernel.swap().writes();
  result.sim_events = kernel.event_queue().ExecutedCount();
  if (spec.observe) {
    kernel.PublishMetrics();
    // Per-app run-time layer and prefetch-pool aggregates, labeled by AS name.
    for (const LaunchedApp& app : apps) {
      if (app.runtime == nullptr) {
        continue;
      }
      MetricsRegistry& reg = kernel.recorder()->metrics();
      const MetricLabels labels = {{"as", app.as->name()}};
      const RuntimeStats& rs = app.runtime->stats();
      reg.GetCounter("runtime.prefetch_hints", labels)->Set(rs.prefetch_hints);
      reg.GetCounter("runtime.prefetch_enqueued", labels)->Set(rs.prefetch_enqueued);
      reg.GetCounter("runtime.release_hints", labels)->Set(rs.release_hints);
      reg.GetCounter("runtime.releases_issued_immediate", labels)
          ->Set(rs.releases_issued_immediate);
      reg.GetCounter("runtime.releases_buffered", labels)->Set(rs.releases_buffered);
      reg.GetCounter("runtime.release_drains", labels)->Set(rs.release_drains);
      reg.GetCounter("runtime.releases_issued_from_buffer", labels)
          ->Set(rs.releases_issued_from_buffer);
      reg.GetCounter("runtime.buffer_stale_dropped", labels)->Set(rs.buffer_stale_dropped);
      const PrefetchPool& pool = app.runtime->pool();
      reg.GetCounter("prefetch_pool.enqueued", labels)->Set(pool.enqueued());
      reg.GetCounter("prefetch_pool.dropped_full", labels)->Set(pool.dropped_full());
      reg.GetCounter("prefetch_pool.duplicates", labels)->Set(pool.duplicates());
    }
    result.metrics_text = kernel.recorder()->metrics().TextDump();
    result.event_log = std::move(kernel.recorder()->log());
  }
  return result;
}

ExperimentResult RunExperiment(const ExperimentSpec& spec, CompileCache* compile_cache) {
  MultiExperimentSpec multi;
  multi.machine = spec.machine;
  multi.apps.push_back(
      MultiAppSpec{spec.workload, spec.version, spec.runtime, spec.adaptive, spec.oracle});
  multi.with_interactive = spec.with_interactive;
  multi.interactive = spec.interactive;
  multi.max_events = spec.max_events;
  multi.trace_period = spec.trace_period;
  multi.observe = spec.observe;
  multi.checks = spec.checks;
  multi.check_options = spec.check_options;
  multi.monitor = spec.monitor;
  multi.monitor_config = spec.monitor_config;
  MultiExperimentResult inner = RunMultiExperiment(multi, compile_cache);

  ExperimentResult result;
  result.app = std::move(inner.apps.front());
  result.interactive = std::move(inner.interactive);
  result.kernel = inner.kernel;
  result.trace = std::move(inner.trace);
  result.event_log = std::move(inner.event_log);
  result.metrics_text = std::move(inner.metrics_text);
  result.swap_reads = inner.swap_reads;
  result.swap_writes = inner.swap_writes;
  result.sim_events = inner.sim_events;
  result.completed = inner.completed;
  result.check_failure = std::move(inner.check_failure);
  result.checks_run = inner.checks_run;
  result.monitor = inner.monitor;
  return result;
}

InteractiveMetrics RunInteractiveAlone(const MachineConfig& machine,
                                       const InteractiveConfig& config, int64_t sweeps) {
  Kernel kernel(machine);
  kernel.StartDaemons();
  const int64_t pages = config.data_pages + config.text_pages;
  AddressSpace* ias = kernel.CreateAddressSpace("interactive", pages * machine.page_size_bytes);
  ias->AddRegion(Region{"data", 0, pages, Backing::kZeroFill});
  InteractiveConfig bounded = config;
  bounded.max_sweeps = sweeps;
  InteractiveTask task(ias, bounded);
  Thread* thread = kernel.Spawn("interactive", ias, &task);
  task.BindThread(thread);
  kernel.RunUntilThreadsDone({thread});
  return CollectInteractive(task, thread);
}

}  // namespace tmh
