// Public experiment API: compile a workload at one of the paper's four
// treatment levels and run it on the simulated machine, optionally alongside
// the interactive task.
//
//   O — original program: no hints, no PagingDirected PM.
//   P — prefetching only (compiler prefetch hints + run-time layer + pool).
//   R — prefetching + aggressive releasing.
//   B — prefetching + release buffering (priority queues, near-limit drains).
//
// This is the library's primary entry point; every bench binary and example
// builds on RunExperiment / RunInteractiveAlone.

#ifndef TMH_SRC_CORE_EXPERIMENT_H_
#define TMH_SRC_CORE_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/check/invariants.h"
#include "src/compiler/compile.h"
#include "src/monitor/access_monitor.h"
#include "src/os/config.h"
#include "src/os/kernel.h"
#include "src/runtime/interpreter.h"
#include "src/runtime/runtime_layer.h"
#include "src/workloads/interactive.h"

namespace tmh {

// Sweep-scoped memoization of CompileVersion (src/core/sweep.h). Experiments
// run standalone when none is supplied.
class CompileCache;

// The paper's four treatment levels, plus kReactive — the VINO-style
// OS-pulls-victims alternative of Section 2.2, implemented for comparison
// (label "V"; not part of the paper's bars).
enum class AppVersion : uint8_t { kOriginal, kPrefetch, kRelease, kBuffered, kReactive };

// Short label used in reports: O / P / R / B / V.
const char* VersionLabel(AppVersion version);

// The paper's four versions in its bar order (excludes kReactive).
const std::vector<AppVersion>& AllVersions();

// Derives the parameters handed to the compiler (Section 3.2: memory size,
// page size, fault latency) from the machine it will run on.
CompilerTarget TargetFor(const MachineConfig& machine);

// The compiler options of a treatment level: P and later insert prefetches,
// R, B and V also insert releases (they differ only in RuntimeOptions, so
// they compile identically). `adaptive` enables run-time re-specialization of
// unknown-bound nests (the paper's future-work fix); `oracle` gives the
// analysis perfect knowledge (the hand-tuned baseline).
CompileOptions CompileOptionsFor(AppVersion version, bool adaptive, bool oracle);

// Compiles `source` at the given treatment level (CompileOptionsFor) for the
// machine it will run on (TargetFor).
CompiledProgram CompileVersion(const SourceProgram& source, const MachineConfig& machine,
                               AppVersion version, bool adaptive = false, bool oracle = false);

struct ExperimentSpec {
  MachineConfig machine;
  SourceProgram workload;
  AppVersion version = AppVersion::kOriginal;
  RuntimeOptions runtime;  // buffered flag is overridden by `version`
  bool with_interactive = false;
  InteractiveConfig interactive;
  uint64_t max_events = 400'000'000;
  // Nonzero: sample a time-series trace (free memory, resident sets, reclaim
  // counters) at this period; retrieve it from ExperimentResult::trace.
  SimDuration trace_period = 0;
  // Adaptive code generation: re-specialize unknown-bound nests at run time.
  bool adaptive = false;
  // Hand-tuned oracle: compile with perfect knowledge (see CompileOptions).
  bool oracle = false;
  // Structured observability: record typed kernel events and metrics
  // histograms; retrieve them from ExperimentResult::event_log/metrics_text.
  bool observe = false;
  // Correctness checking: attach an InvariantChecker (src/check) for the whole
  // run; the first violation lands in ExperimentResult::check_failure.
  bool checks = false;
  CheckOptions check_options;
  // Online access monitoring (src/monitor): a region-based sampler plus a
  // schemes engine that releases cold regions through the standard release
  // path — the OS-side stand-in for compiler hints the program doesn't have.
  // Targets the out-of-core app only (never the interactive task). Stats land
  // in ExperimentResult::monitor.
  bool monitor = false;
  MonitorConfig monitor_config;
};

struct AppMetrics {
  TimeBreakdown times;
  FaultStats faults;
  AsStats as_stats;
  InterpreterStats interp;
  CompileStats compile;
  std::optional<RuntimeStats> runtime;  // absent for version O
  SimDuration wall = 0;                 // start-to-finish of the app thread
};

struct InteractiveMetrics {
  int64_t sweeps = 0;
  double mean_response_ns = 0;
  double max_response_ns = 0;
  std::vector<SimDuration> responses;
  FaultStats faults;
  double hard_faults_per_sweep = 0;
  // Mean time one of the task's page-ins spent blocked on I/O (ns): Section
  // 1.1's inflated "page fault service time" under a memory hog.
  double mean_fault_service_ns = 0;
};

struct ExperimentResult {
  AppMetrics app;
  std::optional<InteractiveMetrics> interactive;
  KernelStats kernel;
  TraceRecorder trace;  // populated when spec.trace_period > 0
  EventLog event_log;       // populated when spec.observe
  std::string metrics_text; // MetricsRegistry::TextDump(), when spec.observe
  uint64_t swap_reads = 0;
  uint64_t swap_writes = 0;
  uint64_t sim_events = 0;  // events the kernel's queue executed (substrate load)
  bool completed = false;  // app thread reached kDone within max_events
  // First invariant violation (empty = clean), when spec.checks.
  std::string check_failure;
  uint64_t checks_run = 0;
  // End-of-run monitor counters, when spec.monitor.
  std::optional<MonitorStats> monitor;
};

// Runs one out-of-core experiment to completion of the out-of-core app.
// `compile_cache` (optional) memoizes CompileVersion across runs; the cached
// CompiledProgram is immutable and may be shared by concurrent experiments
// (the Interpreter only reads it — see src/core/sweep.h).
ExperimentResult RunExperiment(const ExperimentSpec& spec, CompileCache* compile_cache = nullptr);

// --- multiprogrammed experiments -------------------------------------------------
// Several out-of-core applications sharing the machine (the paper's stated
// motivation: making memory hogs coexist in a multiprogrammed environment).

struct MultiAppSpec {
  SourceProgram workload;
  AppVersion version = AppVersion::kOriginal;
  RuntimeOptions runtime;
  bool adaptive = false;
  bool oracle = false;
  // Tenant arrival time: the app's address space exists from t=0 but its
  // thread sleeps this long before executing its first instruction. Several
  // apps sharing one nonzero delay spike together (a pressure storm);
  // staggered delays model tenant churn — earlier arrivals finish and their
  // residue is reclaimed by the daemon while later tenants are still running.
  // 0 = the historical immediate start.
  SimDuration start_delay = 0;
};

struct MultiExperimentSpec {
  MachineConfig machine;
  std::vector<MultiAppSpec> apps;
  bool with_interactive = false;
  InteractiveConfig interactive;
  uint64_t max_events = 800'000'000;
  SimDuration trace_period = 0;
  // Structured observability (see ExperimentSpec::observe).
  bool observe = false;
  // Correctness checking (see ExperimentSpec::checks).
  bool checks = false;
  CheckOptions check_options;
  // Online access monitoring (see ExperimentSpec::monitor); targets every
  // out-of-core app, never the interactive task.
  bool monitor = false;
  MonitorConfig monitor_config;
};

struct MultiExperimentResult {
  std::vector<AppMetrics> apps;  // one per MultiAppSpec, same order
  std::optional<InteractiveMetrics> interactive;
  KernelStats kernel;
  TraceRecorder trace;
  EventLog event_log;       // populated when spec.observe
  std::string metrics_text; // MetricsRegistry::TextDump(), when spec.observe
  uint64_t swap_reads = 0;
  uint64_t swap_writes = 0;
  uint64_t sim_events = 0;  // events the kernel's queue executed (substrate load)
  bool completed = false;  // every app finished within the event budget
  // First invariant violation (empty = clean), when spec.checks.
  std::string check_failure;
  uint64_t checks_run = 0;
  // End-of-run monitor counters, when spec.monitor.
  std::optional<MonitorStats> monitor;
};

// Runs until every out-of-core app completes. `compile_cache` as above.
MultiExperimentResult RunMultiExperiment(const MultiExperimentSpec& spec,
                                         CompileCache* compile_cache = nullptr);

// Baseline: the interactive task alone on the machine for `sweeps` sweeps.
InteractiveMetrics RunInteractiveAlone(const MachineConfig& machine,
                                       const InteractiveConfig& config, int64_t sweeps = 20);

}  // namespace tmh

#endif  // TMH_SRC_CORE_EXPERIMENT_H_
