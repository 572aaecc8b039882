// Parallel sweep engine: fan a grid of independent experiments out over a
// bounded worker pool, with a shared compile cache.
//
// Every figure in EXPERIMENTS.md is a grid of self-contained simulations —
// versions {O,P,R,B} x benchmarks x parameter points. Each simulation owns its
// entire world (Kernel, EventQueue, Rng, AddressSpaces, disks); nothing is
// shared between runs and the simulated "threads" are event-queue actors, not
// OS threads. That makes the grid embarrassingly parallel: SweepRunner runs
// each spec on a real std::thread worker and returns the results in
// submission order, so every report built from them is byte-identical to the
// serial run.
//
// Invariants the engine relies on (and the suite enforces):
//   * Simulations share nothing mutable. The only object intentionally shared
//     between concurrent runs is the CompiledProgram handed out by the
//     CompileCache, which is immutable after compilation: the Interpreter
//     takes `const CompiledProgram*` and re-specializes adaptive nests into
//     its own private CompiledNest, never back into the program.
//   * Results are collected per spec and merged/printed on the main thread
//     after the pool joins — ReportTable / HtmlReport / EventLog / the
//     metrics text dumps need no locking, and stdout ordering is untouched.
//   * Observed specs (spec.observe) get an independent EventLog and
//     MetricsRegistry per simulation (they live inside each run's Kernel);
//     SweepRunner checks this after every sweep so two concurrently observed
//     runs can never interleave events.

#ifndef TMH_SRC_CORE_SWEEP_H_
#define TMH_SRC_CORE_SWEEP_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/experiment.h"

namespace tmh {

// Memoizes CompileVersion over the (workload, machine-derived target,
// version-derived options) tuple. A figure-scale sweep calls CompileVersion
// with the same tuple dozens of times (six workloads x four versions x many
// parameter points); the cache compiles each distinct tuple once and hands
// every run a shared pointer to the same immutable CompiledProgram.
//
// Sharing is keyed on what compilation actually depends on, so versions that
// compile identically (R, B and V differ only in RuntimeOptions) share one
// program. The key serializes every field of the SourceProgram — including a
// content hash of indirect-index arrays, so two structurally identical
// workloads built from different seeds never collide — plus the
// CompilerTarget and the derived CompileOptions.
//
// Thread-safe: one mutex guards the map, held only for the lookup and the
// insert (a fig07 sweep makes 24 lookups). Compilation itself runs outside
// the lock; a racing duplicate compile is discarded, first insert wins.
class CompileCache {
 public:
  std::shared_ptr<const CompiledProgram> GetOrCompile(const SourceProgram& source,
                                                      const MachineConfig& machine,
                                                      AppVersion version, bool adaptive = false,
                                                      bool oracle = false);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const CompiledProgram>> programs_;
  Stats stats_;
};

struct SweepOptions {
  // Worker threads for the pool; 0 = std::thread::hardware_concurrency().
  int jobs = 0;
};

// Number of workers a default-constructed SweepRunner uses (>= 1).
int DefaultJobs();

// CPUs this process may actually run on (the scheduler affinity mask when the
// platform exposes one, else hardware_concurrency; >= 1). Distinct from
// DefaultJobs: a container or taskset can restrict a 64-core box to 1 CPU.
int AvailableCpus();

class SweepRunner {
 public:
  SweepRunner() = default;
  explicit SweepRunner(const SweepOptions& options) : options_(options) {}

  // The requested worker count (>= 1).
  [[nodiscard]] int jobs() const;

  // Workers actually spawned for a grid of `tasks` tasks:
  // min(jobs(), AvailableCpus(), tasks). Spawning more threads than runnable
  // CPUs is pure overhead for this CPU-bound workload — on a 1-CPU cgroup an
  // 8-thread pool context-switches its way *below* serial throughput, which
  // is how "parallel" sweeps end up with speedup <= 1.0.
  [[nodiscard]] int EffectiveWorkers(size_t tasks) const;

  // Runs every spec to completion and returns the results in spec order.
  // Deterministic: results (and anything rendered from them) are identical
  // for any jobs value, including 1.
  std::vector<ExperimentResult> Run(const std::vector<ExperimentSpec>& specs);
  std::vector<MultiExperimentResult> RunMulti(const std::vector<MultiExperimentSpec>& specs);

  // Generic fan-out for heterogeneous grids (e.g. mixing RunInteractiveAlone
  // baselines with experiments): runs every task exactly once on the pool.
  // Tasks must not touch shared mutable state other than their own result
  // slot. All tasks are attempted even if one throws; the first exception is
  // rethrown on this thread after the pool joins.
  void RunTasks(std::vector<std::function<void()>> tasks);

  // The sweep-scoped compile cache, shared by all workers of this runner.
  // Tasks passed to RunTasks may use it via RunExperiment(spec, &cache).
  CompileCache& compile_cache() { return cache_; }

 private:
  SweepOptions options_;
  CompileCache cache_;
};

}  // namespace tmh

#endif  // TMH_SRC_CORE_SWEEP_H_
