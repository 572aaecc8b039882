#include "src/core/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

namespace tmh {

namespace {

// --- compile-cache key -----------------------------------------------------
// The key is an injective binary serialization of everything Compile() reads,
// plus everything the CompiledProgram carries into the run (its embedded
// SourceProgram copy, which the Interpreter reads indirect-index values
// from). Strings are length-prefixed, numbers fixed-width, so distinct inputs
// cannot alias. The one lossy field is the 64-bit FNV-1a digest of each
// indirect-index array (hashing keeps the key small for multi-million-entry
// index arrays); a collision additionally requires every other field to
// match, making it negligible in practice.

void AppendInt(std::string* key, int64_t v) {
  key->append(reinterpret_cast<const char*>(&v), sizeof v);
}

void AppendStr(std::string* key, const std::string& s) {
  AppendInt(key, static_cast<int64_t>(s.size()));
  key->append(s);
}

uint64_t Fnv1a(const std::vector<int64_t>& values) {
  uint64_t h = 1469598103934665603ull;
  for (const int64_t v : values) {
    uint64_t u = static_cast<uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (u >> (byte * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

void AppendAffine(std::string* key, const AffineExpr& e) {
  AppendInt(key, e.constant);
  AppendInt(key, static_cast<int64_t>(e.coeffs.size()));
  for (const int64_t c : e.coeffs) {
    AppendInt(key, c);
  }
}

std::string KeyFor(const SourceProgram& source, const CompilerTarget& target,
                   const CompileOptions& options) {
  std::string key;
  key.reserve(256);
  AppendStr(&key, source.name);
  AppendInt(&key, source.repeat);
  AppendInt(&key, source.text_pages);
  AppendInt(&key, static_cast<int64_t>(source.arrays.size()));
  for (const ArrayDecl& a : source.arrays) {
    AppendStr(&key, a.name);
    AppendInt(&key, a.element_size);
    AppendInt(&key, a.num_elements);
    AppendInt(&key, a.on_disk ? 1 : 0);
    if (a.index_values == nullptr) {
      AppendInt(&key, -1);
    } else {
      AppendInt(&key, static_cast<int64_t>(a.index_values->size()));
      AppendInt(&key, static_cast<int64_t>(Fnv1a(*a.index_values)));
    }
  }
  AppendInt(&key, static_cast<int64_t>(source.nests.size()));
  for (const LoopNest& nest : source.nests) {
    AppendStr(&key, nest.label);
    AppendInt(&key, nest.compute_per_iteration);
    AppendInt(&key, static_cast<int64_t>(nest.loops.size()));
    for (const Loop& loop : nest.loops) {
      AppendStr(&key, loop.var);
      AppendInt(&key, loop.lower);
      AppendInt(&key, loop.upper);
      AppendInt(&key, loop.step);
      AppendInt(&key, loop.upper_known ? 1 : 0);
    }
    AppendInt(&key, static_cast<int64_t>(nest.refs.size()));
    for (const ArrayRef& ref : nest.refs) {
      AppendInt(&key, ref.array);
      AppendAffine(&key, ref.affine);
      AppendInt(&key, ref.is_write ? 1 : 0);
      AppendInt(&key, ref.index_array);
      AppendInt(&key, ref.release_analyzable ? 1 : 0);
      if (ref.runtime_affine == nullptr) {
        AppendInt(&key, -1);
      } else {
        AppendInt(&key, 1);
        AppendAffine(&key, *ref.runtime_affine);
      }
    }
  }
  AppendInt(&key, target.page_size);
  AppendInt(&key, target.memory_bytes);
  AppendInt(&key, target.fault_latency);
  AppendInt(&key, (options.insert_prefetches ? 1 : 0) | (options.insert_releases ? 2 : 0) |
                      (options.adaptive_recompilation ? 4 : 0) | (options.oracle ? 8 : 0));
  return key;
}

}  // namespace

std::shared_ptr<const CompiledProgram> CompileCache::GetOrCompile(const SourceProgram& source,
                                                                  const MachineConfig& machine,
                                                                  AppVersion version,
                                                                  bool adaptive, bool oracle) {
  const CompileOptions options = CompileOptionsFor(version, adaptive, oracle);
  const CompilerTarget target = TargetFor(machine);
  const std::string key = KeyFor(source, target, options);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = programs_.find(key);
    if (it != programs_.end()) {
      ++stats_.hits;
      return it->second;
    }
  }
  // Compile outside the lock: compilation is the expensive part, and two
  // workers racing on the same key merely produce one discarded duplicate.
  auto compiled =
      std::make_shared<const CompiledProgram>(Compile(source, target, options));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = programs_.emplace(key, std::move(compiled));
  ++stats_.misses;
  return it->second;
}

CompileCache::Stats CompileCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t CompileCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return programs_.size();
}

int DefaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int AvailableCpus() {
#if defined(__linux__)
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int cpus = CPU_COUNT(&mask);
    if (cpus > 0) return cpus;
  }
#endif
  return DefaultJobs();
}

int SweepRunner::jobs() const { return options_.jobs > 0 ? options_.jobs : DefaultJobs(); }

int SweepRunner::EffectiveWorkers(size_t tasks) const {
  const size_t capped = std::min<size_t>(
      std::min<size_t>(static_cast<size_t>(jobs()), static_cast<size_t>(AvailableCpus())),
      tasks);
  return capped > 0 ? static_cast<int>(capped) : 1;
}

void SweepRunner::RunTasks(std::vector<std::function<void()>> tasks) {
  const size_t n = tasks.size();
  const int workers = EffectiveWorkers(n);
  if (workers <= 1) {
    for (std::function<void()>& task : tasks) {
      task();
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  auto worker = [&] {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      try {
        tasks[i]();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (first_error == nullptr) {
          first_error = std::current_exception();
        }
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int t = 0; t < workers; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }
}

namespace {

// Every observed simulation must have recorded into its own EventLog and
// MetricsRegistry (they live inside that run's Kernel): each observed result
// carries an enabled log and a metrics dump of its own, and no two results
// alias one event buffer. If buffers were ever shared, concurrent runs would
// interleave events; this check is cheap and always on (the default build
// defines NDEBUG, so a plain assert would vanish).
struct ObservedSlices {
  const EventLog* event_log = nullptr;
  const std::string* metrics_text = nullptr;
};

void CheckIndependentObservability(const std::vector<ObservedSlices>& observed) {
  for (const ObservedSlices& slice : observed) {
    if (!slice.event_log->enabled() || slice.metrics_text->empty()) {
      std::fprintf(stderr,
                   "SweepRunner: an observed spec produced no independent "
                   "EventLog/MetricsRegistry instance\n");
      std::abort();
    }
  }
  for (size_t i = 0; i < observed.size(); ++i) {
    for (size_t j = i + 1; j < observed.size(); ++j) {
      const auto& a = observed[i].event_log->events();
      const auto& b = observed[j].event_log->events();
      if (!a.empty() && a.data() == b.data()) {
        std::fprintf(stderr,
                     "SweepRunner: two observed results share one EventLog buffer — "
                     "simulations must not share observability state\n");
        std::abort();
      }
    }
  }
}

}  // namespace

std::vector<ExperimentResult> SweepRunner::Run(const std::vector<ExperimentSpec>& specs) {
  std::vector<ExperimentResult> results(specs.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    tasks.push_back([this, &specs, &results, i] {
      results[i] = RunExperiment(specs[i], &cache_);
    });
  }
  RunTasks(std::move(tasks));
  std::vector<ObservedSlices> observed;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].observe) {
      observed.push_back(ObservedSlices{&results[i].event_log, &results[i].metrics_text});
    }
  }
  CheckIndependentObservability(observed);
  return results;
}

std::vector<MultiExperimentResult> SweepRunner::RunMulti(
    const std::vector<MultiExperimentSpec>& specs) {
  std::vector<MultiExperimentResult> results(specs.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    tasks.push_back([this, &specs, &results, i] {
      results[i] = RunMultiExperiment(specs[i], &cache_);
    });
  }
  RunTasks(std::move(tasks));
  std::vector<ObservedSlices> observed;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].observe) {
      observed.push_back(ObservedSlices{&results[i].event_log, &results[i].metrics_text});
    }
  }
  CheckIndependentObservability(observed);
  return results;
}

}  // namespace tmh
