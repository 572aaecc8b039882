// Shared helpers for the table/figure reproduction binaries.
//
// Every binary accepts an optional first argument: the workload scale in
// (0, 1], default 1.0 (paper scale). Smaller scales shrink both the data sets
// and the machine proportionally, preserving the out-of-core ratio, for quick
// looks at the shapes.
//
// Binaries whose experiment grid runs on a SweepRunner additionally accept
// `--jobs N` (default: all cores). Results are always collected in submission
// order and rendered on the main thread, so the printed tables are
// byte-identical for every jobs value.

#ifndef TMH_BENCH_BENCH_UTIL_H_
#define TMH_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/core/cli_args.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/core/sweep.h"
#include "src/workloads/workloads.h"

namespace tmh {

struct BenchArgs {
  double scale = 1.0;
  int jobs = 0;  // sweep worker threads; 0 = all cores
  // --tiers N: total memory tiers. 1 is the degenerate {DRAM} config, which
  // must leave every table byte-identical to the tierless default (the
  // golden_*_tiers1_identical tests pin that); N > 1 adds N-1 slow tiers of
  // half the DRAM frame count each, turning releases into demotions.
  int tiers = 0;
};

// Bad input exits with status 2 and a message naming the argument.
inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  bool have_scale = false;
  // The value after the flag at argv[i], as an integer in [lo, hi].
  auto int_flag = [&](int& i, long lo, long hi) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", flag);
      std::exit(2);
    }
    return static_cast<int>(IntegerArg(flag, argv[++i], lo, hi));
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tiers") == 0) {
      args.tiers = int_flag(i, 1, 4);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      args.jobs = int_flag(i, 0, std::numeric_limits<int>::max());
    } else if (!have_scale) {
      args.scale = ScaleArg("scale", argv[i]);
      have_scale = true;
    } else {
      std::fprintf(stderr, "unexpected argument '%s' (usage: [scale] [--jobs N] [--tiers N])\n",
                   argv[i]);
      std::exit(2);
    }
  }
  return args;
}

// The simulated machine, shrunk with the workload so it stays out-of-core.
inline MachineConfig BenchMachine(double scale) {
  MachineConfig config;
  config.user_memory_bytes =
      static_cast<int64_t>(static_cast<double>(config.user_memory_bytes) * scale);
  return config;
}

// Applies --tiers to a bench machine: total_tiers <= 1 leaves the config
// untouched (1 = the degenerate {DRAM} entry, semantically identical to none);
// each added slow tier holds half the DRAM frame count at default costs.
inline void ApplyTierGeometry(MachineConfig& config, int total_tiers) {
  if (total_tiers < 1) {
    return;
  }
  config.tiers.push_back(TierSpec{});  // tiers[0] = DRAM
  for (int t = 1; t < total_tiers; ++t) {
    TierSpec tier;
    tier.frames = config.num_frames() / 2;
    config.tiers.push_back(tier);
  }
}

// The spec RunBench builds, exposed so grids can be batched onto a
// SweepRunner instead of run one at a time.
inline ExperimentSpec BenchSpec(const WorkloadInfo& info, double scale, AppVersion version,
                                bool with_interactive, SimDuration sleep = 5 * kSec) {
  ExperimentSpec spec;
  spec.machine = BenchMachine(scale);
  spec.workload = info.factory(scale);
  spec.version = version;
  spec.with_interactive = with_interactive;
  spec.interactive.sleep_time = sleep;
  return spec;
}

inline void WarnIncomplete(const std::string& label, const ExperimentResult& result) {
  if (!result.completed) {
    std::fprintf(stderr, "WARNING: %s did not complete within the event budget\n",
                 label.c_str());
  }
}

// Fans the grid out over the runner's pool and reports incompletions (on
// stderr, in submission order) once the pool has joined.
inline std::vector<ExperimentResult> RunBenchSweep(SweepRunner& runner,
                                                   const std::vector<ExperimentSpec>& specs,
                                                   const std::vector<std::string>& labels) {
  std::vector<ExperimentResult> results = runner.Run(specs);
  for (size_t i = 0; i < results.size(); ++i) {
    WarnIncomplete(i < labels.size() ? labels[i] : "experiment", results[i]);
  }
  return results;
}

inline ExperimentResult RunBench(const WorkloadInfo& info, double scale, AppVersion version,
                                 bool with_interactive, SimDuration sleep = 5 * kSec) {
  const ExperimentResult result = RunExperiment(BenchSpec(info, scale, version,
                                                          with_interactive, sleep));
  WarnIncomplete(info.name + "/" + VersionLabel(version), result);
  return result;
}

inline std::string HeaderText(const char* what, double scale) {
  char machine[128];
  std::snprintf(machine, sizeof(machine),
                "(simulated SGI Origin 200, %.1f MB user memory, 10-disk striped swap; "
                "workload scale %.2f)\n\n",
                75.0 * scale, scale);
  return std::string("=== ") + what + " ===\n" + machine;
}

inline void PrintHeader(const char* what, double scale) {
  std::fputs(HeaderText(what, scale).c_str(), stdout);
}

// Figure 7's grid: every workload at every version, in the order Fig07Text
// reads the results back. `labels` gets one "WORKLOAD/V" per spec.
inline std::vector<ExperimentSpec> Fig07Specs(double scale, int tiers,
                                              std::vector<std::string>* labels) {
  std::vector<ExperimentSpec> specs;
  for (const WorkloadInfo& info : AllWorkloads()) {
    for (const AppVersion version : AllVersions()) {
      specs.push_back(BenchSpec(info, scale, version, /*with_interactive=*/false));
      ApplyTierGeometry(specs.back().machine, tiers);
      labels->push_back(info.name + "/" + VersionLabel(version));
    }
  }
  return specs;
}

// fig07_breakdown's whole output, rendered from the results of Fig07Specs.
inline std::string Fig07Text(double scale, const std::vector<ExperimentResult>& results) {
  ReportTable table({"benchmark", "ver", "exec(s)", "norm", "user", "system", "res-stall",
                     "io-stall", "hard-faults"});
  size_t idx = 0;
  for (const WorkloadInfo& info : AllWorkloads()) {
    double base = 0;
    for (const AppVersion version : AllVersions()) {
      const ExperimentResult& result = results[idx++];
      const TimeBreakdown& t = result.app.times;
      const double exec = ToSeconds(t.Execution());
      if (version == AppVersion::kOriginal) {
        base = exec;
      }
      auto frac = [&](SimDuration d) { return FormatDouble(ToSeconds(d) / base, 3); };
      table.AddRow({info.name, VersionLabel(version), FormatDouble(exec, 1),
                    FormatDouble(exec / base, 3), frac(t.user), frac(t.system),
                    frac(t.resource_stall), frac(t.io_stall),
                    FormatCount(result.app.faults.hard_faults)});
    }
  }
  return HeaderText("Figure 7: normalized execution time breakdown", scale) +
         table.ToString() +
         "\nColumns user..io-stall are fractions of the ORIGINAL version's execution time\n"
         "(they sum to the 'norm' column). Expected shape: P eliminates most of O's I/O\n"
         "stall; R/B additionally remove the daemon-interference stall and soft-fault\n"
         "system time; MATVEC: aggressive releasing (R) hurts, buffering (B) shines.\n";
}

}  // namespace tmh

#endif  // TMH_BENCH_BENCH_UTIL_H_
