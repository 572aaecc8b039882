// Figure 7: execution time of the out-of-core applications, normalized to the
// original program, broken into user / system / resource-stall / I/O-stall
// components, for versions O (original), P (prefetch), R (+aggressive
// release), B (+release buffering).
//
// The 6x4 grid runs on a SweepRunner (all cores by default; --jobs N to
// override); the table is rendered from the in-order results afterwards, so
// the output is byte-identical to the serial run.

#include <cstdio>

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  const tmh::BenchArgs args = tmh::ParseBenchArgs(argc, argv);
  tmh::PrintHeader("Figure 7: normalized execution time breakdown", args.scale);

  std::vector<tmh::ExperimentSpec> specs;
  std::vector<std::string> labels;
  for (const tmh::WorkloadInfo& info : tmh::AllWorkloads()) {
    for (const tmh::AppVersion version : tmh::AllVersions()) {
      specs.push_back(tmh::BenchSpec(info, args.scale, version, /*with_interactive=*/false));
      tmh::ApplyTierGeometry(specs.back().machine, args.tiers);
      labels.push_back(info.name + "/" + tmh::VersionLabel(version));
    }
  }
  tmh::SweepRunner runner(tmh::SweepOptions{args.jobs});
  const std::vector<tmh::ExperimentResult> results = tmh::RunBenchSweep(runner, specs, labels);

  tmh::ReportTable table({"benchmark", "ver", "exec(s)", "norm", "user", "system", "res-stall",
                          "io-stall", "hard-faults"});
  size_t idx = 0;
  for (const tmh::WorkloadInfo& info : tmh::AllWorkloads()) {
    double base = 0;
    for (const tmh::AppVersion version : tmh::AllVersions()) {
      const tmh::ExperimentResult& result = results[idx++];
      const tmh::TimeBreakdown& t = result.app.times;
      const double exec = tmh::ToSeconds(t.Execution());
      if (version == tmh::AppVersion::kOriginal) {
        base = exec;
      }
      auto frac = [&](tmh::SimDuration d) {
        return tmh::FormatDouble(tmh::ToSeconds(d) / base, 3);
      };
      table.AddRow({info.name, tmh::VersionLabel(version), tmh::FormatDouble(exec, 1),
                    tmh::FormatDouble(exec / base, 3), frac(t.user), frac(t.system),
                    frac(t.resource_stall), frac(t.io_stall),
                    tmh::FormatCount(result.app.faults.hard_faults)});
    }
  }
  table.Print();
  std::printf(
      "\nColumns user..io-stall are fractions of the ORIGINAL version's execution time\n"
      "(they sum to the 'norm' column). Expected shape: P eliminates most of O's I/O\n"
      "stall; R/B additionally remove the daemon-interference stall and soft-fault\n"
      "system time; MATVEC: aggressive releasing (R) hurts, buffering (B) shines.\n");
  return 0;
}
