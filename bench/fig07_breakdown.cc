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
  std::vector<std::string> labels;
  const std::vector<tmh::ExperimentSpec> specs =
      tmh::Fig07Specs(args.scale, args.tiers, &labels);
  tmh::SweepRunner runner(tmh::SweepOptions{args.jobs});
  const std::vector<tmh::ExperimentResult> results = tmh::RunBenchSweep(runner, specs, labels);
  std::fputs(tmh::Fig07Text(args.scale, results).c_str(), stdout);
  return 0;
}
