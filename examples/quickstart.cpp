// Quickstart: compile MATVEC at all four treatment levels (original,
// prefetching, +aggressive releasing, +release buffering), run each on the
// simulated 75 MB machine alongside the interactive task, and print the
// execution-time breakdown plus the interactive response time.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/quickstart [scale]
// `scale` in (0,1] shrinks the data set (default 0.25 for a fast demo).

#include <cstdio>

#include "src/core/cli_args.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/workloads/workloads.h"

int main(int argc, char** argv) {
  const double scale = argc > 1 ? tmh::ScaleArg("scale", argv[1]) : 0.25;
  std::printf("MATVEC at scale %.2f on the simulated Origin 200 (75 MB, 10 swap disks)\n\n",
              scale);

  tmh::MachineConfig machine;  // Table 1 defaults
  // Shrink the machine with the workload so it stays out-of-core.
  machine.user_memory_bytes = static_cast<int64_t>(75.0 * 1024 * 1024 * scale);

  tmh::ReportTable table({"version", "exec", "user", "system", "res-stall", "io-stall",
                          "hard-faults", "interactive-response"});
  for (const tmh::AppVersion version : tmh::AllVersions()) {
    tmh::ExperimentSpec spec;
    spec.machine = machine;
    spec.workload = tmh::MakeMatvec(scale);
    spec.version = version;
    spec.with_interactive = true;
    spec.interactive.sleep_time = 5 * tmh::kSec;
    const tmh::ExperimentResult result = tmh::RunExperiment(spec);
    const tmh::TimeBreakdown& t = result.app.times;
    table.AddRow({tmh::VersionLabel(version), tmh::FormatSeconds(tmh::ToSeconds(t.Execution())),
                  tmh::FormatSeconds(tmh::ToSeconds(t.user)),
                  tmh::FormatSeconds(tmh::ToSeconds(t.system)),
                  tmh::FormatSeconds(tmh::ToSeconds(t.resource_stall)),
                  tmh::FormatSeconds(tmh::ToSeconds(t.io_stall)),
                  tmh::FormatCount(result.app.faults.hard_faults),
                  tmh::FormatSeconds(result.interactive->mean_response_ns / 1e9)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: P cuts O's I/O stall but inflates the interactive response;\n"
      "R and B keep the app fast AND the interactive task responsive.\n");
  return 0;
}
