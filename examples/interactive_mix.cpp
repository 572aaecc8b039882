// Scenario from the paper's introduction: an interactive task (think: an
// editor that touches 1 MB between pauses) shares the machine with an
// out-of-core scientific job. Pick the job and its treatment level on the
// command line and see both sides of the story.
//
//   ./build/examples/interactive_mix [workload] [O|P|R|B] [sleep_s] [scale]
//   e.g. ./build/examples/interactive_mix MATVEC P 5 0.25

#include <cstdio>

#include "src/core/cli_args.h"
#include "src/core/experiment.h"
#include "src/core/report.h"
#include "src/workloads/workloads.h"

int main(int argc, char** argv) {
  const char* workload_name = argc > 1 ? argv[1] : "MATVEC";
  const tmh::AppVersion version = argc > 2 ? tmh::VersionArg("version", argv[2])
                                           : tmh::AppVersion::kPrefetch;
  const double sleep_s = argc > 3 ? tmh::NumberArg("sleep_s", argv[3], 0.0, 1e9) : 5.0;
  const double scale = argc > 4 ? tmh::ScaleArg("scale", argv[4]) : 0.25;

  const tmh::WorkloadInfo* info = nullptr;
  for (const tmh::WorkloadInfo& w : tmh::AllWorkloads()) {
    if (w.name == workload_name) {
      info = &w;
    }
  }
  if (info == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload_name);
    return 2;
  }

  tmh::ExperimentSpec spec;
  spec.machine.user_memory_bytes =
      static_cast<int64_t>(static_cast<double>(spec.machine.user_memory_bytes) * scale);
  spec.workload = info->factory(scale);
  spec.version = version;
  spec.with_interactive = true;
  spec.interactive.sleep_time = static_cast<tmh::SimDuration>(sleep_s * tmh::kSec);

  std::printf("%s (version %s) vs a 1 MB interactive task sleeping %.1f s between sweeps\n\n",
              info->name.c_str(), tmh::VersionLabel(version), sleep_s);
  const tmh::ExperimentResult result = tmh::RunExperiment(spec);

  const tmh::TimeBreakdown& t = result.app.times;
  std::printf("out-of-core job:\n");
  std::printf("  execution %s  (user %s, system %s, resource stall %s, I/O stall %s)\n",
              tmh::FormatSeconds(tmh::ToSeconds(t.Execution())).c_str(),
              tmh::FormatSeconds(tmh::ToSeconds(t.user)).c_str(),
              tmh::FormatSeconds(tmh::ToSeconds(t.system)).c_str(),
              tmh::FormatSeconds(tmh::ToSeconds(t.resource_stall)).c_str(),
              tmh::FormatSeconds(tmh::ToSeconds(t.io_stall)).c_str());
  std::printf("  hard faults %llu, soft faults %llu, prefetch I/Os %llu, releases freed %llu\n\n",
              static_cast<unsigned long long>(result.app.faults.hard_faults),
              static_cast<unsigned long long>(result.app.faults.soft_faults),
              static_cast<unsigned long long>(result.kernel.prefetch_io),
              static_cast<unsigned long long>(result.kernel.releaser_pages_freed));

  const tmh::InteractiveMetrics& interactive = *result.interactive;
  std::printf("interactive task (%lld sweeps measured):\n",
              static_cast<long long>(interactive.sweeps));
  std::printf("  mean response %s, worst %s, hard faults per sweep %.1f (max 65)\n",
              tmh::FormatSeconds(interactive.mean_response_ns / 1e9).c_str(),
              tmh::FormatSeconds(interactive.max_response_ns / 1e9).c_str(),
              interactive.hard_faults_per_sweep);
  std::printf("  response series (ms):");
  for (size_t i = 0; i < interactive.responses.size() && i < 16; ++i) {
    std::printf(" %.1f", tmh::ToMillis(interactive.responses[i]));
  }
  std::printf("%s\n\n", interactive.responses.size() > 16 ? " ..." : "");

  std::printf("paging daemon: %llu activations, %llu pages stolen, %llu invalidations\n",
              static_cast<unsigned long long>(result.kernel.daemon_activations),
              static_cast<unsigned long long>(result.kernel.daemon_pages_stolen),
              static_cast<unsigned long long>(result.kernel.daemon_invalidations));
  return 0;
}
