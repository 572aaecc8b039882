// Time-series view of the memory-hog problem: trace free memory, the two
// processes' resident sets, and reclaim activity over the run, for MATVEC-P
// (the hog at its worst) and MATVEC-B (tamed). Writes two CSVs and prints a
// coarse ASCII timeline of free memory.
//
//   ./build/examples/trace_timeline [scale] [out_dir]

#include <cstdio>
#include <string>

#include "src/core/cli_args.h"
#include "src/core/experiment.h"
#include "src/core/html_report.h"
#include "src/workloads/workloads.h"

namespace {

void AsciiTimeline(const char* label, const tmh::TraceRecorder& trace, int64_t total_pages) {
  std::printf("%s: free memory over time (each row = 1/20 of the run, '#' = in use)\n", label);
  const auto& samples = trace.samples();
  if (samples.empty()) {
    return;
  }
  const size_t stride = std::max<size_t>(1, samples.size() / 20);
  for (size_t i = 0; i < samples.size(); i += stride) {
    const double free = samples[i].values[0];
    const int used_cols =
        static_cast<int>(60.0 * (1.0 - free / static_cast<double>(total_pages)));
    std::printf("  %7.1fs |%.*s%*s| %5.0f free\n", tmh::ToSeconds(samples[i].when), used_cols,
                "############################################################",
                60 - used_cols, "", free);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = argc > 1 ? tmh::ScaleArg("scale", argv[1]) : 0.25;
  const std::string out_dir = argc > 2 ? argv[2] : ".";

  for (const tmh::AppVersion version : {tmh::AppVersion::kPrefetch, tmh::AppVersion::kBuffered}) {
    tmh::ExperimentSpec spec;
    spec.machine.user_memory_bytes =
        static_cast<int64_t>(static_cast<double>(spec.machine.user_memory_bytes) * scale);
    spec.workload = tmh::MakeMatvec(scale);
    spec.version = version;
    spec.with_interactive = true;
    spec.interactive.sleep_time = 5 * tmh::kSec;
    spec.trace_period = 100 * tmh::kMsec;
    const tmh::ExperimentResult result = tmh::RunExperiment(spec);

    const std::string html_path =
        out_dir + "/trace_matvec_" + tmh::VersionLabel(version) + ".html";
    if (tmh::WriteHtmlFile(html_path,
                           tmh::RenderKernelTraceHtml(
                               result.trace, std::string("MATVEC (") +
                                                 tmh::VersionLabel(version) + ")"))) {
      std::printf("wrote %s (open in a browser)\n", html_path.c_str());
    }
    const std::string path =
        out_dir + "/trace_matvec_" + tmh::VersionLabel(version) + ".csv";
    if (result.trace.WriteCsv(path)) {
      std::printf("wrote %s (%zu samples, columns:", path.c_str(),
                  result.trace.samples().size());
      for (const std::string& name : result.trace.series()) {
        std::printf(" %s", name.c_str());
      }
      std::printf(")\n");
    }
    AsciiTimeline(tmh::VersionLabel(version), result.trace,
                  spec.machine.user_memory_bytes / spec.machine.page_size_bytes);
    std::printf("\n");
  }
  std::printf(
      "P's timeline shows memory pinned at the floor (the daemon fighting the\n"
      "prefetcher); B's shows the releaser keeping a healthy free pool throughout.\n");
  return 0;
}
