// Figure 1 as a loadable timeline: run the out-of-core MATVEC hog next to the
// interactive task with the structured event log enabled, then export the run
// as a Chrome tracing JSON (load it in about://tracing or ui.perfetto.dev) and
// a metrics text dump. Each simulated thread gets its own row: hard-fault and
// prefetch-I/O spans, release/rescue instants, daemon sweep batches, and a
// free-memory counter track.
//
//   ./build/examples/hog_trace [scale] [out_dir] [O|P|R|B]

#include <cstdio>
#include <string>

#include "src/core/cli_args.h"
#include "src/core/experiment.h"
#include "src/workloads/workloads.h"

int main(int argc, char** argv) {
  const double scale = argc > 1 ? tmh::ScaleArg("scale", argv[1]) : 0.25;
  const std::string out_dir = argc > 2 ? argv[2] : ".";

  tmh::ExperimentSpec spec;
  spec.machine.user_memory_bytes =
      static_cast<int64_t>(static_cast<double>(spec.machine.user_memory_bytes) * scale);
  spec.workload = tmh::MakeMatvec(scale);
  spec.version =
      argc > 3 ? tmh::VersionArg("version", argv[3]) : tmh::AppVersion::kBuffered;
  spec.with_interactive = true;
  spec.interactive.sleep_time = 5 * tmh::kSec;
  spec.observe = true;
  const tmh::ExperimentResult result = tmh::RunExperiment(spec);

  const tmh::EventLog& log = result.event_log;
  std::printf("MATVEC-%s at scale %.2f: %zu kernel events recorded (%zu dropped)\n",
              tmh::VersionLabel(spec.version), scale, log.events().size(), log.dropped());
  for (const tmh::VmHookOp op :
       {tmh::VmHookOp::kFaultBegin, tmh::VmHookOp::kPrefetchIssue, tmh::VmHookOp::kPrefetchDrop,
        tmh::VmHookOp::kReleaseEnqueue, tmh::VmHookOp::kReleaseFree, tmh::VmHookOp::kRescue,
        tmh::VmHookOp::kDaemonSweep, tmh::VmHookOp::kMemoryWaitBegin}) {
    std::printf("  %-18s %zu\n", tmh::VmHookOpName(op), log.Count(op));
  }

  const std::string trace_path = out_dir + "/hog_trace.json";
  if (log.WriteChromeTrace(trace_path)) {
    std::printf("wrote %s (load in about://tracing or ui.perfetto.dev)\n", trace_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
    return 1;
  }
  const std::string metrics_path = out_dir + "/hog_metrics.txt";
  std::FILE* out = std::fopen(metrics_path.c_str(), "w");
  if (out != nullptr) {
    std::fwrite(result.metrics_text.data(), 1, result.metrics_text.size(), out);
    std::fclose(out);
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  return 0;
}
