// Bring your own kernel: define a loop nest in the IR, run the compiler pass,
// inspect where it placed prefetch and release hints, and execute the result
// on the simulated machine.
//
// The kernel here is a red-black-ish 2-D sweep:
//   for (i = 1; i < N-1; i++)
//     for (j = 0; j < M; j++)
//       out[i][j] = (grid[i-1][j] + grid[i][j] + grid[i+1][j]) / 3;
// with an out-of-core grid, so the compiler must both prefetch the leading
// stencil row and release the trailing one.

#include <cstdio>

#include "src/core/cli_args.h"
#include "src/core/experiment.h"
#include "src/core/report.h"

int main(int argc, char** argv) {
  const double scale = argc > 1 ? tmh::ScaleArg("scale", argv[1]) : 0.5;

  // --- 1. describe the program in the loop-nest IR -----------------------------
  const int64_t rows = static_cast<int64_t>(1400 * scale);
  const int64_t cols = 16 * 1024;  // one row = 128 KB = 8 pages
  tmh::SourceProgram program;
  program.name = "smooth2d";
  program.arrays = {
      {"grid", 8, rows * cols, /*on_disk=*/true, nullptr},
      {"out", 8, rows * cols, /*on_disk=*/false, nullptr},
  };
  tmh::LoopNest nest;
  nest.label = "smooth";
  nest.loops = {tmh::Loop{"i", 1, rows - 1, 1, true}, tmh::Loop{"j", 0, cols, 1, true}};
  auto ref = [&](int32_t array, int64_t row_offset, bool write) {
    tmh::ArrayRef r;
    r.array = array;
    r.affine.coeffs = {cols, 1};
    r.affine.constant = row_offset * cols;
    r.is_write = write;
    return r;
  };
  nest.refs = {ref(0, -1, false), ref(0, 0, false), ref(0, 1, false), ref(1, 0, true)};
  nest.compute_per_iteration = 40 * tmh::kNsec;
  program.nests.push_back(nest);

  // --- 2. run the compiler pass and show its decisions --------------------------
  tmh::MachineConfig machine;
  machine.user_memory_bytes =
      static_cast<int64_t>(static_cast<double>(machine.user_memory_bytes) * scale);
  const tmh::CompiledProgram compiled =
      tmh::CompileVersion(program, machine, tmh::AppVersion::kBuffered);

  std::printf("grid: %.0f MB over %lld pages; machine: %.1f MB\n\n",
              static_cast<double>(program.arrays[0].size_bytes()) / (1024 * 1024),
              static_cast<long long>(compiled.layout.PageCount(0)),
              static_cast<double>(machine.user_memory_bytes) / (1024 * 1024));

  tmh::ReportTable hints({"directive", "reference", "distance", "priority", "per-iteration"});
  for (const tmh::HintDirective& d : compiled.nests[0].directives) {
    const tmh::ArrayRef& target = compiled.nests[0].nest.refs[static_cast<size_t>(d.ref)];
    const std::string where = program.arrays[static_cast<size_t>(target.array)].name +
                              "[i" +
                              (target.affine.constant == 0
                                   ? ""
                                   : (target.affine.constant > 0 ? "+1" : "-1")) +
                              "][j]";
    hints.AddRow({d.kind == tmh::HintDirective::Kind::kPrefetch ? "prefetch" : "release", where,
                  std::to_string(d.distance) + " pages", std::to_string(d.priority),
                  d.every_iteration ? "yes" : "no"});
  }
  hints.Print();
  std::printf(
      "\nThe pass found the group locality: grid[i+1] (leading edge) is prefetched,\n"
      "grid[i-1] (trailing edge) is released; grid[i] needs neither.\n\n");

  // --- 3. execute all four treatment levels -------------------------------------
  tmh::ReportTable results({"version", "exec", "io-stall", "hard-faults", "daemon-stolen"});
  for (const tmh::AppVersion version : tmh::AllVersions()) {
    tmh::ExperimentSpec spec;
    spec.machine = machine;
    spec.workload = program;
    spec.version = version;
    const tmh::ExperimentResult result = tmh::RunExperiment(spec);
    results.AddRow({tmh::VersionLabel(version),
                    tmh::FormatSeconds(tmh::ToSeconds(result.app.times.Execution())),
                    tmh::FormatSeconds(tmh::ToSeconds(result.app.times.io_stall)),
                    tmh::FormatCount(result.app.faults.hard_faults),
                    tmh::FormatCount(result.kernel.daemon_pages_stolen)});
  }
  results.Print();
  return 0;
}
