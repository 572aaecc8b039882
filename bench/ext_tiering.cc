// Extension: release-as-demotion on a multi-level memory hierarchy.
//
// The paper's releases drop frames to the free list; a too-early release is
// survivable only while the frame lingers there (the rescue window). On a
// tiered machine (DRAM + slower-but-cheaper tiers, CXL-style) the same hint
// can do better: demote the page's contents into a slow tier chosen by its
// Eq. 2 reuse priority, so a mispredicted release costs one promotion
// migration instead of a disk round trip. This binary re-runs the release-
// treated hogs with the interactive task across tier geometries:
//
//   flat     no slow tiers (the paper's machine; releases free frames)
//   2-tier   one slow tier of half the DRAM frame count
//   3-tier   two such tiers (releases sink by priority, evictions cascade)
//
// The figures of merit are the hog's hard faults (disk reads a demoted page
// avoided) against the promotion traffic that replaced them, and where the
// hierarchy spills (evictions, tier writebacks) once a tier fills up.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/workloads/extra.h"

int main(int argc, char** argv) {
  const tmh::BenchArgs args = tmh::ParseBenchArgs(argc, argv);
  tmh::PrintHeader("Extension: releases as demotions on a tiered memory hierarchy",
                   args.scale);

  const struct {
    const char* label;
    int total_tiers;
  } kGeometries[] = {{"flat", 1}, {"2-tier", 2}, {"3-tier", 3}};
  const tmh::AppVersion kVersions[] = {tmh::AppVersion::kRelease,
                                       tmh::AppVersion::kBuffered};

  std::vector<tmh::ExperimentSpec> specs;
  std::vector<std::string> labels;
  for (const char* name : {"MATVEC", "BUK"}) {
    const tmh::WorkloadInfo* info = tmh::FindWorkload(name);
    if (info == nullptr) {
      continue;
    }
    for (const tmh::AppVersion version : kVersions) {
      for (const auto& geometry : kGeometries) {
        specs.push_back(tmh::BenchSpec(*info, args.scale, version, /*with_interactive=*/true));
        tmh::ApplyTierGeometry(specs.back().machine, geometry.total_tiers);
        labels.push_back(std::string(info->name) + "/" +
                         tmh::VersionLabel(version) + "/" + geometry.label);
      }
    }
  }
  tmh::SweepRunner runner(tmh::SweepOptions{args.jobs});
  const std::vector<tmh::ExperimentResult> results =
      tmh::RunBenchSweep(runner, specs, labels);

  tmh::ReportTable table({"benchmark", "ver", "tiers", "exec(s)", "hard-faults",
                          "demotions", "promotions", "evictions", "tier-wb",
                          "swap-reads", "interactive(ms)"});
  for (size_t i = 0; i < results.size(); ++i) {
    const tmh::ExperimentResult& result = results[i];
    // labels[i] is "NAME/ver/geometry"; split it back apart for the table.
    const std::string& label = labels[i];
    const size_t first = label.find('/');
    const size_t second = label.find('/', first + 1);
    table.AddRow({label.substr(0, first),
                  label.substr(first + 1, second - first - 1), label.substr(second + 1),
                  tmh::FormatDouble(tmh::ToSeconds(result.app.times.Execution()), 1),
                  tmh::FormatCount(result.app.faults.hard_faults),
                  tmh::FormatCount(result.kernel.tier_demotions),
                  tmh::FormatCount(result.kernel.tier_promotions),
                  tmh::FormatCount(result.kernel.tier_evictions),
                  tmh::FormatCount(result.kernel.tier_writebacks),
                  tmh::FormatCount(result.swap_reads),
                  tmh::FormatDouble(result.interactive->mean_response_ns / 1e6, 1)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: on flat machines releases free frames (zero migration\n"
      "columns). With tiers every release demotes instead; pages the app re-touches\n"
      "come back as promotions (microsecond migrations) rather than rescue-or-disk,\n"
      "so hard faults and swap reads fall. Aggressive releasing (R), which loses to\n"
      "buffering (B) on the flat machine because its mispredicted releases miss the\n"
      "rescue window, recovers most of that gap — the slow tier is a rescue window\n"
      "that does not expire. Once the working set outgrows a tier, evictions cascade\n"
      "and tier writebacks appear: the hierarchy degrades toward the flat machine\n"
      "instead of falling off a cliff.\n");
  return 0;
}
