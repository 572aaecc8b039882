// tmh_run — command-line driver for the library.
//
// Runs any workload at any treatment level on a configurable machine and
// prints the full metric dump; optionally writes a time-series trace CSV.
//
//   tmh_run --workload MATVEC --version B --scale 0.25 --interactive
//           (add --trace /tmp/run.csv for a time-series CSV)
//
// --workload and --version also accept comma lists or "all"; more than one
// combination switches to sweep mode: every combination runs on a SweepRunner
// thread pool (--jobs N, default all cores) sharing one compile cache, and a
// one-line-per-run summary table replaces the full metric dump.
//
// Run with --help for the full flag list, --list for the workload roster.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/core/cli_args.h"
#include "src/core/experiment.h"
#include "src/core/html_report.h"
#include "src/core/report.h"
#include "src/core/sweep.h"
#include "src/workloads/extra.h"
#include "src/workloads/workloads.h"

namespace {

struct Flags {
  std::string workload = "MATVEC";
  std::string version = "B";
  double scale = 1.0;
  bool interactive = false;
  double sleep_s = 5.0;
  bool adaptive = false;
  bool oracle = false;
  std::string trace_path;
  std::string html_path;
  std::string trace_out_path;    // Chrome tracing JSON (structured event log)
  std::string metrics_out_path;  // metrics registry text dump
  double trace_period_s = 0.1;
  int64_t memory_mb = 0;          // 0 = scale the 75 MB default
  int num_nodes = 1;              // NUMA-style frame-pool nodes
  std::vector<int64_t> tiers;     // slow-tier frame counts, DRAM-adjacent first
  int64_t local_partition = 0;    // pages; 0 = global replacement
  int release_batch = 100;
  int prefetch_threads = 8;
  bool drain_newest_first = false;
  bool checks = false;  // attach the invariant checker + differential oracle
  bool monitor = false;          // online access monitoring + cold-region releases
  bool monitor_protect = false;  // also re-set reference bits for hot regions
  double monitor_period_ms = 0;  // 0 = library default sample period
  bool json = false;
  int jobs = 0;  // sweep-mode worker threads; 0 = all cores
};

void PrintUsage() {
  std::printf(
      "tmh_run — run one out-of-core experiment and dump its metrics\n\n"
      "  --workload NAME     workload to run (--list shows the roster; default MATVEC)\n"
      "                      comma list or \"all\" sweeps every named workload\n"
      "  --version X         O | P | R | B | V (reactive)        [B]\n"
      "                      comma list or \"all\" (= O,P,R,B) sweeps versions\n"
      "  --jobs N            sweep-mode worker threads           [all cores]\n"
      "  --scale F           workload+machine scale in (0,1]     [1.0]\n"
      "  --memory-mb N       user memory in MB (overrides scale) [75*scale]\n"
      "  --nodes N           NUMA-style frame-pool nodes (1..64)  [1]\n"
      "  --tiers N,M,...     slow-tier frame counts, DRAM-adjacent first;\n"
      "                      releases demote into the hierarchy, faults promote\n"
      "  --interactive       run the 1 MB interactive task alongside\n"
      "  --sleep S           interactive think time in seconds   [5]\n"
      "  --adaptive          re-specialize unknown-bound nests at run time\n"
      "  --oracle            compile with perfect knowledge (hand-tuned baseline)\n"
      "  --local-partition N per-process resident cap in pages (local replacement)\n"
      "  --batch N           buffered-release drain batch        [100]\n"
      "  --threads N         prefetch pool size                  [8]\n"
      "  --drain-mru         drain buffered releases newest-first\n"
      "  --checks            cross-validate kernel state against the reference\n"
      "                      oracle after every event (slow; exits 1 on violation)\n"
      "  --monitor           sample the app's access pattern online and release\n"
      "                      cold regions without compiler hints\n"
      "  --monitor-protect   also shield hot regions from the paging daemon\n"
      "  --monitor-period MS monitor sample period in milliseconds  [20]\n"
      "  --trace PATH        write a time-series CSV to PATH\n"
      "  --html PATH         write a standalone HTML trace report to PATH\n"
      "  --trace-out PATH    write a Chrome tracing JSON of kernel events to PATH\n"
      "                      (load in about://tracing or ui.perfetto.dev)\n"
      "  --metrics-out PATH  write the metrics registry text dump to PATH\n"
      "  --trace-period S    trace sample period in seconds      [0.1]\n"
      "  --json              emit machine-readable JSON instead of tables\n"
      "  --list              list available workloads and exit\n");
}

void PrintWorkloads() {
  tmh::ReportTable table({"workload", "loop structure", "data set (full scale)", "set"});
  for (const tmh::WorkloadInfo& info : tmh::AllWorkloads()) {
    table.AddRow({info.name, info.loop_structure,
                  tmh::FormatDouble(
                      static_cast<double>(info.factory(1.0).TotalBytes()) / (1024 * 1024), 0) +
                      " MB",
                  "paper"});
  }
  for (const tmh::WorkloadInfo& info : tmh::ExtraWorkloads()) {
    table.AddRow({info.name, info.loop_structure,
                  tmh::FormatDouble(
                      static_cast<double>(info.factory(1.0).TotalBytes()) / (1024 * 1024), 0) +
                      " MB",
                  "extension"});
  }
  table.Print();
}

std::vector<std::string> SplitList(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  for (;;) {
    const size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
}

// Bounds of the numeric flags: what the simulated machine's types can hold.
// Frame ids are 32-bit, and times must convert to nanoseconds without overflow.
constexpr long kMaxFrames = std::numeric_limits<tmh::FrameId>::max();
constexpr double kMaxSeconds = 1e9;

bool ParseFlags(int argc, char** argv, Flags* flags) {
  const long frames_per_mb = (1 << 20) / tmh::MachineConfig{}.page_size_bytes;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // The flag's value as an integer in [lo, hi] or a number in [lo, hi]
    // ((lo, hi] when `exclude_lo`); anything else exits 2.
    auto integer = [&](long lo, long hi) {
      return tmh::IntegerArg(arg.c_str(), next(arg.c_str()), lo, hi);
    };
    auto number = [&](double lo, double hi, bool exclude_lo) {
      return tmh::NumberArg(arg.c_str(), next(arg.c_str()), lo, hi, exclude_lo);
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else if (arg == "--list") {
      PrintWorkloads();
      std::exit(0);
    } else if (arg == "--workload") {
      flags->workload = next("--workload");
    } else if (arg == "--version") {
      flags->version = next("--version");
    } else if (arg == "--scale") {
      flags->scale = number(0.0, 1.0, /*exclude_lo=*/true);
    } else if (arg == "--memory-mb") {
      flags->memory_mb = integer(1, kMaxFrames / frames_per_mb);
    } else if (arg == "--nodes") {
      flags->num_nodes = static_cast<int>(integer(1, tmh::FramePool::kMaxNodes));
    } else if (arg == "--tiers") {
      for (const std::string& part : SplitList(next("--tiers"))) {
        flags->tiers.push_back(tmh::IntegerArg("--tiers", part.c_str(), 1, kMaxFrames));
      }
    } else if (arg == "--interactive") {
      flags->interactive = true;
    } else if (arg == "--sleep") {
      flags->sleep_s = number(0.0, kMaxSeconds, /*exclude_lo=*/false);
    } else if (arg == "--adaptive") {
      flags->adaptive = true;
    } else if (arg == "--oracle") {
      flags->oracle = true;
    } else if (arg == "--local-partition") {
      flags->local_partition = integer(0, std::numeric_limits<long>::max());
    } else if (arg == "--batch") {
      flags->release_batch = static_cast<int>(integer(1, std::numeric_limits<int>::max()));
    } else if (arg == "--threads") {
      flags->prefetch_threads = static_cast<int>(integer(1, std::numeric_limits<int>::max()));
    } else if (arg == "--jobs") {
      flags->jobs = static_cast<int>(integer(0, std::numeric_limits<int>::max()));
    } else if (arg == "--drain-mru") {
      flags->drain_newest_first = true;
    } else if (arg == "--checks") {
      flags->checks = true;
    } else if (arg == "--monitor") {
      flags->monitor = true;
    } else if (arg == "--monitor-protect") {
      flags->monitor = true;
      flags->monitor_protect = true;
    } else if (arg == "--monitor-period") {
      flags->monitor = true;
      flags->monitor_period_ms = number(0.0, kMaxSeconds * 1e3, /*exclude_lo=*/true);
    } else if (arg == "--json") {
      flags->json = true;
    } else if (arg == "--trace") {
      flags->trace_path = next("--trace");
    } else if (arg == "--trace-out") {
      flags->trace_out_path = next("--trace-out");
    } else if (arg == "--metrics-out") {
      flags->metrics_out_path = next("--metrics-out");
    } else if (arg == "--html") {
      flags->html_path = next("--html");
    } else if (arg == "--trace-period") {
      flags->trace_period_s = number(0.0, kMaxSeconds, /*exclude_lo=*/true);
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", arg.c_str());
      return false;
    }
  }
  return true;
}

tmh::AppVersion ParseVersion(const std::string& s) {
  if (s == "O") return tmh::AppVersion::kOriginal;
  if (s == "P") return tmh::AppVersion::kPrefetch;
  if (s == "R") return tmh::AppVersion::kRelease;
  if (s == "B") return tmh::AppVersion::kBuffered;
  if (s == "V") return tmh::AppVersion::kReactive;
  std::fprintf(stderr, "unknown version '%s' (use O, P, R, B, or V)\n", s.c_str());
  std::exit(2);
}

// The experiment a (workload, version) combination maps to under the current
// flags — shared by the single-run path and sweep mode so both run exactly
// the same spec.
tmh::ExperimentSpec SpecFor(const Flags& flags, const tmh::WorkloadInfo& info,
                            tmh::AppVersion version) {
  tmh::ExperimentSpec spec;
  if (flags.memory_mb > 0) {
    spec.machine.user_memory_bytes = flags.memory_mb * 1024 * 1024;
  } else {
    spec.machine.user_memory_bytes = static_cast<int64_t>(
        static_cast<double>(spec.machine.user_memory_bytes) * flags.scale);
  }
  spec.machine.num_nodes = flags.num_nodes;
  if (!flags.tiers.empty()) {
    spec.machine.tiers.push_back(tmh::TierSpec{});  // tiers[0] = DRAM
    for (const int64_t frames : flags.tiers) {
      tmh::TierSpec tier;
      tier.frames = frames;
      spec.machine.tiers.push_back(tier);
    }
  }
  spec.machine.tunables.local_partition_pages = flags.local_partition;
  spec.workload = info.factory(flags.scale);
  spec.version = version;
  spec.adaptive = flags.adaptive;
  spec.oracle = flags.oracle;
  spec.with_interactive = flags.interactive;
  spec.interactive.sleep_time = static_cast<tmh::SimDuration>(flags.sleep_s * tmh::kSec);
  spec.runtime.release_batch = flags.release_batch;
  spec.runtime.num_prefetch_threads = flags.prefetch_threads;
  spec.runtime.drain_newest_first = flags.drain_newest_first;
  spec.checks = flags.checks;
  spec.monitor = flags.monitor;
  spec.monitor_config.protect_hot = flags.monitor_protect;
  if (flags.monitor_period_ms > 0) {
    spec.monitor_config.sample_period =
        static_cast<tmh::SimDuration>(flags.monitor_period_ms * tmh::kMsec);
  }
  return spec;
}

// Sweep mode: run every (workload, version) combination on a thread pool with
// a shared compile cache and print a one-line-per-run summary. Results are
// merged on the main thread in submission order, so the table is identical
// for every --jobs value.
int RunSweep(const Flags& flags, const std::vector<const tmh::WorkloadInfo*>& infos,
             const std::vector<tmh::AppVersion>& versions) {
  std::vector<tmh::ExperimentSpec> specs;
  std::vector<std::string> names;
  std::vector<std::string> version_labels;
  for (const tmh::WorkloadInfo* info : infos) {
    for (const tmh::AppVersion version : versions) {
      specs.push_back(SpecFor(flags, *info, version));
      names.push_back(info->name);
      version_labels.push_back(tmh::VersionLabel(version));
    }
  }
  tmh::SweepRunner runner(tmh::SweepOptions{flags.jobs});
  std::printf("sweep: %zu runs at scale %.2f on %d worker thread(s)\n\n", specs.size(),
              flags.scale, runner.jobs());
  const std::vector<tmh::ExperimentResult> results = runner.Run(specs);

  std::vector<std::string> headers = {"workload", "version", "exec(s)", "io-stall(s)",
                                      "hard-faults", "swap-reads"};
  if (flags.interactive) {
    headers.push_back("interactive(ms)");
  }
  headers.push_back("completed");
  tmh::ReportTable table(headers);
  bool all_completed = true;
  for (size_t i = 0; i < results.size(); ++i) {
    const tmh::ExperimentResult& result = results[i];
    all_completed = all_completed && result.completed;
    if (!result.check_failure.empty()) {
      std::fprintf(stderr, "INVARIANT VIOLATION in %s %s:\n%s\n", names[i].c_str(),
                   version_labels[i].c_str(), result.check_failure.c_str());
      all_completed = false;
    }
    std::vector<std::string> row = {
        names[i], version_labels[i],
        tmh::FormatDouble(tmh::ToSeconds(result.app.times.Execution()), 1),
        tmh::FormatDouble(tmh::ToSeconds(result.app.times.io_stall), 1),
        tmh::FormatCount(result.app.faults.hard_faults),
        tmh::FormatCount(result.swap_reads)};
    if (flags.interactive) {
      row.push_back(tmh::FormatDouble(result.interactive->mean_response_ns / 1e6, 1));
    }
    row.push_back(result.completed ? "yes" : "NO");
    table.AddRow(row);
  }
  table.Print();
  const tmh::CompileCache::Stats cache = runner.compile_cache().stats();
  std::printf("\ncompile cache: %llu hit(s), %llu miss(es)\n",
              (unsigned long long)cache.hits, (unsigned long long)cache.misses);
  return all_completed ? 0 : 1;
}

// Machine-readable dump of the headline metrics (stable key names).
void PrintJson(const Flags& flags, const tmh::WorkloadInfo& info,
               const tmh::ExperimentSpec& spec, const tmh::ExperimentResult& result) {
  const tmh::TimeBreakdown& t = result.app.times;
  std::printf("{\n");
  std::printf("  \"workload\": \"%s\",\n", info.name.c_str());
  std::printf("  \"version\": \"%s\",\n", tmh::VersionLabel(spec.version));
  std::printf("  \"scale\": %.4f,\n", flags.scale);
  std::printf("  \"completed\": %s,\n", result.completed ? "true" : "false");
  std::printf("  \"times_s\": {\"execution\": %.6f, \"user\": %.6f, \"system\": %.6f, "
              "\"resource_stall\": %.6f, \"io_stall\": %.6f},\n",
              tmh::ToSeconds(t.Execution()), tmh::ToSeconds(t.user), tmh::ToSeconds(t.system),
              tmh::ToSeconds(t.resource_stall), tmh::ToSeconds(t.io_stall));
  const tmh::FaultStats& f = result.app.faults;
  std::printf("  \"faults\": {\"hard\": %llu, \"collapsed\": %llu, \"soft\": %llu, "
              "\"rescue\": %llu, \"zero_fill\": %llu, \"release_saves\": %llu},\n",
              (unsigned long long)f.hard_faults, (unsigned long long)f.collapsed_faults,
              (unsigned long long)f.soft_faults, (unsigned long long)f.rescue_faults,
              (unsigned long long)f.zero_fill_faults, (unsigned long long)f.release_saves);
  std::printf("  \"kernel\": {\"daemon_activations\": %llu, \"daemon_pages_stolen\": %llu, "
              "\"daemon_invalidations\": %llu, \"releaser_pages_freed\": %llu, "
              "\"reactive_evictions\": %llu, \"local_evictions\": %llu, "
              "\"rescued\": %llu},\n",
              (unsigned long long)result.kernel.daemon_activations,
              (unsigned long long)result.kernel.daemon_pages_stolen,
              (unsigned long long)result.kernel.daemon_invalidations,
              (unsigned long long)result.kernel.releaser_pages_freed,
              (unsigned long long)result.kernel.reactive_evictions,
              (unsigned long long)result.kernel.local_evictions,
              (unsigned long long)(result.kernel.rescued_daemon_freed +
                                   result.kernel.rescued_release_freed));
  std::printf("  \"swap\": {\"reads\": %llu, \"writes\": %llu}",
              (unsigned long long)result.swap_reads, (unsigned long long)result.swap_writes);
  if (spec.machine.has_slow_tiers()) {
    std::printf(",\n  \"tiers\": {\"demotions\": %llu, \"promotions\": %llu, "
                "\"evictions\": %llu, \"writebacks\": %llu}",
                (unsigned long long)result.kernel.tier_demotions,
                (unsigned long long)result.kernel.tier_promotions,
                (unsigned long long)result.kernel.tier_evictions,
                (unsigned long long)result.kernel.tier_writebacks);
  }
  if (result.monitor.has_value()) {
    const tmh::MonitorStats& mo = *result.monitor;
    std::printf(",\n  \"monitor\": {\"ticks\": %llu, \"aggregations\": %llu, "
                "\"samples_armed\": %llu, \"samples_hit\": %llu, \"max_regions\": %llu, "
                "\"splits\": %llu, \"merges\": %llu, \"cold_pages_enqueued\": %llu, "
                "\"hot_pages_protected\": %llu, \"soft_faults\": %llu}",
                (unsigned long long)mo.ticks, (unsigned long long)mo.aggregations,
                (unsigned long long)mo.samples_armed, (unsigned long long)mo.samples_hit,
                (unsigned long long)mo.max_regions_seen, (unsigned long long)mo.region_splits,
                (unsigned long long)mo.region_merges,
                (unsigned long long)mo.cold_pages_enqueued,
                (unsigned long long)mo.hot_pages_protected,
                (unsigned long long)result.kernel.monitor_soft_faults);
  }
  if (result.interactive.has_value()) {
    const tmh::InteractiveMetrics& im = *result.interactive;
    std::printf(",\n  \"interactive\": {\"sweeps\": %lld, \"mean_response_ms\": %.4f, "
                "\"max_response_ms\": %.4f, \"hard_faults_per_sweep\": %.3f}",
                (long long)im.sweeps, im.mean_response_ns / 1e6, im.max_response_ns / 1e6,
                im.hard_faults_per_sweep);
  }
  std::printf("\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    return 2;
  }
  if (flags.scale <= 0 || flags.scale > 1.0) {
    std::fprintf(stderr, "--scale must be in (0, 1]\n");
    return 2;
  }
  // Expand --workload / --version lists. "all" covers the paper roster and
  // the O/P/R/B versions respectively.
  std::vector<const tmh::WorkloadInfo*> infos;
  if (flags.workload == "all") {
    for (const tmh::WorkloadInfo& w : tmh::AllWorkloads()) {
      infos.push_back(&w);
    }
  } else {
    for (const std::string& name : SplitList(flags.workload)) {
      const tmh::WorkloadInfo* found = tmh::FindWorkload(name);
      if (found == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'; --list shows the roster\n", name.c_str());
        return 2;
      }
      infos.push_back(found);
    }
  }
  std::vector<tmh::AppVersion> versions;
  if (flags.version == "all") {
    versions = tmh::AllVersions();
  } else {
    for (const std::string& v : SplitList(flags.version)) {
      versions.push_back(ParseVersion(v));
    }
  }

  if (infos.size() * versions.size() > 1) {
    if (!flags.trace_path.empty() || !flags.html_path.empty() ||
        !flags.trace_out_path.empty() || !flags.metrics_out_path.empty() || flags.json) {
      std::fprintf(stderr,
                   "--trace/--html/--trace-out/--metrics-out/--json need a single "
                   "workload+version combination\n");
      return 2;
    }
    return RunSweep(flags, infos, versions);
  }

  const tmh::WorkloadInfo* info = infos[0];
  tmh::ExperimentSpec spec = SpecFor(flags, *info, versions[0]);
  if (!flags.trace_path.empty() || !flags.html_path.empty()) {
    spec.trace_period = static_cast<tmh::SimDuration>(flags.trace_period_s * tmh::kSec);
  }
  if (!flags.trace_out_path.empty() || !flags.metrics_out_path.empty()) {
    spec.observe = true;
  }

  if (!flags.json) {
    std::printf("%s version %s at scale %.2f on a %.1f MB machine%s\n\n", info->name.c_str(),
                tmh::VersionLabel(spec.version), flags.scale,
                static_cast<double>(spec.machine.user_memory_bytes) / (1024 * 1024),
                flags.adaptive ? " (adaptive)" : "");
  }
  const tmh::ExperimentResult result = tmh::RunExperiment(spec);
  if (!result.completed) {
    std::fprintf(stderr, "WARNING: run did not complete within the event budget\n");
  }
  if (!result.check_failure.empty()) {
    std::fprintf(stderr, "INVARIANT VIOLATION:\n%s\n", result.check_failure.c_str());
    return 1;
  }
  if (flags.checks && !flags.json) {
    std::printf("invariant checks: %llu passes, no violations\n\n",
                (unsigned long long)result.checks_run);
  }

  if (!flags.trace_out_path.empty()) {
    if (result.event_log.WriteChromeTrace(flags.trace_out_path)) {
      if (!flags.json) {
        std::printf("Chrome trace written to %s (%zu events%s)\n", flags.trace_out_path.c_str(),
                    result.event_log.events().size(),
                    result.event_log.dropped() > 0 ? ", capacity hit" : "");
      }
    } else {
      std::fprintf(stderr, "failed to write Chrome trace to %s\n",
                   flags.trace_out_path.c_str());
    }
  }
  if (!flags.metrics_out_path.empty()) {
    std::FILE* out = std::fopen(flags.metrics_out_path.c_str(), "w");
    const bool ok = out != nullptr &&
                    std::fwrite(result.metrics_text.data(), 1, result.metrics_text.size(),
                                out) == result.metrics_text.size();
    if (out != nullptr) {
      std::fclose(out);
    }
    if (ok) {
      if (!flags.json) {
        std::printf("metrics written to %s\n", flags.metrics_out_path.c_str());
      }
    } else {
      std::fprintf(stderr, "failed to write metrics to %s\n", flags.metrics_out_path.c_str());
    }
  }

  if (!flags.html_path.empty()) {
    const std::string html = tmh::RenderKernelTraceHtml(
        result.trace, info->name + " (" + tmh::VersionLabel(spec.version) + ")");
    if (tmh::WriteHtmlFile(flags.html_path, html)) {
      if (!flags.json) {
        std::printf("HTML report written to %s\n", flags.html_path.c_str());
      }
    } else {
      std::fprintf(stderr, "failed to write HTML to %s\n", flags.html_path.c_str());
    }
  }
  if (!flags.trace_path.empty()) {
    if (result.trace.WriteCsv(flags.trace_path)) {
      if (!flags.json) {
        std::printf("trace written to %s (%zu samples)\n", flags.trace_path.c_str(),
                    result.trace.samples().size());
      }
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", flags.trace_path.c_str());
    }
  }

  if (flags.json) {
    PrintJson(flags, *info, spec, result);
    return result.completed ? 0 : 1;
  }

  const tmh::TimeBreakdown& t = result.app.times;
  tmh::ReportTable times({"metric", "value"});
  times.AddRow({"execution time", tmh::FormatSeconds(tmh::ToSeconds(t.Execution()))});
  times.AddRow({"  user", tmh::FormatSeconds(tmh::ToSeconds(t.user))});
  times.AddRow({"  system", tmh::FormatSeconds(tmh::ToSeconds(t.system))});
  times.AddRow({"  resource stall", tmh::FormatSeconds(tmh::ToSeconds(t.resource_stall))});
  times.AddRow({"  I/O stall", tmh::FormatSeconds(tmh::ToSeconds(t.io_stall))});
  times.Print();
  std::printf("\n");

  tmh::ReportTable counters({"counter", "value"});
  const tmh::FaultStats& f = result.app.faults;
  counters.AddRow({"hard faults", tmh::FormatCount(f.hard_faults)});
  counters.AddRow({"collapsed faults", tmh::FormatCount(f.collapsed_faults)});
  counters.AddRow({"soft faults", tmh::FormatCount(f.soft_faults)});
  counters.AddRow({"rescue faults", tmh::FormatCount(f.rescue_faults)});
  counters.AddRow({"zero-fill faults", tmh::FormatCount(f.zero_fill_faults)});
  counters.AddRow({"swap reads / writes", tmh::FormatCount(result.swap_reads) + " / " +
                                              tmh::FormatCount(result.swap_writes)});
  counters.AddRow({"daemon activations", tmh::FormatCount(result.kernel.daemon_activations)});
  counters.AddRow({"daemon pages stolen", tmh::FormatCount(result.kernel.daemon_pages_stolen)});
  counters.AddRow({"daemon invalidations", tmh::FormatCount(result.kernel.daemon_invalidations)});
  counters.AddRow({"releaser pages freed", tmh::FormatCount(result.kernel.releaser_pages_freed)});
  counters.AddRow({"reactive evictions", tmh::FormatCount(result.kernel.reactive_evictions)});
  counters.AddRow({"local evictions", tmh::FormatCount(result.kernel.local_evictions)});
  counters.AddRow({"pages rescued", tmh::FormatCount(result.kernel.rescued_daemon_freed +
                                                     result.kernel.rescued_release_freed)});
  if (spec.machine.has_slow_tiers()) {
    counters.AddRow({"tier demotions / promotions",
                     tmh::FormatCount(result.kernel.tier_demotions) + " / " +
                         tmh::FormatCount(result.kernel.tier_promotions)});
    counters.AddRow({"tier evictions (writebacks)",
                     tmh::FormatCount(result.kernel.tier_evictions) + " (" +
                         tmh::FormatCount(result.kernel.tier_writebacks) + ")"});
  }
  if (result.monitor.has_value()) {
    const tmh::MonitorStats& mo = *result.monitor;
    counters.AddRow({"monitor samples (hits)", tmh::FormatCount(mo.samples_armed) + " (" +
                                                   tmh::FormatCount(mo.samples_hit) + ")"});
    counters.AddRow({"monitor regions (max)", tmh::FormatCount(mo.max_regions_seen)});
    counters.AddRow({"monitor splits / merges", tmh::FormatCount(mo.region_splits) + " / " +
                                                    tmh::FormatCount(mo.region_merges)});
    counters.AddRow({"monitor cold releases", tmh::FormatCount(mo.cold_pages_enqueued)});
    counters.AddRow({"monitor hot protects", tmh::FormatCount(mo.hot_pages_protected)});
    counters.AddRow(
        {"monitor soft faults", tmh::FormatCount(result.kernel.monitor_soft_faults)});
  }
  if (result.app.runtime.has_value()) {
    const tmh::RuntimeStats& rt = *result.app.runtime;
    counters.AddRow({"prefetch hints (filtered)",
                     tmh::FormatCount(rt.prefetch_hints) + " (" +
                         tmh::FormatCount(rt.prefetch_filtered_resident) + ")"});
    counters.AddRow({"release hints (filtered)",
                     tmh::FormatCount(rt.release_hints) + " (" +
                         tmh::FormatCount(rt.release_filtered_same_page +
                                          rt.release_filtered_not_resident) +
                         ")"});
    counters.AddRow({"releases buffered / drained",
                     tmh::FormatCount(rt.releases_buffered) + " / " +
                         tmh::FormatCount(rt.releases_issued_from_buffer)});
  }
  counters.Print();

  if (flags.interactive && result.interactive.has_value()) {
    const tmh::InteractiveMetrics& im = *result.interactive;
    std::printf("\ninteractive task: %lld sweeps, mean response %s, worst %s, "
                "hard faults/sweep %.1f\n",
                static_cast<long long>(im.sweeps),
                tmh::FormatSeconds(im.mean_response_ns / 1e9).c_str(),
                tmh::FormatSeconds(im.max_response_ns / 1e9).c_str(),
                im.hard_faults_per_sweep);
  }
  return 0;
}
