#include "perfbench/src/workloads.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/core/report.h"
#include "src/workloads/extra.h"

namespace tmh::perfbench {

namespace {

// The scale the committed goldens were rendered at.
constexpr double kGoldenScale = 0.05;

const std::vector<SimDuration>& Fig10aSleeps() {
  static const std::vector<SimDuration> kSleeps = {1 * kSec, 2 * kSec, 5 * kSec, 10 * kSec,
                                                   20 * kSec};
  return kSleeps;
}

std::string SleepLabel(SimDuration sleep) { return std::to_string(sleep / kSec) + "s"; }

std::string ScaleSuffix(double scale) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "@%g", scale);
  return buf;
}

PointSpec AppPoint(const std::string& label, const WorkloadInfo& info, AppVersion version,
                   double scale) {
  PointSpec p;
  p.label = label;
  p.digest_key = "grid/" + info.name + "/" + VersionLabel(version) + ScaleSuffix(scale);
  p.workload = &info;
  p.scale = scale;
  p.version = version;
  return p;
}

Workload Fig07Grid() {
  Workload w;
  w.name = "fig07_grid";
  w.fig07_table = true;
  for (const WorkloadInfo& info : AllWorkloads()) {
    for (const AppVersion version : AllVersions()) {
      w.points.push_back(AppPoint(info.name + "/" + VersionLabel(version), info, version,
                                  kGoldenScale));
    }
  }
  return w;
}

Workload CheckedGrid(bool smoke) {
  Workload w;
  w.name = "checked_grid";
  const std::vector<std::string> hogs =
      smoke ? std::vector<std::string>{"MATVEC"}
            : std::vector<std::string>{"MATVEC", "BUK", "MGRID", "FFTPDE"};
  for (const std::string& hog : hogs) {
    const WorkloadInfo& info = *FindWorkload(hog);
    for (const AppVersion version :
         {AppVersion::kOriginal, AppVersion::kRelease, AppVersion::kBuffered}) {
      // The digest key is the unchecked grid point's: attaching the checker
      // must not change a single simulated counter.
      PointSpec p = AppPoint("checked/" + hog + "/" + VersionLabel(version), info, version,
                             kGoldenScale);
      p.checks = true;
      w.points.push_back(p);
    }
  }
  return w;
}

Workload InteractiveHog() {
  Workload w;
  w.name = "interactive_hog";
  w.fig10a_table = true;
  const WorkloadInfo& matvec = *FindWorkload("MATVEC");
  const std::string suffix = ScaleSuffix(kGoldenScale);
  for (const SimDuration sleep : Fig10aSleeps()) {
    PointSpec alone;
    alone.kind = PointKind::kAlone;
    alone.label = "fig10a/alone/" + SleepLabel(sleep);
    alone.digest_key = alone.label + suffix;
    alone.scale = kGoldenScale;
    alone.sleep = sleep;
    w.points.push_back(alone);
    for (const AppVersion version : AllVersions()) {
      PointSpec p = AppPoint("fig10a/MATVEC/" + std::string(VersionLabel(version)) + "/" +
                                 SleepLabel(sleep),
                             matvec, version, kGoldenScale);
      p.digest_key = p.label + suffix;
      p.interactive = true;
      p.sleep = sleep;
      w.points.push_back(p);
    }
  }
  // The monitor releases the unhinted hog's cold regions.
  PointSpec mon = AppPoint("monitor/MATVEC/O", matvec, AppVersion::kOriginal, kGoldenScale);
  mon.digest_key = mon.label + suffix;
  mon.interactive = true;
  mon.monitor = true;
  w.points.push_back(mon);
  // Releases demote into two slow tiers; touches promote back.
  for (const AppVersion version : {AppVersion::kRelease, AppVersion::kBuffered}) {
    PointSpec p = AppPoint("tiers3/MATVEC/" + std::string(VersionLabel(version)), matvec,
                           version, kGoldenScale);
    p.digest_key = p.label + suffix;
    p.interactive = true;
    p.tiers = 3;
    w.points.push_back(p);
  }
  return w;
}

Workload KernelStorms(uint64_t seed, bool smoke) {
  Workload w;
  w.name = "kernel_storms";
  StormParams params;
  if (smoke) {
    params.frames = 262'144;
    params.tenants = 16;
    params.pages_per_tenant = 2048;
    params.laps = 2;
  }
  const struct {
    StormKind kind;
    const char* name;
  } kStorms[] = {{StormKind::kFault, "fault"},
                 {StormKind::kRelease, "release"},
                 {StormKind::kDaemon, "daemon"},
                 {StormKind::kChurn, "churn"}};
  for (const auto& storm : kStorms) {
    PointSpec p;
    p.kind = PointKind::kStorm;
    p.storm = storm.kind;
    p.storm_params = params;
    p.seed = seed;
    p.label = std::string("storm/") + storm.name;
    p.digest_key = std::string(smoke ? "storm-smoke/" : "storm/") + storm.name + "/seed" +
                   std::to_string(seed);
    w.points.push_back(p);
  }
  return w;
}

const PointResult* Find(const Workload& w, const std::vector<PointResult>& results,
                        const std::string& label) {
  for (size_t i = 0; i < w.points.size(); ++i) {
    if (w.points[i].label == label) {
      return &results[i];
    }
  }
  return nullptr;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// The Figure 7 table exactly as the fig07_breakdown binary renders it.
std::string RenderFig07(const Workload& w, const std::vector<PointResult>& results) {
  ReportTable table({"benchmark", "ver", "exec(s)", "norm", "user", "system", "res-stall",
                     "io-stall", "hard-faults"});
  for (const WorkloadInfo& info : AllWorkloads()) {
    double base = 0;
    for (const AppVersion version : AllVersions()) {
      const PointResult* r = Find(w, results, info.name + "/" + VersionLabel(version));
      if (r == nullptr) {
        return "";
      }
      const TimeBreakdown& t = r->app_times;
      const double exec = ToSeconds(t.Execution());
      if (version == AppVersion::kOriginal) {
        base = exec;
      }
      auto frac = [&](SimDuration d) { return FormatDouble(ToSeconds(d) / base, 3); };
      table.AddRow({info.name, VersionLabel(version), FormatDouble(exec, 1),
                    FormatDouble(exec / base, 3), frac(t.user), frac(t.system),
                    frac(t.resource_stall), frac(t.io_stall), FormatCount(r->app_hard_faults)});
    }
  }
  return table.ToString();
}

// The Figure 10(a) series exactly as PrintSeries renders it.
std::string RenderFig10a(const Workload& w, const std::vector<PointResult>& results) {
  std::string out = "# mean interactive response time (ms)\nsleep_s\talone\tO\tP\tR\tB\n";
  char buf[64];
  for (const SimDuration sleep : Fig10aSleeps()) {
    std::vector<const PointResult*> row = {Find(w, results, "fig10a/alone/" + SleepLabel(sleep))};
    for (const AppVersion version : AllVersions()) {
      row.push_back(Find(w, results,
                         "fig10a/MATVEC/" + std::string(VersionLabel(version)) + "/" +
                             SleepLabel(sleep)));
    }
    std::snprintf(buf, sizeof(buf), "%.4g", ToSeconds(sleep));
    out += buf;
    for (const PointResult* r : row) {
      if (r == nullptr) {
        return "";
      }
      std::snprintf(buf, sizeof(buf), "\t%.4g", r->interactive_mean_response_ns / 1e6);
      out += buf;
    }
    out += '\n';
  }
  return out + "\n";
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"fig07_grid", "interactive_hog",
                                                  "kernel_storms", "checked_grid"};
  return kNames;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool smoke) {
  std::optional<Workload> w;
  if (name == "fig07_grid") {
    w = Fig07Grid();
  } else if (name == "interactive_hog") {
    w = InteractiveHog();
  } else if (name == "kernel_storms") {
    w = KernelStorms(seed, smoke);
  } else if (name == "checked_grid") {
    w = CheckedGrid(smoke);
  }
  if (w) {
    for (PointSpec& p : w->points) {
      if (p.kind != PointKind::kStorm) {
        p.seed = seed;  // seeds only the traced run's call sampling
      }
    }
  }
  return w;
}

std::vector<std::string> CheckGoldenTables(const Workload& w,
                                           const std::vector<PointResult>& results,
                                           const std::string& golden_dir, int* checked) {
  std::vector<std::string> failures;
  auto check = [&](const char* what, const std::string& rendered, const char* file) {
    ++*checked;
    const std::string golden = ReadFile(golden_dir + "/" + file);
    if (golden.empty()) {
      failures.push_back(std::string(what) + ": golden " + file + " is missing");
    } else if (rendered.empty() || golden.find(rendered) == std::string::npos) {
      failures.push_back(std::string(what) + " differs from " + file);
    }
  };
  if (w.fig07_table) {
    check("fig07 table", RenderFig07(w, results), "golden_fig07_scale005.txt");
  }
  if (w.fig10a_table) {
    check("fig10a table", RenderFig10a(w, results), "golden_fig10a_scale005.txt");
  }
  return failures;
}

}  // namespace tmh::perfbench
