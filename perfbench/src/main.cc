// perfbench — the simulator's end-to-end benchmark driver.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --root DIR
//             [--smoke] [--corrupt-digest] [--record-digests FILE]
//             [--spans FILE] [--commit ID]
//
// Repeats the workload's full set of points until S host seconds have passed
// (at least once), checks every point's simulated counters against the
// committed digests (DIR/perfbench/digests.txt) and the fig07 / fig10a tables
// against the goldens (DIR/tests/data), and prints the result as one JSON
// object on the last line of stdout.
//
// --trace 0 reports the end-to-end metrics:
//   wall_s               host seconds in Kernel::RunUntilThreadsDone, timed
//                        in slices of kChunkEvents simulated events: each
//                        slice's fastest time over the repetitions, summed,
//                        then given at the reference machine speed (scaled
//                        by kReferencePassSeconds over the reference loop's
//                        pass time in the same run; src/reference.h)
//   setup_s              host seconds of CompileVersion plus kernel, daemon,
//                        address-space and thread set-up, summed over the
//                        points of a repetition; the median repetition, at
//                        the reference speed like wall_s
//   pages_touched_per_s  simulated page touches of one repetition per second
//                        of wall_s
//   peak_rss_mb          the process's resident high-water mark
// --trace 1 alternates untraced and traced repetitions and reports the
// per-layer split of the traced ones (host self time per layer, work counts,
// ratios, the simulated model values, and the tracing overhead); it also
// prints the split as a table and writes the spans to --spans.
//
// --record-digests writes the digests of the first repetition instead of
// checking them; --corrupt-digest flips one committed digest, so the run must
// report that point as failed (the self-test uses it).

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/src/points.h"
#include "perfbench/src/reference.h"
#include "perfbench/src/timing.h"
#include "perfbench/src/workloads.h"

namespace tmh::perfbench {
namespace {

// Layer self times of a traced repetition must add up to its outer wall time
// within this share, and the sampled program and checker estimates may not
// exceed the run they were sampled from by more than it.
constexpr double kSelfTimeTolerance = 0.10;

// Reference-loop passes per untraced repetition (fewer if the workload has
// fewer points), and the loop's fastest pass time on the machine the baseline
// in manifest.json was recorded on. wall_s is given at that speed.
constexpr size_t kReferenceSlots = 8;
constexpr double kReferencePassSeconds = 0.00053;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";
  bool smoke = false;
  bool corrupt_digest = false;
  std::string record_digests;
  std::string spans;
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --root DIR\n"
               "                 [--smoke] [--corrupt-digest] [--record-digests FILE]\n"
               "                 [--spans FILE] [--commit ID]\n");
  std::exit(2);
}

uint64_t ParseUnsigned(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    Usage(std::string(flag) + " wants a non-negative integer, got '" + text + "'");
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(flag + " requires a value");
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = ParseUnsigned("--seed", value());
    } else if (flag == "--seconds") {
      const char* text = value();
      char* end = nullptr;
      a.seconds = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(a.seconds >= 0) || a.seconds > 3600) {
        Usage(std::string("--seconds wants a number in [0, 3600], got '") + text + "'");
      }
    } else if (flag == "--trace") {
      const uint64_t t = ParseUnsigned("--trace", value());
      if (t > 1) {
        Usage("--trace wants 0 or 1");
      }
      a.trace = t == 1;
    } else if (flag == "--root") {
      a.root = value();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--corrupt-digest") {
      a.corrupt_digest = true;
    } else if (flag == "--record-digests") {
      a.record_digests = value();
    } else if (flag == "--spans") {
      a.spans = value();
    } else if (flag == "--commit") {
      a.commit = value();
    } else {
      Usage("unknown argument '" + flag + "'");
    }
  }
  if (a.workload.empty()) {
    Usage("--workload is required");
  }
  return a;
}

// "<key> <16 hex digits>" per line; '#' starts a comment.
std::map<std::string, uint64_t> LoadDigests(const std::string& path) {
  std::map<std::string, uint64_t> digests;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string key;
    std::string hex;
    if (fields >> key >> hex) {
      digests[key] = std::strtoull(hex.c_str(), nullptr, 16);
    }
  }
  return digests;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Rep {
  bool traced = false;
  double outer_s = 0;  // wall time of the whole repetition
  // Indexed like Workload::points; emptied in untraced repetitions once checked.
  std::vector<PointResult> results;
  std::vector<double> point_start_s;  // since the benchmark started
  LayerHost host;
  SimCounters sim;
  double bytes_per_frame = 0;

  [[nodiscard]] double setup_s() const { return host.setup(); }
};

struct Span {
  int rep = 0;
  std::string point;
  std::string name;    // phase, or layer within a phase
  std::string parent;  // empty for phases
  double start_s = 0;
  double dur_s = 0;
};

class Bench {
 public:
  Bench(Args args, Workload workload)
      : args_(std::move(args)), w_(std::move(workload)), epoch_s_(NowSeconds()) {
    digests_ = LoadDigests(args_.root + "/perfbench/digests.txt");
    if (args_.corrupt_digest) {
      for (const PointSpec& p : w_.points) {
        if (auto it = digests_.find(p.digest_key); it != digests_.end()) {
          it->second ^= 1;
          std::printf("corrupted the committed digest of %s\n", p.label.c_str());
          break;
        }
      }
    }
  }

  void Calibrate() { timer_ns_ = CalibrateTimerNs(); }

  void RunAll() {
    const double start = NowSeconds();
    do {
      RunRep(/*traced=*/false);
      if (args_.trace) {
        RunRep(/*traced=*/true);
      }
    } while (NowSeconds() - start < args_.seconds && args_.record_digests.empty());
  }

  int Finish();

 private:
  void RunRep(bool traced);
  void CheckPoint(size_t i, const PointResult& r, bool first_rep);
  void Fail(const std::string& what) {
    ++failed_;
    failures_.push_back(what);
  }
  // Each run slice's fastest time over the untraced (or traced) repetitions,
  // summed over the slices of every point. On a shared machine the same
  // code's speed swings with the neighbours' load by tens of percent, in
  // bursts shorter than a point; the fastest time of each slice is what stays
  // put. Slices end at the same simulated events in every repetition (a point
  // whose events differed would fail its digest), so slice k of one
  // repetition is the same work as slice k of another.
  [[nodiscard]] double BestWall(bool traced) const {
    double sum = 0;
    for (const std::vector<double>& point : best_chunks_[traced ? 1 : 0]) {
      for (const double s : point) {
        sum += s;
      }
    }
    return sum;
  }
  // The reference loop's pass time in this run: each slot's fastest pass over
  // the untraced repetitions, averaged over the slots.
  [[nodiscard]] double ReferencePassSeconds() const {
    double sum = 0;
    for (const double s : best_reference_) {
      sum += s;
    }
    return best_reference_.empty() ? 0 : sum / static_cast<double>(best_reference_.size());
  }
  // Turns this run's host seconds into seconds at the reference speed: how
  // much faster than in this run the reference loop ran when the baseline was
  // recorded.
  [[nodiscard]] double ReferenceScale() const {
    return Ratio(kReferencePassSeconds, ReferencePassSeconds());
  }
  void PrintEnv(int reps) const;
  void PrintLayerTable(const std::vector<const Rep*>& traced, double overhead) const;
  void WriteSpans() const;
  int RecordDigests() const;

  Args args_;
  Workload w_;
  double epoch_s_;
  double timer_ns_ = 0;
  std::map<std::string, uint64_t> digests_;
  std::vector<Rep> reps_;
  std::vector<uint64_t> first_digests_;  // per point, from the first repetition
  // [untraced, traced] -> per point -> fastest time of each run slice.
  std::vector<std::vector<double>> best_chunks_[2];
  ReferenceLoop reference_;
  std::vector<double> best_reference_;  // per slot, the fastest reference pass
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

void Bench::RunRep(bool traced) {
  const size_t n = w_.points.size();
  Rep rep;
  rep.traced = traced;
  rep.results.resize(n);
  rep.point_start_s.resize(n);
  const double t0 = NowSeconds();
  const size_t slots = std::min(kReferenceSlots, n);
  if (!traced && best_reference_.empty()) {
    best_reference_.assign(slots, 1e9);
  }
  for (size_t i = 0, slot = 0; i < n; ++i) {
    // Reference passes run before evenly spaced points of untraced repetitions.
    if (!traced && slot < slots && i == slot * n / slots) {
      best_reference_[slot] = std::min(best_reference_[slot], reference_.TimePass());
      ++slot;
    }
    rep.point_start_s[i] = NowSeconds() - epoch_s_;
    rep.results[i] = RunPoint(w_.points[i], traced);
  }
  rep.outer_s = NowSeconds() - t0;

  const bool first_rep = reps_.empty();
  if (first_rep) {
    first_digests_.resize(w_.points.size());
  }
  std::vector<std::vector<double>>& best = best_chunks_[traced ? 1 : 0];
  if (best.empty()) {
    best.resize(w_.points.size());
  }
  for (size_t i = 0; i < w_.points.size(); ++i) {
    PointResult& r = rep.results[i];
    // Fold the slice times into the fastest so far and drop them.
    if (best[i].empty()) {
      best[i] = r.chunk_s;
    }
    for (size_t c = 0; c < std::min(best[i].size(), r.chunk_s.size()); ++c) {
      best[i][c] = std::min(best[i][c], r.chunk_s[c]);
    }
    std::vector<double>().swap(r.chunk_s);
    rep.host.Add(r.host);
    rep.sim.Add(r.sim);
    rep.bytes_per_frame = std::max(rep.bytes_per_frame, r.kernel_bytes_per_frame);
    if (first_rep) {
      first_digests_[i] = r.digest;
    }
    CheckPoint(i, r, first_rep);
  }
  std::printf("rep %zu%s: wall_s %.6f setup_s %.6f outer_s %.6f\n", reps_.size(),
              traced ? " (traced)" : "", rep.host.run, rep.host.setup(), rep.outer_s);
  int tables = 0;
  for (const std::string& f :
       CheckGoldenTables(w_, rep.results, args_.root + "/tests/data", &tables)) {
    Fail(f);
  }
  attempted_ += static_cast<uint64_t>(tables);
  if (traced) {
    // Self times: every layer of every phase, against the outer wall time.
    const LayerHost& h = rep.host;
    const double self_sum = h.setup() + h.run + h.check_final + h.collect + h.teardown;
    if (h.os_run() < -kSelfTimeTolerance * h.run ||
        std::abs(self_sum - rep.outer_s) > kSelfTimeTolerance * rep.outer_s) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "traced self times (%.4f s, os %.4f s) do not add up to the run (%.4f s)",
                    self_sum, h.os_run(), rep.outer_s);
      Fail(buf);
    }
  } else {
    // Only the traced repetitions' points are needed later (for the spans).
    // Dropping the others keeps the resident set from growing with the
    // number of repetitions, which would move peak_rss_mb with machine speed.
    std::vector<PointResult>().swap(rep.results);
    std::vector<double>().swap(rep.point_start_s);
  }
  reps_.push_back(std::move(rep));
}

void Bench::CheckPoint(size_t i, const PointResult& r, bool first_rep) {
  ++attempted_;
  if (!r.ok) {
    Fail(r.label + ": " + r.failure);
    return;
  }
  if (!args_.record_digests.empty()) {
    return;
  }
  if (const auto it = digests_.find(r.digest_key); it != digests_.end()) {
    if (it->second != r.digest) {
      Fail(r.label + ": digest " + Hex(r.digest) + " != committed " + Hex(it->second) +
           " (" + r.digest_key + ")");
    }
    return;
  }
  // Storms on a seed without a committed digest: every repetition, traced or
  // not, must reproduce the first one.
  if (w_.points[i].kind == PointKind::kStorm) {
    if (!first_rep && first_digests_[i] != r.digest) {
      Fail(r.label + ": digest differs between repetitions");
    }
    return;
  }
  Fail(r.label + ": no committed digest for " + r.digest_key);
}

int Bench::RecordDigests() const {
  std::FILE* f = std::fopen(args_.record_digests.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot open %s\n", args_.record_digests.c_str());
    return 1;
  }
  for (size_t i = 0; i < w_.points.size(); ++i) {
    std::fprintf(f, "%s %s\n", w_.points[i].digest_key.c_str(), Hex(first_digests_[i]).c_str());
  }
  std::fclose(f);
  return failed_ == 0 ? 0 : 1;
}

void Bench::PrintEnv(int reps) const {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"smoke\": %s, \"repetitions\": %d, "
      "\"affinity_cpus\": %d, \"nproc\": %ld, \"build_type\": \"%s\", \"lto\": \"%s\", "
      "\"compiler\": \"%s\", \"commit\": \"%s\", \"timer_ns\": %.3f, "
      "\"reference_pass_s\": %.9f, \"unscaled_wall_s\": %.6f}}\n",
      w_.name.c_str(), args_.seed, args_.seconds, args_.trace ? 1 : 0,
      args_.smoke ? "true" : "false", reps, affinity, sysconf(_SC_NPROCESSORS_ONLN),
      PERFBENCH_BUILD_TYPE, PERFBENCH_LTO, PERFBENCH_COMPILER, args_.commit.c_str(), timer_ns_,
      ReferencePassSeconds(), BestWall(/*traced=*/false));
}

void Bench::PrintLayerTable(const std::vector<const Rep*>& traced, double overhead) const {
  // The repetition with the median outer time stands for the run.
  std::vector<const Rep*> sorted = traced;
  std::sort(sorted.begin(), sorted.end(),
            [](const Rep* a, const Rep* b) { return a->outer_s < b->outer_s; });
  const Rep& rep = *sorted[sorted.size() / 2];
  const LayerHost& h = rep.host;
  const struct {
    const char* layer;
    double s;
  } rows[] = {
      {"compiler", h.compiler},
      {"os (set-up)", h.os_setup},
      {"runtime", h.runtime},
      {"workloads (interactive)", h.workloads},
      {"check", h.check_event + h.check_quiescent + h.check_final},
      {"os (run: os+vm+disk+sim+monitor)", h.os_run()},
      {"benchmark (collect)", h.collect},
      {"os (teardown)", h.teardown},
  };
  std::printf("# per-layer host self time, %s, traced repetition of %.4f s\n", w_.name.c_str(),
              rep.outer_s);
  std::printf("%-34s %12s %8s\n", "layer", "host_s", "share");
  double sum = 0;
  for (const auto& row : rows) {
    std::printf("%-34s %12.6f %7.1f%%\n", row.layer, row.s, 100.0 * Ratio(row.s, rep.outer_s));
    sum += row.s;
  }
  std::printf("%-34s %12.6f %7.1f%%\n", "sum of layers", sum, 100.0 * Ratio(sum, rep.outer_s));
  std::printf("trace.overhead %.4f (traced wall_s / untraced wall_s - 1), timer %.1f ns\n",
              overhead, timer_ns_);
}

void Bench::WriteSpans() const {
  std::vector<Span> spans;
  for (size_t r = 0; r < reps_.size(); ++r) {
    const Rep& rep = reps_[r];
    if (!rep.traced) {
      continue;
    }
    for (size_t i = 0; i < rep.results.size(); ++i) {
      const LayerHost& h = rep.results[i].host;
      const std::string& point = rep.results[i].label;
      const double t = rep.point_start_s[i];
      const int id = static_cast<int>(r);
      auto add = [&](const char* name, const char* parent, double start, double dur) {
        spans.push_back(Span{id, point, name, parent, start, dur});
      };
      add("setup", "", t, h.setup());
      add("compiler", "setup", t, h.compiler);
      add("os.setup", "setup", t + h.compiler, h.os_setup);
      const double run_start = t + h.setup();
      add("run", "", run_start, h.run);
      add("runtime", "run", run_start, h.runtime);
      add("workloads", "run", run_start, h.workloads);
      add("check.on_event", "run", run_start, h.check_event);
      add("check.on_quiescent", "run", run_start, h.check_quiescent);
      add("os", "run", run_start, h.os_run());
      const double collect_start = run_start + h.run;
      add("collect", "", collect_start, h.check_final + h.collect);
      add("check.final", "collect", collect_start, h.check_final);
      add("benchmark", "collect", collect_start + h.check_final, h.collect);
      add("teardown", "", collect_start + h.check_final + h.collect, h.teardown);
    }
  }
  std::FILE* f = std::fopen(args_.spans.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", args_.spans.c_str());
    return;
  }
  // Child spans carry their layer's summed self time within the phase; their
  // start is the phase's start.
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"spans\": [\n",
               w_.name.c_str(), args_.seed);
  for (size_t s = 0; s < spans.size(); ++s) {
    const Span& sp = spans[s];
    std::fprintf(f,
                 "  {\"rep\": %d, \"point\": \"%s\", \"name\": \"%s\", \"parent\": \"%s\", "
                 "\"start_s\": %.9f, \"dur_s\": %.9f}%s\n",
                 sp.rep, sp.point.c_str(), sp.name.c_str(), sp.parent.c_str(), sp.start_s,
                 sp.dur_s, s + 1 == spans.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

int Bench::Finish() {
  if (!args_.record_digests.empty()) {
    return RecordDigests();
  }
  std::vector<const Rep*> plain;
  std::vector<const Rep*> traced;
  for (const Rep& rep : reps_) {
    (rep.traced ? traced : plain).push_back(&rep);
  }
  PrintEnv(static_cast<int>(reps_.size()));
  for (const std::string& f : failures_) {
    std::printf("FAILED %s\n", f.c_str());
  }

  auto median_of = [](const std::vector<const Rep*>& reps, auto&& value) {
    std::vector<double> v;
    for (const Rep* rep : reps) {
      v.push_back(value(*rep));
    }
    return Median(v);
  };
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  auto metric = [&](const char* name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  };

  if (!args_.trace) {
    const double wall = BestWall(/*traced=*/false) * ReferenceScale();
    metric("wall_s", wall, "s");
    metric("setup_s",
           median_of(plain, [](const Rep& r) { return r.setup_s(); }) * ReferenceScale(), "s");
    metric("pages_touched_per_s", Ratio(static_cast<double>(plain.front()->sim.page_touches), wall),
           "1/s");
    metric("peak_rss_mb", static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0), "MB");
  } else {
    const double overhead = Ratio(BestWall(/*traced=*/true), BestWall(/*traced=*/false)) - 1;
    // Host times are medians over the traced repetitions; counts repeat
    // exactly, so any repetition's serve.
    auto host = [&](auto&& value) { return median_of(traced, value); };
    const Rep& last = *traced.back();
    const SimCounters& s = last.sim;
    const LayerHost& h = last.host;
    metric("runtime.host_s", host([](const Rep& r) { return r.host.runtime; }), "s");
    metric("runtime.host_ns_per_next",
           host([](const Rep& r) {
             return Ratio(r.host.runtime * 1e9, static_cast<double>(r.host.next_calls));
           }),
           "ns");
    metric("runtime.next_calls", static_cast<double>(h.next_calls), "count");
    metric("runtime.page_touches", static_cast<double>(s.page_touches), "count");
    metric("runtime.iterations", static_cast<double>(s.iterations), "count");
    metric("runtime.release_issue_ratio",
           Ratio(static_cast<double>(s.releases_issued), static_cast<double>(s.release_hints)),
           "ratio");
    metric("runtime.prefetch_enqueue_ratio",
           Ratio(static_cast<double>(s.prefetch_enqueued), static_cast<double>(s.prefetch_hints)),
           "ratio");
    metric("compiler.host_s", host([](const Rep& r) { return r.host.compiler; }), "s");
    metric("workloads.interactive_host_s", host([](const Rep& r) { return r.host.workloads; }),
           "s");
    metric("os.setup_host_s", host([](const Rep& r) { return r.host.os_setup; }), "s");
    metric("os.teardown_host_s", host([](const Rep& r) { return r.host.teardown; }), "s");
    metric("vm.bytes_per_frame", last.bytes_per_frame, "B");
    metric("os.host_s", host([](const Rep& r) { return r.host.os_run(); }), "s");
    metric("os.sim_events", static_cast<double>(s.sim_events), "count");
    metric("os.host_ns_per_sim_event",
           host([](const Rep& r) {
             return Ratio(r.host.os_run() * 1e9, static_cast<double>(r.sim.sim_events));
           }),
           "ns");
    metric("os.daemon_pages_stolen", static_cast<double>(s.daemon_pages_stolen), "count");
    metric("os.releaser_pages_freed", static_cast<double>(s.releaser_pages_freed), "count");
    metric("os.releaser_skip_ratio",
           Ratio(static_cast<double>(s.releaser_skipped),
                 static_cast<double>(s.releaser_skipped + s.releaser_pages_freed)),
           "ratio");
    metric("os.rescues", static_cast<double>(s.rescues), "count");
    metric("os.memory_waits", static_cast<double>(s.memory_waits), "count");
    metric("disk.swap_reads", static_cast<double>(s.swap_reads), "count");
    metric("disk.swap_writes", static_cast<double>(s.swap_writes), "count");
    metric("os.tier_demotions", static_cast<double>(s.tier_demotions), "count");
    metric("os.tier_promotions", static_cast<double>(s.tier_promotions), "count");
    metric("os.tier_evictions", static_cast<double>(s.tier_evictions), "count");
    metric("monitor.samples_armed", static_cast<double>(s.samples_armed), "count");
    metric("monitor.sample_hit_ratio",
           Ratio(static_cast<double>(s.samples_hit), static_cast<double>(s.samples_checked)),
           "ratio");
    metric("monitor.cold_pages_enqueued", static_cast<double>(s.cold_pages_enqueued), "count");
    metric("check.host_s",
           host([](const Rep& r) {
             return r.host.check_event + r.host.check_quiescent + r.host.check_final;
           }),
           "s");
    metric("check.on_event_host_s", host([](const Rep& r) { return r.host.check_event; }), "s");
    metric("check.on_quiescent_host_s",
           host([](const Rep& r) { return r.host.check_quiescent; }), "s");
    metric("check.on_quiescent_calls", static_cast<double>(h.quiescent_calls), "count");
    metric("model.app_exec_s", s.app_exec_s, "s");
    metric("model.app_io_stall_s", s.app_io_stall_s, "s");
    metric("model.app_resource_stall_s", s.app_resource_stall_s, "s");
    metric("model.interactive_response_ms",
           Ratio(s.interactive_response_ms_sum, static_cast<double>(s.interactive_points)),
           "ms");
    metric("trace.overhead", overhead, "ratio");
    metric("trace.timer_ns", timer_ns_, "ns");
    PrintLayerTable(traced, overhead);
    if (!args_.spans.empty()) {
      WriteSpans();
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              failed_ == 0 ? "true" : "false", attempted_, failed_);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second.first, metrics[i].second.second);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace tmh::perfbench

int main(int argc, char** argv) {
  using namespace tmh::perfbench;
  const Args args = ParseArgs(argc, argv);
  std::optional<Workload> workload = MakeWorkload(args.workload, args.seed, args.smoke);
  if (!workload) {
    std::string names;
    for (const std::string& n : WorkloadNames()) {
      names += " " + n;
    }
    Usage("unknown workload '" + args.workload + "' (one of:" + names + ")");
  }
  Bench bench(args, std::move(*workload));
  bench.Calibrate();
  bench.RunAll();
  return bench.Finish();
}
