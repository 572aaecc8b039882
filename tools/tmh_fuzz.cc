// tmh_fuzz — seeded differential fuzzer for the VM subsystem.
//
// Each seed derives one multiprogramming scenario (MakeScenario), runs it with
// the InvariantChecker attached (kernel state cross-validated against the
// reference oracle after every event), and reports the first violation. The
// seed fully determines the scenario and the run, so any failure replays with
//
//   tmh_fuzz --seed N
//
// On failure the driver shrinks the scenario — greedily dropping apps, then
// flattening machine/app features one at a time, keeping every change that
// still fails — and prints the minimized scenario next to the replay line.
//
//   tmh_fuzz --runs 50                 fuzz seeds 1..50
//   tmh_fuzz --seed 7 --verify-determinism
//                                      run seed 7 twice, require identical
//                                      digest and failure text
//   tmh_fuzz --seed 3 --inject 5000 --expect-fail
//                                      self-test: flip a residency-bitmap bit
//                                      mid-run and require the checker to
//                                      catch it (deterministically)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "src/check/fuzz_scenario.h"
#include "src/check/invariants.h"
#include "src/core/cli_args.h"

namespace {

struct Flags {
  uint64_t seed = 0;       // 0 = no single seed: fuzz a range instead
  uint64_t runs = 20;      // range mode: number of seeds
  uint64_t start = 1;      // range mode: first seed
  int max_apps = 3;
  uint64_t max_events = 0;        // 0 = ScenarioOptions default
  uint64_t check_period = 0;      // 0 = ScenarioOptions default
  uint64_t inject_after = 0;      // flip a bitmap bit after N checker events
  bool expect_fail = false;       // invert exit status (for --inject self-test)
  bool verify_determinism = false;
  bool shrink = true;
  bool quiet = false;
  bool force_tiers = false;  // give tierless scenarios a slow-tier hierarchy
};

void PrintUsage() {
  std::printf(
      "tmh_fuzz — randomized differential testing of the VM subsystem\n\n"
      "  --seed N        run exactly seed N (deterministic replay)\n"
      "  --runs N        fuzz N consecutive seeds                  [20]\n"
      "  --start N       first seed in range mode                  [1]\n"
      "  --max-apps N    cap on concurrent apps per scenario       [3]\n"
      "  --max-events N  simulation event budget per scenario\n"
      "  --check-period N  full structural pass every N mutations  [16]\n"
      "                    (the oracle is still consulted on every event)\n"
      "  --verify-determinism  run each seed twice; fail on digest mismatch\n"
      "  --force-tiers   give scenarios without slow tiers a small 2-tier\n"
      "                  hierarchy (tier-thrash sweeps over any seed range)\n"
      "  --inject N      corrupt the residency bitmap after N checker events\n"
      "  --expect-fail   exit 0 iff a violation IS detected (self-test mode)\n"
      "  --no-shrink     report failures without minimizing the scenario\n"
      "  --quiet         only print failures and the final summary\n");
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // The flag's value as an integer in [lo, hi]; anything else exits 2.
    auto integer = [&](long lo, long hi) {
      return tmh::IntegerArg(arg.c_str(), next(arg.c_str()), lo, hi);
    };
    constexpr long kMax = std::numeric_limits<long>::max();
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      std::exit(0);
    } else if (arg == "--seed") {
      flags->seed = static_cast<uint64_t>(integer(1, kMax));
    } else if (arg == "--runs") {
      flags->runs = static_cast<uint64_t>(integer(1, kMax));
    } else if (arg == "--start") {
      flags->start = static_cast<uint64_t>(integer(0, kMax));
    } else if (arg == "--max-apps") {
      flags->max_apps = static_cast<int>(integer(1, std::numeric_limits<int>::max()));
    } else if (arg == "--max-events") {
      flags->max_events = static_cast<uint64_t>(integer(1, kMax));
    } else if (arg == "--check-period") {
      flags->check_period = static_cast<uint64_t>(integer(1, kMax));
    } else if (arg == "--inject") {
      flags->inject_after = static_cast<uint64_t>(integer(1, kMax));
    } else if (arg == "--expect-fail") {
      flags->expect_fail = true;
    } else if (arg == "--verify-determinism") {
      flags->verify_determinism = true;
    } else if (arg == "--force-tiers") {
      flags->force_tiers = true;
    } else if (arg == "--no-shrink") {
      flags->shrink = false;
    } else if (arg == "--quiet") {
      flags->quiet = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", arg.c_str());
      return false;
    }
  }
  return true;
}

tmh::ScenarioOptions ScenarioOptionsFor(const Flags& flags) {
  tmh::ScenarioOptions options;
  options.max_apps = flags.max_apps;
  if (flags.max_events > 0) options.max_events = flags.max_events;
  if (flags.check_period > 0) options.full_check_period = flags.check_period;
  return options;
}

tmh::CheckOptions CheckOptionsFor(const Flags& flags) {
  tmh::CheckOptions options;
  options.full_check_period = flags.check_period > 0
                                  ? flags.check_period
                                  : tmh::ScenarioOptions{}.full_check_period;
  options.inject_bitmap_flip_after = flags.inject_after;
  return options;
}

// Re-runs a shrink candidate and accepts it if the checker still trips.
// Any violation counts — shrinking often shifts which invariant fires first,
// and a smaller scenario that fails differently is still a better repro.
bool StillFails(const tmh::Scenario& candidate, const Flags& flags) {
  return !tmh::RunScenario(candidate, CheckOptionsFor(flags)).ok;
}

tmh::Scenario Shrink(const tmh::Scenario& original, const Flags& flags) {
  tmh::Scenario best = original;

  // Pass 1: greedily drop apps (biggest single reduction available).
  for (size_t i = 0; i < best.apps.size() && best.apps.size() > 1;) {
    tmh::Scenario candidate = best;
    candidate.apps.erase(candidate.apps.begin() + static_cast<long>(i));
    if (StillFails(candidate, flags)) {
      best = candidate;  // keep i: the next app shifted into this slot
    } else {
      ++i;
    }
  }

  // Pass 2: flatten machine features toward defaults, one at a time.
  auto try_change = [&](auto&& mutate) {
    tmh::Scenario candidate = best;
    mutate(candidate);
    if (StillFails(candidate, flags)) best = candidate;
  };
  try_change([](tmh::Scenario& s) { s.with_interactive = false; });
  try_change([](tmh::Scenario& s) { s.num_nodes = 1; });
  try_change([](tmh::Scenario& s) { s.storm_delay = 0; });
  try_change([](tmh::Scenario& s) { s.churn_stagger = 0; });
  try_change([](tmh::Scenario& s) {
    s.num_slow_tiers = 0;
    s.tier_frames = 0;
    s.tier_promote_cost = 0;
    s.tier_demote_cost = 0;
  });
  try_change([](tmh::Scenario& s) { s.monitor = false; });
  try_change([](tmh::Scenario& s) { s.monitor_protect = false; });
  try_change([](tmh::Scenario& s) { s.local_partition_divisor = 0; });
  try_change([](tmh::Scenario& s) { s.notify_threshold = 0; });
  try_change([](tmh::Scenario& s) { s.maxrss_divisor = 0; });
  try_change([](tmh::Scenario& s) { s.daemon_period = 0; });
  try_change([](tmh::Scenario& s) { s.release_to_tail = true; });
  try_change([](tmh::Scenario& s) { s.page_size_kb = 4; });

  // Pass 3: flatten per-app knobs.
  for (size_t i = 0; i < best.apps.size(); ++i) {
    try_change([i](tmh::Scenario& s) { s.apps[i].adaptive = false; });
    try_change([i](tmh::Scenario& s) { s.apps[i].oracle = false; });
    try_change([i](tmh::Scenario& s) { s.apps[i].drain_newest_first = false; });
    try_change([i](tmh::Scenario& s) { s.apps[i].num_prefetch_threads = 1; });
    try_change([i](tmh::Scenario& s) { s.apps[i].release_batch = 64; });
    try_change(
        [i](tmh::Scenario& s) { s.apps[i].version = tmh::AppVersion::kOriginal; });
  }
  return best;
}

void ReportFailure(const tmh::Scenario& scenario,
                   const tmh::ScenarioOutcome& outcome, const Flags& flags) {
  std::printf("FAIL seed=%llu\n%s\n%s\n",
              static_cast<unsigned long long>(scenario.seed),
              tmh::Describe(scenario).c_str(), outcome.failure.c_str());
  std::printf("replay: tmh_fuzz --seed %llu%s\n",
              static_cast<unsigned long long>(scenario.seed),
              flags.inject_after > 0 ? " --inject (same value)" : "");
  if (flags.shrink && flags.inject_after == 0) {
    std::printf("shrinking...\n");
    const tmh::Scenario minimized = Shrink(scenario, flags);
    const tmh::ScenarioOutcome small = tmh::RunScenario(minimized, CheckOptionsFor(flags));
    std::printf("minimized (%zu app%s):\n%s\n%s\n", minimized.apps.size(),
                minimized.apps.size() == 1 ? "" : "s",
                tmh::Describe(minimized).c_str(), small.failure.c_str());
  }
  std::fflush(stdout);
}

// Runs one seed end to end. Returns true when the run behaved as expected
// (clean normally, or detected-and-deterministic under --expect-fail).
bool RunSeed(uint64_t seed, const Flags& flags) {
  tmh::Scenario scenario = MakeScenario(seed, ScenarioOptionsFor(flags));
  if (flags.force_tiers) {
    tmh::ForceTiers(scenario);
  }
  const tmh::ScenarioOutcome outcome =
      tmh::RunScenario(scenario, CheckOptionsFor(flags));

  if (flags.verify_determinism || flags.expect_fail) {
    // Deterministic replay is the contract that makes every failure
    // actionable, so re-run and require an identical fingerprint.
    const tmh::ScenarioOutcome again =
        tmh::RunScenario(scenario, CheckOptionsFor(flags));
    if (outcome.digest != again.digest || outcome.failure != again.failure) {
      std::printf("NONDETERMINISTIC seed=%llu: digest %s vs %s\n",
                  static_cast<unsigned long long>(seed), outcome.digest.c_str(),
                  again.digest.c_str());
      if (outcome.failure != again.failure) {
        std::printf("first run:\n%s\nsecond run:\n%s\n", outcome.failure.c_str(),
                    again.failure.c_str());
      }
      return false;
    }
  }

  if (flags.expect_fail) {
    if (outcome.ok) {
      std::printf("seed=%llu: injection NOT detected (expected a violation)\n",
                  static_cast<unsigned long long>(seed));
      return false;
    }
    if (!flags.quiet) {
      std::printf("seed=%llu: injected corruption detected deterministically\n",
                  static_cast<unsigned long long>(seed));
    }
    return true;
  }

  if (!outcome.ok) {
    ReportFailure(scenario, outcome, flags);
    return false;
  }
  if (!flags.quiet) {
    std::printf("seed=%llu ok: %llu sim events, %llu checks, digest=%s%s\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(outcome.sim_events),
                static_cast<unsigned long long>(outcome.checks_run),
                outcome.digest.c_str(),
                outcome.completed ? "" : " (event budget hit)");
    std::fflush(stdout);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  uint64_t first = flags.start;
  uint64_t count = flags.runs;
  if (flags.seed != 0) {
    first = flags.seed;
    count = 1;
  }

  uint64_t failures = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (!RunSeed(first + i, flags)) ++failures;
  }
  if (count > 1 || !flags.quiet) {
    std::printf("%llu/%llu seeds %s\n",
                static_cast<unsigned long long>(count - failures),
                static_cast<unsigned long long>(count),
                flags.expect_fail ? "detected the injected corruption" : "clean");
  }
  return failures == 0 ? 0 : 1;
}
