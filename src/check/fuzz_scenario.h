// Seeded scenario generation for the differential fuzz harness.
//
// A Scenario is a plain value fully derived from a 64-bit seed: a machine
// configuration (memory size, page size, maxrss, daemon cadence, release
// policy tunables), a multiprogramming mix of workloads at random treatment
// levels, and an optional interactive task. The same seed always produces the
// same scenario, and running a scenario is deterministic, so `tmh_fuzz --seed
// N` replays exactly — including the first invariant violation, if any.
//
// Scenarios stay plain data (not MultiExperimentSpecs) so the shrinker can
// drop apps and flatten features field-by-field, then re-derive the spec.

#ifndef TMH_SRC_CHECK_FUZZ_SCENARIO_H_
#define TMH_SRC_CHECK_FUZZ_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/invariants.h"
#include "src/core/experiment.h"

namespace tmh {

struct ScenarioOptions {
  int max_apps = 3;
  // Simulation event budget per scenario (keeps one fuzz iteration short).
  uint64_t max_events = 40'000'000;
  // Structural pass cadence handed to the checker (1 = every event).
  uint64_t full_check_period = 16;
};

struct FuzzApp {
  std::string workload;  // registry name (FindWorkload)
  double scale = 0.05;
  AppVersion version = AppVersion::kRelease;
  bool adaptive = false;
  bool oracle = false;
  int release_batch = 64;
  bool drain_newest_first = false;
  int num_prefetch_threads = 1;
};

struct Scenario {
  uint64_t seed = 0;
  int64_t user_memory_mb = 6;
  int64_t page_size_kb = 4;
  // 0 = feature off / machine default.
  int64_t local_partition_divisor = 0;  // partition = frames / divisor
  int64_t notify_threshold = 0;
  int64_t maxrss_divisor = 0;  // maxrss = frames / divisor (tight Eq. 1 clamp)
  SimDuration daemon_period = 0;
  bool release_to_tail = true;
  bool with_interactive = false;
  SimDuration interactive_sleep = kSec;
  std::vector<FuzzApp> apps;
  uint64_t max_events = 40'000'000;
  // Online access monitoring (src/monitor) with randomized cadence/bounds;
  // exercises monitor-issued sampling invalidations and releases under checks.
  bool monitor = false;
  SimDuration monitor_period = 0;
  int64_t monitor_max_regions = 0;
  bool monitor_protect = false;
  // Multi-tenant draws (appended after the monitor draws so enabling them
  // never reshapes pre-existing seeds). num_nodes > 1 shards the frame pool;
  // storm_delay > 0 holds every app but the first until one shared arrival
  // time (a pressure storm); churn_stagger > 0 staggers arrivals so earlier
  // tenants finish and leave residue while later ones are still running.
  int num_nodes = 1;
  SimDuration storm_delay = 0;
  SimDuration churn_stagger = 0;
  // Memory-tiering draws (appended after the multi-tenant draws, same
  // bit-compatibility rule). num_slow_tiers > 0 gives the machine that many
  // slow tiers of tier_frames frames each, turning releases into demotions.
  int num_slow_tiers = 0;
  int64_t tier_frames = 0;
  SimDuration tier_promote_cost = 0;
  SimDuration tier_demote_cost = 0;
};

// Derives the scenario for `seed` (pure function of seed and options).
Scenario MakeScenario(uint64_t seed, const ScenarioOptions& options = {});

// The forced-tier geometry of `tmh_fuzz --force-tiers`: a scenario that drew
// no slow tiers gets two of 128 frames each at 20 us per migration; one that
// drew tiers keeps its own. Small on purpose: capacity-eviction cascades and
// disk fallout are the paths a tier-thrash sweep exists to exercise.
void ForceTiers(Scenario& scenario);

// Expands a scenario into a runnable spec (checks not yet enabled; the runner
// sets spec.checks / spec.check_options).
MultiExperimentSpec ToSpec(const Scenario& scenario);

// One-line-per-field human description, for failure reports.
std::string Describe(const Scenario& scenario);

struct ScenarioOutcome {
  bool completed = false;
  bool ok = true;
  std::string failure;      // first invariant violation, empty when ok
  uint64_t checks_run = 0;
  uint64_t sim_events = 0;
  std::string digest;  // Digest(result)
};

// Stable fingerprint of a run's end-of-run counters (sim_events included).
// Equal digests on two runs of the same spec demonstrate deterministic replay;
// equal digests with and without observers show the observers did not change
// the run.
std::string Digest(const MultiExperimentResult& result);

// Runs the scenario with an InvariantChecker attached.
ScenarioOutcome RunScenario(const Scenario& scenario, const CheckOptions& check_options);
ScenarioOutcome RunScenario(const Scenario& scenario);

}  // namespace tmh

#endif  // TMH_SRC_CHECK_FUZZ_SCENARIO_H_
