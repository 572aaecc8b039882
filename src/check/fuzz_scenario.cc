#include "src/check/fuzz_scenario.h"

#include <algorithm>
#include <sstream>

#include "src/sim/rng.h"
#include "src/workloads/extra.h"
#include "src/workloads/workloads.h"

namespace tmh {
namespace {

const WorkloadInfo& PickWorkload(Rng& rng) {
  const auto& paper = AllWorkloads();
  const auto& extra = ExtraWorkloads();
  const uint64_t index = rng.NextBelow(paper.size() + extra.size());
  return index < paper.size() ? paper[index] : extra[index - paper.size()];
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;  // FNV-1a step
  return h;
}

}  // namespace

Scenario MakeScenario(uint64_t seed, const ScenarioOptions& options) {
  // Decorrelate adjacent seeds while keeping the map seed -> scenario pure.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
  Scenario s;
  s.seed = seed;
  s.max_events = options.max_events;
  s.user_memory_mb = rng.NextInRange(5, 10);
  s.page_size_kb = rng.NextBelow(4) == 0 ? 8 : 4;
  if (rng.NextBelow(4) == 0) {
    s.local_partition_divisor = rng.NextInRange(2, 4);
  }
  if (rng.NextBelow(3) == 0) {
    s.notify_threshold = 16;
  }
  if (rng.NextBelow(4) == 0) {
    // Tight maxrss exercises Eq. 1's clamp and the over-maxrss daemon path.
    s.maxrss_divisor = rng.NextInRange(2, 4);
  }
  if (rng.NextBelow(3) == 0) {
    s.daemon_period = rng.NextInRange(20, 80) * kMsec;
  }
  s.release_to_tail = rng.NextBelow(3) != 0;
  s.with_interactive = rng.NextBelow(2) == 0;
  s.interactive_sleep = rng.NextInRange(1, 4) * kSec;

  const int num_apps =
      1 + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(options.max_apps)));
  const AppVersion versions[] = {AppVersion::kOriginal, AppVersion::kPrefetch,
                                 AppVersion::kRelease, AppVersion::kBuffered,
                                 AppVersion::kReactive};
  for (int i = 0; i < num_apps; ++i) {
    FuzzApp app;
    app.workload = PickWorkload(rng).name;
    app.scale = 0.03 + rng.NextDouble() * 0.05;
    app.version = versions[rng.NextBelow(5)];
    app.adaptive = rng.NextBelow(3) == 0;
    app.oracle = rng.NextBelow(4) == 0;
    app.release_batch = static_cast<int>(10 + rng.NextBelow(200));
    app.drain_newest_first = rng.NextBelow(2) == 0;
    app.num_prefetch_threads = static_cast<int>(1 + rng.NextBelow(8));
    s.apps.push_back(std::move(app));
  }
  // Drawn last so enabling the monitor never reshapes the machine/app draws of
  // pre-existing seeds.
  if (rng.NextBelow(3) == 0) {
    s.monitor = true;
    s.monitor_period = rng.NextInRange(5, 40) * kMsec;
    s.monitor_max_regions = rng.NextInRange(16, 128);
    s.monitor_protect = rng.NextBelow(2) == 0;
  }
  // Multi-tenant draws, appended after every pre-existing draw (see the
  // Scenario comment): sharded frame pools and tenant arrival timing.
  if (rng.NextBelow(3) == 0) {
    s.num_nodes = static_cast<int>(2 + rng.NextBelow(7));  // 2..8 nodes
  }
  if (rng.NextBelow(4) == 0) {
    s.storm_delay = rng.NextInRange(50, 400) * kMsec;
  } else if (rng.NextBelow(3) == 0) {
    s.churn_stagger = rng.NextInRange(100, 800) * kMsec;
  }
  // Memory-tiering draws, appended after every pre-existing draw so old seeds
  // keep their exact scenarios. Small tiers thrash on purpose: capacity
  // eviction cascades and disk fallout are the interesting paths.
  if (rng.NextBelow(3) == 0) {
    s.num_slow_tiers = static_cast<int>(1 + rng.NextBelow(2));  // 1 or 2
    s.tier_frames = rng.NextInRange(32, 256);
    s.tier_promote_cost = rng.NextInRange(5, 50) * kUsec;
    s.tier_demote_cost = rng.NextInRange(5, 50) * kUsec;
  }
  return s;
}

MultiExperimentSpec ToSpec(const Scenario& scenario) {
  MultiExperimentSpec spec;
  spec.machine.user_memory_bytes = scenario.user_memory_mb * 1024 * 1024;
  spec.machine.page_size_bytes = scenario.page_size_kb * 1024;
  spec.machine.num_nodes = scenario.num_nodes;
  if (scenario.local_partition_divisor > 0) {
    spec.machine.tunables.local_partition_pages =
        spec.machine.num_frames() / scenario.local_partition_divisor;
  }
  if (scenario.notify_threshold > 0) {
    spec.machine.tunables.shared_header_notify_threshold = scenario.notify_threshold;
  }
  if (scenario.maxrss_divisor > 0) {
    spec.machine.tunables.maxrss_pages =
        spec.machine.num_frames() / scenario.maxrss_divisor;
  }
  if (scenario.daemon_period > 0) {
    spec.machine.tunables.daemon_period = scenario.daemon_period;
  }
  spec.machine.tunables.release_to_tail = scenario.release_to_tail;
  if (scenario.num_slow_tiers > 0) {
    spec.machine.tiers.push_back(TierSpec{});  // tiers[0] = DRAM
    for (int t = 0; t < scenario.num_slow_tiers; ++t) {
      TierSpec tier;
      tier.frames = scenario.tier_frames;
      tier.promote_cost = scenario.tier_promote_cost;
      tier.demote_cost = scenario.tier_demote_cost;
      spec.machine.tiers.push_back(tier);
    }
  }
  spec.with_interactive = scenario.with_interactive;
  spec.interactive.sleep_time = scenario.interactive_sleep;
  spec.max_events = scenario.max_events;
  for (const FuzzApp& app : scenario.apps) {
    const WorkloadInfo* info = FindWorkload(app.workload);
    if (info == nullptr) {
      continue;  // shrunk scenario naming a removed workload: skip
    }
    MultiAppSpec multi;
    multi.workload = info->factory(app.scale);
    multi.version = app.version;
    multi.adaptive = app.adaptive;
    multi.oracle = app.oracle;
    multi.runtime.release_batch = app.release_batch;
    multi.runtime.drain_newest_first = app.drain_newest_first;
    multi.runtime.num_prefetch_threads = app.num_prefetch_threads;
    // Tenant arrival timing: a storm delays every app but the first to one
    // shared instant; churn staggers arrivals app-by-app.
    const auto index = static_cast<int64_t>(spec.apps.size());
    if (scenario.storm_delay > 0 && index > 0) {
      multi.start_delay = scenario.storm_delay;
    } else if (scenario.churn_stagger > 0) {
      multi.start_delay = index * scenario.churn_stagger;
    }
    spec.apps.push_back(std::move(multi));
  }
  if (scenario.monitor) {
    spec.monitor = true;
    spec.monitor_config.sample_period = scenario.monitor_period;
    spec.monitor_config.max_regions = scenario.monitor_max_regions;
    spec.monitor_config.min_regions =
        std::min<int64_t>(MonitorConfig{}.min_regions, scenario.monitor_max_regions);
    spec.monitor_config.protect_hot = scenario.monitor_protect;
    spec.monitor_config.seed = scenario.seed;
  }
  return spec;
}

std::string Describe(const Scenario& scenario) {
  std::ostringstream os;
  os << "scenario seed=" << scenario.seed << "\n"
     << "  machine: memory=" << scenario.user_memory_mb << "MB page="
     << scenario.page_size_kb << "KB release_to_tail="
     << (scenario.release_to_tail ? "yes" : "no");
  if (scenario.local_partition_divisor > 0) {
    os << " local_partition=frames/" << scenario.local_partition_divisor;
  }
  if (scenario.notify_threshold > 0) {
    os << " notify_threshold=" << scenario.notify_threshold;
  }
  if (scenario.maxrss_divisor > 0) {
    os << " maxrss=frames/" << scenario.maxrss_divisor;
  }
  if (scenario.daemon_period > 0) {
    os << " daemon_period=" << scenario.daemon_period / kMsec << "ms";
  }
  if (scenario.num_nodes > 1) {
    os << " nodes=" << scenario.num_nodes;
  }
  if (scenario.storm_delay > 0) {
    os << " storm_delay=" << scenario.storm_delay / kMsec << "ms";
  }
  if (scenario.churn_stagger > 0) {
    os << " churn_stagger=" << scenario.churn_stagger / kMsec << "ms";
  }
  if (scenario.num_slow_tiers > 0) {
    os << " tiers=" << scenario.num_slow_tiers << "x" << scenario.tier_frames
       << "f promote=" << scenario.tier_promote_cost / kUsec
       << "us demote=" << scenario.tier_demote_cost / kUsec << "us";
  }
  os << "\n  interactive: "
     << (scenario.with_interactive
             ? "sleep=" + std::to_string(scenario.interactive_sleep / kSec) + "s"
             : "off");
  if (scenario.monitor) {
    os << "\n  monitor: period=" << scenario.monitor_period / kMsec
       << "ms max_regions=" << scenario.monitor_max_regions
       << (scenario.monitor_protect ? " protect_hot" : "");
  }
  for (const FuzzApp& app : scenario.apps) {
    os << "\n  app: " << app.workload << " version=" << VersionLabel(app.version)
       << " scale=" << app.scale << (app.adaptive ? " adaptive" : "")
       << (app.oracle ? " oracle" : "") << " release_batch=" << app.release_batch
       << (app.drain_newest_first ? " drain_newest_first" : "")
       << " prefetch_threads=" << app.num_prefetch_threads;
  }
  return os.str();
}

std::string Digest(const MultiExperimentResult& result) {
  // FNV-1a over the run's end-of-run counters: any behavioral drift between
  // two runs of the same scenario lands in the digest.
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Mix(h, result.completed ? 1 : 0);
  h = Mix(h, result.sim_events);
  h = Mix(h, result.swap_reads);
  h = Mix(h, result.swap_writes);
  const KernelStats& k = result.kernel;
  h = Mix(h, k.allocations);
  h = Mix(h, k.zero_fills);
  h = Mix(h, k.writebacks);
  h = Mix(h, k.hard_faults);
  h = Mix(h, k.soft_faults);
  h = Mix(h, k.daemon_pages_stolen);
  h = Mix(h, k.daemon_invalidations);
  h = Mix(h, k.releaser_pages_freed);
  h = Mix(h, k.releaser_skipped);
  h = Mix(h, k.rescued_daemon_freed);
  h = Mix(h, k.rescued_release_freed);
  h = Mix(h, k.prefetch_io);
  h = Mix(h, k.prefetch_dropped);
  h = Mix(h, k.release_pages_enqueued);
  h = Mix(h, k.memory_waits);
  h = Mix(h, k.monitor_invalidations);
  h = Mix(h, k.monitor_soft_faults);
  h = Mix(h, k.monitor_releases_enqueued);
  h = Mix(h, k.monitor_pages_protected);
  h = Mix(h, k.tier_demotions);
  h = Mix(h, k.tier_promotions);
  h = Mix(h, k.tier_evictions);
  h = Mix(h, k.tier_writebacks);
  for (const AppMetrics& app : result.apps) {
    h = Mix(h, static_cast<uint64_t>(app.wall));
    h = Mix(h, app.faults.hard_faults);
    h = Mix(h, static_cast<uint64_t>(app.times.user));
  }
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

void ForceTiers(Scenario& scenario) {
  if (scenario.num_slow_tiers != 0) {
    return;
  }
  scenario.num_slow_tiers = 2;
  scenario.tier_frames = 128;
  scenario.tier_promote_cost = 20 * kUsec;
  scenario.tier_demote_cost = 20 * kUsec;
}

ScenarioOutcome RunScenario(const Scenario& scenario,
                            const CheckOptions& check_options) {
  MultiExperimentSpec spec = ToSpec(scenario);
  spec.checks = true;
  spec.check_options = check_options;
  const MultiExperimentResult result = RunMultiExperiment(spec);

  ScenarioOutcome outcome;
  outcome.completed = result.completed;
  outcome.failure = result.check_failure;
  outcome.ok = outcome.failure.empty();
  outcome.checks_run = result.checks_run;
  outcome.sim_events = result.sim_events;
  outcome.digest = Digest(result);
  return outcome;
}

ScenarioOutcome RunScenario(const Scenario& scenario) {
  CheckOptions options;
  options.full_check_period = ScenarioOptions{}.full_check_period;
  return RunScenario(scenario, options);
}

}  // namespace tmh
