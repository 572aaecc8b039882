// Observer parity: no observer of the kernel may change the run. Each pinned
// fuzz seed runs four ways — unchecked, with the InvariantChecker attached at
// tmh_fuzz's structural-pass cadence, with the recorder installed (observe),
// and with the time series sampled every 10 ms (trace_period) — and all four
// must hash to one Digest, sim_events included. A checker that moved the
// kernel onto a different dispatch path would check a run that never ships,
// and a sampler that posted events would trace one; this is the test that
// says neither does.

#include <gtest/gtest.h>

#include "src/check/fuzz_scenario.h"
#include "src/core/experiment.h"

namespace tmh {
namespace {

// Runs `scenario` unchecked, checked at tmh_fuzz's structural-pass cadence,
// observed, and traced, and requires one Digest across all four.
void ExpectObserverParity(const Scenario& scenario) {
  const MultiExperimentSpec spec = ToSpec(scenario);

  const MultiExperimentResult unchecked = RunMultiExperiment(spec);
  MultiExperimentSpec checked_spec = spec;
  checked_spec.checks = true;
  checked_spec.check_options.full_check_period = ScenarioOptions{}.full_check_period;
  const MultiExperimentResult checked = RunMultiExperiment(checked_spec);
  MultiExperimentSpec observed_spec = spec;
  observed_spec.observe = true;
  const MultiExperimentResult observed = RunMultiExperiment(observed_spec);
  MultiExperimentSpec traced_spec = spec;
  traced_spec.trace_period = 10 * kMsec;
  const MultiExperimentResult traced = RunMultiExperiment(traced_spec);

  ASSERT_TRUE(unchecked.completed) << Describe(scenario);
  ASSERT_TRUE(checked.check_failure.empty())
      << checked.check_failure << "\nreplay: tmh_fuzz --seed " << scenario.seed;
  EXPECT_GT(checked.checks_run, 0u);
  EXPECT_FALSE(observed.event_log.events().empty());
  EXPECT_FALSE(traced.trace.empty());

  EXPECT_EQ(checked.sim_events, unchecked.sim_events);
  EXPECT_EQ(observed.sim_events, unchecked.sim_events);
  EXPECT_EQ(Digest(checked), Digest(unchecked)) << Describe(scenario);
  EXPECT_EQ(Digest(observed), Digest(unchecked)) << Describe(scenario);
  EXPECT_EQ(traced.sim_events, unchecked.sim_events);
  EXPECT_EQ(Digest(traced), Digest(unchecked)) << Describe(scenario);
}

class ObserverParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ObserverParityTest, CheckedAndObservedRunsMatchTheUncheckedRun) {
  ExpectObserverParity(MakeScenario(GetParam()));
}

// Every pinned fuzz range of the ctest fuzz targets: fuzz_smoke (1-6),
// fuzz_hotpath_fresh_seeds (201-208), fuzz_multitenant_fresh_seeds (301-308)
// and fuzz_runpath_fresh_seeds (401-408).
INSTANTIATE_TEST_SUITE_P(
    FuzzSeeds, ObserverParityTest,
    ::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6, 201, 202, 203, 204, 205, 206, 207, 208, 301,
                                302, 303, 304, 305, 306, 307, 308, 401, 402, 403, 404, 405, 406,
                                407, 408));

// fuzz_tiering_fresh_seeds (501-508), on the forced-tier geometry.
class ForcedTierObserverParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ForcedTierObserverParityTest, CheckedAndObservedRunsMatchTheUncheckedRun) {
  Scenario scenario = MakeScenario(GetParam());
  ForceTiers(scenario);
  ExpectObserverParity(scenario);
}

INSTANTIATE_TEST_SUITE_P(FuzzSeeds, ForcedTierObserverParityTest,
                         ::testing::Range<uint64_t>(501, 509));

}  // namespace
}  // namespace tmh
