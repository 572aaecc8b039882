// Observer parity: no sink of the kernel's observer stream may change the
// run. Each seed runs three ways — unchecked, with the InvariantChecker
// attached at tmh_fuzz's structural-pass cadence, and with the recorder
// installed (observe) — and all three must hash to one Digest, sim_events
// included. A checker that moved the kernel onto a different dispatch path
// would check a run that never ships; this is the test that says it does not.

#include <gtest/gtest.h>

#include "src/check/fuzz_scenario.h"
#include "src/core/experiment.h"

namespace tmh {
namespace {

class ObserverParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ObserverParityTest, CheckedAndObservedRunsMatchTheUncheckedRun) {
  const uint64_t seed = GetParam();
  const Scenario scenario = MakeScenario(seed);
  const MultiExperimentSpec spec = ToSpec(scenario);

  const MultiExperimentResult unchecked = RunMultiExperiment(spec);
  MultiExperimentSpec checked_spec = spec;
  checked_spec.checks = true;
  checked_spec.check_options.full_check_period = ScenarioOptions{}.full_check_period;
  const MultiExperimentResult checked = RunMultiExperiment(checked_spec);
  MultiExperimentSpec observed_spec = spec;
  observed_spec.observe = true;
  const MultiExperimentResult observed = RunMultiExperiment(observed_spec);

  ASSERT_TRUE(unchecked.completed) << Describe(scenario);
  ASSERT_TRUE(checked.check_failure.empty())
      << checked.check_failure << "\nreplay: tmh_fuzz --seed " << seed;
  EXPECT_GT(checked.checks_run, 0u);
  EXPECT_FALSE(observed.event_log.events().empty());

  EXPECT_EQ(checked.sim_events, unchecked.sim_events);
  EXPECT_EQ(observed.sim_events, unchecked.sim_events);
  EXPECT_EQ(Digest(checked), Digest(unchecked)) << Describe(scenario);
  EXPECT_EQ(Digest(observed), Digest(unchecked)) << Describe(scenario);
}

// Pinned fuzz seeds on which a checker used to put the kernel on a per-event
// dispatch loop without inline dispatch, and so simulated a different run.
INSTANTIATE_TEST_SUITE_P(FuzzSeeds, ObserverParityTest, ::testing::Values<uint64_t>(1, 302, 401));

}  // namespace
}  // namespace tmh
