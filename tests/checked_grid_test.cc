// The whole Figure-7 grid at scale 0.05 with the invariant checker attached
// to every point, at full_check_period 1: all 24 runs must stay clean, and
// the checked runs must still render the golden table byte for byte (a
// checker rides the observer stream and may not change the run).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace tmh {
namespace {

TEST(CheckedGridTest, EveryFig07PointIsCleanAndRendersTheGolden) {
  constexpr double kScale = 0.05;
  std::vector<std::string> labels;
  std::vector<ExperimentSpec> specs = Fig07Specs(kScale, /*tiers=*/0, &labels);
  for (ExperimentSpec& spec : specs) {
    spec.checks = true;
  }
  SweepRunner runner(SweepOptions{2});
  const std::vector<ExperimentResult> results = runner.Run(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].completed) << labels[i];
    EXPECT_TRUE(results[i].check_failure.empty())
        << labels[i] << ": " << results[i].check_failure;
    EXPECT_GT(results[i].checks_run, 0u) << labels[i];
  }

  std::ifstream golden(std::string(TMH_SOURCE_DIR) + "/tests/data/golden_fig07_scale005.txt");
  ASSERT_TRUE(golden.good());
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(Fig07Text(kScale, results), expected.str());
}

}  // namespace
}  // namespace tmh
