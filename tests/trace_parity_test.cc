// Trace parity: the time series is sampled between events and posts none, so
// a traced run is the untraced run. Every Figure-7 point at scale 0.05 runs
// untraced and traced at tmh_run's default period (100 ms), and the two must
// agree on everything the tables report: the event count, every KernelStats
// counter, the app's time buckets and fault counts, and the rendered table.
// A sampler that posted its own events would shorten slices and force queued
// dispatches, and its trace would describe a run the tables never report.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace tmh {
namespace {

void ExpectSameApp(const AppMetrics& traced, const AppMetrics& untraced,
                   const std::string& label) {
  EXPECT_EQ(traced.times.user, untraced.times.user) << label;
  EXPECT_EQ(traced.times.system, untraced.times.system) << label;
  EXPECT_EQ(traced.times.resource_stall, untraced.times.resource_stall) << label;
  EXPECT_EQ(traced.times.io_stall, untraced.times.io_stall) << label;
  EXPECT_EQ(traced.times.sleep, untraced.times.sleep) << label;
  EXPECT_EQ(traced.faults.hard_faults, untraced.faults.hard_faults) << label;
  EXPECT_EQ(traced.faults.soft_faults, untraced.faults.soft_faults) << label;
  EXPECT_EQ(traced.faults.fresh_prefetch_touches, untraced.faults.fresh_prefetch_touches)
      << label;
  EXPECT_EQ(traced.faults.rescue_faults, untraced.faults.rescue_faults) << label;
  EXPECT_EQ(traced.faults.zero_fill_faults, untraced.faults.zero_fill_faults) << label;
  EXPECT_EQ(traced.faults.release_saves, untraced.faults.release_saves) << label;
  EXPECT_EQ(traced.faults.collapsed_faults, untraced.faults.collapsed_faults) << label;
}

TEST(TraceParityTest, TracedFig07GridIsTheUntracedGrid) {
  constexpr double kScale = 0.05;
  std::vector<std::string> labels;
  const std::vector<ExperimentSpec> specs = Fig07Specs(kScale, /*tiers=*/0, &labels);
  std::vector<ExperimentSpec> traced_specs = specs;
  for (ExperimentSpec& spec : traced_specs) {
    spec.trace_period = 100 * kMsec;
  }
  SweepRunner runner(SweepOptions{2});
  const std::vector<ExperimentResult> untraced = runner.Run(specs);
  const std::vector<ExperimentResult> traced = runner.Run(traced_specs);
  ASSERT_EQ(untraced.size(), specs.size());
  ASSERT_EQ(traced.size(), specs.size());

  for (size_t i = 0; i < specs.size(); ++i) {
    const std::string& label = labels[i];
    EXPECT_TRUE(traced[i].completed) << label;
    EXPECT_TRUE(untraced[i].trace.empty()) << label;
    EXPECT_GT(traced[i].trace.samples().size(), 1u) << label;
    EXPECT_EQ(traced[i].sim_events, untraced[i].sim_events) << label;
#define TMH_EXPECT_SAME_STAT(field) \
  EXPECT_EQ(traced[i].kernel.field, untraced[i].kernel.field) << label << " kernel." #field;
    TMH_KERNEL_STATS(TMH_EXPECT_SAME_STAT)
#undef TMH_EXPECT_SAME_STAT
    ExpectSameApp(traced[i].app, untraced[i].app, label);
  }
  EXPECT_EQ(Fig07Text(kScale, traced), Fig07Text(kScale, untraced));
}

}  // namespace
}  // namespace tmh
