// Integration tests: end-to-end experiments at reduced scale must reproduce
// the paper's headline claims in direction (who wins), if not in magnitude.

#include "src/core/experiment.h"

#include <gtest/gtest.h>

#include "src/workloads/workloads.h"
#include "tests/testutil.h"

namespace tmh {
namespace {

// A scaled-down machine + workload pair that stays out-of-core.
MachineConfig SmallMachine() {
  MachineConfig config;
  config.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  return config;
}

ExperimentResult RunMatvec(AppVersion version, bool with_interactive = false,
                     SimDuration sleep = 2 * kSec) {
  ExperimentSpec spec;
  spec.machine = SmallMachine();
  spec.workload = MakeMatvec(0.1);
  spec.version = version;
  spec.with_interactive = with_interactive;
  spec.interactive.sleep_time = sleep;
  return RunExperiment(spec);
}

TEST(ExperimentTest, AllVersionsRunToCompletion) {
  for (const AppVersion version : AllVersions()) {
    const ExperimentResult result = RunMatvec(version);
    EXPECT_TRUE(result.completed) << VersionLabel(version);
    EXPECT_GT(result.app.interp.iterations, 0u);
    EXPECT_GT(result.app.wall, 0);
  }
}

TEST(ExperimentTest, PrefetchingEliminatesMostIoStall) {
  const ExperimentResult o = RunMatvec(AppVersion::kOriginal);
  const ExperimentResult p = RunMatvec(AppVersion::kPrefetch);
  EXPECT_LT(p.app.times.io_stall, o.app.times.io_stall / 4);
  EXPECT_LT(p.app.times.Execution(), o.app.times.Execution());
  // Most pages now arrive via prefetch instead of demand faults.
  EXPECT_LT(p.app.faults.hard_faults, o.app.faults.hard_faults / 2);
  EXPECT_GT(p.kernel.prefetch_io, static_cast<uint64_t>(p.app.faults.hard_faults));
}

TEST(ExperimentTest, ReleasingKeepsThePagingDaemonIdle) {
  // Table 3's central claim: with releasing, the daemon barely runs.
  const ExperimentResult p = RunMatvec(AppVersion::kPrefetch);
  const ExperimentResult r = RunMatvec(AppVersion::kRelease);
  EXPECT_GT(p.kernel.daemon_pages_stolen, 0u);
  EXPECT_LT(r.kernel.daemon_pages_stolen, p.kernel.daemon_pages_stolen / 2);
  EXPECT_GT(r.kernel.releaser_pages_freed, 0u);
}

TEST(ExperimentTest, ReleasingEliminatesSoftFaults) {
  // Figure 8: reference-bit invalidation soft faults vanish with releasing.
  const ExperimentResult p = RunMatvec(AppVersion::kPrefetch);
  const ExperimentResult r = RunMatvec(AppVersion::kRelease);
  const ExperimentResult b = RunMatvec(AppVersion::kBuffered);
  EXPECT_GT(p.app.faults.soft_faults + p.kernel.daemon_invalidations, 0u);
  EXPECT_LT(r.app.faults.soft_faults, p.app.faults.soft_faults / 2 + 1);
  EXPECT_LT(b.app.faults.soft_faults, p.app.faults.soft_faults / 2 + 1);
}

TEST(ExperimentTest, BufferingBeatsAggressiveForMatvec) {
  // MATVEC's reused vector is evicted by aggressive releasing but retained by
  // the buffered policy (Section 4.3's dramatic buffering win).
  const ExperimentResult r = RunMatvec(AppVersion::kRelease);
  const ExperimentResult b = RunMatvec(AppVersion::kBuffered);
  EXPECT_LT(b.app.times.Execution(), r.app.times.Execution());
  EXPECT_LT(b.swap_reads, r.swap_reads);  // the vector is not re-fetched per row
  if (b.app.runtime.has_value()) {
    EXPECT_GT(b.app.runtime->releases_buffered, 0u);
  }
}

TEST(ExperimentTest, PrefetchAloneHurtsInteractiveResponse) {
  // Figure 1: prefetching without releasing makes the interactive task's
  // response time worse than even the original program does.
  const ExperimentResult o = RunMatvec(AppVersion::kOriginal, true);
  const ExperimentResult p = RunMatvec(AppVersion::kPrefetch, true);
  ASSERT_TRUE(o.interactive.has_value() && p.interactive.has_value());
  ASSERT_GT(o.interactive->sweeps, 1);
  ASSERT_GT(p.interactive->sweeps, 1);
  EXPECT_GT(p.interactive->mean_response_ns, o.interactive->mean_response_ns);
}

TEST(ExperimentTest, ReleasingRestoresInteractiveResponse) {
  // Figure 10: with releasing, the interactive task responds almost as if it
  // had the machine to itself.
  const InteractiveMetrics alone = RunInteractiveAlone(SmallMachine(), InteractiveConfig{}, 10);
  const ExperimentResult p = RunMatvec(AppVersion::kPrefetch, true);
  const ExperimentResult r = RunMatvec(AppVersion::kRelease, true);
  ASSERT_TRUE(r.interactive.has_value());
  EXPECT_LT(r.interactive->mean_response_ns, p.interactive->mean_response_ns / 5);
  EXPECT_LT(r.interactive->mean_response_ns, 20 * alone.mean_response_ns);
  // Hard faults per sweep drop to (near) zero (Figure 10c).
  EXPECT_LT(r.interactive->hard_faults_per_sweep, 2.0);
}

TEST(ExperimentTest, ReleasedPagesGoToFreeListTailAndGetRescued) {
  // Figure 9 mechanics at small scale: the rescue path is live.
  ExperimentSpec spec;
  spec.machine = SmallMachine();
  spec.workload = MakeMgrid(0.22);
  spec.version = AppVersion::kRelease;
  const ExperimentResult result = RunExperiment(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.kernel.releaser_pages_freed, 0u);
  EXPECT_GT(result.kernel.rescued_daemon_freed + result.kernel.rescued_release_freed, 0u);
}

TEST(ExperimentTest, VersionOHasNoRuntimeLayer) {
  const ExperimentResult o = RunMatvec(AppVersion::kOriginal);
  EXPECT_FALSE(o.app.runtime.has_value());
  EXPECT_EQ(o.kernel.prefetch_requests, 0u);
  EXPECT_EQ(o.kernel.release_requests, 0u);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  const ExperimentResult a = RunMatvec(AppVersion::kRelease, true);
  const ExperimentResult b = RunMatvec(AppVersion::kRelease, true);
  EXPECT_EQ(a.app.wall, b.app.wall);
  EXPECT_EQ(a.app.faults.hard_faults, b.app.faults.hard_faults);
  EXPECT_EQ(a.kernel.daemon_pages_stolen, b.kernel.daemon_pages_stolen);
  EXPECT_EQ(a.swap_reads, b.swap_reads);
  ASSERT_TRUE(a.interactive.has_value() && b.interactive.has_value());
  EXPECT_EQ(a.interactive->responses, b.interactive->responses);
}

TEST(ExperimentTest, CompilerStatsReportedPerVersion) {
  const ExperimentResult o = RunMatvec(AppVersion::kOriginal);
  const ExperimentResult p = RunMatvec(AppVersion::kPrefetch);
  const ExperimentResult r = RunMatvec(AppVersion::kRelease);
  EXPECT_EQ(o.app.compile.prefetch_directives, 0);
  EXPECT_GT(p.app.compile.prefetch_directives, 0);
  EXPECT_EQ(p.app.compile.release_directives, 0);
  EXPECT_GT(r.app.compile.release_directives, 0);
}

TEST(ExperimentTest, InteractiveAloneBaselineIsFast) {
  const InteractiveMetrics alone = RunInteractiveAlone(SmallMachine(), InteractiveConfig{}, 10);
  EXPECT_EQ(alone.sweeps, 10);
  // Warm sweeps take ~65 * 10us; allow the cold first sweep to skew the mean.
  EXPECT_LT(alone.mean_response_ns, 10.0 * kMsec);
  EXPECT_LT(alone.hard_faults_per_sweep, 1.0);
}

TEST(ExperimentTest, EveryBenchmarkCompletesAtTestScale) {
  for (const WorkloadInfo& info : AllWorkloads()) {
    ExperimentSpec spec;
    spec.machine = SmallMachine();
    spec.workload = info.factory(0.08);
    spec.version = AppVersion::kBuffered;
    const ExperimentResult result = RunExperiment(spec);
    EXPECT_TRUE(result.completed) << info.name;
    EXPECT_GT(result.app.interp.iterations, 0u) << info.name;
  }
}

}  // namespace
}  // namespace tmh
