// Tests for the extensions beyond the paper's headline system: time-series
// tracing and the reactive (VINO-style) eviction mode.

#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/runtime/runtime_layer.h"
#include "src/sim/trace.h"
#include "src/workloads/workloads.h"
#include "tests/testutil.h"

namespace tmh {
namespace {

// --- TraceRecorder --------------------------------------------------------------

TEST(TraceRecorderTest, RecordsSamplesInOrder) {
  TraceRecorder trace;
  const int a = trace.AddSeries("a");
  const int b = trace.AddSeries("b");
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  trace.Record(10, {1.0, 2.0});
  trace.Record(20, {3.0, 4.0});
  ASSERT_EQ(trace.samples().size(), 2u);
  EXPECT_EQ(trace.samples()[1].when, 20);
  EXPECT_EQ(trace.samples()[1].values[1], 4.0);
}

TEST(TraceRecorderTest, CsvHasHeaderAndRows) {
  TraceRecorder trace;
  trace.AddSeries("free");
  trace.Record(kSec, {42.0});
  const std::string csv = trace.ToCsv();
  EXPECT_NE(csv.find("time_s,free\n"), std::string::npos);
  EXPECT_NE(csv.find("1.000000,42"), std::string::npos);
}

TEST(TraceRecorderTest, SummarizeFindsMinMaxFinal) {
  TraceRecorder trace;
  trace.AddSeries("x");
  for (const double v : {5.0, 1.0, 9.0, 3.0}) {
    trace.Record(0, {v});
  }
  const auto summary = trace.Summarize(0);
  EXPECT_EQ(summary.min, 1.0);
  EXPECT_EQ(summary.max, 9.0);
  EXPECT_EQ(summary.final, 3.0);
}

TEST(TraceRecorderTest, WriteCsvRoundTrips) {
  TraceRecorder trace;
  trace.AddSeries("v");
  trace.Record(0, {7.0});
  const std::string path = ::testing::TempDir() + "/tmh_trace_test.csv";
  ASSERT_TRUE(trace.WriteCsv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[128] = {};
  std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_NE(std::string(buf).find("time_s,v"), std::string::npos);
}

TEST(TraceTest, KernelTracingSamplesFreeMemory) {
  MachineConfig config = TestMachine(32);
  Kernel kernel(config);
  AddressSpace* as = MakeSwapAs(kernel, "app", 16);
  kernel.StartTracing(10 * kMsec);
  std::vector<Op> ops;
  for (VPage p = 0; p < 16; ++p) {
    ops.push_back(Op::Touch(p, false, 5 * kMsec));
  }
  ScriptProgram program(ops);
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  const TraceRecorder& trace = kernel.trace();
  ASSERT_GT(trace.samples().size(), 3u);
  EXPECT_EQ(trace.series()[0], "free_pages");
  EXPECT_EQ(trace.series()[1], "app_rss");
  // Free memory fell from 32 toward 16 as the app faulted pages in.
  const auto free_summary = trace.Summarize(0);
  EXPECT_EQ(free_summary.max, 32.0);
  EXPECT_LE(free_summary.final, 17.0);
  const auto rss_summary = trace.Summarize(1);
  // The final sample may land just before the last page-in completes.
  EXPECT_GE(rss_summary.final, 15.0);
}

TEST(TraceTest, SamplingPostsNoEventAndStopsAtTheRunsEnd) {
  // The same script untraced and traced: sampling reads the run between
  // events, so both execute the same events and end at the same time, and
  // the rows sit on the period's boundaries up to that time.
  constexpr SimDuration kPeriod = 3 * kMsec;
  struct Run {
    uint64_t events = 0;
    SimTime end = 0;
    std::vector<TraceSample> samples;
  };
  auto run = [](bool traced) {
    Kernel kernel(TestMachine(32));
    kernel.StartDaemons();
    AddressSpace* as = MakeSwapAs(kernel, "app", 24);
    if (traced) {
      kernel.StartTracing(kPeriod);
    }
    std::vector<Op> ops;
    for (VPage p = 0; p < 24; ++p) {
      ops.push_back(Op::Touch(p, p % 3 == 0, 2 * kMsec));
    }
    ScriptProgram program(ops);
    Thread* t = kernel.Spawn("t", as, &program);
    EXPECT_TRUE(kernel.RunUntilThreadsDone({t}));
    return Run{kernel.event_queue().ExecutedCount(), kernel.Now(), kernel.trace().samples()};
  };
  const Run untraced = run(false);
  const Run traced = run(true);
  EXPECT_TRUE(untraced.samples.empty());
  EXPECT_EQ(traced.events, untraced.events);
  EXPECT_EQ(traced.end, untraced.end);
  ASSERT_GT(traced.samples.size(), 3u);
  for (size_t i = 0; i < traced.samples.size(); ++i) {
    EXPECT_EQ(traced.samples[i].when, static_cast<SimTime>(i) * kPeriod);
  }
  EXPECT_LE(traced.samples.back().when, traced.end);
  EXPECT_GE(traced.samples.back().when + kPeriod, traced.end);
}

TEST(TraceTest, ExperimentTracePopulatedOnRequest) {
  ExperimentSpec spec;
  spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  spec.workload = MakeMatvec(0.1);
  spec.version = AppVersion::kBuffered;
  spec.trace_period = 100 * kMsec;
  const ExperimentResult result = RunExperiment(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.trace.samples().size(), 5u);
  // The default (no trace_period) leaves the trace empty.
  spec.trace_period = 0;
  EXPECT_TRUE(RunExperiment(spec).trace.empty());
}

// --- reactive eviction mode -------------------------------------------------------

TEST(ReactiveTest, CandidatesServedLowestPriorityFirst) {
  Kernel kernel(TestMachine(128));
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "app", 64);
  as->AttachPagingDirected(0, 64);
  RuntimeOptions options;
  options.reactive = true;
  options.num_prefetch_threads = 1;
  RuntimeLayer layer(&kernel, as, options);
  for (VPage p = 0; p < 32; ++p) {
    as->bitmap()->Set(p);
  }
  std::vector<Op> out;
  // Tag 1 carries reuse priority 2, tag 2 carries 0: candidates with the
  // least expected reuse must be evicted first.
  for (VPage p = 0; p < 4; ++p) {
    layer.OnReleaseHint(p, /*priority=*/2, /*tag=*/1, out);
    layer.OnReleaseHint(16 + p, /*priority=*/0, /*tag=*/2, out);
  }
  EXPECT_TRUE(out.empty());  // reactive mode never issues releases itself
  const std::vector<VPage> victims = layer.TakeEvictionCandidates(3);
  ASSERT_EQ(victims.size(), 3u);
  for (const VPage page : victims) {
    EXPECT_GE(page, 16);  // all from the priority-0 pool
  }
  EXPECT_EQ(layer.stats().reactive_served, 3u);
}

TEST(ReactiveTest, StaleCandidatesAreSkipped) {
  Kernel kernel(TestMachine(128));
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "app", 64);
  as->AttachPagingDirected(0, 64);
  RuntimeOptions options;
  options.reactive = true;
  options.num_prefetch_threads = 1;
  RuntimeLayer layer(&kernel, as, options);
  for (VPage p = 0; p < 8; ++p) {
    as->bitmap()->Set(p);
  }
  std::vector<Op> out;
  for (VPage p = 0; p < 5; ++p) {
    layer.OnReleaseHint(p, 0, 1, out);
  }
  as->bitmap()->Clear(0);  // page 0 reclaimed behind the layer's back
  as->bitmap()->Clear(1);
  const std::vector<VPage> victims = layer.TakeEvictionCandidates(2);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], 2);
  EXPECT_EQ(victims[1], 3);
}

TEST(ReactiveTest, DaemonPullsVictimsThroughHandler) {
  // A memory-hungry process with an eviction handler surrenders self-chosen
  // pages; the daemon's clock never invalidates its mappings.
  MachineConfig config = TestMachine(16);
  Kernel kernel(config);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "app", 48);
  as->AttachPagingDirected(0, 48);
  // Handler: always offer the lowest-numbered resident pages (the app has
  // swept past them).
  as->set_eviction_handler([&](int64_t count) {
    std::vector<VPage> victims;
    for (VPage p = 0; p < as->num_pages() && static_cast<int64_t>(victims.size()) < count;
         ++p) {
      if (as->page_table().at(p).resident && as->page_table().at(p).valid) {
        victims.push_back(p);
      }
    }
    return victims;
  });
  std::vector<Op> ops;
  for (VPage p = 0; p < 48; ++p) {
    ops.push_back(Op::Touch(p, false, 50 * kUsec));
  }
  ScriptProgram program(ops);
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  EXPECT_GT(kernel.stats().reactive_evictions, 0u);
  // The daemon reclaimed through the handler, not by aging this process.
  EXPECT_EQ(t->faults().soft_faults, 0u);
}

TEST(ReactiveTest, EndToEndReactiveVersionCompletes) {
  ExperimentSpec spec;
  spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  spec.workload = MakeMatvec(0.1);
  spec.version = AppVersion::kReactive;
  const ExperimentResult result = RunExperiment(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.kernel.reactive_evictions, 0u);
  EXPECT_EQ(result.kernel.releaser_pages_freed, 0u);  // nothing released pro-actively
  ASSERT_TRUE(result.app.runtime.has_value());
  EXPECT_GT(result.app.runtime->reactive_candidates, 0u);
}

TEST(ReactiveTest, ReactiveDoesNotProtectTheInteractiveTask) {
  // The paper's Section 2.2 claim, as a regression test.
  auto run = [](AppVersion version) {
    ExperimentSpec spec;
    spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
    spec.workload = MakeMatvec(0.1);
    spec.version = version;
    spec.with_interactive = true;
    spec.interactive.sleep_time = 2 * kSec;
    return RunExperiment(spec);
  };
  const ExperimentResult reactive = run(AppVersion::kReactive);
  const ExperimentResult proactive = run(AppVersion::kRelease);
  ASSERT_TRUE(reactive.completed && proactive.completed);
  EXPECT_GT(reactive.interactive->mean_response_ns,
            10 * proactive.interactive->mean_response_ns);
  EXPECT_GT(reactive.kernel.daemon_pages_stolen, 0u);
  EXPECT_EQ(proactive.kernel.daemon_pages_stolen, 0u);
}

// --- adaptive recompilation --------------------------------------------------------

TEST(AdaptiveTest, UnknownBoundNestsAreRespecializedOnEntry) {
  ExperimentSpec spec;
  spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  spec.workload = MakeCgm(0.08, 1);
  spec.version = AppVersion::kBuffered;
  spec.adaptive = true;
  const ExperimentResult adaptive = RunExperiment(spec);
  ASSERT_TRUE(adaptive.completed);
  EXPECT_GT(adaptive.app.interp.adaptive_recompiles, 0u);

  spec.adaptive = false;
  const ExperimentResult fixed = RunExperiment(spec);
  ASSERT_TRUE(fixed.completed);
  EXPECT_EQ(fixed.app.interp.adaptive_recompiles, 0u);
  // Strip-mined hint emission checks far fewer hints than per-iteration.
  const uint64_t adaptive_hints =
      adaptive.app.runtime->prefetch_hints + adaptive.app.runtime->release_hints;
  const uint64_t fixed_hints =
      fixed.app.runtime->prefetch_hints + fixed.app.runtime->release_hints;
  EXPECT_LT(adaptive_hints, fixed_hints / 2);
  // And the user-time overhead shrinks while page traffic stays comparable.
  EXPECT_LT(adaptive.app.times.user, fixed.app.times.user);
  EXPECT_LT(adaptive.swap_reads, fixed.swap_reads * 3 / 2 + 100);
}

TEST(AdaptiveTest, KnownBoundWorkloadsAreUnaffected) {
  ExperimentSpec spec;
  spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  spec.workload = MakeMatvec(0.1);  // bounds known: nothing to respecialize
  spec.version = AppVersion::kBuffered;
  spec.adaptive = true;
  const ExperimentResult result = RunExperiment(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.app.interp.adaptive_recompiles, 0u);
}

// --- threshold notification ----------------------------------------------------------

TEST(ThresholdNotifyTest, HeaderRefreshesWhenFreeMemoryMovesPastThreshold) {
  MachineConfig config = TestMachine(64);
  config.tunables.shared_header_notify_threshold = 8;
  Kernel kernel(config);
  AddressSpace* a = MakeSwapAs(kernel, "a", 8);
  a->AttachPagingDirected(0, 8);
  ScriptProgram pa({Op::Touch(0, false, 0)});
  Thread* ta = kernel.Spawn("ta", a, &pa);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({ta}));
  const int64_t limit_before = a->bitmap()->upper_limit();

  // Another process consumes 16 pages (> threshold): A's header refreshes
  // WITHOUT any activity of its own — unlike the paper's lazy default.
  AddressSpace* b = MakeAnonAs(kernel, "b", 16);
  std::vector<Op> ops;
  for (VPage p = 0; p < 16; ++p) {
    ops.push_back(Op::Touch(p, true, 0));
  }
  ScriptProgram pb(ops);
  Thread* tb = kernel.Spawn("tb", b, &pb);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({tb}));
  EXPECT_LT(a->bitmap()->upper_limit(), limit_before);
}

TEST(ThresholdNotifyTest, SmallChangesDoNotTriggerRefresh) {
  MachineConfig config = TestMachine(64);
  config.tunables.shared_header_notify_threshold = 8;
  Kernel kernel(config);
  AddressSpace* a = MakeSwapAs(kernel, "a", 8);
  a->AttachPagingDirected(0, 8);
  ScriptProgram pa({Op::Touch(0, false, 0)});
  Thread* ta = kernel.Spawn("ta", a, &pa);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({ta}));
  const int64_t limit_before = a->bitmap()->upper_limit();

  AddressSpace* b = MakeAnonAs(kernel, "b", 4);  // below the threshold
  std::vector<Op> ops;
  for (VPage p = 0; p < 4; ++p) {
    ops.push_back(Op::Touch(p, true, 0));
  }
  ScriptProgram pb(ops);
  Thread* tb = kernel.Spawn("tb", b, &pb);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({tb}));
  EXPECT_EQ(a->bitmap()->upper_limit(), limit_before);  // still stale, as lazily
}

// --- local replacement ----------------------------------------------------------------

TEST(LocalReplacementTest, ProcessAtPartitionEvictsItself) {
  MachineConfig config = TestMachine(64);
  config.tunables.local_partition_pages = 8;
  Kernel kernel(config);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 24);
  std::vector<Op> ops;
  for (VPage p = 0; p < 24; ++p) {
    ops.push_back(Op::Touch(p, false, 10 * kUsec));
  }
  ScriptProgram program(ops);
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  EXPECT_LE(as->page_table().resident_count(), 8);
  EXPECT_GT(kernel.stats().local_evictions, 0u);
  // Memory was never short, so global replacement stayed out of it.
  EXPECT_EQ(kernel.stats().daemon_pages_stolen, 0u);
}

TEST(LocalReplacementTest, OtherProcessesPagesAreNeverTouched) {
  MachineConfig config = TestMachine(64);
  config.tunables.local_partition_pages = 8;
  Kernel kernel(config);
  kernel.StartDaemons();
  // A small process establishes its working set first.
  AddressSpace* small = MakeAnonAs(kernel, "small", 4);
  std::vector<Op> small_ops;
  for (VPage p = 0; p < 4; ++p) {
    small_ops.push_back(Op::Touch(p, true, 0));
  }
  ScriptProgram small_program(small_ops);
  Thread* ts = kernel.Spawn("small", small, &small_program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({ts}));

  AddressSpace* hog = MakeSwapAs(kernel, "hog", 48);
  std::vector<Op> hog_ops;
  for (VPage p = 0; p < 48; ++p) {
    hog_ops.push_back(Op::Touch(p, false, 10 * kUsec));
  }
  ScriptProgram hog_program(hog_ops);
  Thread* th = kernel.Spawn("hog", hog, &hog_program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({th}));
  // The small process kept every page; the hog only ever evicted itself.
  EXPECT_EQ(small->page_table().resident_count(), 4);
  EXPECT_EQ(small->stats().pages_stolen_from, 0u);
  EXPECT_GT(hog->stats().pages_stolen_from, 0u);
}

TEST(LocalReplacementTest, PrefetchesBeyondPartitionAreDropped) {
  MachineConfig config = TestMachine(64);
  config.tunables.local_partition_pages = 4;
  Kernel kernel(config);
  kernel.StartDaemons();
  AddressSpace* as = MakeSwapAs(kernel, "as", 16);
  as->AttachPagingDirected(0, 16);
  std::vector<Op> ops;
  for (VPage p = 0; p < 4; ++p) {
    ops.push_back(Op::Touch(p, false, 0));
  }
  ops.push_back(Op::Prefetch(10));  // at the cap: must be dropped, not evict
  ScriptProgram program(ops);
  Thread* t = kernel.Spawn("t", as, &program);
  ASSERT_TRUE(kernel.RunUntilThreadsDone({t}));
  EXPECT_EQ(kernel.stats().prefetch_dropped, 1u);
  EXPECT_EQ(as->page_table().resident_count(), 4);
  EXPECT_EQ(kernel.stats().local_evictions, 0u);
}

// --- multiprogrammed experiments --------------------------------------------------------

TEST(MultiExperimentTest, TwoAppsRunToCompletionWithPerAppMetrics) {
  MultiExperimentSpec spec;
  spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  spec.apps.push_back({MakeEmbar(0.08), AppVersion::kBuffered, {}, false});
  spec.apps.push_back({MakeBuk(0.08, 3), AppVersion::kBuffered, {}, false});
  const MultiExperimentResult result = RunMultiExperiment(spec);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.apps.size(), 2u);
  EXPECT_GT(result.apps[0].interp.iterations, 0u);
  EXPECT_GT(result.apps[1].interp.iterations, 0u);
  EXPECT_GT(result.apps[0].wall, 0);
}

TEST(MultiExperimentTest, TwoReleasingHogsKeepDaemonIdle) {
  MultiExperimentSpec spec;
  spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  spec.apps.push_back({MakeMatvec(0.08), AppVersion::kRelease, {}, false});
  spec.apps.push_back({MakeEmbar(0.08), AppVersion::kRelease, {}, false});
  const MultiExperimentResult result = RunMultiExperiment(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.kernel.daemon_pages_stolen, 0u);
  EXPECT_GT(result.kernel.releaser_pages_freed, 0u);
}

TEST(MultiExperimentTest, DuplicateWorkloadNamesAreDisambiguated) {
  MultiExperimentSpec spec;
  spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  spec.apps.push_back({MakeEmbar(0.05), AppVersion::kBuffered, {}, false});
  spec.apps.push_back({MakeEmbar(0.05), AppVersion::kBuffered, {}, false});
  const MultiExperimentResult result = RunMultiExperiment(spec);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.apps.size(), 2u);
}

}  // namespace
}  // namespace tmh
