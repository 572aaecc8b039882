// Property-based tests: randomized program structures and op mixes must
// preserve the system's core invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "src/compiler/compile.h"
#include "src/core/experiment.h"
#include "src/runtime/interpreter.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/workloads/workloads.h"
#include "tests/testutil.h"

namespace tmh {
namespace {

constexpr int64_t kPage = 16 * 1024;

// --- Interpreter vs naive reference on random nests -----------------------------

// Builds a random (1-3)-deep nest over 1-3 arrays with random strides and
// constants; occasionally negative strides and multi-ref groups.
SourceProgram RandomProgram(uint64_t seed) {
  Rng rng(seed);
  SourceProgram p;
  p.name = "random";
  p.text_pages = 0;
  const int num_arrays = static_cast<int>(rng.NextBelow(3)) + 1;
  for (int a = 0; a < num_arrays; ++a) {
    const int64_t elements = 2048 * static_cast<int64_t>(rng.NextBelow(6) + 2);
    p.arrays.push_back({"a" + std::to_string(a), 8, elements, true, nullptr});
  }
  const int num_nests = static_cast<int>(rng.NextBelow(2)) + 1;
  for (int n = 0; n < num_nests; ++n) {
    LoopNest nest;
    const int depth = static_cast<int>(rng.NextBelow(3)) + 1;
    std::vector<int64_t> trips;
    for (int d = 0; d < depth; ++d) {
      const int64_t trip = static_cast<int64_t>(rng.NextBelow(d + 1 == depth ? 4096 : 12)) + 2;
      trips.push_back(trip);
      nest.loops.push_back(Loop{"v" + std::to_string(d), 0, trip, 1, rng.NextBelow(2) == 0});
    }
    const int num_refs = static_cast<int>(rng.NextBelow(3)) + 1;
    for (int r = 0; r < num_refs; ++r) {
      ArrayRef ref;
      ref.array = static_cast<int32_t>(rng.NextBelow(p.arrays.size()));
      const ArrayDecl& array = p.arrays[static_cast<size_t>(ref.array)];
      ref.affine.coeffs.assign(static_cast<size_t>(depth), 0);
      // Innermost coefficient: -2..2 (0 = invariant).
      ref.affine.coeffs.back() = rng.NextInRange(-2, 2);
      if (depth > 1 && rng.NextBelow(2) == 0) {
        ref.affine.coeffs[0] = rng.NextInRange(0, 3) * trips.back();
      }
      // Keep the walk inside the array.
      int64_t max_reach = std::abs(ref.affine.coeffs.back()) * trips.back();
      if (depth > 1) {
        max_reach += std::abs(ref.affine.coeffs[0]) * trips[0];
      }
      if (max_reach >= array.num_elements) {
        ref.affine.coeffs.back() = (ref.affine.coeffs.back() < 0) ? -1 : 1;
        ref.affine.coeffs[0] = 0;
      }
      ref.affine.constant =
          (ref.affine.coeffs.back() < 0) ? array.num_elements - 1 : rng.NextInRange(0, 64);
      ref.is_write = rng.NextBelow(2) == 0;
      nest.refs.push_back(ref);
    }
    nest.compute_per_iteration = static_cast<SimDuration>(rng.NextBelow(50) + 1);
    p.nests.push_back(std::move(nest));
  }
  p.repeat = static_cast<int64_t>(rng.NextBelow(2)) + 1;
  return p;
}

// Seeds above kWideSeedBase draw WideRandomCase; lower seeds keep
// RandomProgram's programs.
constexpr uint64_t kWideSeedBase = 1000;

// A random program plus the page size it is compiled for.
struct EquivalenceCase {
  SourceProgram program;
  int64_t page_size = CompilerTarget{}.page_size;
};

// Draws what RandomProgram leaves out: indirect refs through random index
// arrays (whose values may fall outside the data array), refs whose reach runs
// past either end of their array so they clamp, compiler-invisible runtime
// expressions, loop steps of 2-3 over bounds that are not a multiple of the
// step, element sizes that do not divide the page, and 4-64 KB pages.
EquivalenceCase WideRandomCase(uint64_t seed) {
  Rng rng(seed);
  EquivalenceCase c;
  constexpr int64_t kPageSizes[] = {4 * 1024, 8 * 1024, 16 * 1024, 64 * 1024};
  c.page_size = kPageSizes[rng.NextBelow(4)];
  SourceProgram& p = c.program;
  p.name = "wide";
  p.text_pages = 0;
  constexpr int64_t kElementSizes[] = {4, 8, 16, 24};
  const int num_data = static_cast<int>(rng.NextBelow(3)) + 1;
  for (int a = 0; a < num_data; ++a) {
    const int64_t element_size = kElementSizes[rng.NextBelow(4)];
    // Half the arrays are small, so walks often run off their end; a third
    // end exactly on a page boundary, where an off-by-one clamp shows.
    int64_t elements =
        rng.NextBelow(2) == 0 ? rng.NextInRange(1, 3000) : rng.NextInRange(2048, 16384);
    if (rng.NextBelow(3) == 0) {
      elements = rng.NextInRange(1, 4) * c.page_size / std::gcd(c.page_size, element_size);
    }
    p.arrays.push_back({"a" + std::to_string(a), element_size, elements, true, nullptr});
  }
  const int num_index = static_cast<int>(rng.NextBelow(3));
  for (int a = 0; a < num_index; ++a) {
    const int64_t n = rng.NextInRange(1, 4096);
    auto values = std::make_shared<std::vector<int64_t>>();
    for (int64_t i = 0; i < n; ++i) {
      values->push_back(rng.NextInRange(-64, 20000));
    }
    p.arrays.push_back({"idx" + std::to_string(a), 8, n, true, values});
  }
  const int num_nests = static_cast<int>(rng.NextBelow(2)) + 1;
  for (int n = 0; n < num_nests; ++n) {
    LoopNest nest;
    const int depth = static_cast<int>(rng.NextBelow(3)) + 1;
    for (int d = 0; d < depth; ++d) {
      const int64_t lower = rng.NextInRange(0, 5);
      const int64_t step = rng.NextInRange(1, 3);
      const int64_t trips = rng.NextInRange(2, d + 1 == depth ? 3000 : 7);
      const int64_t upper = lower + trips * step - rng.NextInRange(0, step - 1);
      const bool known = rng.NextBelow(2) == 0;
      nest.loops.push_back(Loop{"v" + std::to_string(d), lower, upper, step, known});
    }
    const int num_refs = static_cast<int>(rng.NextBelow(4)) + 1;
    for (int r = 0; r < num_refs; ++r) {
      ArrayRef ref;
      const auto random_expr = [&](int64_t extent) {
        AffineExpr expr;
        for (int d = 0; d < depth; ++d) {
          expr.coeffs.push_back(d + 1 == depth ? rng.NextInRange(-3, 3)
                                               : rng.NextInRange(-2, 4) * rng.NextInRange(1, 300));
        }
        expr.constant = rng.NextInRange(-100, extent + 100);
        return expr;
      };
      if (num_index > 0 && rng.NextBelow(3) == 0) {
        ref.array = static_cast<int32_t>(rng.NextBelow(static_cast<uint64_t>(num_data)));
        ref.index_array = static_cast<int32_t>(
            num_data + static_cast<int>(rng.NextBelow(static_cast<uint64_t>(num_index))));
      } else {
        ref.array = static_cast<int32_t>(rng.NextBelow(p.arrays.size()));
      }
      const int32_t subscripted = ref.IsIndirect() ? ref.index_array : ref.array;
      const int64_t extent = p.arrays[static_cast<size_t>(subscripted)].num_elements;
      ref.affine = random_expr(extent);
      if (rng.NextBelow(4) == 0) {
        ref.runtime_affine = std::make_shared<AffineExpr>(random_expr(extent));
      }
      ref.is_write = rng.NextBelow(2) == 0;
      nest.refs.push_back(std::move(ref));
    }
    nest.compute_per_iteration = static_cast<SimDuration>(rng.NextBelow(50) + 1);
    p.nests.push_back(std::move(nest));
  }
  p.repeat = static_cast<int64_t>(rng.NextBelow(2)) + 1;
  return c;
}

EquivalenceCase EquivalenceCaseFor(uint64_t seed) {
  if (seed > kWideSeedBase) {
    return WideRandomCase(seed);
  }
  return EquivalenceCase{RandomProgram(seed)};
}

// Reference: per-iteration walk recording first-touch-per-page transitions,
// each with its ref's load/store kind. Evaluates the runtime expression, reads
// indirect subscripts through their index array, and clamps like the
// interpreter does.
std::vector<std::pair<VPage, bool>> NaiveTouches(const SourceProgram& program,
                                                 const ArrayLayout& layout) {
  std::vector<std::pair<VPage, bool>> touches;
  for (int64_t rep = 0; rep < program.repeat; ++rep) {
    for (const LoopNest& nest : program.nests) {
      std::vector<int64_t> last_page(nest.refs.size(), -1);
      std::vector<int64_t> ivs;
      bool empty = false;
      for (const Loop& loop : nest.loops) {
        ivs.push_back(loop.lower);
        empty = empty || loop.upper <= loop.lower;
      }
      if (empty) {
        continue;
      }
      bool done = false;
      while (!done) {
        for (size_t r = 0; r < nest.refs.size(); ++r) {
          const ArrayRef& ref = nest.refs[r];
          const ArrayDecl& array = program.arrays[static_cast<size_t>(ref.array)];
          const AffineExpr& expr =
              ref.runtime_affine != nullptr ? *ref.runtime_affine : ref.affine;
          int64_t element = expr.Eval(ivs);
          if (ref.IsIndirect()) {
            const auto& values =
                *program.arrays[static_cast<size_t>(ref.index_array)].index_values;
            element = values[static_cast<size_t>(
                std::clamp<int64_t>(element, 0, static_cast<int64_t>(values.size()) - 1))];
          }
          element = std::clamp<int64_t>(element, 0, array.num_elements - 1);
          const int64_t page = layout.PageOf(ref.array, element);
          if (page != last_page[r]) {
            last_page[r] = page;
            touches.emplace_back(page, ref.is_write);
          }
        }
        size_t d = nest.loops.size();
        while (true) {
          if (d-- == 0) {
            done = true;
            break;
          }
          ivs[d] += nest.loops[d].step;
          if (ivs[d] < nest.loops[d].upper) {
            break;
          }
          if (d == 0) {
            done = true;
            break;
          }
          ivs[d] = nest.loops[d].lower;
        }
      }
    }
  }
  return touches;
}

class InterpreterEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InterpreterEquivalenceTest, BatchedTouchSequenceMatchesNaiveWalk) {
  const EquivalenceCase equivalence = EquivalenceCaseFor(GetParam());
  const SourceProgram& source = equivalence.program;
  CompilerTarget target;
  target.page_size = equivalence.page_size;
  const CompiledProgram program = Compile(source, target, CompileOptions{false, false});
  Kernel kernel(TestMachine());
  AddressSpace* as = MakeSwapAs(kernel, "as", program.layout.total_pages());
  Interpreter interp(&program, as, nullptr);
  std::vector<std::pair<VPage, bool>> touches;
  SimDuration compute = 0;
  for (int64_t guard = 0; guard < 100'000'000; ++guard) {
    const Op op = interp.Next(kernel);
    if (op.kind == Op::Kind::kExit) {
      break;
    }
    if (op.kind == Op::Kind::kTouch) {
      touches.emplace_back(op.vpage, op.is_write);
    } else if (op.kind == Op::Kind::kCompute) {
      compute += op.duration;
    } else {
      // A hint-free program emits only per-page touches and computes.
      FAIL() << "unexpected op kind " << static_cast<int>(op.kind);
    }
  }
  EXPECT_EQ(touches, NaiveTouches(source, program.layout));
  // Total compute equals iterations * per-iteration cost; a loop makes
  // ceil((upper - lower) / step) trips.
  int64_t expected_compute = 0;
  for (const LoopNest& nest : source.nests) {
    int64_t iterations = 1;
    for (const Loop& loop : nest.loops) {
      iterations *= std::max<int64_t>(0, (loop.upper - loop.lower + loop.step - 1) / loop.step);
    }
    expected_compute += iterations * source.repeat * nest.compute_per_iteration;
  }
  EXPECT_EQ(compute, expected_compute);
}

INSTANTIATE_TEST_SUITE_P(RandomNests, InterpreterEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 33));
INSTANTIATE_TEST_SUITE_P(WideNests, InterpreterEquivalenceTest,
                         ::testing::Range<uint64_t>(kWideSeedBase + 1, kWideSeedBase + 33));

// --- Frame conservation under random multiprogramming ----------------------------

class FrameConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrameConservationTest, FramesNeverLeakOrDuplicate) {
  MachineConfig config = TestMachine(24);
  Kernel kernel(config);
  kernel.StartDaemons();
  Rng rng(GetParam());

  // Two competing processes with random touch/release scripts.
  std::vector<std::unique_ptr<ScriptProgram>> programs;
  std::vector<Thread*> threads;
  for (int i = 0; i < 2; ++i) {
    AddressSpace* as = MakeSwapAs(kernel, "p" + std::to_string(i), 32);
    as->AttachPagingDirected(0, 32);
    std::vector<Op> ops;
    for (int step = 0; step < 300; ++step) {
      const auto page = static_cast<VPage>(rng.NextBelow(32));
      switch (rng.NextBelow(4)) {
        case 0:
        case 1:
          ops.push_back(Op::Touch(page, rng.NextBelow(2) == 0, 20 * kUsec));
          break;
        case 2:
          ops.push_back(Op::Release(page, static_cast<int64_t>(rng.NextBelow(4)) + 1,
                                    static_cast<int32_t>(rng.NextBelow(3)),
                                    static_cast<int32_t>(rng.NextBelow(5))));
          break;
        case 3:
          ops.push_back(Op::Prefetch((page + 1) % 32));
          break;
      }
    }
    programs.push_back(std::make_unique<ScriptProgram>(std::move(ops)));
    threads.push_back(kernel.Spawn("p" + std::to_string(i), as, programs.back().get()));
  }
  ASSERT_TRUE(kernel.RunUntilThreadsDone(threads, 10'000'000));
  // Let in-flight writebacks drain.
  kernel.RunUntilDone([&] {
    for (FrameId f = 0; f < kernel.frames().size(); ++f) {
      if (kernel.frames().at(f).io_busy) {
        return false;
      }
    }
    return true;
  });

  // Conservation: every frame is exactly one of {free, mapped}.
  int64_t mapped = 0;
  for (FrameId f = 0; f < kernel.frames().size(); ++f) {
    const Frame& frame = kernel.frames().at(f);
    EXPECT_FALSE(frame.mapped && kernel.frame_pool().Contains(f))
        << "frame " << f << " is both mapped and free";
    mapped += frame.mapped ? 1 : 0;
  }
  EXPECT_EQ(mapped + kernel.FreePages(), kernel.frames().size());

  // Page tables agree with the frame table.
  for (const auto& as : kernel.address_spaces()) {
    int64_t resident = 0;
    for (VPage p = 0; p < as->num_pages(); ++p) {
      const Pte& pte = as->page_table().at(p);
      if (pte.resident) {
        ++resident;
        const Frame& frame = kernel.frames().at(pte.frame);
        EXPECT_EQ(frame.owner, as->id());
        EXPECT_EQ(frame.vpage, p);
        EXPECT_TRUE(frame.mapped);
      }
    }
    EXPECT_EQ(resident, as->page_table().resident_count());
    // Bitmap agrees with residency for PM-attached spaces.
    if (as->HasPagingDirected()) {
      for (VPage p = 0; p < as->num_pages(); ++p) {
        const Pte& pte = as->page_table().at(p);
        if (pte.resident && pte.valid) {
          EXPECT_TRUE(as->bitmap()->Test(p)) << "page " << p;
        }
        if (!pte.resident && pte.frame == kNoFrame) {
          EXPECT_FALSE(as->bitmap()->Test(p)) << "page " << p;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameConservationTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --- Whole-experiment determinism across every benchmark -------------------------

class DeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismTest, IdenticalStatsForIdenticalRuns) {
  const WorkloadInfo& info = AllWorkloads()[static_cast<size_t>(GetParam())];
  auto run = [&] {
    ExperimentSpec spec;
    spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
    spec.workload = info.factory(0.08);
    spec.version = AppVersion::kRelease;
    spec.with_interactive = true;
    spec.interactive.sleep_time = kSec;
    return RunExperiment(spec);
  };
  const ExperimentResult a = run();
  const ExperimentResult b = run();
  EXPECT_EQ(a.app.wall, b.app.wall) << info.name;
  EXPECT_EQ(a.swap_reads, b.swap_reads);
  EXPECT_EQ(a.swap_writes, b.swap_writes);
  EXPECT_EQ(a.kernel.daemon_pages_stolen, b.kernel.daemon_pages_stolen);
  EXPECT_EQ(a.kernel.releaser_pages_freed, b.kernel.releaser_pages_freed);
  EXPECT_EQ(a.app.faults.hard_faults, b.app.faults.hard_faults);
  EXPECT_EQ(a.app.faults.soft_faults, b.app.faults.soft_faults);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, DeterminismTest, ::testing::Range(0, 6));

// --- Version monotonicity across benchmarks --------------------------------------

class VersionOrderingTest : public ::testing::TestWithParam<int> {};

TEST_P(VersionOrderingTest, PrefetchingNeverSlowsTheAppDown) {
  const WorkloadInfo& info = AllWorkloads()[static_cast<size_t>(GetParam())];
  auto run = [&](AppVersion version) {
    ExperimentSpec spec;
    spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
    spec.workload = info.factory(0.08);
    spec.version = version;
    return RunExperiment(spec);
  };
  const ExperimentResult o = run(AppVersion::kOriginal);
  const ExperimentResult p = run(AppVersion::kPrefetch);
  ASSERT_TRUE(o.completed && p.completed);
  // At this tiny test scale some data sets barely exceed memory, where
  // prefetching's overhead can rival its benefit; allow modest slack there
  // while still catching real regressions.
  EXPECT_LT(p.app.times.Execution(),
            o.app.times.Execution() + o.app.times.Execution() / 4)
      << info.name;
}

TEST_P(VersionOrderingTest, ReleasingKeepsDaemonQuieterThanPrefetchAlone) {
  const WorkloadInfo& info = AllWorkloads()[static_cast<size_t>(GetParam())];
  auto run = [&](AppVersion version) {
    ExperimentSpec spec;
    spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
    spec.workload = info.factory(0.08);
    spec.version = version;
    return RunExperiment(spec);
  };
  const ExperimentResult p = run(AppVersion::kPrefetch);
  const ExperimentResult r = run(AppVersion::kRelease);
  ASSERT_TRUE(p.completed && r.completed);
  // Table 3: the daemon steals far less when the app releases.
  EXPECT_LE(r.kernel.daemon_pages_stolen, p.kernel.daemon_pages_stolen) << info.name;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, VersionOrderingTest, ::testing::Range(0, 6));

// --- adaptive recompilation preserves program semantics ---------------------------

class AdaptiveEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(AdaptiveEquivalenceTest, SamePageTrafficAndIterations) {
  // Re-specializing hints at nest entry must never change WHAT the program
  // touches — only how efficiently the hints are evaluated.
  const WorkloadInfo& info = AllWorkloads()[static_cast<size_t>(GetParam())];
  auto run = [&](bool adaptive) {
    ExperimentSpec spec;
    spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
    spec.workload = info.factory(0.08);
    spec.version = AppVersion::kRelease;
    spec.adaptive = adaptive;
    return RunExperiment(spec);
  };
  const ExperimentResult fixed = run(false);
  const ExperimentResult adaptive = run(true);
  ASSERT_TRUE(fixed.completed && adaptive.completed) << info.name;
  EXPECT_EQ(adaptive.app.interp.iterations, fixed.app.interp.iterations) << info.name;
  EXPECT_EQ(adaptive.app.interp.page_touches, fixed.app.interp.page_touches) << info.name;
  EXPECT_EQ(adaptive.app.interp.nests_entered, fixed.app.interp.nests_entered) << info.name;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, AdaptiveEquivalenceTest, ::testing::Range(0, 6));

// --- the release machinery never loses data ----------------------------------------

class DataIntegrityTest : public ::testing::TestWithParam<int> {};

TEST_P(DataIntegrityTest, EveryDirtyEvictionIsWrittenBack) {
  // Pages dirtied by the app must reach swap before their frames are reused:
  // at any quiescent point, writes issued >= frames whose dirty contents were
  // displaced. We check the global balance: every reclaim of a dirty frame
  // accounts for exactly one swap write.
  const WorkloadInfo& info = AllWorkloads()[static_cast<size_t>(GetParam())];
  ExperimentSpec spec;
  spec.machine.user_memory_bytes = static_cast<int64_t>(7.5 * 1024 * 1024);
  spec.workload = info.factory(0.08);
  spec.version = AppVersion::kRelease;
  const ExperimentResult result = RunExperiment(spec);
  ASSERT_TRUE(result.completed) << info.name;
  EXPECT_EQ(result.swap_writes, result.kernel.writebacks) << info.name;
  // And reads never exceed what was materialized on swap (initial on-disk
  // data plus written-back pages).
  int64_t on_disk_pages = 0;
  for (const ArrayDecl& array : spec.workload.arrays) {
    if (array.on_disk) {
      on_disk_pages += (array.size_bytes() + 16383) / 16384;
    }
  }
  // Each on-disk page can be read multiple times, but a page never written
  // nor preloaded cannot be read at all; sanity-bound the total.
  EXPECT_LE(result.swap_reads,
            static_cast<uint64_t>(on_disk_pages) * 50 + result.swap_writes * 50 + 1000)
      << info.name;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, DataIntegrityTest, ::testing::Range(0, 6));

// --- Event queue: ordering and determinism under random churn -------------------

// The executed order of randomly-timed events, including the same-time and
// later ones that running actions post, must equal a stable sort of every
// posted event by timestamp (stable = FIFO within a tick).
class EventQueueOrderingTest : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueOrderingTest, MatchesStableSortReference) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  EventQueue q;
  std::vector<SimTime> posted;  // each event's time, in posting order
  std::vector<int> executed;
  std::function<void(SimTime)> post = [&](SimTime when) {
    const int seq = static_cast<int>(posted.size());
    posted.push_back(when);
    q.ScheduleAt(when, [&, seq] {
      executed.push_back(seq);
      // Same-time children refill the running bucket; later ones land on
      // higher wheel levels and cascade back down.
      static constexpr SimDuration kDelays[] = {0, 0, 1, 70, 5000};
      if (posted.size() < 600 && rng.NextBelow(3) == 0) {
        post(q.Now() + kDelays[rng.NextBelow(5)]);
      }
    });
  };
  for (int i = 0; i < 300; ++i) {
    // Narrow time range → many collisions → the FIFO path is exercised hard.
    post(static_cast<SimTime>(rng.NextBelow(64)));
  }
  q.RunToCompletion();

  std::vector<int> reference(posted.size());
  std::iota(reference.begin(), reference.end(), 0);
  std::stable_sort(reference.begin(), reference.end(),
                   [&posted](int a, int b) { return posted[a] < posted[b]; });
  ASSERT_EQ(executed.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(executed[i], reference[i]) << "position " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOrderingTest, ::testing::Range(0, 8));

// Handlers that schedule more work and withdraw some of it mid-run must yield
// the identical execution trace on a re-run with the same seed (the
// simulator's determinism rests on this). The queue has no cancellation, so a
// withdrawn event still fires and finds its tag withdrawn.
class EventQueueChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueChurnTest, DeterministicUnderScheduleCancelChurn) {
  auto run = [seed = GetParam()] {
    Rng rng(static_cast<uint64_t>(seed) * 104729 + 5);
    EventQueue q;
    std::vector<std::pair<SimTime, int>> trace;
    std::vector<int> pending;
    std::vector<bool> withdrawn(1, false);  // by tag; tags start at 1
    std::function<void(int)> handler = [&](int tag) {
      if (withdrawn[static_cast<size_t>(tag)]) {
        return;
      }
      trace.emplace_back(q.Now(), tag);
      if (trace.size() > 2000) {
        return;  // bound the run
      }
      const uint64_t roll = rng.NextBelow(10);
      if (roll < 6) {
        const SimTime delta = static_cast<SimTime>(rng.NextBelow(20));
        const int t = static_cast<int>(withdrawn.size());
        withdrawn.push_back(false);
        q.ScheduleAfter(delta, [&handler, t] { handler(t); });
        pending.push_back(t);
      }
      if (roll >= 4 && !pending.empty()) {
        const size_t victim = rng.NextBelow(pending.size());
        withdrawn[static_cast<size_t>(pending[victim])] = true;  // may have run already
        pending.erase(pending.begin() + static_cast<ptrdiff_t>(victim));
      }
    };
    for (int i = 0; i < 50; ++i) {
      const int t = static_cast<int>(withdrawn.size());
      withdrawn.push_back(false);
      q.ScheduleAt(static_cast<SimTime>(rng.NextBelow(30)), [&handler, t] { handler(t); });
      pending.push_back(t);
    }
    q.RunToCompletion(10000);
    return trace;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueChurnTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace tmh
