// Tests for the interpreter: the op stream it generates must match a naive
// per-iteration walk of the loop nest, page for page and load/store for
// load/store, and the compiler's hint sites must fire at the right places.

#include "src/runtime/interpreter.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/compiler/compile.h"
#include "src/sim/rng.h"
#include "tests/testutil.h"

namespace tmh {
namespace {

constexpr int64_t kPage = 16 * 1024;

CompilerTarget Target() {
  CompilerTarget target;
  target.memory_bytes = 64 * kPage;
  return target;
}

// One page touch: the page, and whether the access is a store.
using Touch = std::pair<VPage, bool>;

// Collects the interpreter's op stream without running a kernel.
struct OpTrace {
  std::vector<Touch> touches;
  SimDuration total_compute = 0;
  std::vector<VPage> releases;
  int64_t ops = 0;
};

OpTrace Drain(const CompiledProgram& program, Kernel& kernel, AddressSpace* as,
              RuntimeLayer* runtime) {
  Interpreter interp(&program, as, runtime);
  OpTrace trace;
  for (int64_t guard = 0; guard < 50'000'000; ++guard) {
    const Op op = interp.Next(kernel);
    if (op.kind == Op::Kind::kExit) {
      return trace;
    }
    ++trace.ops;
    switch (op.kind) {
      case Op::Kind::kTouch:
        trace.touches.emplace_back(op.vpage, op.is_write);
        trace.total_compute += op.duration;
        break;
      case Op::Kind::kCompute:
        trace.total_compute += op.duration;
        break;
      case Op::Kind::kRelease:
        trace.releases.push_back(op.vpage);
        break;
      default:
        // The interpreter emits one op per page crossing and nothing batched;
        // any other kind would slip past the naive-walk comparison.
        ADD_FAILURE() << "unexpected op kind " << static_cast<int>(op.kind);
        return trace;
    }
  }
  ADD_FAILURE() << "interpreter did not terminate";
  return trace;
}

// Naive reference: the page-touch sequence a one-iteration-at-a-time walk
// would produce (first touch of each page per ref, in iteration order, with
// the ref's load/store kind).
std::vector<Touch> NaiveTouches(const SourceProgram& program, const ArrayLayout& layout) {
  std::vector<Touch> touches;
  std::vector<int64_t> last_page;
  for (int64_t rep = 0; rep < program.repeat; ++rep) {
    for (const LoopNest& nest : program.nests) {
      last_page.assign(nest.refs.size(), -1);
      std::vector<int64_t> ivs;
      bool empty = false;
      for (const Loop& loop : nest.loops) {
        ivs.push_back(loop.lower);
        empty = empty || loop.upper <= loop.lower;
      }
      if (empty) {
        continue;
      }
      while (true) {
        for (size_t r = 0; r < nest.refs.size(); ++r) {
          const ArrayRef& ref = nest.refs[r];
          const AffineExpr& expr =
              ref.runtime_affine != nullptr ? *ref.runtime_affine : ref.affine;
          int64_t element = expr.Eval(ivs);
          if (ref.IsIndirect()) {
            const auto& values =
                *program.arrays[static_cast<size_t>(ref.index_array)].index_values;
            element = values[static_cast<size_t>(
                std::clamp<int64_t>(element, 0, static_cast<int64_t>(values.size()) - 1))];
          }
          const ArrayDecl& array = program.arrays[static_cast<size_t>(ref.array)];
          element = std::clamp<int64_t>(element, 0, array.num_elements - 1);
          const int64_t page = layout.PageOf(ref.array, element);
          if (page != last_page[r]) {
            last_page[r] = page;
            touches.emplace_back(page, ref.is_write);
          }
        }
        // Odometer.
        size_t d = nest.loops.size();
        while (d-- > 0) {
          ivs[d] += nest.loops[d].step;
          if (ivs[d] < nest.loops[d].upper) {
            break;
          }
          if (d == 0) {
            goto nest_done;
          }
          ivs[d] = nest.loops[d].lower;
        }
      }
    nest_done:;
    }
  }
  return touches;
}

SourceProgram TwoArrayProgram(bool known_bounds) {
  SourceProgram p;
  p.name = "two";
  p.arrays = {{"a", 8, 3 * 2048, true, nullptr}, {"b", 8, 3 * 2048, true, nullptr}};
  LoopNest nest;
  nest.loops = {Loop{"i", 0, 3 * 2048, 1, known_bounds}};
  ArrayRef a;
  a.array = 0;
  a.affine.coeffs = {1};
  ArrayRef b;
  b.array = 1;
  b.affine.coeffs = {1};
  b.is_write = true;
  nest.refs = {a, b};
  nest.compute_per_iteration = 10 * kNsec;
  p.nests.push_back(nest);
  p.text_pages = 0;  // keep traces exact
  return p;
}

TEST(InterpreterTest, TouchSequenceMatchesNaiveWalk) {
  Kernel kernel(TestMachine());
  const SourceProgram source = TwoArrayProgram(true);
  const CompiledProgram program = Compile(source, Target(), CompileOptions{false, false});
  AddressSpace* as = MakeSwapAs(kernel, "as", program.layout.total_pages());
  const OpTrace trace = Drain(program, kernel, as, nullptr);
  EXPECT_EQ(trace.touches, NaiveTouches(source, program.layout));
  // 3 pages per array, interleaved a,b per crossing.
  EXPECT_EQ(trace.touches.size(), 6u);
}

TEST(InterpreterTest, TotalComputeMatchesIterationCount) {
  Kernel kernel(TestMachine());
  const SourceProgram source = TwoArrayProgram(true);
  const CompiledProgram program = Compile(source, Target(), CompileOptions{false, false});
  AddressSpace* as = MakeSwapAs(kernel, "as", program.layout.total_pages());
  const OpTrace trace = Drain(program, kernel, as, nullptr);
  EXPECT_EQ(trace.total_compute, 3 * 2048 * 10 * kNsec);
}

TEST(InterpreterTest, BatchingDoesNotChangeSemanticsForUnknownBounds) {
  Kernel kernel(TestMachine());
  const SourceProgram source = TwoArrayProgram(false);
  const CompiledProgram program = Compile(source, Target(), CompileOptions{false, false});
  AddressSpace* as = MakeSwapAs(kernel, "as", program.layout.total_pages());
  const OpTrace trace = Drain(program, kernel, as, nullptr);
  EXPECT_EQ(trace.touches, NaiveTouches(source, program.layout));
}

TEST(InterpreterTest, MultiDimNestMatchesNaiveWalk) {
  SourceProgram p;
  p.name = "grid";
  p.arrays = {{"g", 8, 64 * 700, true, nullptr}};
  LoopNest nest;
  nest.loops = {Loop{"i", 0, 64, 1, true}, Loop{"j", 0, 700, 1, true}};
  ArrayRef center;
  center.array = 0;
  center.affine.coeffs = {700, 1};
  ArrayRef next_row = center;
  next_row.affine.constant = 700;
  nest.refs = {center, next_row};
  nest.compute_per_iteration = kNsec;
  p.nests.push_back(nest);
  p.text_pages = 0;

  Kernel kernel(TestMachine());
  const CompiledProgram program = Compile(p, Target(), CompileOptions{false, false});
  AddressSpace* as = MakeSwapAs(kernel, "as", program.layout.total_pages());
  const OpTrace trace = Drain(program, kernel, as, nullptr);
  EXPECT_EQ(trace.touches, NaiveTouches(p, program.layout));
}

TEST(InterpreterTest, NegativeStrideMatchesNaiveWalk) {
  SourceProgram p;
  p.name = "reverse";
  p.arrays = {{"a", 8, 4 * 2048, true, nullptr}};
  LoopNest nest;
  nest.loops = {Loop{"i", 0, 4 * 2048, 1, true}};
  ArrayRef ref;
  ref.array = 0;
  ref.affine.coeffs = {-1};
  ref.affine.constant = 4 * 2048 - 1;  // sweep from the end downward
  nest.refs = {ref};
  nest.compute_per_iteration = kNsec;
  p.nests.push_back(nest);
  p.text_pages = 0;

  Kernel kernel(TestMachine());
  const CompiledProgram program = Compile(p, Target(), CompileOptions{false, false});
  AddressSpace* as = MakeSwapAs(kernel, "as", program.layout.total_pages());
  const OpTrace trace = Drain(program, kernel, as, nullptr);
  EXPECT_EQ(trace.touches, NaiveTouches(p, program.layout));
  EXPECT_EQ(trace.touches.size(), 4u);
  EXPECT_EQ(trace.touches.front().first, 3);  // last page first
}

TEST(InterpreterTest, IndirectRefsFollowIndexArrayValues) {
  SourceProgram p;
  p.name = "indirect";
  const int64_t n = 64;
  auto values = std::make_shared<std::vector<int64_t>>();
  Rng rng(99);
  for (int64_t i = 0; i < n; ++i) {
    values->push_back(static_cast<int64_t>(rng.NextBelow(8 * 2048)));
  }
  p.arrays = {{"data", 8, 8 * 2048, true, nullptr}, {"idx", 8, n, true, values}};
  LoopNest nest;
  nest.loops = {Loop{"i", 0, n, 1, false}};
  ArrayRef indirect;
  indirect.array = 0;
  indirect.index_array = 1;
  indirect.affine.coeffs = {1};
  ArrayRef idx;
  idx.array = 1;
  idx.affine.coeffs = {1};
  nest.refs = {indirect, idx};
  nest.compute_per_iteration = kNsec;
  p.nests.push_back(nest);
  p.text_pages = 0;

  Kernel kernel(TestMachine());
  const CompiledProgram program = Compile(p, Target(), CompileOptions{false, false});
  AddressSpace* as = MakeSwapAs(kernel, "as", program.layout.total_pages());
  const OpTrace trace = Drain(program, kernel, as, nullptr);
  EXPECT_EQ(trace.touches, NaiveTouches(p, program.layout));
}

TEST(InterpreterTest, RuntimeAffineOverridesCompilerView) {
  // Compiler-visible expression says "always page 0"; the runtime expression
  // marches. Touches must follow the truth.
  SourceProgram p;
  p.name = "deceptive";
  p.arrays = {{"a", 8, 4 * 2048, true, nullptr}};
  LoopNest nest;
  nest.loops = {Loop{"i", 0, 4 * 2048, 1, false}};
  ArrayRef ref;
  ref.array = 0;
  ref.affine.coeffs = {0};
  ref.runtime_affine = std::make_shared<AffineExpr>();
  ref.runtime_affine->coeffs = {1};
  nest.refs = {ref};
  nest.compute_per_iteration = kNsec;
  p.nests.push_back(nest);
  p.text_pages = 0;

  Kernel kernel(TestMachine());
  const CompiledProgram program = Compile(p, Target(), CompileOptions{false, false});
  AddressSpace* as = MakeSwapAs(kernel, "as", program.layout.total_pages());
  const OpTrace trace = Drain(program, kernel, as, nullptr);
  EXPECT_EQ(trace.touches.size(), 4u);  // marched through all four pages
}

TEST(InterpreterTest, RepeatRunsProgramAgain) {
  Kernel kernel(TestMachine());
  SourceProgram source = TwoArrayProgram(true);
  source.repeat = 3;
  const CompiledProgram program = Compile(source, Target(), CompileOptions{false, false});
  AddressSpace* as = MakeSwapAs(kernel, "as", program.layout.total_pages());
  const OpTrace trace = Drain(program, kernel, as, nullptr);
  EXPECT_EQ(trace.touches.size(), 18u);  // 6 pages x 3 repeats
}

TEST(InterpreterTest, ZeroTripNestIsSkipped) {
  Kernel kernel(TestMachine());
  SourceProgram source = TwoArrayProgram(true);
  source.nests[0].loops[0].upper = 0;  // empty loop
  const CompiledProgram program = Compile(source, Target(), CompileOptions{false, false});
  AddressSpace* as = MakeSwapAs(kernel, "as", program.layout.total_pages());
  const OpTrace trace = Drain(program, kernel, as, nullptr);
  EXPECT_TRUE(trace.touches.empty());
}

TEST(InterpreterTest, TextPagesAreTouchedPeriodically) {
  Kernel kernel(TestMachine());
  SourceProgram source = TwoArrayProgram(true);
  source.text_pages = 2;
  const CompiledProgram program = Compile(source, Target(), CompileOptions{false, false});
  AddressSpace* as = MakeSwapAs(
      kernel, "as", program.layout.total_pages() + source.text_pages);
  const OpTrace trace = Drain(program, kernel, as, nullptr);
  const int64_t text_base = program.layout.total_pages();
  int64_t text_touches = 0;
  for (const Touch& touch : trace.touches) {
    text_touches += (touch.first >= text_base) ? 1 : 0;
  }
  EXPECT_GT(text_touches, 0);
}

TEST(InterpreterTest, EpilogueFlushesTagFilter) {
  // With releases enabled, the final page of a swept array is released at
  // nest exit (the tag filter would otherwise hold it forever).
  Kernel kernel(TestMachine(128));
  SourceProgram source = TwoArrayProgram(true);
  const CompiledProgram program = Compile(source, Target(), CompileOptions{true, true});
  AddressSpace* as = MakeSwapAs(kernel, "as", program.layout.total_pages());
  as->AttachPagingDirected(0, as->num_pages());
  RuntimeOptions options;
  options.num_prefetch_threads = 1;
  RuntimeLayer runtime(&kernel, as, options);
  // Mark everything resident so release hints survive the bitmap filter.
  for (VPage page = 0; page < as->num_pages(); ++page) {
    as->bitmap()->Set(page);
  }
  const OpTrace trace = Drain(program, kernel, as, &runtime);
  // Every page of both arrays is eventually released (3 + 3).
  std::map<VPage, int> released;
  for (const VPage page : trace.releases) {
    released[page]++;
  }
  EXPECT_EQ(released.size(), 6u);
  EXPECT_GT(runtime.stats().tag_flushes, 0u);
}

TEST(InterpreterTest, StatsCountIterationsAndNests) {
  Kernel kernel(TestMachine());
  SourceProgram source = TwoArrayProgram(true);
  const CompiledProgram program = Compile(source, Target(), CompileOptions{false, false});
  AddressSpace* as = MakeSwapAs(kernel, "as", program.layout.total_pages());
  Interpreter interp(&program, as, nullptr);
  while (interp.Next(kernel).kind != Op::Kind::kExit) {
  }
  EXPECT_EQ(interp.stats().iterations, 3u * 2048u);
  EXPECT_EQ(interp.stats().nests_entered, 1u);
  EXPECT_EQ(interp.stats().repeats_done, 1u);
}

}  // namespace
}  // namespace tmh
