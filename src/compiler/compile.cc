#include "src/compiler/compile.h"

#include <algorithm>
#include <cassert>

namespace tmh {
namespace {

// Deepest loop whose induction variable moves the reference (the loop whose
// iterations cross page boundaries), or -1 if the ref is fully invariant.
int CrossingLoop(const ArrayRef& ref) {
  for (int d = static_cast<int>(ref.affine.coeffs.size()) - 1; d >= 0; --d) {
    if (ref.affine.coeffs[static_cast<size_t>(d)] != 0) {
      return d;
    }
  }
  return -1;
}

// Software-pipelining distance for an affine reference, in pages.
int64_t PrefetchDistancePages(const SourceProgram& program, const LoopNest& nest,
                              const ArrayRef& ref, const CompilerTarget& target) {
  const ArrayDecl& array = program.arrays[static_cast<size_t>(ref.array)];
  const int crossing = CrossingLoop(ref);
  if (crossing < 0) {
    return 1;
  }
  const int64_t coeff = ref.affine.coeffs[static_cast<size_t>(crossing)];
  const int64_t byte_stride = std::abs(coeff) * array.element_size;
  // Iterations of the crossing loop needed to consume one page.
  const int64_t iters_per_page = std::max<int64_t>(1, target.page_size / std::max<int64_t>(byte_stride, 1));
  // One crossing-loop iteration runs everything deeper once.
  int64_t inner_trips = 1;
  for (int d = crossing + 1; d < nest.depth(); ++d) {
    const Loop& loop = nest.loops[static_cast<size_t>(d)];
    if (loop.upper_known) {
      inner_trips *= std::max<int64_t>(1, (loop.upper - loop.lower + loop.step - 1) / loop.step);
    }
  }
  const SimDuration time_per_page =
      std::max<SimDuration>(1, iters_per_page * inner_trips * nest.compute_per_iteration);
  const int64_t distance = (target.fault_latency + time_per_page - 1) / time_per_page;
  return std::clamp<int64_t>(distance, 1, kMaxPrefetchDistance);
}

// Distance in iterations for an indirect reference.
int64_t PrefetchDistanceIterations(const LoopNest& nest, const CompilerTarget& target) {
  const SimDuration per_iter = std::max<SimDuration>(1, nest.compute_per_iteration);
  const int64_t distance = (target.fault_latency + per_iter - 1) / per_iter;
  return std::clamp<int64_t>(distance, 1, kMaxPrefetchDistance);
}

int TraversalDirection(const ArrayRef& ref) {
  for (auto it = ref.affine.coeffs.rbegin(); it != ref.affine.coeffs.rend(); ++it) {
    if (*it != 0) {
      return *it > 0 ? 1 : -1;
    }
  }
  return 1;
}

}  // namespace

CompiledNest CompileNest(const SourceProgram& program, const LoopNest& nest,
                         const ArrayLayout& layout, const CompilerTarget& target,
                         const CompileOptions& options, int32_t* next_tag,
                         CompileStats* stats) {
  CompiledNest compiled;
  compiled.nest = nest;
  compiled.analysis = AnalyzeNest(program, nest, layout, target);
  const NestAnalysis& analysis = compiled.analysis;
  if (stats != nullptr) {
    stats->groups += analysis.num_groups;
    if (!analysis.bounds_known) {
      ++stats->nests_with_unknown_bounds;
    }
  }
  for (size_t r = 0; r < nest.refs.size(); ++r) {
    const ArrayRef& ref = nest.refs[r];
    const RefReuse& reuse = analysis.refs[r];
    if (reuse.indirect && stats != nullptr) {
      ++stats->indirect_refs;
    }
    const bool every_iteration = !analysis.bounds_known || reuse.indirect;
    if (options.insert_prefetches && reuse.needs_prefetch) {
      HintDirective d;
      d.kind = HintDirective::Kind::kPrefetch;
      d.ref = static_cast<int32_t>(r);
      d.tag = (*next_tag)++;
      d.distance = reuse.indirect ? PrefetchDistanceIterations(nest, target)
                                  : PrefetchDistancePages(program, nest, ref, target);
      d.every_iteration = every_iteration;
      d.direction = TraversalDirection(ref);
      compiled.directives.push_back(d);
      if (stats != nullptr) {
        ++stats->prefetch_directives;
      }
    }
    if (options.insert_releases && reuse.needs_release) {
      HintDirective d;
      d.kind = HintDirective::Kind::kRelease;
      d.ref = static_cast<int32_t>(r);
      d.tag = (*next_tag)++;
      d.priority = reuse.priority;
      d.distance = 0;
      d.every_iteration = every_iteration;
      d.direction = TraversalDirection(ref);
      compiled.directives.push_back(d);
      if (stats != nullptr) {
        ++stats->release_directives;
        if (reuse.priority > 0) {
          ++stats->release_directives_with_reuse;
        }
      }
    }
  }
  return compiled;
}

CompiledProgram Compile(const SourceProgram& program, const CompilerTarget& target,
                        const CompileOptions& options) {
  SourceProgram source = program;
  if (options.oracle) {
    // Perfect knowledge: the analysis sees the true access expressions and
    // the actual trip counts, as a programmer hand-placing the I/O would.
    for (LoopNest& nest : source.nests) {
      for (Loop& loop : nest.loops) {
        loop.upper_known = true;
      }
      for (ArrayRef& ref : nest.refs) {
        if (ref.runtime_affine != nullptr) {
          ref.affine = *ref.runtime_affine;
          ref.runtime_affine = nullptr;
        }
      }
    }
  }
  CompiledProgram out{source, ArrayLayout(source, target.page_size), {}, options, {}, target};
  int32_t next_tag = 0;
  for (const LoopNest& nest : out.source.nests) {
    out.nests.push_back(
        CompileNest(out.source, nest, out.layout, target, options, &next_tag, &out.stats));
  }
  return out;
}

}  // namespace tmh
