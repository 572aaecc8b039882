#include "src/runtime/interpreter.h"

#include <algorithm>
#include <cassert>

namespace tmh {

Interpreter::Interpreter(const CompiledProgram* program, AddressSpace* as, RuntimeLayer* runtime)
    : prog_(program), as_(as), runtime_(runtime) {
  assert(prog_ != nullptr && as_ != nullptr);
  text_base_ = prog_->layout.total_pages();  // text/stack live above the arrays
}

Op Interpreter::Next(Kernel& kernel) {
  (void)kernel;
  while (pending_head_ == pending_.size()) {
    pending_.clear();
    pending_head_ = 0;
    if (done_) {
      return Op::Exit();
    }
    Step();
  }
  return pending_[pending_head_++];
}

void Interpreter::Step() {
  if (!in_nest_) {
    if (nest_idx_ >= prog_->nests.size()) {
      nest_idx_ = 0;
      ++repeat_done_;
      ++stats_.repeats_done;
      if (repeat_done_ >= prog_->source.repeat) {
        done_ = true;
      }
      return;
    }
    EnterNest();
    return;
  }
  RunIterations();
}

void Interpreter::EnterNest() {
  active_nest_ = &prog_->nests[nest_idx_];
  // Adaptive recompilation (the paper's future-work fix for unknown bounds):
  // on nest entry the actual trip counts are known, so re-run the analysis
  // and hint insertion against them. Hints then strip-mine to page crossings
  // and the locality analysis sees real volumes. Tags come from a per-nest
  // range disjoint from the static ones so the run-time layer's filters keep
  // working across entries.
  if (prog_->options.adaptive_recompilation && !active_nest_->analysis.bounds_known &&
      runtime_ != nullptr) {
    LoopNest specialized = active_nest_->nest;
    for (Loop& loop : specialized.loops) {
      loop.upper_known = true;
    }
    int32_t tag = static_cast<int32_t>(1'000'000 + 1000 * nest_idx_);
    adaptive_nest_ = CompileNest(prog_->source, specialized, prog_->layout, prog_->target,
                                 prog_->options, &tag, nullptr);
    active_nest_ = &adaptive_nest_;
    ++stats_.adaptive_recompiles;
  }
  const CompiledNest& compiled = *active_nest_;
  const LoopNest& nest = compiled.nest;
  // Zero-trip nests are skipped outright.
  for (const Loop& loop : nest.loops) {
    if (loop.upper <= loop.lower) {
      ++nest_idx_;
      return;
    }
  }
  ivs_.clear();
  for (const Loop& loop : nest.loops) {
    ivs_.push_back(loop.lower);
  }
  last_page_.assign(nest.refs.size(), -1);
  nest_has_indirect_ = false;
  for (const ArrayRef& ref : nest.refs) {
    nest_has_indirect_ = nest_has_indirect_ || ref.IsIndirect();
  }
  in_nest_ = true;
  ++stats_.nests_entered;

  // Prologue: software-pipelining startup prefetches.
  if (runtime_ != nullptr) {
    SimDuration cost = 0;
    for (const HintDirective& d : compiled.directives) {
      if (d.kind != HintDirective::Kind::kPrefetch) {
        continue;
      }
      const ArrayRef& ref = nest.refs[static_cast<size_t>(d.ref)];
      if (ref.IsIndirect()) {
        const Loop& inner = nest.loops.back();
        const int64_t trips = (inner.upper - inner.lower + inner.step - 1) / inner.step;
        const int64_t ahead = std::min<int64_t>(d.distance, trips - 1);
        for (int64_t k = 0; k <= ahead; ++k) {
          cost += runtime_->OnPrefetchHint(PageOfRef(ref, k));
        }
      } else {
        const int64_t first = PageOfRef(ref, 0);
        const int64_t array_base = prog_->layout.base_page(ref.array);
        const int64_t array_end = array_base + prog_->layout.PageCount(ref.array) - 1;
        for (int64_t k = 0; k <= d.distance; ++k) {
          const int64_t page = std::clamp(first + k * d.direction, array_base, array_end);
          cost += runtime_->OnPrefetchHint(page);
        }
      }
    }
    if (cost > 0) {
      pending_.push_back(Op::Compute(cost));
    }
  }
}

int64_t Interpreter::EvalElement(const ArrayRef& ref, int64_t inner_shift) const {
  const LoopNest& nest = active_nest_->nest;
  int64_t value;
  if (inner_shift == 0) {
    value = RuntimeExpr(ref).Eval(ivs_);
  } else {
    shifted_scratch_.assign(ivs_.begin(), ivs_.end());
    shifted_scratch_.back() += inner_shift * nest.loops.back().step;
    value = RuntimeExpr(ref).Eval(shifted_scratch_);
  }
  if (ref.IsIndirect()) {
    const ArrayDecl& index_array =
        prog_->source.arrays[static_cast<size_t>(ref.index_array)];
    assert(index_array.index_values != nullptr && !index_array.index_values->empty());
    const auto& values = *index_array.index_values;
    const int64_t pos =
        std::clamp<int64_t>(value, 0, static_cast<int64_t>(values.size()) - 1);
    value = values[static_cast<size_t>(pos)];
  }
  const ArrayDecl& array = prog_->source.arrays[static_cast<size_t>(ref.array)];
  return std::clamp<int64_t>(value, 0, std::max<int64_t>(array.num_elements - 1, 0));
}

int64_t Interpreter::PageOfRef(const ArrayRef& ref, int64_t inner_shift) const {
  return prog_->layout.PageOf(ref.array, EvalElement(ref, inner_shift));
}

int64_t Interpreter::RunLength() const {
  const LoopNest& nest = active_nest_->nest;
  const Loop& inner = nest.loops.back();
  const int64_t remaining = (inner.upper - ivs_.back() + inner.step - 1) / inner.step;
  if (nest_has_indirect_) {
    return 1;  // indirect targets change every iteration
  }
  int64_t run = remaining;
  const int64_t page_size = prog_->layout.page_size();
  for (const ArrayRef& ref : nest.refs) {
    const AffineExpr& expr = RuntimeExpr(ref);
    const int64_t coeff = expr.coeffs.empty() ? 0 : expr.coeffs.back();
    if (coeff == 0) {
      continue;
    }
    const ArrayDecl& array = prog_->source.arrays[static_cast<size_t>(ref.array)];
    const int64_t delta = coeff * inner.step * array.element_size;  // bytes per iteration
    const int64_t byte = EvalElement(ref, 0) * array.element_size;
    const int64_t offset = byte % page_size;
    int64_t until_crossing;
    if (delta > 0) {
      until_crossing = (page_size - offset + delta - 1) / delta;
    } else {
      until_crossing = offset / (-delta) + 1;
    }
    run = std::min(run, std::max<int64_t>(until_crossing, 1));
  }
  return std::max<int64_t>(run, 1);
}

void Interpreter::FireDirectivesForCrossing(size_t ref_idx, int64_t page,
                                            std::vector<Op>& sysops, SimDuration* cost) {
  const CompiledNest& compiled = *active_nest_;
  for (const HintDirective& d : compiled.directives) {
    if (static_cast<size_t>(d.ref) != ref_idx || d.every_iteration) {
      continue;
    }
    const ArrayRef& ref = compiled.nest.refs[ref_idx];
    if (d.kind == HintDirective::Kind::kPrefetch) {
      const int64_t array_base = prog_->layout.base_page(ref.array);
      const int64_t array_end = array_base + prog_->layout.PageCount(ref.array) - 1;
      const int64_t target = std::clamp(page + d.distance * d.direction, array_base, array_end);
      *cost += runtime_->OnPrefetchHint(target);
    } else {
      *cost += runtime_->OnReleaseHint(page, d.priority, d.tag, sysops);
    }
  }
}

void Interpreter::FireEveryIterationDirectives(int64_t run, std::vector<Op>& sysops,
                                               SimDuration* cost) {
  const CompiledNest& compiled = *active_nest_;
  for (const HintDirective& d : compiled.directives) {
    if (!d.every_iteration) {
      continue;
    }
    const ArrayRef& ref = compiled.nest.refs[static_cast<size_t>(d.ref)];
    if (d.kind == HintDirective::Kind::kPrefetch) {
      // The generated code computes the real future address each iteration;
      // within a one-page run the target is the same, so batch the filtering.
      const int64_t target = ref.IsIndirect()
                                 ? PageOfRef(ref, d.distance)
                                 : std::clamp(PageOfRef(ref, 0) + d.distance * d.direction,
                                              prog_->layout.base_page(ref.array),
                                              prog_->layout.base_page(ref.array) +
                                                  prog_->layout.PageCount(ref.array) - 1);
      *cost += runtime_->OnPrefetchHintBatch(target, run);
    } else {
      *cost += runtime_->OnReleaseHintBatch(PageOfRef(ref, 0), d.priority, d.tag, run, sysops);
    }
  }
}

void Interpreter::RunIterations() {
  const CompiledNest& compiled = *active_nest_;
  const LoopNest& nest = compiled.nest;
  const int64_t run = RunLength();

  SimDuration hint_cost = 0;
  std::vector<Op>& sysops = sysops_scratch_;
  sysops.clear();

  // The process's text and stack are referenced continuously; rotating the
  // touch keeps the whole small set live without per-iteration overhead.
  if (prog_->source.text_pages > 0 && (batch_counter_++ & 15) == 0) {
    Op text_touch =
        Op::Touch(text_base_ + (text_cursor_++ % prog_->source.text_pages), false, 0);
    text_touch.as = as_;
    pending_.push_back(text_touch);
  }

  // Touches: one per reference whose page changed.
  for (size_t r = 0; r < nest.refs.size(); ++r) {
    const ArrayRef& ref = nest.refs[r];
    const int64_t page = PageOfRef(ref, 0);
    if (page != last_page_[r]) {
      last_page_[r] = page;
      Op touch = Op::Touch(page, ref.is_write, 0);
      touch.as = as_;
      pending_.push_back(touch);
      ++stats_.page_touches;
      if (runtime_ != nullptr) {
        FireDirectivesForCrossing(r, page, sysops, &hint_cost);
      }
    }
  }
  if (runtime_ != nullptr) {
    FireEveryIterationDirectives(run, sysops, &hint_cost);
  }

  pending_.push_back(Op::Compute(run * nest.compute_per_iteration + hint_cost));
  for (Op& op : sysops) {
    pending_.push_back(op);
  }
  stats_.iterations += run;

  // Advance the odometer by `run` innermost iterations.
  ivs_.back() += run * nest.loops.back().step;
  for (size_t d = nest.loops.size(); d-- > 1;) {
    if (ivs_[d] < nest.loops[d].upper) {
      break;
    }
    ivs_[d] = nest.loops[d].lower;
    ivs_[d - 1] += nest.loops[d - 1].step;
  }
  if (ivs_[0] >= nest.loops[0].upper) {
    ExitNest();
  }
}

void Interpreter::ExitNest() {
  const CompiledNest& compiled = *active_nest_;
  if (runtime_ != nullptr) {
    // Epilogue: flush the one-behind tag filter for this nest's releases.
    SimDuration cost = 0;
    std::vector<Op>& sysops = sysops_scratch_;
    sysops.clear();
    for (const HintDirective& d : compiled.directives) {
      if (d.kind == HintDirective::Kind::kRelease) {
        cost += runtime_->FlushTag(d.tag, sysops);
      }
    }
    if (cost > 0) {
      pending_.push_back(Op::Compute(cost));
    }
    for (Op& op : sysops) {
      pending_.push_back(op);
    }
  }
  in_nest_ = false;
  ++nest_idx_;
}

}  // namespace tmh
