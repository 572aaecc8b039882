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
  const Loop& inner = nest.loops.back();
  inner_trips_ = (inner.upper - inner.lower + inner.step - 1) / inner.step;
  inner_left_ = inner_trips_;
  LowerNest(compiled);
  in_nest_ = true;
  ++stats_.nests_entered;

  // Prologue: software-pipelining startup prefetches.
  if (runtime_ != nullptr) {
    SimDuration cost = 0;
    for (const HintDirective& d : compiled.directives) {
      if (d.kind != HintDirective::Kind::kPrefetch) {
        continue;
      }
      const LoweredRef& ref = refs_[static_cast<size_t>(d.ref)];
      if (ref.index != nullptr) {
        const int64_t ahead = std::min<int64_t>(d.distance, inner_trips_ - 1);
        for (int64_t k = 0; k <= ahead; ++k) {
          cost += runtime_->OnPrefetchHint(PageAt(ref, ref.value + k * ref.inner_delta));
        }
      } else {
        const int64_t first = PageAt(ref, ref.value);
        for (int64_t k = 0; k <= d.distance; ++k) {
          cost += runtime_->OnPrefetchHint(
              std::clamp(first + k * d.direction, ref.first_page, ref.last_page));
        }
      }
    }
    if (cost > 0) {
      pending_.push_back(Op::Compute(cost));
    }
  }
}

void Interpreter::LowerNest(const CompiledNest& compiled) {
  const LoopNest& nest = compiled.nest;
  const ArrayLayout& layout = prog_->layout;
  const size_t inner = nest.loops.size() - 1;
  refs_.clear();
  nest_has_indirect_ = false;
  for (const ArrayRef& ref : nest.refs) {
    const AffineExpr& expr = ref.runtime_affine != nullptr ? *ref.runtime_affine : ref.affine;
    const ArrayDecl& array = prog_->source.arrays[static_cast<size_t>(ref.array)];
    LoweredRef lowered;
    lowered.expr = &expr;
    lowered.value = expr.Eval(ivs_);
    lowered.inner_delta =
        (inner < expr.coeffs.size() ? expr.coeffs[inner] : 0) * nest.loops[inner].step;
    lowered.element_size = array.element_size;
    lowered.element_last = std::max<int64_t>(array.num_elements - 1, 0);
    lowered.first_page = layout.base_page(ref.array);
    lowered.last_page = lowered.first_page + layout.PageCount(ref.array) - 1;
    lowered.is_write = ref.is_write;
    if (ref.IsIndirect()) {
      const ArrayDecl& index_array = prog_->source.arrays[static_cast<size_t>(ref.index_array)];
      assert(index_array.index_values != nullptr && !index_array.index_values->empty());
      lowered.index = index_array.index_values->data();
      lowered.index_last = static_cast<int64_t>(index_array.index_values->size()) - 1;
      nest_has_indirect_ = true;
    }
    refs_.push_back(lowered);
  }
  crossing_.clear();
  every_iteration_.clear();
  for (size_t r = 0; r < refs_.size(); ++r) {
    refs_[r].crossing_begin = static_cast<uint32_t>(crossing_.size());
    for (const HintDirective& d : compiled.directives) {
      if (static_cast<size_t>(d.ref) == r && !d.every_iteration) {
        crossing_.push_back(&d);
      }
    }
    refs_[r].crossing_end = static_cast<uint32_t>(crossing_.size());
  }
  for (const HintDirective& d : compiled.directives) {
    if (d.every_iteration) {
      every_iteration_.push_back(&d);
    }
  }
}

void Interpreter::RunIterations() {
  // Each ref's page for this step, and the run: the iterations until the
  // first page crossing, measured from the clamped element (so a ref held on
  // its array's edge keeps reporting the crossing it would make).
  const int64_t page_size = prog_->layout.page_size();
  const int page_shift = prog_->layout.page_shift();
  int64_t run = nest_has_indirect_ ? 1 : inner_left_;
  for (LoweredRef& ref : refs_) {
    const int64_t byte = ByteAt(ref, ref.value);
    ref.page = ref.first_page + (byte >> page_shift);
    const int64_t step_bytes = ref.inner_delta * ref.element_size;
    if (step_bytes != 0 && !nest_has_indirect_) {
      const int64_t offset = byte & (page_size - 1);
      const int64_t until_crossing = step_bytes > 0
                                         ? (page_size - offset + step_bytes - 1) / step_bytes
                                         : offset / -step_bytes + 1;
      run = std::min(run, until_crossing);
    }
  }

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

  // Touches: one per reference whose page changed, each followed by that
  // reference's crossing hints.
  for (LoweredRef& ref : refs_) {
    if (ref.page == ref.touched_page) {
      continue;
    }
    ref.touched_page = ref.page;
    Op touch = Op::Touch(ref.page, ref.is_write, 0);
    touch.as = as_;
    pending_.push_back(touch);
    ++stats_.page_touches;
    if (runtime_ == nullptr) {
      continue;
    }
    for (uint32_t i = ref.crossing_begin; i < ref.crossing_end; ++i) {
      const HintDirective& d = *crossing_[i];
      if (d.kind == HintDirective::Kind::kPrefetch) {
        hint_cost += runtime_->OnPrefetchHint(
            std::clamp(ref.page + d.distance * d.direction, ref.first_page, ref.last_page));
      } else {
        hint_cost += runtime_->OnReleaseHint(ref.page, d.priority, d.tag, sysops);
      }
    }
  }
  if (runtime_ != nullptr) {
    for (const HintDirective* d : every_iteration_) {
      const LoweredRef& ref = refs_[static_cast<size_t>(d->ref)];
      if (d->kind == HintDirective::Kind::kPrefetch) {
        // The generated code computes the real future address each iteration;
        // within a one-page run the target is the same, so batch the filtering.
        const int64_t target =
            ref.index != nullptr
                ? PageAt(ref, ref.value + d->distance * ref.inner_delta)
                : std::clamp(ref.page + d->distance * d->direction, ref.first_page, ref.last_page);
        hint_cost += runtime_->OnPrefetchHintBatch(target, run);
      } else {
        hint_cost += runtime_->OnReleaseHintBatch(ref.page, d->priority, d->tag, run, sysops);
      }
    }
  }

  pending_.push_back(Op::Compute(run * active_nest_->nest.compute_per_iteration + hint_cost));
  for (Op& op : sysops) {
    pending_.push_back(op);
  }
  stats_.iterations += run;
  Advance(run);
}

// Moves the odometer `run` innermost iterations on. Within a pass every ref
// advances by its innermost delta; a carry steps the outer loops (the
// innermost iv in `ivs_` stays at its lower bound) and re-evaluates each ref.
void Interpreter::Advance(int64_t run) {
  inner_left_ -= run;
  if (inner_left_ > 0) {
    for (LoweredRef& ref : refs_) {
      ref.value += ref.inner_delta * run;
    }
    return;
  }
  const std::vector<Loop>& loops = active_nest_->nest.loops;
  for (size_t d = loops.size() - 1; d-- > 0;) {
    ivs_[d] += loops[d].step;
    if (ivs_[d] < loops[d].upper) {
      for (LoweredRef& ref : refs_) {
        ref.value = ref.expr->Eval(ivs_);
      }
      inner_left_ = inner_trips_;
      return;
    }
    ivs_[d] = loops[d].lower;
  }
  ExitNest();
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
