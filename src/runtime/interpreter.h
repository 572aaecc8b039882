// Executes a CompiledProgram as a stream of kernel Ops — the stand-in for the
// specialized executable the compiler generates (Figure 4).
//
// The interpreter walks the loop nests at page granularity: it advances the
// innermost loop in runs that stay within one page for every reference,
// emitting one kTouch per page crossing, one kCompute per run, and invoking
// the run-time layer at the compiler's hint sites. Two cases force
// single-iteration runs: a nest with an indirect reference (its target can
// change every iteration), and a moving reference that the clamp holds on its
// array's edge element when that element sits at the page boundary the
// reference moves toward (FFTPDE's twiddle array): the run-length rule sees it
// one iteration from a crossing it never makes. Loop splitting appears as:
//   * prologue  — on nest entry the first `distance` pages of each prefetched
//     reference are requested (software-pipelining startup);
//   * steady state — hints fire at page crossings (or every iteration for
//     unknown-bound/indirect references, where the run-time layer filters);
//   * epilogue  — the run-time layer's one-behind tag filter is flushed.
//
// Addresses are strength-reduced, as the generated code computes them: on
// nest entry each reference is lowered to its affine value and that value's
// change per innermost iteration, so a run advances every reference by one
// multiply-add and only an outer-loop carry re-evaluates the expressions.
//
// With a null RuntimeLayer the interpreter is the original program (version O
// in the paper's graphs): it touches the same pages and burns the same user
// time but issues no hints.

#ifndef TMH_SRC_RUNTIME_INTERPRETER_H_
#define TMH_SRC_RUNTIME_INTERPRETER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/compiler/compile.h"
#include "src/os/kernel.h"
#include "src/os/thread.h"
#include "src/runtime/runtime_layer.h"

namespace tmh {

struct InterpreterStats {
  uint64_t iterations = 0;      // innermost iterations executed
  uint64_t page_touches = 0;    // kTouch ops emitted (page crossings)
  uint64_t nests_entered = 0;
  uint64_t repeats_done = 0;
  uint64_t adaptive_recompiles = 0;  // nests re-specialized with actual bounds
};

class Interpreter : public Program {
 public:
  // `runtime` may be null (original, un-instrumented program). `program` and
  // `runtime` must outlive the interpreter.
  Interpreter(const CompiledProgram* program, AddressSpace* as, RuntimeLayer* runtime);

  Op Next(Kernel& kernel) override;

  [[nodiscard]] const InterpreterStats& stats() const { return stats_; }

 private:
  // One reference of the active nest, lowered on nest entry.
  struct LoweredRef {
    const AffineExpr* expr = nullptr;  // runtime expression, re-evaluated on carries
    int64_t value = 0;                 // `expr` at the current iteration vector
    int64_t inner_delta = 0;           // change of `value` per innermost iteration
    // Indirect refs: the index array's values (the element is index[value]).
    const int64_t* index = nullptr;
    int64_t index_last = 0;
    int64_t element_size = 0;
    int64_t element_last = 0;  // elements are clamped to [0, element_last]
    int64_t first_page = 0;    // the array's first and last virtual pages
    int64_t last_page = 0;
    int64_t page = 0;           // this step's page
    int64_t touched_page = -1;  // page of the last kTouch; -1 = none
    bool is_write = false;
    // This ref's page-crossing directives: crossing_[crossing_begin, crossing_end).
    uint32_t crossing_begin = 0;
    uint32_t crossing_end = 0;
  };

  // Byte offset within its array of `ref`'s element at affine value `value`:
  // read through the index array for indirect refs, clamped to the array.
  [[nodiscard]] static int64_t ByteAt(const LoweredRef& ref, int64_t value) {
    if (ref.index != nullptr) {
      value = ref.index[std::clamp<int64_t>(value, 0, ref.index_last)];
    }
    return std::clamp<int64_t>(value, 0, ref.element_last) * ref.element_size;
  }
  [[nodiscard]] int64_t PageAt(const LoweredRef& ref, int64_t value) const {
    return ref.first_page + (ByteAt(ref, value) >> prog_->layout.page_shift());
  }

  void EnterNest();
  void LowerNest(const CompiledNest& compiled);
  void Step();           // advances program state, pushes pending ops
  void RunIterations();  // one batched run of the innermost loop
  void Advance(int64_t run);
  void ExitNest();

  const CompiledProgram* prog_;
  AddressSpace* as_;
  RuntimeLayer* runtime_;  // null => version O

  int64_t repeat_done_ = 0;
  size_t nest_idx_ = 0;
  // The nest currently executing: the statically compiled one, or — with
  // adaptive recompilation — a variant re-specialized to the actual bounds.
  const CompiledNest* active_nest_ = nullptr;
  CompiledNest adaptive_nest_;
  // Text/stack touch rotation (see SourceProgram::text_pages).
  int64_t text_base_ = 0;
  int64_t text_cursor_ = 0;
  uint64_t batch_counter_ = 0;
  bool in_nest_ = false;
  bool done_ = false;
  // Loop state of the active nest. `ivs_` holds the outer ivs (the innermost
  // one stays at its lower bound): a pass counts down `inner_left_` instead.
  std::vector<int64_t> ivs_;
  int64_t inner_trips_ = 0;
  int64_t inner_left_ = 0;  // iterations left in the current innermost pass
  bool nest_has_indirect_ = false;
  std::vector<LoweredRef> refs_;
  // The active nest's directives, sorted once on entry: page-crossing ones
  // grouped by ref (directive order within a ref), and every-iteration ones.
  std::vector<const HintDirective*> crossing_;
  std::vector<const HintDirective*> every_iteration_;
  // Emitted-op FIFO: a vector drained through a cursor (and rewound when it
  // empties) instead of a deque, so the steady state allocates nothing.
  std::vector<Op> pending_;
  size_t pending_head_ = 0;
  // Per-call scratch, hoisted out of the hot path so each RunIterations()
  // reuses capacity instead of reallocating.
  std::vector<Op> sysops_scratch_;

  InterpreterStats stats_;
};

}  // namespace tmh

#endif  // TMH_SRC_RUNTIME_INTERPRETER_H_
