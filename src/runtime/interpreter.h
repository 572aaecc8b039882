// Executes a CompiledProgram as a stream of kernel Ops — the stand-in for the
// specialized executable the compiler generates (Figure 4).
//
// The interpreter walks the loop nests at page granularity: it advances the
// innermost loop in runs that stay within one page for every reference (only
// indirect references force single-iteration stepping), emitting one kTouch
// per page crossing, one kCompute per run, and invoking the run-time layer at
// the compiler's hint sites. Loop splitting appears as:
//   * prologue  — on nest entry the first `distance` pages of each prefetched
//     reference are requested (software-pipelining startup);
//   * steady state — hints fire at page crossings (or every iteration for
//     unknown-bound/indirect references, where the run-time layer filters);
//   * epilogue  — the run-time layer's one-behind tag filter is flushed.
//
// With a null RuntimeLayer the interpreter is the original program (version O
// in the paper's graphs): it touches the same pages and burns the same user
// time but issues no hints.

#ifndef TMH_SRC_RUNTIME_INTERPRETER_H_
#define TMH_SRC_RUNTIME_INTERPRETER_H_

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
  // Effective element index of `ref` at the iteration vector, with the
  // innermost loop shifted by `inner_shift` iterations. Indirect references
  // read through their index array. Clamped to the array extent.
  [[nodiscard]] int64_t EvalElement(const ArrayRef& ref, int64_t inner_shift) const;
  // Virtual page of `ref` at the current iteration vector.
  [[nodiscard]] int64_t PageOfRef(const ArrayRef& ref, int64_t inner_shift) const;
  // Actual (run-time) affine expression of a direct ref.
  [[nodiscard]] static const AffineExpr& RuntimeExpr(const ArrayRef& ref) {
    return ref.runtime_affine != nullptr ? *ref.runtime_affine : ref.affine;
  }

  void EnterNest();
  void Step();           // advances program state, pushes pending ops
  void RunIterations();  // one batched run of the innermost loop
  void ExitNest();
  [[nodiscard]] int64_t RunLength() const;
  void FireDirectivesForCrossing(size_t ref_idx, int64_t page, std::vector<Op>& sysops,
                                 SimDuration* cost);
  void FireEveryIterationDirectives(int64_t run, std::vector<Op>& sysops, SimDuration* cost);

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
  std::vector<int64_t> ivs_;
  std::vector<int64_t> last_page_;  // per ref; -1 = none
  bool nest_has_indirect_ = false;
  // Emitted-op FIFO: a vector drained through a cursor (and rewound when it
  // empties) instead of a deque, so the steady state allocates nothing.
  std::vector<Op> pending_;
  size_t pending_head_ = 0;
  // Per-call scratch, hoisted out of the hot paths so each RunIterations()
  // (and each shifted EvalElement) reuses capacity instead of reallocating.
  std::vector<Op> sysops_scratch_;
  mutable std::vector<int64_t> shifted_scratch_;

  InterpreterStats stats_;
};

}  // namespace tmh

#endif  // TMH_SRC_RUNTIME_INTERPRETER_H_
