// Loop-nest intermediate representation.
//
// The paper's compiler pass (built in SUIF) analyzes affine array references
// inside nested loops. This IR captures exactly the features its analysis
// distinguishes (Table 2): known and unknown loop bounds, affine and indirect
// (a[b[i]]) subscripts, and — for the two "hard" benchmarks — a gap between
// what the compiler can see and what actually happens at run time:
//   * MGRID: loop bounds change dynamically between calls, so `upper` (the
//     actual trip count the interpreter runs) is real while `upper_known`
//     tells the compiler it may not rely on it;
//   * FFTPDE: the access stride changes within a loop, so the compiler-visible
//     AffineExpr (no dependence on the loop variable => apparent temporal
//     reuse) differs from the `runtime` expression the interpreter evaluates.

#ifndef TMH_SRC_COMPILER_IR_H_
#define TMH_SRC_COMPILER_IR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace tmh {

// An array (or vector/matrix) in the program's virtual address space.
struct ArrayDecl {
  std::string name;
  int64_t element_size = 8;          // bytes
  int64_t num_elements = 0;          // total extent (flattened)
  bool on_disk = false;              // out-of-core input data (Backing::kSwap)
  // Values for index arrays feeding indirect subscripts. Empty otherwise.
  // (The run-time contents; the compiler never looks at these.)
  std::shared_ptr<std::vector<int64_t>> index_values;

  [[nodiscard]] int64_t size_bytes() const { return element_size * num_elements; }
};

// One loop of a nest, outermost first.
struct Loop {
  std::string var;
  int64_t lower = 0;
  int64_t upper = 0;    // exclusive; the ACTUAL trip bound the interpreter uses
  int64_t step = 1;
  bool upper_known = true;  // may the compiler rely on `upper`?
};

// Affine function of the loop variables: constant + sum(coeff[d] * iv[d]),
// in flattened element units of the referenced array.
struct AffineExpr {
  int64_t constant = 0;
  std::vector<int64_t> coeffs;  // one per loop of the enclosing nest, outermost first

  [[nodiscard]] int64_t Eval(const std::vector<int64_t>& ivs) const {
    int64_t v = constant;
    for (size_t d = 0; d < coeffs.size() && d < ivs.size(); ++d) {
      v += coeffs[d] * ivs[d];
    }
    return v;
  }
};

// A single (already linearized) array reference.
struct ArrayRef {
  int32_t array = 0;  // index into SourceProgram::arrays
  AffineExpr affine;  // what the compiler sees
  bool is_write = false;

  // Indirect subscript: the effective element index is
  //   index_values_of(index_array)[affine.Eval(ivs)]  (a[b[i]] pattern).
  int32_t index_array = -1;  // -1 => pure affine reference

  // Optional compiler-invisible truth (FFTPDE): when set, the interpreter
  // evaluates this instead of `affine`. Null for honest references.
  std::shared_ptr<AffineExpr> runtime_affine;

  // False when the reference's stride pattern defeats release analysis (e.g.
  // MGRID's inter-grid transfers whose strides change between calls): the
  // compiler still prefetches but refuses to generate releases for it.
  bool release_analyzable = true;

  [[nodiscard]] bool IsIndirect() const { return index_array >= 0; }
};

// A perfect loop nest whose body executes every ArrayRef once per innermost
// iteration, plus `compute_per_iteration` of CPU work.
struct LoopNest {
  std::string label;
  std::vector<Loop> loops;  // outermost first; at least one
  std::vector<ArrayRef> refs;
  SimDuration compute_per_iteration = 1;

  [[nodiscard]] int depth() const { return static_cast<int>(loops.size()); }
};

// A whole program: arrays plus a sequence of loop nests, optionally repeated
// (iterative solvers sweep their data sets many times).
struct SourceProgram {
  std::string name;
  std::vector<ArrayDecl> arrays;
  std::vector<LoopNest> nests;
  int64_t repeat = 1;
  // Program text + stack: a small resident set the process touches
  // continuously while running. These pages are what the paging daemon's
  // reference-bit invalidations turn into soft faults (Figure 8); the
  // compiler never prefetches or releases them.
  int64_t text_pages = 24;

  // Total footprint of all arrays, page-aligned (for reports).
  [[nodiscard]] int64_t TotalBytes() const {
    int64_t total = 0;
    for (const ArrayDecl& a : arrays) {
      total += a.size_bytes();
    }
    return total;
  }
};

// Page-aligned layout of the program's arrays in its virtual address space.
class ArrayLayout {
 public:
  // Aborts with a message unless `page_size_bytes` is a power of two: page
  // numbers are computed with a shift.
  ArrayLayout(const SourceProgram& program, int64_t page_size_bytes);

  // First virtual page of array `a`.
  [[nodiscard]] int64_t base_page(int32_t a) const { return base_pages_[static_cast<size_t>(a)]; }
  // Virtual page holding element `index` (0 <= index) of array `a`.
  [[nodiscard]] int64_t PageOf(int32_t a, int64_t element_index) const {
    return base_pages_[static_cast<size_t>(a)] +
           ((element_index * element_sizes_[static_cast<size_t>(a)]) >> page_shift_);
  }
  // Pages spanned by array `a`.
  [[nodiscard]] int64_t PageCount(int32_t a) const { return page_counts_[static_cast<size_t>(a)]; }
  [[nodiscard]] int64_t total_pages() const { return total_pages_; }
  [[nodiscard]] int64_t page_size() const { return page_size_; }
  [[nodiscard]] int page_shift() const { return page_shift_; }  // log2(page_size())
  // Elements of array `a` per page (>= 1).
  [[nodiscard]] int64_t ElementsPerPage(int32_t a) const {
    const int64_t n = page_size_ / element_sizes_[static_cast<size_t>(a)];
    return n > 0 ? n : 1;
  }

 private:
  int64_t page_size_;
  int page_shift_;
  std::vector<int64_t> base_pages_;
  std::vector<int64_t> page_counts_;
  std::vector<int64_t> element_sizes_;
  int64_t total_pages_ = 0;
};

}  // namespace tmh

#endif  // TMH_SRC_COMPILER_IR_H_
