#include "src/compiler/ir.h"

#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace tmh {

ArrayLayout::ArrayLayout(const SourceProgram& program, int64_t page_size_bytes)
    : page_size_(page_size_bytes) {
  if (page_size_ <= 0 || !std::has_single_bit(static_cast<uint64_t>(page_size_))) {
    std::fprintf(stderr, "ArrayLayout: page size %lld bytes is not a power of two\n",
                 static_cast<long long>(page_size_));
    std::abort();
  }
  page_shift_ = std::countr_zero(static_cast<uint64_t>(page_size_));
  base_pages_.reserve(program.arrays.size());
  page_counts_.reserve(program.arrays.size());
  element_sizes_.reserve(program.arrays.size());
  int64_t next_page = 0;
  for (const ArrayDecl& a : program.arrays) {
    assert(a.element_size > 0 && a.num_elements >= 0);
    base_pages_.push_back(next_page);
    const int64_t pages = (a.size_bytes() + page_size_ - 1) / page_size_;
    page_counts_.push_back(pages);
    element_sizes_.push_back(a.element_size);
    next_page += pages;
  }
  total_pages_ = next_page;
}

}  // namespace tmh
