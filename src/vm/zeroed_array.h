// Fixed-size array whose elements start as all-zero bytes that the host has
// not yet committed.
//
// The kernel's per-frame metadata is sized to the simulated machine (10^7
// frames at datacenter scale), but a run touches only the frames its tenants
// use. An array of at least 1 MiB is an anonymous mmap: the host maps it to
// its shared zero page and commits a page of it only when the simulator first
// writes there, and the array is never memset. A smaller array comes from
// `new T[n]()`. Small machines build a kernel per grid point, and there the
// mmap's syscalls and first-touch faults cost more than the zero fill, and a
// calloc/free cycle measured larger peak RSS than new/delete (INTERNALS §13).
//
// All-zero bytes must be a meaningful T: the classes built on this encode
// "none" as 0 (FrameTable, FramePool).

#ifndef TMH_SRC_VM_ZEROED_ARRAY_H_
#define TMH_SRC_VM_ZEROED_ARRAY_H_

#include <sys/mman.h>

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>

namespace tmh {

template <typename T>
class ZeroedArray {
  static_assert(std::is_trivial_v<T>);

 public:
  static constexpr size_t kMmapBytes = size_t{1} << 20;

  explicit ZeroedArray(size_t n) : size_(n) {
    if (bytes() >= kMmapBytes) {
      void* p = mmap(nullptr, bytes(), PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
      if (p == MAP_FAILED) {
        throw std::bad_alloc();
      }
      data_ = static_cast<T*>(p);
    } else {
      data_ = new T[n]();
    }
  }

  ~ZeroedArray() {
    if (bytes() >= kMmapBytes) {
      munmap(data_, bytes());
    } else {
      delete[] data_;
    }
  }

  ZeroedArray(const ZeroedArray&) = delete;
  ZeroedArray& operator=(const ZeroedArray&) = delete;

  [[nodiscard]] size_t size() const { return size_; }
  // Reserved bytes; the host commits only the pages that were written.
  [[nodiscard]] size_t bytes() const { return size_ * sizeof(T); }
  [[nodiscard]] const T* data() const { return data_; }

  T& operator[](size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }

 private:
  size_t size_;
  T* data_;
};

}  // namespace tmh

#endif  // TMH_SRC_VM_ZEROED_ARRAY_H_
