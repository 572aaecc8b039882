// Fixed-stride FIFO ring over a power-of-two arena.
//
// The kernel's release work queue (and similar short-lived sim-object pools)
// see a push_back/pop_front pattern whose occupancy is small but whose total
// traffic is millions of items per benchmark run. A deque pays chunk map
// indirection per access and allocator traffic when the map shifts; this ring
// is one contiguous allocation that doubles on overflow and is thereafter
// allocation-free, with O(1) indexed access (so checkers can iterate the
// pending window in FIFO order without draining it).
//
// T must be trivially copyable: growth relocates the live window with plain
// copies, and no destructors run on pop. The arena is left uninitialized, so
// a doubling writes only the slots it copies into and the host commits the
// rest only as pushes reach them (a release storm queues a million items).

#ifndef TMH_SRC_SIM_RING_BUFFER_H_
#define TMH_SRC_SIM_RING_BUFFER_H_

#include <cassert>
#include <cstddef>
#include <memory>
#include <type_traits>

namespace tmh {

template <typename T>
class RingBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  RingBuffer() : slots_(std::make_unique_for_overwrite<T[]>(kInitialCapacity)) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] size_t size() const { return size_; }

  // By value, deliberately: `value` may alias the buffer's own storage
  // (push_back(rb.front())), and a push at full capacity relocates the arena —
  // a reference parameter would dangle across Grow(). T is trivially copyable,
  // so the copy is the same load the store needs anyway.
  void push_back(T value) {
    if (size_ == capacity_) {
      Grow();
    }
    slots_[(head_ + size_) & (capacity_ - 1)] = value;
    ++size_;
  }

  [[nodiscard]] const T& front() const {
    assert(size_ > 0);
    return slots_[head_];
  }

  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  // FIFO-order access into the live window: at(0) == front().
  [[nodiscard]] const T& at(size_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) & (capacity_ - 1)];
  }

  // Input iterator over the live window in FIFO order (checker introspection).
  class const_iterator {
   public:
    const_iterator(const RingBuffer* ring, size_t pos) : ring_(ring), pos_(pos) {}
    const T& operator*() const { return ring_->at(pos_); }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator!=(const const_iterator& other) const { return pos_ != other.pos_; }
    bool operator==(const const_iterator& other) const { return pos_ == other.pos_; }

   private:
    const RingBuffer* ring_;
    size_t pos_;
  };

  [[nodiscard]] const_iterator begin() const { return const_iterator(this, 0); }
  [[nodiscard]] const_iterator end() const { return const_iterator(this, size_); }

 private:
  static constexpr size_t kInitialCapacity = 64;  // power of two

  // Relocates the live window to the front of a doubled arena. The copy loop
  // runs before the swap, so at(i) still masks with the OLD capacity — correct
  // even when the window wraps (head_ + size_ past the arena end) at the
  // moment of growth.
  void Grow() {
    auto bigger = std::make_unique_for_overwrite<T[]>(capacity_ * 2);
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = at(i);
    }
    slots_ = std::move(bigger);
    capacity_ *= 2;
    head_ = 0;
  }

  std::unique_ptr<T[]> slots_;
  size_t capacity_ = kInitialCapacity;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace tmh

#endif  // TMH_SRC_SIM_RING_BUFFER_H_
