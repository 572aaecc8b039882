// Address-space memory lock.
//
// The paper attributes much of prefetching's "stalled for resources" time to
// contention on per-address-space memory locks: while the paging daemon scans
// or steals a process's pages it holds that process's lock, and page faults
// for those regions cannot be serviced (Section 4.3). This is a FIFO sleep
// lock with handoff semantics: Release() transfers ownership directly to the
// oldest waiter and reports it so the kernel can wake it.

#ifndef TMH_SRC_OS_LOCK_H_
#define TMH_SRC_OS_LOCK_H_

#include <cassert>
#include <deque>
#include <string>

#include "src/sim/time.h"

namespace tmh {

class Thread;

class MemoryLock {
 public:
  explicit MemoryLock(std::string name) : name_(std::move(name)) {}

  MemoryLock(const MemoryLock&) = delete;
  MemoryLock& operator=(const MemoryLock&) = delete;

  // Attempts to take the lock for `t`. Returns true on success.
  bool TryAcquire(Thread* t) {
    if (holder_ != nullptr) {
      return false;
    }
    holder_ = t;
    ++acquisitions_;
    return true;
  }

  // Adds `t` to the FIFO wait list. Caller must block the thread.
  void EnqueueWaiter(Thread* t) {
    ++contended_acquisitions_;
    waiters_.push_back(t);
  }

  // Releases the lock held by `t`. If a waiter exists, ownership is handed to
  // it and it is returned so the kernel can wake it; otherwise returns null.
  Thread* Release(Thread* t) {
    assert(holder_ == t && "release by non-holder");
    (void)t;
    if (waiters_.empty()) {
      holder_ = nullptr;
      return nullptr;
    }
    holder_ = waiters_.front();
    waiters_.pop_front();
    ++acquisitions_;
    return holder_;
  }

  [[nodiscard]] Thread* holder() const { return holder_; }
  [[nodiscard]] bool IsHeldBy(const Thread* t) const { return holder_ == t; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] uint64_t acquisitions() const { return acquisitions_; }
  [[nodiscard]] uint64_t contended_acquisitions() const { return contended_acquisitions_; }

 private:
  std::string name_;
  Thread* holder_ = nullptr;
  std::deque<Thread*> waiters_;
  uint64_t acquisitions_ = 0;
  uint64_t contended_acquisitions_ = 0;
};

}  // namespace tmh

#endif  // TMH_SRC_OS_LOCK_H_
