// User-level prefetch thread pool (Section 3.3, Figure 6a).
//
// IRIX provides no asynchronous I/O to user programs, so the run-time layer
// creates a set of threads that issue blocking PagingDirected prefetch calls
// on the application's behalf: the main thread enqueues page numbers and
// signals the pool; each worker dequeues a request and blocks in the kernel
// until the page arrives. With ten swap disks, up to `num_threads` prefetches
// proceed in parallel while the application keeps computing.

#ifndef TMH_SRC_RUNTIME_PREFETCH_POOL_H_
#define TMH_SRC_RUNTIME_PREFETCH_POOL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/os/kernel.h"
#include "src/os/thread.h"
#include "src/vm/types.h"

namespace tmh {

class PrefetchPool {
 public:
  // `as` is the application's address space (the PM target). Spawns
  // `num_threads` worker threads immediately.
  PrefetchPool(Kernel* kernel, AddressSpace* as, int num_threads, size_t max_queue = 1024);

  PrefetchPool(const PrefetchPool&) = delete;
  PrefetchPool& operator=(const PrefetchPool&) = delete;

  // Enqueues a prefetch for `page` unless it is already queued or the queue is
  // full. Called inline from the application's run-time layer (user level).
  void Enqueue(VPage page);

  [[nodiscard]] size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] uint64_t enqueued() const { return enqueued_; }
  [[nodiscard]] uint64_t dropped_full() const { return dropped_full_; }
  [[nodiscard]] uint64_t duplicates() const { return duplicates_; }
  [[nodiscard]] const std::vector<Thread*>& workers() const { return worker_threads_; }

 private:
  class Worker : public Program {
   public:
    explicit Worker(PrefetchPool* pool) : pool_(pool) {}
    Op Next(Kernel& kernel) override;

   private:
    PrefetchPool* pool_;
  };

  Kernel* kernel_;
  AddressSpace* as_;
  WaitQueue wq_;
  std::deque<VPage> queue_;
  std::unordered_set<VPage> queued_;  // dedup of pending requests
  size_t max_queue_;
  uint64_t enqueued_ = 0;
  uint64_t dropped_full_ = 0;
  uint64_t duplicates_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Thread*> worker_threads_;
  // Observability (set only when the kernel's recorder was installed at
  // construction): how long requests sat queued before a worker picked them up.
  Histogram* hist_queue_wait_ = nullptr;
  std::unordered_map<VPage, SimTime> enqueued_at_;
};

}  // namespace tmh

#endif  // TMH_SRC_RUNTIME_PREFETCH_POOL_H_
