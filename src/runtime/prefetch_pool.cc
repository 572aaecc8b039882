#include "src/runtime/prefetch_pool.h"

#include <string>

namespace tmh {

PrefetchPool::PrefetchPool(Kernel* kernel, AddressSpace* as, int num_threads, size_t max_queue)
    : kernel_(kernel), as_(as), max_queue_(max_queue) {
  if (EventRecorder* recorder = kernel_->recorder()) {
    hist_queue_wait_ = recorder->metrics().GetHistogram(
        "prefetch.queue_wait_ns", ExponentialBounds(1000.0, 2.0, 26),
        {{"as", as_->name()}});
  }
  for (int i = 0; i < num_threads; ++i) {
    workers_.push_back(std::make_unique<Worker>(this));
    worker_threads_.push_back(kernel_->Spawn(as_->name() + ":pf" + std::to_string(i), as_,
                                             workers_.back().get(), /*is_daemon=*/true));
  }
}

void PrefetchPool::Enqueue(VPage page) {
  if (queued_.contains(page)) {
    ++duplicates_;
    return;
  }
  if (queue_.size() >= max_queue_) {
    ++dropped_full_;
    return;
  }
  queued_.insert(page);
  queue_.push_back(page);
  if (hist_queue_wait_ != nullptr) {
    enqueued_at_[page] = kernel_->Now();
  }
  ++enqueued_;
  kernel_->Signal(&wq_);
}

Op PrefetchPool::Worker::Next(Kernel& kernel) {
  (void)kernel;
  if (pool_->queue_.empty()) {
    return Op::Wait(&pool_->wq_);
  }
  const VPage page = pool_->queue_.front();
  pool_->queue_.pop_front();
  pool_->queued_.erase(page);
  if (pool_->hist_queue_wait_ != nullptr) {
    if (const auto it = pool_->enqueued_at_.find(page); it != pool_->enqueued_at_.end()) {
      pool_->hist_queue_wait_->Add(static_cast<double>(kernel.Now() - it->second));
      pool_->enqueued_at_.erase(it);
    }
  }
  Op op = Op::Prefetch(page);
  op.as = pool_->as_;
  return op;
}

}  // namespace tmh
