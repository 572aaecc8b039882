#include "src/os/releaser.h"

#include <algorithm>

#include "src/os/kernel.h"

namespace tmh {

Op Releaser::Next(Kernel& kernel) {
  (void)kernel;
  switch (phase_) {
    case Phase::kIdle: {
      AddressSpace* as = GatherBatch();
      if (as == nullptr) {
        return Op::Wait(&wq_);
      }
      batch_as_ = as;
      phase_ = Phase::kLocked;
      return Op::Acquire(&as->memory_lock());
    }
    case Phase::kLocked: {
      const SimDuration cost = ProcessBatch();
      phase_ = Phase::kUnlock;
      return Op::Compute(cost);
    }
    case Phase::kUnlock:
      phase_ = Phase::kIdle;
      return Op::ReleaseL(&batch_as_->memory_lock());
  }
  return Op::Exit();
}

AddressSpace* Releaser::GatherBatch() {
  Kernel& k = *kernel_;
  batch_.clear();
  if (k.release_work_.empty()) {
    return nullptr;
  }
  const AsId as = k.release_work_.front().as;
  const int batch_limit = k.config_.tunables.releaser_batch;
  while (!k.release_work_.empty() && static_cast<int>(batch_.size()) < batch_limit &&
         k.release_work_.front().as == as) {
    batch_.push_back(BatchEntry{k.release_work_.front().vpage,
                                k.release_work_.front().depth});
    k.release_work_.pop_front();
  }
  batch_resolved_ = false;
  return k.address_spaces_[static_cast<size_t>(as)].get();
}

SimDuration Releaser::ProcessBatch() {
  Kernel& k = *kernel_;
  const CostModel& costs = k.config_.costs;
  // One batch touches one address space (GatherBatch stops at a boundary), so
  // resolve its tables and counters once for the whole ~batch_limit pass.
  PageTable& page_table = batch_as_->page_table();
  AsStats& as_stats = batch_as_->stats();
  FrameTable& frames = k.frames_;
  const bool release_to_tail = k.config_.tunables.release_to_tail;
  SimDuration cost = 0;
  int64_t freed = 0;
  ++k.stats_.releaser_batches;
  for (const BatchEntry& entry : batch_) {
    const VPage p = entry.vpage;
    cost += costs.releaser_per_page;
    Pte& pte = page_table.at(p);
    // Re-check that the page has not been referenced again (a re-touch
    // revalidated the mapping and re-set the bitmap bit) and is still ours.
    if (!pte.resident || pte.valid ||
        pte.invalid_reason != InvalidReason::kReleasePending ||
        !frames.mapped(pte.frame) || frames.io_busy(pte.frame)) {
      ++k.stats_.releaser_skipped;
      ++as_stats.releases_skipped;
      k.Emit(VmHookOp::kReleaseSkip, k.releaser_thread_->id(), batch_as_->id(), p, pte.frame);
      continue;
    }
    const FrameId f = pte.frame;
    if (TMH_UNLIKELY(entry.depth > 0)) {
      // Tiered machine: the release is a demotion hint — migrate the page
      // into its Eq. 2-chosen tier instead of dropping it to the free list.
      cost += k.DemotePage(batch_as_, p, entry.depth);
    } else {
      k.UnmapFrame(batch_as_, p, FreedBy::kReleaser);
      k.FreeFrame(f, /*at_tail=*/release_to_tail);
    }
    ++k.stats_.releaser_pages_freed;
    ++as_stats.pages_released;
    ++freed;
    k.Emit(VmHookOp::kReleaseFree, k.releaser_thread_->id(), batch_as_->id(), p, f);
  }
  k.UpdateSharedHeader(batch_as_);
  batch_resolved_ = true;
  const SimDuration total = std::max<SimDuration>(cost, 1);
  k.Emit(VmHookOp::kReleaserBatch, k.releaser_thread_->id(), batch_as_->id(), kNoVPage,
         kNoFrame, freed, total);
  return total;
}

}  // namespace tmh
