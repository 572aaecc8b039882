#include "src/os/paging_daemon.h"

#include <algorithm>
#include <bit>

#include "src/os/kernel.h"
#include "src/vm/frame_table.h"

namespace tmh {

Op PagingDaemon::Next(Kernel& kernel) {
  (void)kernel;
  Kernel& k = *kernel_;
  const Tunables& tun = k.config_.tunables;
  switch (phase_) {
    case Phase::kIdle: {
      AddressSpace* over_rss = FindOverMaxrss();
      if (!active_) {
        if (k.frame_pool_.size() >= tun.min_freemem_pages && over_rss == nullptr) {
          return Op::Wait(&wq_);
        }
        active_ = true;
        scanned_this_round_ = 0;
        sweep_quota_ = static_cast<int64_t>(tun.daemon_min_sweep_fraction *
                                            static_cast<double>(k.frames_.size()));
        ++activations_;
        ++k.stats_.daemon_activations;
      }
      // Keep sweeping until the free target is met AND the minimum reference-
      // bit sampling quota for this activation has been covered.
      if (k.frame_pool_.size() >= tun.target_freemem_pages && over_rss == nullptr &&
          scanned_this_round_ >= sweep_quota_) {
        active_ = false;
        return Op::Wait(&wq_);
      }
      if (scanned_this_round_ >= kMaxScanSweeps * k.frames_.size()) {
        // Full sweeps without reaching the target (e.g. everything io_busy or
        // referenced): yield until the next tick so the system makes progress.
        active_ = false;
        wq_.ClearPendingSignals();
        return Op::Wait(&wq_);
      }
      AddressSpace* as = GatherBatch(over_rss);
      if (as == nullptr) {
        active_ = false;
        wq_.ClearPendingSignals();
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

AddressSpace* PagingDaemon::FindOverMaxrss() const {
  return kernel_->FirstOverMaxrss();
}

AddressSpace* PagingDaemon::GatherBatch(AddressSpace* filter) {
  Kernel& k = *kernel_;
  const FramePool& pool = k.frame_pool_;
  const int nodes = pool.num_nodes();
  if (clock_hands_.empty()) {
    // One hand per node, parked at the node's first frame.
    clock_hands_.reserve(static_cast<size_t>(nodes));
    for (int node = 0; node < nodes; ++node) {
      clock_hands_.push_back(pool.NodeBegin(node));
    }
  }
  // Sweep the most-pressured node first (fewest free pages; ties break to the
  // lowest index so the choice is deterministic), then the others in wrap
  // order until one yields a batch. When hunting a specific over-maxrss
  // space, start at its home node instead: that is where its frames live, and
  // starting anywhere else walks every other tenant's mapped frames
  // one-by-one (the filter rejects them individually) before reaching the
  // right node — O(mapped frames) per daemon cycle at scale.
  int start = 0;
  if (filter != nullptr) {
    start = filter->home_node() % nodes;
  } else {
    for (int node = 1; node < nodes; ++node) {
      if (pool.node_size(node) < pool.node_size(start)) {
        start = node;
      }
    }
  }
  for (int i = 0; i < nodes; ++i) {
    AddressSpace* as = GatherBatchFromNode(filter, (start + i) % nodes);
    if (as != nullptr) {
      return as;
    }
  }
  return nullptr;
}

ClockPass GatherClockBatch(const FrameTable& frames, int64_t begin, int64_t end, int64_t hand,
                           AsId filter, int batch_limit, std::vector<FrameId>* batch,
                           int64_t bound) {
  batch->clear();
  ClockPass pass;
  pass.hand = hand;
  const uint64_t* mapped = frames.mapped_words();
  const uint64_t* io_busy = frames.io_busy_words();
  // One lap is two linear segments, [hand, end) then [begin, hand); `passed`
  // accumulates the frames of each segment finished. Only [lo, top) is
  // loaded: the frames from `bound` on hold no candidate.
  for (int segment = 0; segment < 2; ++segment) {
    const int64_t lo = segment == 0 ? hand : begin;
    const int64_t hi = segment == 0 ? end : hand;
    const int64_t top = std::min(hi, bound);
    if (lo >= hi) {
      continue;
    }
    if (lo >= top) {
      pass.passed += hi - lo;
      continue;
    }
    int64_t w = lo >> 6;
    const int64_t last = (top - 1) >> 6;
    // Candidates of the current word, bits below `lo` (and at or above `top`,
    // in the last word) masked off.
    uint64_t bits = (mapped[w] & ~io_busy[w]) & (~0ULL << (lo & 63));
    while (true) {
      if (w == last) {
        bits &= ~0ULL >> (63 - ((top - 1) & 63));
      }
      while (bits != 0) {
        const int64_t f = (w << 6) + std::countr_zero(bits);
        bits &= bits - 1;
        const AsId as = frames.owner(static_cast<FrameId>(f));
        if (filter != kNoAs && as != filter) {
          continue;
        }
        if (batch->empty()) {
          pass.owner = as;
        } else if (as != pass.owner) {
          // Stop the batch at the owner boundary; rewind so this frame is next.
          pass.hand = f;
          pass.passed += f - lo;
          return pass;
        }
        batch->push_back(static_cast<FrameId>(f));
        if (static_cast<int>(batch->size()) >= batch_limit) {
          pass.hand = f + 1 == end ? begin : f + 1;
          pass.passed += f + 1 - lo;
          return pass;
        }
      }
      if (w == last) {
        break;
      }
      // Words with no candidate cost one load each.
      do {
        ++w;
      } while (w < last && (mapped[w] & ~io_busy[w]) == 0);
      bits = mapped[w] & ~io_busy[w];
    }
    pass.passed += hi - lo;
  }
  return pass;
}

AddressSpace* PagingDaemon::GatherBatchFromNode(AddressSpace* filter, int node) {
  Kernel& k = *kernel_;
  // The hand is confined to this node's frame range: per-node clock aging, so
  // one node's pressure never ages another node's frames.
  int64_t& hand = clock_hands_[static_cast<size_t>(node)];
  const ClockPass pass = GatherClockBatch(
      k.frames_, k.frame_pool_.NodeBegin(node), k.frame_pool_.NodeEnd(node), hand,
      filter == nullptr ? kNoAs : filter->id(), k.config_.tunables.daemon_batch, &batch_,
      k.frame_pool_.high_water(node));
  hand = pass.hand;
  scanned_this_round_ += pass.passed;
  return pass.owner == kNoAs ? nullptr : k.address_spaces_[static_cast<size_t>(pass.owner)].get();
}

SimDuration PagingDaemon::ProcessBatch() {
  Kernel& k = *kernel_;
  const CostModel& costs = k.config_.costs;
  const int64_t target = k.config_.tunables.target_freemem_pages;
  SimDuration cost = 0;
  int64_t stolen = 0;

  // Reactive (VINO-style) path: ask the process which pages to surrender
  // instead of aging its frames with the clock. The daemon still runs — the
  // OS still decides *which process* pays — but this process's victims are
  // self-chosen, so no invalidation soft faults and no bad steals for it.
  if (batch_as_->HasEvictionHandler() && k.frame_pool_.size() < target) {
    const auto wanted = static_cast<int64_t>(batch_.size());
    const std::vector<VPage> victims = batch_as_->AskEvictionHandler(wanted);
    for (const VPage vpage : victims) {
      cost += costs.daemon_scan_per_page;
      if (vpage < 0 || vpage >= batch_as_->num_pages()) {
        continue;
      }
      const Pte& pte = batch_as_->page_table().at(vpage);
      if (!pte.resident || k.frames_.io_busy(pte.frame)) {
        continue;
      }
      const FrameId f = pte.frame;
      k.UnmapFrame(batch_as_, vpage, FreedBy::kDaemon);
      k.FreeFrame(f, /*at_tail=*/false);
      ++k.stats_.daemon_pages_stolen;
      ++k.stats_.reactive_evictions;
      ++batch_as_->stats().pages_stolen_from;
      ++stolen;
    }
    if (!victims.empty()) {
      k.UpdateSharedHeader(batch_as_);
      const SimDuration total = std::max<SimDuration>(cost, 1);
      k.Emit(VmHookOp::kDaemonSweep, k.daemon_thread_->id(), batch_as_->id(), kNoVPage,
             kNoFrame, stolen, total);
      return total;
    }
    // Handler had nothing to offer: fall through to the normal clock pass.
  }

  FrameTable& frames = k.frames_;
  for (const FrameId f : batch_) {
    cost += costs.daemon_scan_per_page;
    if (!frames.mapped(f) || frames.io_busy(f) || frames.owner(f) != batch_as_->id()) {
      continue;  // state changed while we waited for the lock
    }
    const VPage vpage = frames.vpage(f);
    Pte& pte = batch_as_->page_table().at(vpage);
    const bool possibly_referenced =
        pte.valid || frames.referenced(f) ||
        pte.invalid_reason == InvalidReason::kFreshPrefetch;
    if (possibly_referenced) {
      // Sample the reference bit in software: invalidate the mapping; a later
      // touch will soft-fault and prove liveness.
      pte.valid = false;
      if (pte.invalid_reason != InvalidReason::kReleasePending) {
        pte.invalid_reason = InvalidReason::kDaemonInvalidated;
      }
      frames.set_referenced(f, false);
      ++k.stats_.daemon_invalidations;
      ++batch_as_->stats().invalidations_received;
      k.Emit(VmHookOp::kInvalidate, k.daemon_thread_->id(), batch_as_->id(), vpage, f,
             static_cast<int64_t>(InvalidReason::kDaemonInvalidated));
    } else if (k.frame_pool_.size() >= target &&
               batch_as_->page_table().resident_count() <=
                   k.config_.tunables.maxrss_pages) {
      // Above the free target this pass only samples reference bits; the
      // frame stays a steal candidate for the next shortage.
      continue;
    } else {
      // Unreferenced since the last pass: steal it.
      k.UnmapFrame(batch_as_, vpage, FreedBy::kDaemon);
      k.FreeFrame(f, /*at_tail=*/false);
      cost += costs.daemon_steal_per_page;
      ++k.stats_.daemon_pages_stolen;
      ++batch_as_->stats().pages_stolen_from;
      ++stolen;
    }
  }
  k.UpdateSharedHeader(batch_as_);
  const SimDuration total = std::max<SimDuration>(cost, 1);
  k.Emit(VmHookOp::kDaemonSweep, k.daemon_thread_->id(), batch_as_->id(), kNoVPage, kNoFrame,
         stolen, total);
  return total;
}

}  // namespace tmh
