#include "src/runtime/runtime_layer.h"

#include <algorithm>
#include <cassert>

namespace tmh {

RuntimeLayer::RuntimeLayer(Kernel* kernel, AddressSpace* as, const RuntimeOptions& options)
    : kernel_(kernel),
      as_(as),
      options_(options),
      pool_(kernel, as, options.num_prefetch_threads) {
  assert(as_->HasPagingDirected() && "attach the PagingDirected PM before the run-time layer");
}

SimDuration RuntimeLayer::OnPrefetchHint(VPage page) {
  ++stats_.prefetch_hints;
  SimDuration cost = options_.hint_check_cost;
  if (page < 0 || page >= as_->num_pages()) {
    return cost;
  }
  // Bitmap check: prefetching a resident page is pure overhead.
  if (as_->bitmap()->Test(page)) {
    ++stats_.prefetch_filtered_resident;
    return cost;
  }
  pool_.Enqueue(page);
  ++stats_.prefetch_enqueued;
  return cost + options_.enqueue_cost;
}

SimDuration RuntimeLayer::OnReleaseHint(VPage page, int32_t priority, int32_t tag,
                                        std::vector<Op>& out) {
  ++stats_.release_hints;
  SimDuration cost = options_.hint_check_cost;
  if (page < 0 || page >= as_->num_pages()) {
    return cost;
  }
  // Tag filter: the first request for a tag is recorded; a repeat of the same
  // page means it is still in use and is dropped; a different page causes the
  // *previously recorded* page to be handled, keeping issued releases one or
  // more iterations behind the compiler's stream.
  //
  // The compiled hint stream names one tag for long runs (one hint per
  // iteration of the same nest), so the map node found last time is cached and
  // re-hit without a hash lookup. unordered_map never invalidates element
  // pointers on insert; FlushTag (the only erase) drops the cache.
  VPage* last;
  if (tag == cached_tag_ && cached_last_ != nullptr) {
    last = cached_last_;
  } else {
    auto [it, inserted] = last_release_.try_emplace(tag, page);
    cached_tag_ = tag;
    cached_last_ = &it->second;
    if (inserted) {
      return cost;
    }
    last = cached_last_;
  }
  if (*last == page) {
    ++stats_.release_filtered_same_page;
    return cost;
  }
  const VPage previous = *last;
  *last = page;
  PolicyAccept(previous, priority, tag, out);
  return cost + options_.enqueue_cost;
}

SimDuration RuntimeLayer::OnPrefetchHintBatch(VPage page, int64_t repeats) {
  if (repeats <= 0) {
    return 0;
  }
  SimDuration cost = OnPrefetchHint(page);
  // The remaining repeats hit the bitmap filter (the page was just enqueued or
  // already resident) or the same-page dedup in the pool.
  stats_.prefetch_hints += repeats - 1;
  stats_.prefetch_filtered_resident += repeats - 1;
  cost += (repeats - 1) * options_.hint_check_cost;
  return cost;
}

SimDuration RuntimeLayer::OnReleaseHintBatch(VPage page, int32_t priority, int32_t tag,
                                             int64_t repeats, std::vector<Op>& out) {
  if (repeats <= 0) {
    return 0;
  }
  SimDuration cost = OnReleaseHint(page, priority, tag, out);
  // The remaining repeats name the same page and die in the tag filter.
  stats_.release_hints += repeats - 1;
  stats_.release_filtered_same_page += repeats - 1;
  cost += (repeats - 1) * options_.hint_check_cost;
  return cost;
}

SimDuration RuntimeLayer::FlushTag(int32_t tag, std::vector<Op>& out) {
  const auto it = last_release_.find(tag);
  if (it == last_release_.end()) {
    return 0;
  }
  ++stats_.tag_flushes;
  const VPage page = it->second;
  last_release_.erase(it);
  cached_last_ = nullptr;  // the erased node may be the cached one
  int32_t priority = 0;
  if (const auto tq = tag_queues_.find(tag); tq != tag_queues_.end()) {
    priority = tq->second.priority;
  }
  PolicyAccept(page, priority, tag, out);
  return options_.hint_check_cost;
}

void RuntimeLayer::PolicyAccept(VPage page, int32_t priority, int32_t tag,
                                std::vector<Op>& out) {
  // Bitmap check on the page actually being released (the hint stream runs a
  // page ahead of this one): pages not in memory need no release.
  if (!as_->bitmap()->Test(page)) {
    ++stats_.release_filtered_not_resident;
    return;
  }
  if (options_.reactive) {
    // Reactive mode: record the page as an eviction candidate; the OS will
    // pull it through the eviction handler if and when it wants memory.
    reactive_candidates_[priority].push_back(page);
    ++stats_.reactive_candidates;
    return;
  }
  if (!options_.buffered || priority == 0) {
    // Aggressive policy, and the buffered policy's no-reuse fast path:
    // "requests with no reuse are issued to the OS after the simple checks."
    EmitRelease(page, priority, tag, out);
    ++stats_.releases_issued_immediate;
    return;
  }
  if (tag != cached_queue_tag_ || cached_queue_ == nullptr) {
    cached_queue_tag_ = tag;
    cached_queue_ = &tag_queues_[tag];
  }
  TagQueue& queue = *cached_queue_;
  if (queue.pages.empty() && queue.priority == 0) {
    queue.priority = priority;
    priority_list_[priority].push_back(tag);
  }
  queue.pages.push_back(page);
  ++buffered_pages_;
  ++stats_.releases_buffered;
  MaybeDrain(out);
}

void RuntimeLayer::MaybeDrain(std::vector<Op>& out) {
  // "When a release request is placed into one of the queues, the current
  // memory usage and memory limit are checked."
  const ResidencyBitmap& bitmap = *as_->bitmap();
  if (bitmap.current_usage() + options_.limit_margin_pages < bitmap.upper_limit()) {
    return;
  }
  if (buffered_pages_ == 0) {
    return;
  }
  ++stats_.release_drains;
  int remaining = options_.release_batch;
  // Lowest priority first; round-robin across the tags at each priority;
  // within a tag, most-recently-released first (MRU for swept arrays).
  for (auto& [priority, tags] : priority_list_) {
    // Resolve each tag's queue once per drain. The round-robin below revisits
    // every tag once per pass, so for a ~100-page batch spread over a few tags
    // that was one hash lookup per page; against the scratch array it is an
    // indexed load. The bitmap reference hoisted above is equally valid for
    // the stale check: draining only appends Ops, it never flips residency.
    drain_queues_.clear();
    drain_queues_.reserve(tags.size());
    for (const int32_t tag : tags) {
      drain_queues_.push_back(&tag_queues_[tag]);
    }
    bool any = true;
    while (remaining > 0 && any) {
      any = false;
      for (size_t i = 0; i < tags.size(); ++i) {
        TagQueue& queue = *drain_queues_[i];
        if (queue.pages.empty() || remaining == 0) {
          continue;
        }
        VPage page;
        if (options_.drain_newest_first) {
          page = queue.pages.back();
          queue.pages.pop_back();
        } else {
          page = queue.pages.front();
          queue.pages.pop_front();
        }
        --buffered_pages_;
        any = true;
        if (!bitmap.Test(page)) {
          ++stats_.buffer_stale_dropped;  // already reclaimed some other way
          continue;
        }
        EmitRelease(page, priority, tags[i], out);
        ++stats_.releases_issued_from_buffer;
        --remaining;
      }
    }
    if (remaining == 0) {
      break;
    }
  }
  kernel_->Emit(VmHookOp::kRuntimeDrain, kKernelTid, as_->id(), kNoVPage, kNoFrame,
                options_.release_batch - remaining);
}

std::vector<VPage> RuntimeLayer::TakeEvictionCandidates(int64_t count) {
  std::vector<VPage> victims;
  for (auto& [priority, pages] : reactive_candidates_) {
    while (!pages.empty() && static_cast<int64_t>(victims.size()) < count) {
      const VPage page = pages.front();
      pages.pop_front();
      if (!as_->bitmap()->Test(page)) {
        ++stats_.buffer_stale_dropped;  // already reclaimed some other way
        continue;
      }
      victims.push_back(page);
      ++stats_.reactive_served;
    }
    if (static_cast<int64_t>(victims.size()) >= count) {
      break;
    }
  }
  return victims;
}

void RuntimeLayer::EmitRelease(VPage page, int32_t priority, int32_t tag,
                               std::vector<Op>& out) {
  Op op = Op::Release(page, 1, priority, tag);
  op.as = as_;
  out.push_back(op);
}

}  // namespace tmh
