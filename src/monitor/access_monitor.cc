#include "src/monitor/access_monitor.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "src/os/address_space.h"
#include "src/os/kernel.h"
#include "src/vm/frame_table.h"
#include "src/vm/page_table.h"

namespace tmh {

AccessMonitor::AccessMonitor(Kernel& kernel, MonitorConfig config)
    : kernel_(&kernel), config_(config), rng_(config.seed) {
  assert(config_.sample_period > 0);
  assert(config_.samples_per_aggregation > 0);
  assert(config_.min_regions >= 1);
  assert(config_.max_regions >= config_.min_regions);
  kernel_->AttachMonitor(this);
}

AccessMonitor::~AccessMonitor() { kernel_->AttachMonitor(nullptr); }

void AccessMonitor::AddTarget(AddressSpace* as) {
  assert(!started_ && "register targets before Start()");
  explicit_targets_ = true;
  const size_t idx = static_cast<size_t>(as->id());
  if (states_.size() <= idx) {
    states_.resize(idx + 1);
  }
  states_[idx].as = as;
}

void AccessMonitor::Start() {
  assert(!started_ && "Start() called twice");
  started_ = true;
  kernel_->event_queue().ScheduleAfter(config_.sample_period, [this]() { Tick(); });
}

const std::vector<MonitorRegion>* AccessMonitor::RegionsFor(AsId as_id) const {
  const size_t idx = static_cast<size_t>(as_id);
  if (idx >= states_.size() || states_[idx].as == nullptr) {
    return nullptr;
  }
  return &states_[idx].regions;
}

void AccessMonitor::Tick() {
  ++stats_.ticks;
  EnsureStates();
  const bool aggregate = ++ticks_in_window_ >= config_.samples_per_aggregation;
  if (aggregate) {
    ticks_in_window_ = 0;
    ++stats_.aggregations;
  }
  for (AsState& state : states_) {
    if (state.as == nullptr) {
      continue;
    }
    // Order matters: consume last tick's samples first, then — only on window
    // boundaries — close the window (schemes, merge, split restructure the
    // region list), and only then arm fresh samples against the final layout.
    // Arming before restructuring would leave samples pointing into regions
    // that no longer exist.
    Evaluate(state);
    if (aggregate) {
      CloseWindow(state);
    }
    Arm(state);
    stats_.max_regions_seen =
        std::max(stats_.max_regions_seen, static_cast<uint64_t>(state.regions.size()));
  }
  kernel_->event_queue().ScheduleAfter(config_.sample_period, [this]() { Tick(); });
}

void AccessMonitor::EnsureStates() {
  for (const auto& as_ptr : kernel_->address_spaces()) {
    AddressSpace* as = as_ptr.get();
    const size_t idx = static_cast<size_t>(as->id());
    if (states_.size() <= idx) {
      if (explicit_targets_) {
        continue;
      }
      states_.resize(idx + 1);
    }
    AsState& state = states_[idx];
    if (state.as == nullptr) {
      if (explicit_targets_) {
        continue;
      }
      state.as = as;
    }
    if (!state.regions.empty() || as->num_pages() == 0) {
      continue;
    }
    // Initial layout: the whole space split evenly into min_regions pieces
    // (fewer if the space is tiny — every region covers at least one page).
    const int64_t pages = as->num_pages();
    const int64_t n = std::min<int64_t>(config_.min_regions, pages);
    state.regions.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      MonitorRegion r;
      r.begin = pages * i / n;
      r.end = pages * (i + 1) / n;
      state.regions.push_back(r);
    }
  }
}

void AccessMonitor::Evaluate(AsState& state) {
  const PageTable& pt = state.as->page_table();
  const FrameTable& frames = kernel_->frames();
  for (MonitorRegion& region : state.regions) {
    if (region.sampled == kNoVPage) {
      continue;
    }
    ++stats_.samples_checked;
    const Pte& pte = pt.at(region.sampled);
    // Uniform whether arming invalidated the mapping or not: a page that was
    // re-validated by a soft fault, or whose frame picked up a reference bit,
    // or that was never invalidated and is still valid, counts as accessed. A
    // page that went non-resident (stolen, released) counts as not accessed —
    // whatever evicted it judged it idle.
    const bool accessed =
        pte.resident && (pte.valid || frames.referenced(pte.frame));
    if (accessed) {
      ++region.hits;
      ++stats_.samples_hit;
    }
    region.sampled = kNoVPage;
  }
}

void AccessMonitor::CloseWindow(AsState& state) {
  for (MonitorRegion& region : state.regions) {
    region.nr_accesses = region.hits;
    region.hits = 0;
    if (region.nr_accesses <= kColdMaxAccesses) {
      ++region.age;
    } else {
      region.age = 0;
    }
  }
  ApplySchemes(state);
  MergeRegions(state);
  SplitRegions(state);
}

void AccessMonitor::ApplySchemes(AsState& state) {
  AddressSpace* as = state.as;
  int64_t budget = kColdQuotaPages;
  bool enqueued_any = false;
  // Tiered machines: cold releases demote into the deepest tier instead of
  // freeing (depth 0 frees, on a machine without slow tiers).
  const int32_t depth = kernel_->config().num_slow_tiers();
  for (MonitorRegion& region : state.regions) {
    if (config_.release_cold && region.nr_accesses <= kColdMaxAccesses &&
        region.age >= kColdMinAge && budget > 0) {
      ++stats_.cold_regions_actioned;
      for (VPage p = region.begin; p < region.end && budget > 0; ++p) {
        if (kernel_->MonitorEnqueueRelease(as, p, depth)) {
          ++stats_.cold_pages_enqueued;
          --budget;
          enqueued_any = true;
        }
      }
      // Released regions must re-age from scratch before being actioned again
      // — the releaser needs time to drain, and an immediate re-touch should
      // get a full grace period.
      region.age = 0;
    }
    if (config_.protect_hot && region.nr_accesses >= kHotMinAccesses) {
      ++stats_.hot_regions_actioned;
      for (VPage p = region.begin; p < region.end; ++p) {
        if (kernel_->MonitorProtectPage(as, p)) {
          ++stats_.hot_pages_protected;
        }
      }
    }
  }
  if (enqueued_any) {
    kernel_->MonitorPublishReleases(as);
  }
}

void AccessMonitor::MergeRegions(AsState& state) {
  int64_t count = static_cast<int64_t>(state.regions.size());
  if (count <= config_.min_regions) {
    return;
  }
  std::vector<MonitorRegion> merged;
  merged.reserve(state.regions.size());
  for (const MonitorRegion& r : state.regions) {
    if (!merged.empty() && count > config_.min_regions &&
        std::abs(merged.back().nr_accesses - r.nr_accesses) <= kMergeThreshold) {
      MonitorRegion& prev = merged.back();
      const int64_t lp = prev.end - prev.begin;
      const int64_t rp = r.end - r.begin;
      prev.nr_accesses = (prev.nr_accesses * lp + r.nr_accesses * rp) / (lp + rp);
      prev.age = std::min(prev.age, r.age);
      prev.end = r.end;
      --count;
      ++stats_.region_merges;
    } else {
      merged.push_back(r);
    }
  }
  state.regions.swap(merged);
}

void AccessMonitor::SplitRegions(AsState& state) {
  // Split every region in two at a random offset; the next merge pass re-joins
  // neighbors that turn out to behave alike. Guarded so the doubled count
  // never exceeds max_regions — together with the merge floor this bounds the
  // region count (and so per-tick cost) for any access pattern.
  const int64_t count = static_cast<int64_t>(state.regions.size());
  if (count * 2 > config_.max_regions) {
    return;
  }
  std::vector<MonitorRegion> split;
  split.reserve(state.regions.size() * 2);
  for (const MonitorRegion& r : state.regions) {
    const int64_t size = r.end - r.begin;
    if (size < 2) {
      split.push_back(r);
      continue;
    }
    const VPage cut =
        r.begin + 1 + static_cast<VPage>(rng_.NextBelow(static_cast<uint64_t>(size - 1)));
    MonitorRegion left = r;
    left.end = cut;
    MonitorRegion right = r;
    right.begin = cut;
    split.push_back(left);
    split.push_back(right);
    ++stats_.region_splits;
  }
  state.regions.swap(split);
}

void AccessMonitor::Arm(AsState& state) {
  for (MonitorRegion& region : state.regions) {
    const int64_t size = region.end - region.begin;
    if (size <= 0) {
      continue;
    }
    const VPage p =
        region.begin + static_cast<VPage>(rng_.NextBelow(static_cast<uint64_t>(size)));
    // Record the sample whether or not the kernel could invalidate the
    // mapping: Evaluate() reads the same resident/valid/referenced state
    // either way, it just loses the invalidation's extra sensitivity.
    region.sampled = p;
    if (kernel_->MonitorSamplePage(state.as, p)) {
      ++stats_.samples_armed;
    }
  }
}

}  // namespace tmh
