#include "src/check/oracle.h"

#include <algorithm>
#include <sstream>

#include "src/os/kernel.h"

namespace tmh {

void VmOracle::SeedFromKernel(const Kernel& kernel) {
  // Re-derive the sharded pool's shape, then snapshot each node's list.
  const FramePool& pool = kernel.frame_pool();
  const FrameTable& frames = kernel.frames();
  seeded_ = true;
  num_frames_ = frames.size();
  const size_t words = static_cast<size_t>((num_frames_ + 63) / 64);
  owner_.assign(static_cast<size_t>(num_frames_), kNoAs);
  on_free_.assign(words, 0);
  dirty_.assign(words, 0);
  writeback_.assign(words, 0);
  frames_per_node_ = pool.frames_per_node();
  free_.assign(static_cast<size_t>(pool.num_nodes()), {});
  total_free_ = 0;
  for (int node = 0; node < pool.num_nodes(); ++node) {
    const std::vector<FrameId> fl = pool.NodeToVector(node);
    free_[static_cast<size_t>(node)].assign(fl.begin(), fl.end());
    for (const FrameId f : fl) {
      Set(on_free_, f);
    }
    total_free_ += static_cast<int64_t>(fl.size());
  }
  spaces_.assign(kernel.address_spaces().size(), {});
  for (const auto& as : kernel.address_spaces()) {
    Space& space = spaces_[static_cast<size_t>(as->id())];
    space.frames.assign(static_cast<size_t>(as->num_pages()), kNoFrame);
    for (VPage v = 0; v < as->num_pages(); ++v) {
      const Pte& pte = as->page_table().at(v);
      // A resident page naming no frame of the machine is I-PT's to report.
      if (pte.resident && pte.frame >= 0 && pte.frame < num_frames_) {
        space.frames[static_cast<size_t>(v)] = pte.frame;
        ++space.resident;
        owner_[static_cast<size_t>(pte.frame)] = as->id();
      }
    }
  }
  // A dirty frame that is io-busy is mid-writeback.
  for (size_t w = 0; w < words; ++w) {
    dirty_[w] = frames.dirty_words()[w];
    writeback_[w] = frames.dirty_words()[w] & frames.io_busy_words()[w];
  }
  // Slow tiers (memory-tiering extension): snapshot each plane's free pool in
  // pop order and its occupied-frame identity arrays.
  tiers_.clear();
  for (const Kernel::TierPlane& plane : kernel.tier_planes()) {
    TierModel model;
    const std::vector<FrameId> fl = plane.pool->NodeToVector(0);
    model.free.assign(fl.begin(), fl.end());
    for (FrameId tf = 0; tf < plane.frames; ++tf) {
      const size_t i = static_cast<size_t>(tf);
      if (plane.owner[i] != kNoAs) {
        model.pages[{plane.owner[i], plane.vpage[i]}] =
            TierEntry{tf, plane.dirty[i] != 0};
      }
    }
    tiers_.push_back(std::move(model));
  }
  maxrss_pages_ = kernel.config().tunables.maxrss_pages;
  min_freemem_pages_ = kernel.config().tunables.min_freemem_pages;
}

bool VmOracle::HoldFrame(const VmHookEvent& event) {
  const FrameId f = event.frame;
  if (f >= 0 && f < num_frames_) {
    return true;
  }
  if (f < 0 || seeded_ || f >= kMaxGrownId) {
    Diverge(event, "frame " + std::to_string(f) +
                       (seeded_ ? " is outside the machine's " + std::to_string(num_frames_) +
                                      " frames"
                                : std::string(" is outside what the model can hold")));
    return false;
  }
  num_frames_ = int64_t{f} + 1;
  const size_t words = static_cast<size_t>((num_frames_ + 63) / 64);
  owner_.resize(static_cast<size_t>(num_frames_), kNoAs);
  on_free_.resize(words, 0);
  dirty_.resize(words, 0);
  writeback_.resize(words, 0);
  return true;
}

bool VmOracle::HoldPage(const VmHookEvent& event) {
  if (event.as < 0 || event.as >= kMaxGrownId || event.vpage < 0 ||
      event.vpage >= kMaxGrownId) {
    Diverge(event, "page (as=" + std::to_string(event.as) + " vpage=" +
                       std::to_string(event.vpage) + ") is outside what the model can hold");
    return false;
  }
  if (!HoldsSpace(event.as)) {
    spaces_.resize(static_cast<size_t>(event.as) + 1);
  }
  std::vector<FrameId>& frames = spaces_[static_cast<size_t>(event.as)].frames;
  if (event.vpage >= static_cast<VPage>(frames.size())) {
    frames.resize(static_cast<size_t>(event.vpage) + 1, kNoFrame);
  }
  return true;
}

int64_t VmOracle::UpperLimit(AsId as) const {
  // Eq. 1 sees total free memory: shards partition the pool, they do not
  // change how much of it is free.
  const int64_t upper =
      std::min(maxrss_pages_, ResidentCount(as) + total_free_ - min_freemem_pages_);
  return std::max<int64_t>(upper, 0);
}

void VmOracle::Diverge(const VmHookEvent& event, const std::string& what) {
  if (!failure_.empty()) {
    return;
  }
  std::ostringstream os;
  os << "oracle divergence on " << VmHookOpName(event.op) << " (as=" << event.as
     << " vpage=" << event.vpage << " frame=" << event.frame << " a=" << event.a
     << " b=" << event.b << " t=" << event.when << "): " << what;
  failure_ = os.str();
}

void VmOracle::Apply(const VmHookEvent& event) {
  if (!failure_.empty()) {
    return;
  }
  switch (event.op) {
    case VmHookOp::kAlloc: {
      if (total_free_ == 0) {
        Diverge(event, "allocation from an empty free list");
        return;
      }
      if (event.as < 0) {
        Diverge(event, "allocation for an address space with no home node");
        return;
      }
      // The pool must serve the faulting process's home node (as % nodes),
      // falling back to the nearest non-empty node in ascending wrap order.
      const int nodes = num_nodes();
      const int home = static_cast<int>(event.as % nodes);
      int node = home;
      while (free_[static_cast<size_t>(node)].empty()) {
        node = (node + 1) % nodes;
      }
      std::deque<FrameId>& list = free_[static_cast<size_t>(node)];
      if (list.front() != event.frame) {
        Diverge(event, "allocation did not pop the free-list head of node " +
                           std::to_string(node) + " (model head=" +
                           std::to_string(list.front()) + ")");
        return;
      }
      if (Test(dirty_, event.frame)) {
        Diverge(event, "allocated frame is dirty in the model");
        return;
      }
      list.pop_front();
      Clear(on_free_, event.frame);
      --total_free_;
      break;
    }
    case VmHookOp::kMap: {
      if (IsResident(event.as, event.vpage)) {
        Diverge(event, "mapping an already-resident page");
        return;
      }
      if (InFreeList(event.frame)) {
        Diverge(event, "mapping a frame still on the free list");
        return;
      }
      if (const AsId owner = MappedBy(event.frame); owner != kNoAs) {
        Diverge(event, "frame already mapped by as=" + std::to_string(owner));
        return;
      }
      if (!HoldFrame(event) || !HoldPage(event)) {
        return;
      }
      Space& space = spaces_[static_cast<size_t>(event.as)];
      space.frames[static_cast<size_t>(event.vpage)] = event.frame;
      ++space.resident;
      owner_[static_cast<size_t>(event.frame)] = event.as;
      break;
    }
    case VmHookOp::kUnmap: {
      // A page the model has resident names a frame it holds.
      const FrameId model = FrameOf(event.as, event.vpage);
      if (model == kNoFrame) {
        Diverge(event, "unmapping a page the model has non-resident");
        return;
      }
      if (model != event.frame) {
        Diverge(event, "unmap frame mismatch (model frame=" + std::to_string(model) + ")");
        return;
      }
      Space& space = spaces_[static_cast<size_t>(event.as)];
      space.frames[static_cast<size_t>(event.vpage)] = kNoFrame;
      --space.resident;
      owner_[static_cast<size_t>(event.frame)] = kNoAs;
      break;
    }
    case VmHookOp::kFreePushHead:
    case VmHookOp::kFreePushTail: {
      if (InFreeList(event.frame)) {
        Diverge(event, "double free: frame already on the model free list");
        return;
      }
      if (const AsId owner = MappedBy(event.frame); owner != kNoAs) {
        Diverge(event, "freeing a frame still mapped by as=" + std::to_string(owner));
        return;
      }
      if (Test(dirty_, event.frame)) {
        Diverge(event, "freeing a dirty frame without a writeback");
        return;
      }
      if (!HoldFrame(event)) {
        return;
      }
      // Pushes route to the pushed frame's node — never the freeing
      // process's — so a shard only ever holds its own frame range.
      std::deque<FrameId>& list = free_[static_cast<size_t>(NodeOf(event.frame))];
      if (event.op == VmHookOp::kFreePushHead) {
        list.push_front(event.frame);
      } else {
        list.push_back(event.frame);
      }
      Set(on_free_, event.frame);
      ++total_free_;
      break;
    }
    case VmHookOp::kRescue: {
      if (!InFreeList(event.frame)) {
        Diverge(event, "rescue of a frame not on the model free list");
        return;
      }
      std::deque<FrameId>& list = free_[static_cast<size_t>(NodeOf(event.frame))];
      list.erase(std::find(list.begin(), list.end(), event.frame));
      Clear(on_free_, event.frame);
      --total_free_;
      ++rescues_;
      break;
    }
    case VmHookOp::kWritebackBegin: {
      if (!Test(dirty_, event.frame)) {
        Diverge(event, "writeback of a frame the model has clean");
        return;
      }
      if (Test(writeback_, event.frame)) {
        Diverge(event, "duplicate in-flight writeback");
        return;
      }
      Set(writeback_, event.frame);
      ++writebacks_;
      break;
    }
    case VmHookOp::kWritebackEnd: {
      if (!Test(writeback_, event.frame)) {
        Diverge(event, "writeback completion without a matching begin");
        return;
      }
      Clear(writeback_, event.frame);
      if (!Test(dirty_, event.frame)) {
        Diverge(event, "writeback completion on a clean frame");
        return;
      }
      Clear(dirty_, event.frame);
      break;
    }
    case VmHookOp::kDirty: {
      if (Test(dirty_, event.frame)) {
        Diverge(event, "clean->dirty transition on an already-dirty frame");
        return;
      }
      if (!HoldFrame(event)) {
        return;
      }
      Set(dirty_, event.frame);
      break;
    }
    case VmHookOp::kReleaseEnqueue:
      ++releases_enqueued_;
      break;
    case VmHookOp::kReleaserBatch:
      releaser_freed_ += static_cast<uint64_t>(event.a);
      break;
    case VmHookOp::kDaemonSweep:
      daemon_stolen_ += static_cast<uint64_t>(event.a);
      break;
    case VmHookOp::kHeaderUpdate: {
      // The kernel publishes lazily but always from live state, so at the
      // moment of the hook the model must agree exactly (Eq. 1).
      const int64_t current = ResidentCount(event.as);
      const int64_t upper = UpperLimit(event.as);
      if (event.a != current) {
        Diverge(event, "published current usage != model resident count (" +
                           std::to_string(current) + ")");
        return;
      }
      if (event.b != upper) {
        Diverge(event, "published upper limit != model Eq. 1 value (" +
                           std::to_string(upper) + ")");
        return;
      }
      break;
    }
    case VmHookOp::kDemote: {
      // Fires with the page still resident on the DRAM frame; the ordinary
      // kUnmap / kFreePush stream follows. The contents migrate carrying the
      // dirty bit, so the DRAM frame turns clean here (no writeback) and the
      // upcoming free push must pass the dirty check.
      const int tier = static_cast<int>(event.a);
      if (tier < 1 || tier > num_slow_tiers()) {
        Diverge(event, "demotion into a tier the model does not have");
        return;
      }
      TierModel& model = tiers_[static_cast<size_t>(tier - 1)];
      if (FrameOf(event.as, event.vpage) != event.frame) {
        Diverge(event, "demoted page not resident on the hook's frame");
        return;
      }
      if (model.pages.count({event.as, event.vpage}) != 0) {
        Diverge(event, "demoted page already occupies a frame in that tier");
        return;
      }
      if (model.free.empty() || model.free.front() != event.b) {
        Diverge(event, "demotion did not pop the tier free-list head");
        return;
      }
      model.free.pop_front();
      const bool carried = Test(dirty_, event.frame);
      if (carried) {
        Clear(dirty_, event.frame);
      }
      model.pages[{event.as, event.vpage}] =
          TierEntry{static_cast<FrameId>(event.b), carried};
      break;
    }
    case VmHookOp::kPromote: {
      // Fires after kMap, so the model must already see the page resident on
      // the fresh DRAM frame; the carried dirty bit is restored hook-free.
      const int tier = static_cast<int>(event.a);
      if (tier < 1 || tier > num_slow_tiers()) {
        Diverge(event, "promotion out of a tier the model does not have");
        return;
      }
      TierModel& model = tiers_[static_cast<size_t>(tier - 1)];
      const auto it = model.pages.find({event.as, event.vpage});
      if (it == model.pages.end()) {
        Diverge(event, "promotion of a page the model has outside that tier");
        return;
      }
      if (it->second.tf != event.b) {
        Diverge(event, "promotion tier-frame mismatch (model tf=" +
                           std::to_string(it->second.tf) + ")");
        return;
      }
      if (FrameOf(event.as, event.vpage) != event.frame) {
        Diverge(event, "promoted page not resident on the hook's frame");
        return;
      }
      if (it->second.dirty) {
        if (Test(dirty_, event.frame)) {
          Diverge(event, "carried dirty bit restored onto an already-dirty frame");
          return;
        }
        if (!HoldFrame(event)) {
          return;
        }
        Set(dirty_, event.frame);
      }
      model.free.push_front(it->second.tf);
      model.pages.erase(it);
      break;
    }
    case VmHookOp::kTierEvict: {
      // Capacity eviction inside the hierarchy: the victim's tier frame goes
      // back to its pool head; the page cascades one tier deeper (b > 0,
      // popping the deeper pool's head) or falls out to disk (b == 0).
      const int from = static_cast<int>(event.a);
      const int to = static_cast<int>(event.b);
      if (from < 1 || from > num_slow_tiers() || to < 0 || to > num_slow_tiers()) {
        Diverge(event, "tier eviction between tiers the model does not have");
        return;
      }
      TierModel& src = tiers_[static_cast<size_t>(from - 1)];
      const auto it = src.pages.find({event.as, event.vpage});
      if (it == src.pages.end()) {
        Diverge(event, "tier eviction of a page the model has outside the tier");
        return;
      }
      const TierEntry victim = it->second;
      if (to > 0) {
        TierModel& dst = tiers_[static_cast<size_t>(to - 1)];
        if (dst.free.empty() || dst.free.front() != event.frame) {
          Diverge(event, "cascaded eviction did not pop the deeper free-list head");
          return;
        }
        if (dst.pages.count({event.as, event.vpage}) != 0) {
          Diverge(event, "cascaded page already occupies a frame in the deeper tier");
          return;
        }
        dst.free.pop_front();
        dst.pages[{event.as, event.vpage}] = TierEntry{event.frame, victim.dirty};
      }
      src.pages.erase(it);
      src.free.push_front(victim.tf);
      break;
    }
    default:
      break;  // validity changes, release skips, timing edges: no structural change
  }
}

}  // namespace tmh
