// Differential reference model ("oracle") for the VM subsystem.
//
// A deliberately simple shadow of the kernel's memory state: the free list is
// a plain deque per memory node, residency is a map per address space, the
// dirty set is a std::set. No wheels, no sentinels, no intrusive links, no
// small-buffer tricks — the point is that this model is simple enough to be
// obviously correct, so any disagreement with the optimized kernel implicates
// the kernel (or a missing hook), not the model.
//
// The model is byte-honest per node: it re-derives the kernel's frame->node
// partition (contiguous ranges) and home-node rule (as_id % nodes) from the
// machine shape alone, routes every push to the pushed frame's node, and
// demands that every allocation pop the head of the first non-empty node
// deque in wrap order from the faulting process's home node — exactly the
// sharded pool's behavior, independently recomputed.
//
// The oracle replays the kernel-visible operation stream (src/os/vm_hooks.h):
// frame allocation, map/unmap, free-list pushes, rescues, writebacks, dirty
// transitions, shared-header updates, and — on tiered machines — the
// demote/promote/evict migration stream, replayed against per-tier page maps
// and free lists of its own. Each operation is checked against
// the model as it is applied — an allocation must pop the model's free-list
// head, a rescue must find the frame mid-list, a writeback must target a
// dirty frame, a published Eq. 1 header must match the model's own
// recomputation — and the first disagreement is recorded as a divergence.

#ifndef TMH_SRC_CHECK_ORACLE_H_
#define TMH_SRC_CHECK_ORACLE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/os/vm_hooks.h"
#include "src/vm/types.h"

namespace tmh {

class Kernel;

class VmOracle {
 public:
  // Rebuilds the model from the kernel's current state, so a checker can
  // attach at any quiescent moment (typically right after construction).
  void SeedFromKernel(const Kernel& kernel);

  // Replays one kernel-visible operation. Records the first operation that
  // disagrees with the model; after that the oracle stops mutating.
  void Apply(const VmHookEvent& event);

  [[nodiscard]] bool ok() const { return failure_.empty(); }
  [[nodiscard]] const std::string& failure() const { return failure_; }

  // --- model views (for the invariant checker and tests) ---------------------

  // Per-node free lists, head-to-tail allocation order.
  [[nodiscard]] int num_nodes() const { return static_cast<int>(free_.size()); }
  [[nodiscard]] const std::deque<FrameId>& free_node(int node) const {
    return free_[static_cast<size_t>(node)];
  }
  // Total free frames across nodes.
  [[nodiscard]] int64_t FreeCount() const { return total_free_; }
  // The node owning `f`'s frame range (the kernel's contiguous partition,
  // re-derived independently).
  [[nodiscard]] int NodeOf(FrameId f) const {
    return static_cast<int>(f / frames_per_node_);
  }
  [[nodiscard]] bool IsResident(AsId as, VPage vpage) const;
  // Frame the model believes backs (as, vpage), or kNoFrame.
  [[nodiscard]] FrameId FrameOf(AsId as, VPage vpage) const;
  [[nodiscard]] int64_t ResidentCount(AsId as) const;
  // The model's resident pages of `as` (vpage -> frame), in vpage order.
  [[nodiscard]] const std::map<VPage, FrameId>& ResidentPages(AsId as) const;
  [[nodiscard]] const std::set<FrameId>& dirty() const { return dirty_; }

  // Per-slow-tier reference model (memory-tiering extension): which (as,
  // vpage) each occupied tier frame holds with its carried dirty bit, plus
  // the tier's free list in pop order. Index = slow tier number minus one.
  struct TierEntry {
    FrameId tf = kNoFrame;
    bool dirty = false;
  };
  struct TierModel {
    std::map<std::pair<AsId, VPage>, TierEntry> pages;
    std::deque<FrameId> free;
  };
  [[nodiscard]] int num_slow_tiers() const { return static_cast<int>(tiers_.size()); }
  [[nodiscard]] const TierModel& tier(int slow_index) const {
    return tiers_[static_cast<size_t>(slow_index)];
  }

  // Eq. 1 recomputed from the model's own state:
  //   upper = max(0, min(maxrss, resident + free - min_freemem)).
  [[nodiscard]] int64_t UpperLimit(AsId as) const;

  // Replayed-operation counters (for conformance tests).
  [[nodiscard]] uint64_t releases_enqueued() const { return releases_enqueued_; }
  [[nodiscard]] uint64_t releaser_freed() const { return releaser_freed_; }
  [[nodiscard]] uint64_t daemon_stolen() const { return daemon_stolen_; }
  [[nodiscard]] uint64_t writebacks() const { return writebacks_; }
  [[nodiscard]] uint64_t rescues() const { return rescues_; }

 private:
  void Diverge(const VmHookEvent& event, const std::string& what);
  [[nodiscard]] bool InFreeList(FrameId f) const;

  // One deque per memory node. Default-constructed (unseeded) oracles model a
  // single node covering every frame, matching the historical flat list.
  std::vector<std::deque<FrameId>> free_ = std::vector<std::deque<FrameId>>(1);
  int64_t total_free_ = 0;
  int64_t frames_per_node_ = INT64_MAX;
  std::map<AsId, std::map<VPage, FrameId>> resident_;
  std::map<FrameId, std::pair<AsId, VPage>> mapped_;  // reverse of resident_
  std::set<FrameId> dirty_;
  std::set<FrameId> writeback_;                    // page-outs in flight
  std::vector<TierModel> tiers_;                   // slow tiers, index = tier-1

  int64_t maxrss_pages_ = 0;
  int64_t min_freemem_pages_ = 0;

  uint64_t releases_enqueued_ = 0;
  uint64_t releaser_freed_ = 0;
  uint64_t daemon_stolen_ = 0;
  uint64_t writebacks_ = 0;
  uint64_t rescues_ = 0;

  std::string failure_;
};

}  // namespace tmh

#endif  // TMH_SRC_CHECK_ORACLE_H_
