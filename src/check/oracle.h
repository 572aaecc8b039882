// Differential reference model ("oracle") for the VM subsystem.
//
// A deliberately simple shadow of the kernel's memory state: the free list is
// a plain deque per memory node, residency is a plain vector per address
// space (the frame backing each vpage), and each frame keeps its owning
// address space and one bit each for free-list membership, dirty and
// writeback in flight. No wheels, no sentinels, no intrusive links, no
// small-buffer tricks — the point is that this model is simple enough to be
// obviously correct, so any disagreement with the optimized kernel implicates
// the kernel (or a missing hook), not the model. Every replayed hook costs
// O(1), except a rescue, which erases from the middle of a deque.
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
//
// Ids index the model's arrays directly. A lookup of an id the model does not
// hold finds nothing. A hook that would store a negative id, a frame past a
// seeded machine's frames, or an id at or past kMaxGrownId diverges; below
// that bound the per-page arrays, and an unseeded oracle's per-frame arrays,
// grow to hold the id.

#ifndef TMH_SRC_CHECK_ORACLE_H_
#define TMH_SRC_CHECK_ORACLE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/os/vm_hooks.h"
#include "src/vm/types.h"

namespace tmh {

class Kernel;

class VmOracle {
 public:
  // Ids the model grows its arrays to hold stay below this.
  static constexpr int64_t kMaxGrownId = int64_t{1} << 24;

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
  [[nodiscard]] bool IsResident(AsId as, VPage vpage) const {
    return FrameOf(as, vpage) != kNoFrame;
  }
  // Frame the model believes backs (as, vpage), or kNoFrame.
  [[nodiscard]] FrameId FrameOf(AsId as, VPage vpage) const {
    const std::span<const FrameId> pages = PageFrames(as);
    return vpage >= 0 && vpage < static_cast<VPage>(pages.size())
               ? pages[static_cast<size_t>(vpage)]
               : kNoFrame;
  }
  [[nodiscard]] int64_t ResidentCount(AsId as) const {
    return HoldsSpace(as) ? spaces_[static_cast<size_t>(as)].resident : 0;
  }
  // The frame backing each vpage of `as`, indexed by vpage (kNoFrame: not
  // resident). Pages past the end are not resident.
  [[nodiscard]] std::span<const FrameId> PageFrames(AsId as) const {
    if (!HoldsSpace(as)) {
      return {};
    }
    return spaces_[static_cast<size_t>(as)].frames;
  }
  // The dirty set, one bit per frame (bit f % 64 of word f / 64). Frames
  // past the end are clean.
  [[nodiscard]] std::span<const uint64_t> dirty_words() const { return dirty_; }

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
  // One address space: the frame backing each vpage, and how many do.
  struct Space {
    std::vector<FrameId> frames;
    int64_t resident = 0;
  };

  void Diverge(const VmHookEvent& event, const std::string& what);
  // Make room for the hook's frame, or its (as, vpage), in the model's
  // arrays; false (after a divergence) when the model cannot hold it.
  [[nodiscard]] bool HoldFrame(const VmHookEvent& event);
  [[nodiscard]] bool HoldPage(const VmHookEvent& event);
  [[nodiscard]] bool HoldsSpace(AsId as) const {
    return as >= 0 && static_cast<size_t>(as) < spaces_.size();
  }

  // Per-frame bits. Reads of frames the model does not hold see a clear bit;
  // writes are only ever made to frames it holds.
  [[nodiscard]] bool Test(const std::vector<uint64_t>& words, FrameId f) const {
    return f >= 0 && f < num_frames_ &&
           ((words[static_cast<size_t>(f) >> 6] >> (f & 63)) & 1) != 0;
  }
  static void Set(std::vector<uint64_t>& words, FrameId f) {
    words[static_cast<size_t>(f) >> 6] |= uint64_t{1} << (f & 63);
  }
  static void Clear(std::vector<uint64_t>& words, FrameId f) {
    words[static_cast<size_t>(f) >> 6] &= ~(uint64_t{1} << (f & 63));
  }
  [[nodiscard]] bool InFreeList(FrameId f) const { return Test(on_free_, f); }
  // The address space whose page `f` backs, or kNoAs.
  [[nodiscard]] AsId MappedBy(FrameId f) const {
    return f >= 0 && f < num_frames_ ? owner_[static_cast<size_t>(f)] : kNoAs;
  }

  // One deque per memory node. Default-constructed (unseeded) oracles model a
  // single node covering every frame, matching the historical flat list.
  std::vector<std::deque<FrameId>> free_ = std::vector<std::deque<FrameId>>(1);
  int64_t total_free_ = 0;
  int64_t frames_per_node_ = INT64_MAX;
  std::vector<Space> spaces_;  // indexed by AsId

  // Per-frame state, indexed by FrameId: frames [0, num_frames_) are held. A
  // seeded model holds exactly the machine's frames; an unseeded one grows.
  bool seeded_ = false;
  int64_t num_frames_ = 0;
  std::vector<AsId> owner_;         // kNoAs = unmapped
  std::vector<uint64_t> on_free_;   // on a node's free list
  std::vector<uint64_t> dirty_;
  std::vector<uint64_t> writeback_;  // page-outs in flight
  std::vector<TierModel> tiers_;     // slow tiers, index = tier-1

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
