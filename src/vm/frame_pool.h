// Sharded (NUMA-style) pool of free physical frames.
//
// The physical frame range is partitioned contiguously into up to 64 nodes;
// each node owns an independent free list (head pops for allocation, head
// pushes for daemon steals, tail pushes for releases so too-early releases
// can be rescued, O(1) mid-list removal for rescue; Section 3.1.2). All nodes share ONE pair of prev_/next_ link arrays —
// a frame is on at most one node's list, namely the node that owns its frame
// range — so the footprint is 2*sizeof(FrameId) bytes/frame regardless of
// node count, and membership (Contains) stays one load against the sentinel.
//
// Each link is stored relative to the frame's ascending neighbour: prev_[id]
// holds prev - (id - 1) and next_[id] holds next - (id + 1), in unsigned
// wrap-around arithmetic. All-zero link arrays therefore chain every frame to
// id - 1 and id + 1, which is each node's list in ascending order once the
// two end links of each node are cut. The all-free constructor does exactly
// that, writing O(nodes) words; the arrays are ZeroedArrays, so a 10^7-frame
// machine commits a page of links only when a simulated frame first moves.
// The encoding is a bijection on 32-bit values, so every operation links and
// unlinks the same frames in the same order as plain indices would.
//
// Each node keeps a high-water mark: one past the highest of its frames that
// ever left its free list (pop or rescue). A booted node's frames at or above
// the mark have been free since boot, so the paging daemon's clock pass does
// not load them (GatherClockBatch) and the checker holds them unmapped.
//
// Allocation prefers the caller's home node and falls back to the nearest
// (by index, wrapping) non-empty node. The fallback is O(1): a 64-bit
// occupancy mask rotated so the home node is bit 0, then countr_zero. This
// is why num_nodes is capped at 64.
//
// With num_nodes == 1 every operation degenerates to the paper's single free
// list (one anchor, one link discipline), so golden outputs and fuzz digests
// of 1-node configurations do not depend on the sharding.

#ifndef TMH_SRC_VM_FRAME_POOL_H_
#define TMH_SRC_VM_FRAME_POOL_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "src/vm/types.h"
#include "src/vm/zeroed_array.h"

namespace tmh {

class FramePool {
 public:
  static constexpr int kMaxNodes = 64;

  // An empty pool: every frame unlinked, so every frame counts as having left
  // its list (each node's high-water mark starts at NodeEnd).
  FramePool(int64_t num_frames, int num_nodes) : FramePool(num_frames, num_nodes, Zeroed{}) {
    for (FrameId id = 0; id < num_frames_; ++id) {
      SetPrev(id, kUnlinked);
      SetNext(id, kUnlinked);
    }
    for (int node = 0; node < num_nodes_; ++node) {
      high_water_[static_cast<size_t>(node)] = NodeEnd(node);
    }
  }

  // A freshly booted machine's pool: every frame free, each node's list its
  // own frame range in ascending order. Equal in every observable, counters
  // included, to an empty pool after PushTail(0), ..., PushTail(n - 1), except
  // that no frame has left a list yet: each high-water mark is NodeBegin.
  struct AllFree {};
  FramePool(int64_t num_frames, int num_nodes, AllFree)
      : FramePool(num_frames, num_nodes, Zeroed{}) {
    for (int node = 0; node < num_nodes_; ++node) {
      const auto n = static_cast<size_t>(node);
      const FrameId begin = NodeBegin(node);
      const FrameId end = NodeEnd(node);
      high_water_[n] = begin;
      if (begin >= end) continue;  // trailing nodes of a short machine own no frames
      SetPrev(begin, kNoFrame);
      SetNext(end - 1, kNoFrame);
      head_[n] = begin;
      tail_[n] = end - 1;
      node_size_[n] = end - begin;
      nonempty_mask_ |= uint64_t{1} << n;
    }
    size_ = num_frames_;
    tail_pushes_ = static_cast<uint64_t>(num_frames_);
  }

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  [[nodiscard]] int num_nodes() const { return num_nodes_; }
  [[nodiscard]] int64_t frames_per_node() const { return frames_per_node_; }

  // The node owning frame `id`'s range. Contiguous partition: frames
  // [n*frames_per_node, (n+1)*frames_per_node) belong to node n.
  [[nodiscard]] int NodeOf(FrameId id) const {
    return static_cast<int>(id / frames_per_node_);
  }

  // First frame of `node`'s range (the daemon's per-node clock origin).
  [[nodiscard]] FrameId NodeBegin(int node) const {
    return static_cast<FrameId>(node * frames_per_node_);
  }
  // One past the last frame of `node`'s range (the range may be short on the
  // final node when num_frames doesn't divide evenly).
  [[nodiscard]] FrameId NodeEnd(int node) const {
    const int64_t end = (node + 1) * frames_per_node_;
    return static_cast<FrameId>(end < num_frames_ ? end : num_frames_);
  }

  // Pushes a frame at the head of its owning node's list.
  void PushHead(FrameId id) {
    const int node = NodeOf(id);
    Link(id, kNoFrame, head_[static_cast<size_t>(node)], node);
    ++head_pushes_;
  }

  // Pushes a frame at the tail of its owning node's list (maximizes rescue
  // odds, Section 3.1.2).
  void PushTail(FrameId id) {
    const int node = NodeOf(id);
    Link(id, tail_[static_cast<size_t>(node)], kNoFrame, node);
    ++tail_pushes_;
  }

  // Pops the head of `preferred_node`'s list; if that node is exhausted,
  // falls back to the nearest non-empty node by ascending index, wrapping
  // (home, home+1, ..., N-1, 0, ...). Returns kNoFrame only when every node
  // is empty. O(1): rotate the occupancy mask + countr_zero.
  FrameId PopHead(int preferred_node) {
    if (nonempty_mask_ == 0) return kNoFrame;
    const auto shift = static_cast<unsigned>(preferred_node);
    const uint64_t rotated = std::rotr(nonempty_mask_, static_cast<int>(shift));
    // Wrapped-around bits land at positions >= 64 - shift, above every
    // unwrapped candidate (< num_nodes - shift), so countr_zero picks the
    // nearest node in wrap order.
    const int node =
        (preferred_node + std::countr_zero(rotated)) & (kMaxNodes - 1);
    return PopHeadFromNode(node);
  }

  // Pops the head of exactly `node`'s list, or kNoFrame if it is empty.
  FrameId PopHeadFromNode(int node) {
    const FrameId id = head_[static_cast<size_t>(node)];
    if (id == kNoFrame) return kNoFrame;
    Unlink(id, node);
    return id;
  }

  // Removes `id` from anywhere in its node's list (rescue path). `id` must
  // be linked.
  void Remove(FrameId id) {
    Unlink(id, NodeOf(id));
    ++rescues_;
  }

  // O(1): one load and compare against the unlinked sentinel. This is the
  // releaser/rescue fast path — the kernel probes it on every fault for a
  // page whose frame may still be on the free list (Section 3.1.2).
  [[nodiscard]] bool Contains(FrameId id) const {
    return id >= 0 && id < num_frames_ && Prev(id) != kUnlinked;
  }

  [[nodiscard]] int64_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] int64_t node_size(int node) const {
    return node_size_[static_cast<size_t>(node)];
  }

  // One past the highest frame of `node` that ever left its free list. Only
  // PopHeadFromNode and Remove raise it, and it never falls.
  [[nodiscard]] FrameId high_water(int node) const {
    return high_water_[static_cast<size_t>(node)];
  }

  // Link views for checkers that walk a list in place: the head of `node`'s
  // list and the frame after `id` (kNoFrame at the tail). `id` must be linked.
  [[nodiscard]] FrameId head(int node) const { return head_[static_cast<size_t>(node)]; }
  [[nodiscard]] FrameId next(FrameId id) const { return Next(id); }

  // Snapshot of one node's list head-to-tail, for checkers and tests. Walks
  // the intrusive links, so it also validates their consistency.
  [[nodiscard]] std::vector<FrameId> NodeToVector(int node) const {
    std::vector<FrameId> out;
    out.reserve(static_cast<size_t>(node_size_[static_cast<size_t>(node)]));
    for (FrameId id = head_[static_cast<size_t>(node)]; id != kNoFrame; id = Next(id)) {
      out.push_back(id);
    }
    return out;
  }

  // All nodes concatenated in node order (node 0 head..tail, node 1, ...).
  [[nodiscard]] std::vector<FrameId> ToVector() const {
    std::vector<FrameId> out;
    out.reserve(static_cast<size_t>(size_));
    for (int node = 0; node < num_nodes_; ++node) {
      for (FrameId id = head_[static_cast<size_t>(node)]; id != kNoFrame; id = Next(id)) {
        out.push_back(id);
      }
    }
    return out;
  }

  // Lifetime counters for Figure 9's freed-page outcome breakdown
  // (aggregated across nodes).
  [[nodiscard]] uint64_t total_head_pushes() const { return head_pushes_; }
  [[nodiscard]] uint64_t total_tail_pushes() const { return tail_pushes_; }
  [[nodiscard]] uint64_t total_rescues() const { return rescues_; }

  // Host memory reserved for the pool's per-frame structures; the host
  // commits only the pages that were written. The scale tests hold this to a
  // documented bound (2*sizeof(FrameId)/frame + O(nodes)).
  [[nodiscard]] int64_t MemoryFootprintBytes() const {
    return static_cast<int64_t>(prev_.bytes() + next_.bytes() +
                                head_.capacity() * sizeof(FrameId) +
                                tail_.capacity() * sizeof(FrameId) +
                                node_size_.capacity() * sizeof(int64_t) +
                                high_water_.capacity() * sizeof(FrameId));
  }

 private:
  // Sentinel stored in prev_ for frames not on any list. Distinct from
  // kNoFrame, which marks a head's (valid) lack of a predecessor.
  static constexpr FrameId kUnlinked = -2;

  // A link relative to the ascending neighbour (see the file comment).
  using RelLink = std::make_unsigned_t<FrameId>;

  // Shared set-up of both public constructors: zeroed links, no list yet.
  struct Zeroed {};
  FramePool(int64_t num_frames, int num_nodes, Zeroed)
      : num_frames_(num_frames),
        num_nodes_(num_nodes < 1 ? 1 : (num_nodes > kMaxNodes ? kMaxNodes : num_nodes)),
        frames_per_node_((num_frames + num_nodes_ - 1) / num_nodes_),
        prev_(static_cast<size_t>(num_frames)),
        next_(static_cast<size_t>(num_frames)),
        head_(static_cast<size_t>(num_nodes_), kNoFrame),
        tail_(static_cast<size_t>(num_nodes_), kNoFrame),
        node_size_(static_cast<size_t>(num_nodes_), 0),
        high_water_(static_cast<size_t>(num_nodes_)) {
    assert(num_frames_ > 0);
  }

  static RelLink U(FrameId id) { return static_cast<RelLink>(id); }
  [[nodiscard]] FrameId Prev(FrameId id) const {
    return static_cast<FrameId>(prev_[static_cast<size_t>(id)] + (U(id) - 1));
  }
  [[nodiscard]] FrameId Next(FrameId id) const {
    return static_cast<FrameId>(next_[static_cast<size_t>(id)] + (U(id) + 1));
  }
  void SetPrev(FrameId id, FrameId prev) {
    prev_[static_cast<size_t>(id)] = U(prev) - (U(id) - 1);
  }
  void SetNext(FrameId id, FrameId next) {
    next_[static_cast<size_t>(id)] = U(next) - (U(id) + 1);
  }

  void Link(FrameId id, FrameId prev, FrameId next, int node) {
    const auto n = static_cast<size_t>(node);
    SetPrev(id, prev);
    SetNext(id, next);
    if (prev == kNoFrame) {
      head_[n] = id;
    } else {
      SetNext(prev, id);
    }
    if (next == kNoFrame) {
      tail_[n] = id;
    } else {
      SetPrev(next, id);
    }
    ++size_;
    if (++node_size_[n] == 1) nonempty_mask_ |= uint64_t{1} << n;
  }

  void Unlink(FrameId id, int node) {
    const auto n = static_cast<size_t>(node);
    const FrameId prev = Prev(id);
    const FrameId next = Next(id);
    if (prev == kNoFrame) {
      head_[n] = next;
    } else {
      SetNext(prev, next);
    }
    if (next == kNoFrame) {
      tail_[n] = prev;
    } else {
      SetPrev(next, prev);
    }
    SetPrev(id, kUnlinked);
    SetNext(id, kUnlinked);
    if (id >= high_water_[n]) high_water_[n] = id + 1;
    --size_;
    if (--node_size_[n] == 0) nonempty_mask_ &= ~(uint64_t{1} << n);
  }

  int64_t num_frames_;
  int num_nodes_;
  int64_t frames_per_node_;
  ZeroedArray<RelLink> prev_;
  ZeroedArray<RelLink> next_;
  std::vector<FrameId> head_;
  std::vector<FrameId> tail_;
  std::vector<int64_t> node_size_;
  std::vector<FrameId> high_water_;
  uint64_t nonempty_mask_ = 0;
  int64_t size_ = 0;

  uint64_t head_pushes_ = 0;
  uint64_t tail_pushes_ = 0;
  uint64_t rescues_ = 0;
};

}  // namespace tmh

#endif  // TMH_SRC_VM_FRAME_POOL_H_
