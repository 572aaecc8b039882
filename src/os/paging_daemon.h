// The paging daemon (IRIX "vhand" analogue).
//
// Woken periodically and on demand when free memory drops below min_freemem,
// it sweeps a clock hand over physical frames until free memory reaches the
// target. Because the MIPS TLB lacks hardware reference bits, the first
// encounter of a possibly-referenced frame *invalidates* its mapping (the next
// touch takes a soft fault that proves liveness); a frame found still invalid
// and unreferenced on a later encounter is stolen. While it examines a
// process's frames the daemon holds that process's memory lock for the whole
// batch — the lock contention Section 4.3 identifies as a dominant cost.

#ifndef TMH_SRC_OS_PAGING_DAEMON_H_
#define TMH_SRC_OS_PAGING_DAEMON_H_

#include <cstdint>
#include <vector>

#include "src/os/thread.h"
#include "src/vm/types.h"

namespace tmh {

class FrameTable;
class Kernel;
class MemoryLock;

// Where one clock pass over a node stopped and what it gathered.
struct ClockPass {
  AsId owner = kNoAs;  // owner of every frame in the batch; kNoAs if it is empty
  int64_t hand = 0;    // the node's hand afterwards: the next frame to examine
  int64_t passed = 0;  // frames the hand passed, skipped ones included
};

// One clock pass over the node whose frames are [begin, end), starting at
// `hand` and taking at most one lap: fills `batch` (cleared first) with up to
// `batch_limit` mapped, not io_busy frames of one owner, in hand order. With
// `filter` != kNoAs only that owner's frames are eligible. The batch stops at
// an owner boundary with the hand rewound onto the boundary frame, which is
// not counted as passed, and the hand wraps from the node's end to its begin.
// The lap runs as at most two linear segments, [hand, end) then [begin, hand):
// words with no candidate cost one load each and candidates are drained with
// ctz, so a pass costs the words it passes plus the candidates it visits.
// `bound` promises that no frame in [bound, end) is a candidate (the daemon
// passes the node's FramePool::high_water): those frames count as passed
// without being loaded, so the batch, hand and count are the unbounded pass's.
ClockPass GatherClockBatch(const FrameTable& frames, int64_t begin, int64_t end, int64_t hand,
                           AsId filter, int batch_limit, std::vector<FrameId>* batch,
                           int64_t bound);

class PagingDaemon : public Program {
 public:
  explicit PagingDaemon(Kernel* kernel) : kernel_(kernel) {}

  Op Next(Kernel& kernel) override;

  [[nodiscard]] WaitQueue& wait_queue() { return wq_; }

  // Activation counter for Table 3 ("number of times the paging daemon needs
  // to operate").
  [[nodiscard]] uint64_t activations() const { return activations_; }

 private:
  enum class Phase : uint8_t { kIdle, kLocked, kUnlock };

  // Upper bound on frames scanned per activation, in full clock sweeps, so an
  // activation that cannot reach its target still yields and the system makes
  // progress.
  static constexpr int64_t kMaxScanSweeps = 2;

  // Gathers the next batch of same-owner frames under the clock hands into
  // batch_. Nodes are tried most-pressured first (fewest free pages, tie ->
  // lowest index), each with its own hand confined to its frame range; with
  // one node this reduces exactly to the historical single global hand. If
  // `filter` is non-null only its frames are eligible (maxrss trimming).
  // Returns the owning address space, or nullptr if none found.
  AddressSpace* GatherBatch(AddressSpace* filter);
  // One clock pass over `node`'s frame range (GatherClockBatch).
  AddressSpace* GatherBatchFromNode(AddressSpace* filter, int node);
  // Invalidates or steals every frame in batch_ (owner's lock is held).
  // Returns the CPU cost of the work.
  SimDuration ProcessBatch();
  // First address space whose RSS exceeds maxrss, or nullptr. O(1): reads
  // the kernel's boundary-crossing-maintained index.
  AddressSpace* FindOverMaxrss() const;

  Kernel* kernel_;
  WaitQueue wq_;
  Phase phase_ = Phase::kIdle;
  bool active_ = false;
  int64_t sweep_quota_ = 0;  // minimum frames to scan this activation
  // One clock hand per memory node, each an absolute frame index inside its
  // node's range; lazily sized on first use.
  std::vector<int64_t> clock_hands_;
  std::vector<FrameId> batch_;
  AddressSpace* batch_as_ = nullptr;
  int64_t scanned_this_round_ = 0;
  uint64_t activations_ = 0;
};

}  // namespace tmh

#endif  // TMH_SRC_OS_PAGING_DAEMON_H_
