// Kernel invariant checker.
//
// Attaches to a Kernel as its VmChecker and cross-validates the bitmap, the
// frame table, the page tables, and the free lists against each other — and
// against the VmOracle reference model — while the simulation runs. Per-hook
// the oracle replays and immediately flags semantic divergence (wrong
// allocation order, double free, writeback of a clean frame, a mispublished
// Eq. 1 header); at quiescent points the checker runs a full structural pass
// over the kernel's live state. The pass reads the kernel's own structures in
// place (free-list links, frame bit planes, page tables, bitmap words) in
// three passes and allocates nothing when the state is clean (INTERNALS §10).
//
// The invariants, and what each catches:
//   I-FL    free-list structure: the intrusive links walk exactly size()
//           distinct frames, none mapped, io-busy, or dirty; the order equals
//           the oracle's deque. Catches link corruption and push/pop skew.
//   I-FT    frame table -> page table: every mapped frame's owner PTE is
//           resident and points back at it, and is never io-busy. Catches
//           dangling mappings after reclaims.
//   I-PT    page table -> frame table: every resident PTE's frame is mapped
//           with the matching identity; the per-AS resident_count() equals a
//           recount. Catches leaked/duplicated residency accounting.
//   I-ONE   every frame is exactly one of {free-listed, mapped, io-busy}, and
//           none at or above its node's FramePool::high_water is mapped or
//           io-busy. Catches frame leaks (limbo frames), double-ownership,
//           and frames the bounded daemon clock pass would never reach.
//   I-BM    residency bitmap (PagingDirected ASes, materialized pages only):
//           bit set iff the page holds an allocated frame — resident and not
//           release-pending, or a page-in is in flight. Catches missed
//           Set/Clear on the fault/release/steal paths.
//   I-RL    rescue links: a non-resident PTE with a frame link points at a
//           frame that still carries this page's identity. Catches stale
//           links that would rescue the wrong contents.
//   I-RQ    release-pending PTEs are resident and queued (kernel release
//           queue or the releaser's gathered-but-unresolved batch). Catches
//           dropped release requests.
//   I-TIER  memory tiering (tiered machines only): each slow tier's frames
//           partition exactly into free pool + occupied identity entries;
//           every occupied tier frame is mirrored by its page's PTE (tier,
//           tier_frame) and vice versa; a tiered page is never resident and
//           keeps no DRAM rescue link. Catches lost or duplicated pages
//           across demote/promote/evict migrations.
//   oracle  residency set, frame assignment, dirty set, and free-list order
//           all equal the reference model's; on tiered machines also each
//           tier's free order, page placement, and carried dirty bits.
//
// The first violation is recorded with the tail of recent VM hook events for
// context, and checking stops (kernel state after a violation is suspect).

#ifndef TMH_SRC_CHECK_INVARIANTS_H_
#define TMH_SRC_CHECK_INVARIANTS_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/check/oracle.h"
#include "src/os/vm_hooks.h"

namespace tmh {

class Kernel;

struct CheckOptions {
  // Run the full structural pass at the first quiescent point after at least
  // N VM transitions (IsVmTransition) since the last pass; the oracle replays
  // every transition regardless. 1 checks after every event that changed VM
  // state. Larger values trade detection latency for speed: a pass costs
  // O(frames / 64 + free frames + page-table entries), which on long soaks
  // over big page tables outweighs the run itself.
  uint64_t full_check_period = 1;
  // Self-test: flip one residency-bitmap bit after this many full checks
  // (0 = off). The checker must then report an I-BM violation — used by the
  // fuzz harness to prove the detection and replay machinery works.
  uint64_t inject_bitmap_flip_after = 0;
};

class InvariantChecker : public VmChecker {
 public:
  // Attaches to `kernel` (Kernel::AttachChecker) and seeds the oracle from
  // its current state. Detaches on destruction.
  explicit InvariantChecker(Kernel& kernel, CheckOptions options = {});
  ~InvariantChecker() override;

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  void OnVmEvent(const VmHookEvent& event) override;
  void OnQuiescent(Kernel& kernel) override;

  // Runs the full structural pass immediately (end-of-run validation, unit
  // tests on hand-corrupted state). Returns ok().
  bool CheckNow(Kernel& kernel);

  [[nodiscard]] bool ok() const { return failure_.empty(); }
  [[nodiscard]] const std::string& failure() const { return failure_; }
  [[nodiscard]] uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] uint64_t events_seen() const { return events_seen_; }
  [[nodiscard]] const VmOracle& oracle() const { return oracle_; }

 private:
  void Fail(SimTime now, const std::string& invariant, const std::string& detail);
  void Validate(Kernel& kernel);
  void BuildReleaseQueue(Kernel& kernel);
  void MaybeInject(Kernel& kernel);
  [[nodiscard]] std::string TailDump() const;

  Kernel* kernel_;
  CheckOptions options_;
  VmOracle oracle_;

  // Ring buffer of the last kTailEvents VM transitions, dumped with a
  // violation.
  static constexpr size_t kTailEvents = 32;
  std::array<VmHookEvent, kTailEvents> tail_{};
  size_t tail_next_ = 0;
  bool tail_wrapped_ = false;

  uint64_t events_seen_ = 0;
  uint64_t checks_run_ = 0;
  uint64_t mutations_since_check_ = 0;
  bool injected_ = false;
  std::string failure_;

  // Sweep scratch, reused so a clean sweep allocates nothing: one bit per
  // frame reached by the free-list walk, and the (as, vpage) pairs of every
  // queued or batched release, sorted, built at most once per sweep.
  std::vector<uint64_t> on_free_;
  std::vector<std::pair<AsId, VPage>> release_queue_;
};

}  // namespace tmh

#endif  // TMH_SRC_CHECK_INVARIANTS_H_
