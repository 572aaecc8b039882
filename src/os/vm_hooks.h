// The kernel's one observer stream.
//
// The kernel narrates every semantic transition of the memory system (frame
// allocation, map/unmap, free-list pushes, rescues, writebacks, release
// queueing, daemon sweeps, shared-header updates, tier migrations) and the
// timing edges the event log renders (fault and prefetch spans, drops, drains,
// free-memory samples) as one stream of VmHookEvents. Kernel::Emit is the one
// emit point: behind one predicted-false test it hands each event to the
// attached VmChecker and to the recorder EnableObservability installs
// (src/os/event_log.h). No sink can change the run. The VM transitions
// (IsVmTransition) are what a reference model needs to replay the run; the
// oracle in src/check replays them. This header lives in src/os so the kernel
// never depends on the checker library.

#ifndef TMH_SRC_OS_VM_HOOKS_H_
#define TMH_SRC_OS_VM_HOOKS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "src/sim/time.h"
#include "src/vm/types.h"

namespace tmh {

class Kernel;

// Thread id of events raised outside any simulated thread (timers, monitor).
inline constexpr int32_t kKernelTid = 0;

enum class VmHookOp : uint8_t {
  // VM transitions, in kernel-emission order; the oracle replays these.
  kAlloc,          // frame popped from the free-list head and assigned (as, vpage)
  kMap,            // mapping installed; a = validated (1) or fresh-prefetch (0)
  kUnmap,          // mapping removed; a = FreedBy of the reclaim path
  kFreePushHead,   // frame pushed at the free-list head (daemon steals)
  kFreePushTail,   // frame pushed at the free-list tail (releases)
  kRescue,         // frame removed from mid-list for (as, vpage); a = FreedBy
  kWritebackBegin, // dirty page-out started for the frame
  kWritebackEnd,   // page-out finished; dirty cleared
  kDirty,          // frame transitioned clean -> dirty
  kValidate,       // resident mapping revalidated by a touch; a = old InvalidReason
  kInvalidate,     // reference sample armed; a = kDaemonInvalidated or kMonitorSampled
  kReleaseEnqueue, // release syscall queued the page for the releaser
  kReleaseSkip,    // releaser dropped a stale request (page re-referenced/gone)
  kReleaserBatch,  // one releaser batch resolved; a = pages freed, b = CPU cost
  kDaemonSweep,    // one paging-daemon batch resolved; a = pages stolen, b = CPU cost
  kHeaderUpdate,   // shared header written; a = current usage, b = upper limit
  kDemote,         // page moving DRAM -> slow tier; a = dest tier, b = tier frame
  kPromote,        // page moved slow tier -> DRAM; a = source tier, b = tier frame
  kTierEvict,      // tier-frame eviction; a = source tier, b = dest tier (0 = disk)
  // Timing edges and decisions; no VM state changes with these.
  kFaultBegin,       // hard-fault page-in issued
  kFaultEnd,         // page-in mapped and validated
  kMemoryWaitBegin,  // fault found no free frame; thread parked
  kMemoryWaitEnd,    // free frame appeared; thread woken
  kIoWake,           // thread blocked on page I/O woke; a = ns blocked, b = 1 for daemons
  kPrefetchIssue,    // prefetch page-in issued
  kPrefetchComplete, // prefetched page mapped unvalidated
  kPrefetchDrop,     // prefetch discarded: no free memory / partition cap
  kReleaseFree,      // releaser freed (or demoted) the page
  kRuntimeDrain,     // run-time layer near-limit drain; a = pages issued
  kFreePagesSample,  // periodic free-list level; a = free pages
};

// True for the kinds that change VM state: the stream the oracle replays.
constexpr bool IsVmTransition(VmHookOp op) { return op <= VmHookOp::kTierEvict; }

// Stable lower_snake name, for violation reports and event-tail dumps.
inline const char* VmHookOpName(VmHookOp op) {
  static constexpr const char* kNames[] = {
      "alloc", "map", "unmap", "free_push_head", "free_push_tail", "rescue",
      "writeback_begin", "writeback_end", "dirty", "validate", "invalidate",
      "release_enqueue", "release_skip", "releaser_batch", "daemon_sweep", "header_update",
      "demote", "promote", "tier_evict", "fault_begin", "fault_end", "memory_wait_begin",
      "memory_wait_end", "io_wake", "prefetch_issue", "prefetch_complete", "prefetch_drop",
      "release_free", "runtime_drain", "free_pages_sample"};
  static_assert(std::size(kNames) == static_cast<size_t>(VmHookOp::kFreePagesSample) + 1);
  return kNames[static_cast<size_t>(op)];
}

struct VmHookEvent {
  SimTime when = 0;
  VmHookOp op = VmHookOp::kAlloc;
  int32_t tid = kKernelTid;  // simulated thread the event is attributed to
  AsId as = kNoAs;
  FrameId frame = kNoFrame;
  VPage vpage = kNoVPage;
  int64_t a = 0;  // op-specific payload (FreedBy, InvalidReason, counts, header words)
  int64_t b = 0;

  friend bool operator==(const VmHookEvent&, const VmHookEvent&) = default;
};

class VmChecker {
 public:
  virtual ~VmChecker() = default;

  // One event of the stream; emitted mid-operation, so kernel state may be
  // transiently inconsistent at call time. Feed the shadow model only.
  virtual void OnVmEvent(const VmHookEvent& event) = 0;

  // Called by the run loop after each simulation event completes; all
  // synchronous mutation sequences (unmap+free, alloc+map) are finished, so
  // full structural cross-validation is safe here.
  virtual void OnQuiescent(Kernel& kernel) = 0;
};

}  // namespace tmh

#endif  // TMH_SRC_OS_VM_HOOKS_H_
