// The simulated kernel: CPUs, scheduler, fault handling, physical memory, and
// the wiring for the paging daemon, the releaser daemon, and the
// PagingDirected policy module.
//
// Execution model: threads run Programs (streams of Ops). The kernel dispatches
// runnable threads onto `num_cpus` simulated CPUs in FIFO order; a thread holds
// its CPU for at most one quantum (or until the next pending event, whichever
// is sooner), executing Ops synchronously and charging their costs to the
// Figure 7 time buckets. Ops that block (page-in I/O, memory-lock waits, empty
// work queues, sleeps) suspend the thread until the corresponding waker runs.

#ifndef TMH_SRC_OS_KERNEL_H_
#define TMH_SRC_OS_KERNEL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/disk/swap_space.h"
#include "src/os/address_space.h"
#include "src/sim/compiler_hints.h"
#include "src/os/config.h"
#include "src/os/event_log.h"
#include "src/os/thread.h"
#include "src/os/vm_hooks.h"
#include "src/sim/event_queue.h"
#include "src/sim/ring_buffer.h"
#include "src/sim/trace.h"
#include "src/vm/frame_pool.h"
#include "src/vm/frame_table.h"

namespace tmh {

class AccessMonitor;
class PagingDaemon;
class Releaser;

// Global memory-management counters (Table 3, Figures 8 and 9), declared once
// in declaration order: X(field) per counter. KernelStats and
// Kernel::PublishMetrics' "kernel.<field>" counters are both generated from
// this list.
#define TMH_KERNEL_STATS(X)                                                           \
  X(daemon_activations)        /* wakeups that found stealing work to do */           \
  X(daemon_pages_stolen)                                                              \
  X(daemon_invalidations)      /* reference-bit sampling invalidations */             \
  X(releaser_batches)                                                                 \
  X(releaser_pages_freed)                                                             \
  X(releaser_skipped)          /* release requests dropped: page re-referenced */     \
  X(rescued_daemon_freed)      /* rescues of daemon-freed pages */                    \
  X(rescued_release_freed)                                                            \
  X(allocations)               /* frames handed out (page-ins + zero-fills) */        \
  X(zero_fills)                                                                       \
  X(writebacks)                /* dirty page-outs */                                  \
  X(hard_faults)                                                                      \
  X(soft_faults)               /* daemon-invalidation revalidations */                \
  X(prefetch_requests)                                                                \
  X(prefetch_dropped)          /* no free memory: discarded immediately */            \
  X(prefetch_noop)             /* already resident */                                 \
  X(prefetch_io)               /* actually read from swap */                          \
  X(release_requests)                                                                 \
  X(release_pages_enqueued)                                                           \
  X(memory_waits)              /* faults that had to wait for a free frame */         \
  X(reactive_evictions)        /* pages surrendered via an eviction handler */        \
  X(local_evictions)           /* self-evictions under local replacement */           \
  X(readahead_reads)           /* clustered page-ins issued with faults */            \
  X(monitor_invalidations)     /* access-monitor sampling invalidations */            \
  X(monitor_soft_faults)       /* revalidations of monitor samples */                 \
  X(monitor_releases_enqueued) /* releases queued by the schemes engine */            \
  X(monitor_pages_protected)   /* reference bits re-set for hot regions */            \
  X(tier_demotions)            /* releases that migrated a page to a slow tier */     \
  X(tier_promotions)           /* touches that migrated a page back to DRAM */        \
  X(tier_evictions)            /* tier-capacity evictions (cascade or to disk) */     \
  X(tier_writebacks)           /* dirty last-tier evictions charged a page-out */

struct KernelStats {
#define TMH_KERNEL_STAT_FIELD(field) uint64_t field = 0;
  TMH_KERNEL_STATS(TMH_KERNEL_STAT_FIELD)
#undef TMH_KERNEL_STAT_FIELD
};

class Kernel {
 public:
  explicit Kernel(const MachineConfig& config);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- setup -----------------------------------------------------------------

  // Creates a process address space of `bytes` rounded up to whole pages, with
  // a disjoint swap extent backing it.
  AddressSpace* CreateAddressSpace(const std::string& name, int64_t bytes);

  // Spawns a thread executing `program` in `as` (nullptr for pure kernel
  // threads). Daemon threads' time is excluded from application breakdowns.
  Thread* Spawn(const std::string& name, AddressSpace* as, Program* program,
                bool is_daemon = false);

  // Starts the paging daemon, the releaser daemon, and the periodic timer.
  void StartDaemons();

  // Starts time-series sampling (free pages, per-AS resident sets, reclaim
  // counters, swap queue depth): a row of the current state now, then one
  // per `period` boundary. The row at boundary T is taken between events,
  // once every event at or before T has run; sampling posts no event, so a
  // traced run is the untraced run. Call after creating the address spaces
  // whose resident sets should appear as series.
  void StartTracing(SimDuration period);
  [[nodiscard]] const TraceRecorder& trace() const { return trace_; }

  // --- observability ----------------------------------------------------------

  // Installs the recorder (src/os/event_log.h) as a sink of the observer
  // stream: the structured event log with thread/AS attribution, and the
  // metrics registry with latency histograms for fault service, prefetch
  // queue wait, and release-to-rescue distance. Call before creating address
  // spaces or spawning threads so their names reach the trace.
  void EnableObservability();
  // The recorder (its metrics registry and event log); nullptr until
  // EnableObservability.
  [[nodiscard]] EventRecorder* recorder() { return recorder_.get(); }
  // Copies the end-of-run aggregates (KernelStats, per-AS stats, swap totals)
  // into the registry so one TextDump carries counters and histograms alike.
  // Idempotent; typically called once after the run.
  void PublishMetrics();

  // --- correctness checking ---------------------------------------------------

  // Attaches (or, with nullptr, detaches) a VmChecker, replacing any earlier
  // one. While attached it is a sink of the observer stream and is given a
  // cross-validation opportunity after each simulation event. Attaching
  // changes neither the dispatch path nor the simulated run.
  void AttachChecker(VmChecker* checker) {
    checker_ = checker;
    observed_ = checker_ != nullptr || recorder_ != nullptr;
    between_events_ = checker_ != nullptr || trace_period_ > 0;
  }

  // Emits one event of the observer stream (src/os/vm_hooks.h) to the
  // attached checker and the recorder: the kernel's single emit point, one
  // predicted-false test when neither is attached. Components outside the
  // kernel (the run-time layer) emit only kinds that are not VM transitions.
  void Emit(VmHookOp op, int32_t tid, AsId as, VPage vpage, FrameId frame, int64_t a = 0,
            int64_t b = 0) {
    if (TMH_UNLIKELY(observed_)) {
      Deliver(VmHookEvent{queue_.Now(), op, tid, as, frame, vpage, a, b});
    }
  }

  // --- online access monitoring -----------------------------------------------
  // (Used by src/monitor/access_monitor.h. The monitor drives itself from the
  // event queue and mutates VM state only through these entry points, which
  // emit the standard vm_hooks stream; without an attached monitor no monitor
  // event is ever scheduled and these are never called.)

  // Attaches (or, with nullptr, detaches) the access monitor. At most one.
  void AttachMonitor(AccessMonitor* monitor);
  [[nodiscard]] bool monitoring() const { return monitor_ != nullptr; }

  // Arms a reference sample: invalidates a resident, valid, non-I/O-busy
  // mapping and clears its frame's reference bit, so the next touch takes a
  // soft fault that proves the access (the vhand sampling mechanism applied to
  // one page). The resident bitmap bit stays set — the page is still resident.
  // Returns false if the page was not in a sampleable state.
  bool MonitorSamplePage(AddressSpace* as, VPage vpage);

  // Queues one page for the releaser with compiler-release semantics: same
  // protocol as a release syscall's per-page body (invalidate, mark
  // release-pending, queue; rescue-able until actually freed). Returns true if
  // the page was queued. Call MonitorPublishReleases(as) once per batch.
  // `depth` is the slow tier to demote into (0 = free, non-tiered behavior).
  bool MonitorEnqueueRelease(AddressSpace* as, VPage vpage, int32_t depth = 0);

  // Batch epilogue for MonitorEnqueueRelease: refreshes the shared page
  // header and wakes the releaser, mirroring the tail of the release syscall.
  void MonitorPublishReleases(AddressSpace* as);

  // Re-sets the reference bit of a resident page so the paging daemon's clock
  // passes over it this revolution (the monitor's Eq. 2 priority raise for a
  // hot region). Returns true if the page was resident.
  bool MonitorProtectPage(AddressSpace* as, VPage vpage);

  // --- execution -------------------------------------------------------------

  // Runs the simulation until `done` returns true or `max_events` fire.
  // Returns true if `done` was satisfied.
  bool RunUntilDone(const std::function<bool()>& done, uint64_t max_events = 500'000'000);

  // Convenience: runs until every listed thread reaches State::kDone.
  bool RunUntilThreadsDone(const std::vector<Thread*>& threads,
                           uint64_t max_events = 500'000'000);

  [[nodiscard]] SimTime Now() const { return queue_.Now(); }
  [[nodiscard]] EventQueue& event_queue() { return queue_; }

  // --- introspection ----------------------------------------------------------

  [[nodiscard]] const MachineConfig& config() const { return config_; }
  [[nodiscard]] const KernelStats& stats() const { return stats_; }
  [[nodiscard]] const FrameTable& frames() const { return frames_; }
  [[nodiscard]] const FramePool& frame_pool() const { return frame_pool_; }
  [[nodiscard]] SwapSpace& swap() { return *swap_; }
  [[nodiscard]] int64_t FreePages() const { return frame_pool_.size(); }
  // Frames handed out per memory node (sharded allocation counter; the
  // per-node isolation tests assert against this).
  [[nodiscard]] const std::vector<uint64_t>& node_allocations() const {
    return node_allocations_;
  }
  // Lowest-id address space whose resident set exceeds maxrss, or nullptr.
  // O(1) read off an index maintained at resident-count boundary crossings —
  // the paging daemon polls this every idle iteration, so a linear scan over
  // hundreds of tenants would dominate its cost at scale.
  [[nodiscard]] AddressSpace* FirstOverMaxrss() const {
    if (TMH_LIKELY(over_maxrss_.empty())) {
      return nullptr;
    }
    return address_spaces_[static_cast<size_t>(*over_maxrss_.begin())].get();
  }
  [[nodiscard]] const std::vector<std::unique_ptr<AddressSpace>>& address_spaces() const {
    return address_spaces_;
  }
  [[nodiscard]] bool has_daemons() const { return releaser_ != nullptr; }
  [[nodiscard]] PagingDaemon& paging_daemon() { return *paging_daemon_; }
  [[nodiscard]] Releaser& releaser() { return *releaser_; }

  // Pending releaser work, in syscall order. Checker/test introspection: the
  // invariant "every release-pending PTE is queued here or gathered into the
  // releaser's unresolved batch" is cross-validated against this. `depth` is
  // the slow tier the page demotes into (memory-tiering machines; 0 = free to
  // the DRAM free list, the paper's behavior). 16 bytes: a release storm can
  // queue a million pages.
  struct ReleaseWorkItem {
    VPage vpage;
    AsId as;
    int32_t depth;
  };
  static_assert(sizeof(ReleaseWorkItem) == 16);
  [[nodiscard]] const RingBuffer<ReleaseWorkItem>& release_work() const {
    return release_work_;
  }

  // One slow memory tier's physical plane (memory-tiering extension): a free
  // pool of tier-frame ids, dense identity arrays recording which (as, vpage)
  // each occupied tier frame holds, the page's dirty-at-demotion bit, and a
  // clock hand for capacity eviction. Index in tier_planes_ is slow-tier
  // number minus one; the default machine carries none.
  struct TierPlane {
    std::unique_ptr<FramePool> pool;  // free tier frames (single node)
    std::vector<AsId> owner;          // kNoAs when the tier frame is free
    std::vector<VPage> vpage;
    std::vector<uint8_t> dirty;       // page was dirty when it left DRAM
    int64_t frames = 0;
    FrameId clock_hand = 0;
    SimDuration promote_cost = 0;
    SimDuration demote_cost = 0;
  };
  [[nodiscard]] const std::vector<TierPlane>& tier_planes() const {
    return tier_planes_;
  }

  // --- PagingDirected policy module entry points ------------------------------
  // (Invoked through Ops; see policy_module.h for the user-level facade.)

  // Recomputes the shared page header for `as` (Eq. 1). Called on every
  // memory-system activity of the process, never asynchronously (Sec. 3.1.1).
  void UpdateSharedHeader(AddressSpace* as);

  // Threshold-notification extension (Sec. 3.1.1's unexplored alternative):
  // refreshes stale headers when free memory moved past the tunable threshold.
  void MaybeNotifySharedHeaders();

  // Wakes the paging daemon (demand wake; it also wakes periodically).
  void WakeDaemon();

  // Wakes the releaser daemon if daemons are running.
  void WakeReleaser();

  // Signals `q`, waking one waiter or recording a pending signal.
  void Signal(WaitQueue* q);

 private:
  friend class PagingDaemon;
  friend class Releaser;

  enum class ExecResult : uint8_t { kCompleted, kBlocked };

  // Schedules the recurring paging-daemon timer tick.
  void DaemonTickChain(SimDuration period);

  // Scheduling.
  void MakeRunnable(Thread* t);
  void TryDispatch();
  void RunSlice(Thread* t);
  void EndSlice(Thread* t, SimDuration elapsed, bool requeue);
  void Block(Thread* t, Thread::BlockReason reason, SimDuration elapsed);
  void Wake(Thread* t);

  // Op execution.
  ExecResult ExecuteOp(Thread* t, SimDuration* elapsed);
  ExecResult DoTouch(Thread* t, Op& op, SimDuration* elapsed);
  ExecResult DoPrefetch(Thread* t, Op& op, SimDuration* elapsed);
  ExecResult DoRelease(Thread* t, Op& op, SimDuration* elapsed);
  // Per-page body of a release: invalidates the mapping, marks it
  // release-pending and queues it for the releaser. False if the page was
  // out of range, not resident, already queued, or mid-I/O.
  bool EnqueueRelease(int32_t tid, AddressSpace* as, VPage vpage, int32_t depth);
  // Acquires `lock` for `t` or blocks it. Returns true when the lock is held.
  bool AcquireOrBlock(Thread* t, MemoryLock& lock, SimDuration* elapsed);
  void ReleaseLock(Thread* t, MemoryLock& lock);

  // Emit's out-of-line half: hands `event` to every attached sink.
  void Deliver(const VmHookEvent& event);
  // Sets a frame's dirty bit, narrating the clean->dirty transition.
  void MarkDirty(FrameId f) {
    if (!frames_.dirty(f)) {
      frames_.set_dirty(f, true);
      Emit(VmHookOp::kDirty, kKernelTid, frames_.owner(f), frames_.vpage(f), f);
    }
  }

  // Keeps over_maxrss_ consistent after `as`'s resident count changed.
  // O(1) unless the count just crossed the maxrss boundary.
  void UpdateOverMaxrss(AddressSpace* as) {
    const bool over =
        as->page_table().resident_count() > config_.tunables.maxrss_pages;
    if (TMH_LIKELY(over == as->over_maxrss_marked())) {
      return;
    }
    as->set_over_maxrss_marked(over);
    if (over) {
      over_maxrss_.insert(as->id());
    } else {
      over_maxrss_.erase(as->id());
    }
  }

  // Memory helpers.
  FrameId AllocateFrame(AddressSpace* as, VPage vpage);
  void MapFrame(AddressSpace* as, VPage vpage, FrameId f, bool validate);
  void UnmapFrame(AddressSpace* as, VPage vpage, FreedBy freed_by);
  // Frees `f` after `UnmapFrame`, writing back dirty contents first. Pushes at
  // the tail for releases, at the head for daemon steals.
  void FreeFrame(FrameId f, bool at_tail);
  void WakeMemoryWaiters();
  // Blocks `t` until the in-flight I/O on frame `f` completes (fault collapse
  // onto an in-flight prefetch/page-in, or wait for a writeback to finish).
  void WaitOnFrame(Thread* t, FrameId f, SimDuration elapsed);
  void WakeFrameWaiters(FrameId f);
  // Takes (as, vpage)'s last frame back off the free list if it still holds
  // the page's contents (caller holds the AS lock; the page is not resident
  // and no I/O is in flight on the link). Clears a stale link and returns
  // false otherwise.
  bool TryRescue(Thread* t, AddressSpace* as, VPage vpage);
  // Local-replacement extension: evicts one of `as`'s own pages (round-robin
  // clock over its page table). Returns true if a victim was freed.
  bool EvictLocalVictim(AddressSpace* as);
  // Memory-tiering extension. DemotePage migrates the resident page (as,
  // vpage) into slow tier `depth` (releaser context: owner's lock held,
  // re-checks passed) and frees its DRAM frame; returns the CPU cost of the
  // migration. TierTakeFrame hands out a free frame of slow tier `tier`,
  // evicting the clock-hand victim (cascading to the next tier, or to disk
  // from the last) when the tier is full; eviction cost accumulates into
  // *cost.
  SimDuration DemotePage(AddressSpace* as, VPage vpage, int depth);
  FrameId TierTakeFrame(int tier, SimDuration* cost);
  // Read-ahead clustering: starts an unvalidated page-in of `vpage` (caller
  // holds the AS lock and has verified the page is absent and backed).
  void IssueReadAhead(AddressSpace* as, VPage vpage);
  void Charge(Thread* t, SimDuration* elapsed, SimDuration d, SimDuration TimeBreakdown::*bucket);

  const MachineConfig config_;
  EventQueue queue_;
  FrameTable frames_;
  FramePool frame_pool_;
  std::unique_ptr<SwapSpace> swap_;
  // Slow-tier planes (empty unless config_.has_slow_tiers()).
  std::vector<TierPlane> tier_planes_;

  std::vector<std::unique_ptr<AddressSpace>> address_spaces_;
  std::vector<std::unique_ptr<Thread>> threads_;
  int64_t next_swap_slot_ = 0;
  int32_t next_thread_id_ = 1;

  // Scheduler state.
  std::deque<Thread*> run_queue_;
  int busy_cpus_ = 0;
  // True while RunSlice is on the stack. Wakes performed by an op must take
  // the queued dispatch path: dispatching inline from inside a running slice
  // would reorder the woken thread's execution ahead of already-pending
  // events.
  bool in_slice_ = false;
  // Bumped on every thread transition into State::kDone. RunUntilThreadsDone
  // gates its (otherwise per-event) predicate re-evaluation on this counter.
  uint64_t done_generation_ = 1;
  // Stop predicate installed by RunUntilDone for the duration of its run
  // loop. RunWhile checks the predicate only between events, but an inline
  // slice runs inside the event that woke its thread. Once the predicate
  // holds, TryDispatch therefore takes the queued path, so the predicate gets
  // its check between events before the slice runs; without the latch the
  // slice would run past the requested stop point
  // (KernelTest.RunUntilDoneStopsOnPredicate fails). Must be side-effect
  // free; `stop_hint_fired_` latches the result so it is evaluated at most
  // once per dispatch attempt after firing.
  const std::function<bool()>* stop_hint_ = nullptr;
  bool stop_hint_fired_ = false;
  bool StopHintFires();

  // Per-node allocation counters (index = memory node).
  std::vector<uint64_t> node_allocations_;
  // Ids of address spaces over their maxrss, ordered (lowest id first, i.e.
  // creation order — same AS the historical linear scan would have found).
  std::set<AsId> over_maxrss_;

  // Threads waiting for a free frame (fault path only; prefetches drop).
  WaitQueue memory_wait_;
  // Threads waiting for a specific frame's in-flight I/O to complete.
  std::unordered_map<FrameId, std::vector<Thread*>> frame_waiters_;

  // Daemons.
  std::unique_ptr<PagingDaemon> paging_daemon_;
  std::unique_ptr<Releaser> releaser_;
  Thread* daemon_thread_ = nullptr;
  Thread* releaser_thread_ = nullptr;
  RingBuffer<ReleaseWorkItem> release_work_;

  KernelStats stats_;

  // The run loops' between-events step, reached through one predicted-false
  // test of between_events_: the checker's quiescent point, then the time
  // series' rows for every boundary before the next pending event (state
  // cannot change until it runs). A run that is `stopping` samples only up
  // to Now(), because whoever resumes it may post an earlier event. Observers
  // only read the run here; none of them schedules into it.
  void BetweenEvents(bool stopping);
  void RecordTraceRow(SimTime when);
  bool between_events_ = false;  // checker attached or tracing started

  // Time series (StartTracing); period 0 = off.
  TraceRecorder trace_;
  SimDuration trace_period_ = 0;
  SimTime next_trace_row_ = 0;

  // Sinks of the observer stream (dormant unless AttachChecker or
  // EnableObservability ran); observed_ is true while either is attached.
  VmChecker* checker_ = nullptr;
  std::unique_ptr<EventRecorder> recorder_;
  bool observed_ = false;

  // Online access monitoring (dormant unless AttachMonitor ran).
  AccessMonitor* monitor_ = nullptr;
};

}  // namespace tmh

#endif  // TMH_SRC_OS_KERNEL_H_
