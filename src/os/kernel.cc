#include "src/os/kernel.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "src/os/paging_daemon.h"
#include "src/os/releaser.h"

namespace tmh {
namespace {

// Shortest CPU slice we simulate; bounds the skew introduced by executing a
// slice's operations at its start time.
constexpr SimDuration kMinSlice = 100 * kUsec;

// Safety cap on operations per slice (guards against zero-cost op loops).
constexpr int kMaxOpsPerSlice = 1 << 20;

}  // namespace

Kernel::Kernel(const MachineConfig& config)
    : config_(config),
      frames_(config.num_frames()),
      // Freshly booted machine: every frame free, each node's list its own
      // frame range in ascending order (the 1-node list is exactly the
      // historical 0..n-1 sequence).
      frame_pool_(config.num_frames(), config.num_nodes, FramePool::AllFree{}) {
  swap_ = std::make_unique<SwapSpace>(&queue_, config.swap, config.page_size_bytes);
  node_allocations_.assign(static_cast<size_t>(frame_pool_.num_nodes()), 0);
  // Slow-tier planes (memory-tiering extension). tiers[0] is DRAM (capacity
  // comes from user_memory_bytes, handled above); each further entry gets its
  // own frame pool, identity arrays, and clock hand. With no slow tiers this
  // loop builds nothing and no tier code runs anywhere.
  if (TMH_UNLIKELY(config.has_slow_tiers())) {
    tier_planes_.reserve(config.tiers.size() - 1);
    for (size_t t = 1; t < config.tiers.size(); ++t) {
      const TierSpec& spec = config.tiers[t];
      TierPlane plane;
      plane.frames = spec.frames > 0 ? spec.frames : 1;
      plane.pool =
          std::make_unique<FramePool>(plane.frames, /*num_nodes=*/1, FramePool::AllFree{});
      plane.owner.assign(static_cast<size_t>(plane.frames), kNoAs);
      plane.vpage.assign(static_cast<size_t>(plane.frames), kNoVPage);
      plane.dirty.assign(static_cast<size_t>(plane.frames), 0);
      plane.promote_cost = spec.promote_cost;
      plane.demote_cost = spec.demote_cost;
      tier_planes_.push_back(std::move(plane));
    }
  }
}

Kernel::~Kernel() = default;

AddressSpace* Kernel::CreateAddressSpace(const std::string& name, int64_t bytes) {
  const VPage pages = config_.BytesToPages(bytes);
  auto as = std::make_unique<AddressSpace>(static_cast<AsId>(address_spaces_.size()), name,
                                           pages, next_swap_slot_);
  // Fixed deterministic placement (id % nodes) so the differential oracle can
  // replicate the home-node choice without being told.
  as->set_home_node(static_cast<int>(as->id() % frame_pool_.num_nodes()));
  next_swap_slot_ += pages;
  address_spaces_.push_back(std::move(as));
  if (recorder_ != nullptr) {
    recorder_->log().SetAddressSpaceName(address_spaces_.back()->id(), name);
  }
  return address_spaces_.back().get();
}

Thread* Kernel::Spawn(const std::string& name, AddressSpace* as, Program* program,
                      bool is_daemon) {
  auto thread = std::make_unique<Thread>(next_thread_id_++, name, as, program, is_daemon);
  Thread* t = thread.get();
  threads_.push_back(std::move(thread));
  if (recorder_ != nullptr) {
    recorder_->log().SetThreadName(t->id(), name);
  }
  t->started_at_ = Now();
  t->block_start = Now();  // measures initial CPU-queue wait
  run_queue_.push_back(t);
  // Defer dispatch to an event so Spawn can be called from outside the run loop.
  queue_.ScheduleAfter(0, [this]() { TryDispatch(); });
  return t;
}

void Kernel::StartDaemons() {
  assert(paging_daemon_ == nullptr && "daemons already started");
  paging_daemon_ = std::make_unique<PagingDaemon>(this);
  releaser_ = std::make_unique<Releaser>(this);
  daemon_thread_ = Spawn("vhand", nullptr, paging_daemon_.get(), /*is_daemon=*/true);
  releaser_thread_ = Spawn("releaser", nullptr, releaser_.get(), /*is_daemon=*/true);
  DaemonTickChain(config_.tunables.daemon_period);
}

void Kernel::DaemonTickChain(SimDuration period) {
  queue_.ScheduleAfter(period, [this, period]() {
    // Free-memory counter track for the Chrome trace, on the daemon beat.
    Emit(VmHookOp::kFreePagesSample, kKernelTid, kNoAs, kNoVPage, kNoFrame, frame_pool_.size());
    Signal(&paging_daemon_->wait_queue());
    DaemonTickChain(period);
  });
}

void Kernel::EnableObservability() {
  assert(threads_.empty() && address_spaces_.empty() &&
         "enable observability before creating address spaces or threads");
  recorder_ = std::make_unique<EventRecorder>();
  observed_ = true;
}

void Kernel::Deliver(const VmHookEvent& event) {
  if (checker_ != nullptr) {
    checker_->OnVmEvent(event);
  }
  if (recorder_ != nullptr) {
    recorder_->OnVmEvent(event);
  }
}

void Kernel::PublishMetrics() {
  if (recorder_ == nullptr) {
    return;
  }
  MetricsRegistry& metrics = recorder_->metrics();
  const auto pub = [&metrics](const char* name, uint64_t v) {
    metrics.GetCounter(name)->Set(v);
  };
#define TMH_PUBLISH_KERNEL_STAT(field) pub("kernel." #field, stats_.field);
  TMH_KERNEL_STATS(TMH_PUBLISH_KERNEL_STAT)
#undef TMH_PUBLISH_KERNEL_STAT
  pub("kernel.swap_reads", swap_->reads());
  pub("kernel.swap_writes", swap_->writes());
  pub("kernel.trace_events_dropped", recorder_->log().dropped());
  metrics.GetGauge("kernel.free_pages")->Set(static_cast<double>(frame_pool_.size()));
  for (const auto& as : address_spaces_) {
    const MetricLabels labels = {{"as", as->name()}};
    const AsStats& s = as->stats();
    metrics.GetCounter("as.pages_stolen_from", labels)->Set(s.pages_stolen_from);
    metrics.GetCounter("as.pages_released", labels)->Set(s.pages_released);
    metrics.GetCounter("as.releases_skipped", labels)->Set(s.releases_skipped);
    metrics.GetCounter("as.rescued_from_steal", labels)->Set(s.rescued_from_steal);
    metrics.GetCounter("as.rescued_from_release", labels)->Set(s.rescued_from_release);
    metrics.GetCounter("as.invalidations_received", labels)->Set(s.invalidations_received);
    metrics.GetGauge("as.resident_pages", labels)
        ->Set(static_cast<double>(as->page_table().resident_count()));
  }
}

void Kernel::StartTracing(SimDuration period) {
  assert(period > 0 && trace_period_ == 0 && "tracing already started");
  trace_.AddSeries("free_pages");
  for (const auto& as : address_spaces_) {
    trace_.AddSeries(as->name() + "_rss");
  }
  trace_.AddSeries("daemon_stolen");
  trace_.AddSeries("releaser_freed");
  trace_.AddSeries("hard_faults");
  trace_.AddSeries("soft_faults");
  trace_.AddSeries("swap_queue");
  // The first row is the state tracing starts from; the run loops take the
  // rest between events.
  RecordTraceRow(Now());
  trace_period_ = period;
  next_trace_row_ = Now() + period;
  between_events_ = true;
}

void Kernel::RecordTraceRow(SimTime when) {
  // Only the address spaces that existed at StartTracing have series.
  const size_t traced_as = trace_.series().size() - 6;
  std::vector<double> row;
  row.reserve(traced_as + 6);
  row.push_back(static_cast<double>(frame_pool_.size()));
  for (size_t a = 0; a < traced_as && a < address_spaces_.size(); ++a) {
    row.push_back(static_cast<double>(address_spaces_[a]->page_table().resident_count()));
  }
  row.push_back(static_cast<double>(stats_.daemon_pages_stolen));
  row.push_back(static_cast<double>(stats_.releaser_pages_freed));
  row.push_back(static_cast<double>(stats_.hard_faults));
  row.push_back(static_cast<double>(stats_.soft_faults));
  row.push_back(static_cast<double>(swap_->TotalQueueDepth()));
  trace_.Record(when, std::move(row));
}

void Kernel::BetweenEvents(bool stopping) {
  if (checker_ != nullptr) {
    checker_->OnQuiescent(*this);
  }
  if (trace_period_ > 0) {
    SimTime horizon = queue_.NextEventTime(Now() + 1);
    if (stopping) {
      horizon = std::min(horizon, Now() + 1);
    }
    for (; next_trace_row_ < horizon; next_trace_row_ += trace_period_) {
      RecordTraceRow(next_trace_row_);
    }
  }
}

bool Kernel::RunUntilDone(const std::function<bool()>& done, uint64_t max_events) {
  // The predicate is checked before the first event and after every executed
  // event, but dispatch drains whole same-time buckets between wheel scans.
  // Attached observers get their between-events step after every event.
  if (done()) {
    return true;
  }
  bool stopped = false;
  const std::function<bool()>* prev_hint = stop_hint_;
  const bool prev_fired = stop_hint_fired_;
  stop_hint_ = &done;
  stop_hint_fired_ = false;
  queue_.RunWhile(
      [&]() {
        stopped = stop_hint_fired_ || done();
        if (TMH_UNLIKELY(between_events_)) {
          BetweenEvents(stopped);
        }
        return stopped;
      },
      max_events);
  stop_hint_ = prev_hint;
  stop_hint_fired_ = prev_fired;
  return stopped || done();
}

bool Kernel::RunUntilThreadsDone(const std::vector<Thread*>& threads, uint64_t max_events) {
  auto all_done = [&threads]() {
    for (const Thread* t : threads) {
      if (t->state() != Thread::State::kDone) {
        return false;
      }
    }
    return true;
  };
  // Threads only ever enter kDone (never leave), and every such transition
  // bumps done_generation_, so the predicate is re-evaluated only when it
  // could possibly have flipped. The per-event cost is one counter compare,
  // plus the observers' between-events step when one is attached.
  if (all_done()) {
    return true;
  }
  uint64_t seen_gen = done_generation_;
  bool stopped = false;
  queue_.RunWhile(
      [&]() {
        if (done_generation_ != seen_gen) {
          seen_gen = done_generation_;
          stopped = all_done();
        }
        if (TMH_UNLIKELY(between_events_)) {
          BetweenEvents(stopped);
        }
        return stopped;
      },
      max_events);
  return stopped || all_done();
}

// --- scheduling -------------------------------------------------------------

void Kernel::MakeRunnable(Thread* t) {
  t->state_ = Thread::State::kRunnable;
  t->block_reason_ = Thread::BlockReason::kNone;
  t->block_start = Now();  // start of CPU-queue wait
  run_queue_.push_back(t);
  TryDispatch();
}

bool Kernel::StopHintFires() {
  if (stop_hint_ == nullptr) {
    return false;
  }
  if (!stop_hint_fired_ && (*stop_hint_)()) {
    stop_hint_fired_ = true;
  }
  return stop_hint_fired_;
}

void Kernel::TryDispatch() {
  // Fast path: run the slice inline instead of via a zero-delay event, when
  // (a) we are not already inside a slice (an op's wake must not reorder the
  // woken thread ahead of pending events), (b) no other event is pending at
  // the current instant, and (c) RunUntilDone's stop hint has not fired (its
  // predicate must get its between-events check before the slice runs).
  // The slice then starts at the time the queued dispatch would and overtakes
  // no pending event. It is not the queued order, though: the slice runs
  // inside the waking event's action, before the rest of that action (the
  // next waiter in WakeMemoryWaiters or WakeFrameWaiters,
  // MaybeNotifySharedHeaders after FreeFrame), so the woken thread can see
  // state that action has not finished updating and the simulated run
  // differs from an all-queued one. Checked and observed runs take this same
  // path. Conditions are re-checked per thread because an inline slice may
  // append same-time events, which must run before any further dispatch; a
  // queued dispatch is itself such an event, so the rest of this call queues.
  while (busy_cpus_ < config_.num_cpus && !run_queue_.empty()) {
    Thread* t = run_queue_.front();
    run_queue_.pop_front();
    assert(t->state_ == Thread::State::kRunnable);
    // Time spent waiting for a CPU is a resource stall.
    t->times_.resource_stall += Now() - t->block_start;
    t->state_ = Thread::State::kRunning;
    ++busy_cpus_;
    if (!in_slice_ && queue_.NextEventTime(Now() + 1) > Now() && !StopHintFires()) {
      RunSlice(t);
    } else {
      queue_.ScheduleAfter(0, [this, t]() { RunSlice(t); });
    }
  }
}

void Kernel::RunSlice(Thread* t) {
  assert(t->state_ == Thread::State::kRunning);
  assert(!in_slice_);
  in_slice_ = true;
  const SimTime now = Now();
  const SimTime next_event = queue_.NextEventTime(now + config_.quantum);
  const SimDuration budget =
      std::clamp<SimDuration>(next_event - now, kMinSlice, config_.quantum);

  SimDuration elapsed = 0;
  for (int ops = 0; ops < kMaxOpsPerSlice; ++ops) {
    if (!t->has_pending_) {
      t->pending_op_ = t->program_->Next(*this);
      t->has_pending_ = true;
    }
    if (t->pending_op_.kind == Op::Kind::kExit) {
      t->has_pending_ = false;
      t->state_ = Thread::State::kDone;
      ++done_generation_;
      t->finished_at_ = now + elapsed;
      in_slice_ = false;
      EndSlice(t, elapsed, /*requeue=*/false);
      return;
    }
    if (t->pending_op_.kind == Op::Kind::kYield) {
      t->has_pending_ = false;
      in_slice_ = false;
      EndSlice(t, elapsed, /*requeue=*/true);
      return;
    }
    if (ExecuteOp(t, &elapsed) == ExecResult::kBlocked) {
      in_slice_ = false;
      EndSlice(t, elapsed, /*requeue=*/false);
      return;
    }
    t->has_pending_ = false;
    if (elapsed >= budget) {
      in_slice_ = false;
      EndSlice(t, elapsed, /*requeue=*/true);
      return;
    }
  }
  in_slice_ = false;
  EndSlice(t, elapsed, /*requeue=*/true);
}

void Kernel::EndSlice(Thread* t, SimDuration elapsed, bool requeue) {
  // The CPU stays busy until the consumed time has elapsed; the thread's next
  // turn (or its blocking) begins then.
  queue_.ScheduleAfter(elapsed, [this, t, requeue]() {
    --busy_cpus_;
    if (requeue && t->state_ == Thread::State::kRunning) {
      t->state_ = Thread::State::kRunnable;
      t->block_start = Now();
      run_queue_.push_back(t);
    }
    TryDispatch();
  });
}

void Kernel::Block(Thread* t, Thread::BlockReason reason, SimDuration elapsed) {
  assert(t->state_ == Thread::State::kRunning);
  t->state_ = Thread::State::kBlocked;
  t->block_reason_ = reason;
  t->block_start = Now() + elapsed;
}

void Kernel::Wake(Thread* t) {
  if (t->state_ != Thread::State::kBlocked) {
    return;  // already woken by another path (e.g. lock handoff + memory wake)
  }
  const SimDuration waited = std::max<SimDuration>(0, Now() - t->block_start);
  switch (t->block_reason_) {
    case Thread::BlockReason::kIo:
      t->times_.io_stall += waited;
      t->fault_service_.Add(static_cast<double>(waited));
      Emit(VmHookOp::kIoWake, t->id(), kNoAs, kNoVPage, kNoFrame, waited,
           t->is_daemon() ? 1 : 0);
      break;
    case Thread::BlockReason::kLock:
      t->times_.resource_stall += waited;
      break;
    case Thread::BlockReason::kMemory:
      t->times_.resource_stall += waited;
      Emit(VmHookOp::kMemoryWaitEnd, t->id(), kNoAs, kNoVPage, kNoFrame);
      break;
    case Thread::BlockReason::kSleep:
    case Thread::BlockReason::kWaitQueue:
      t->times_.sleep += waited;
      // A sleep or queue wait is satisfied by the wake itself; the pending op
      // is complete (kIo/kLock/kMemory ops instead re-execute to finish the
      // fault or acquisition).
      t->has_pending_ = false;
      break;
    case Thread::BlockReason::kNone:
      break;
  }
  MakeRunnable(t);
}

void Kernel::Signal(WaitQueue* q) {
  if (Thread* t = q->Dequeue()) {
    Wake(t);
  } else {
    q->AddPendingSignal();
  }
}

void Kernel::WakeDaemon() {
  if (paging_daemon_ != nullptr) {
    Signal(&paging_daemon_->wait_queue());
  }
}

void Kernel::WakeReleaser() {
  if (releaser_ != nullptr) {
    Signal(&releaser_->wait_queue());
  }
}

// --- op execution -----------------------------------------------------------

void Kernel::Charge(Thread* t, SimDuration* elapsed, SimDuration d,
                    SimDuration TimeBreakdown::*bucket) {
  t->times_.*bucket += d;
  *elapsed += d;
}

Kernel::ExecResult Kernel::ExecuteOp(Thread* t, SimDuration* elapsed) {
  Op& op = t->pending_op_;
  switch (op.kind) {
    case Op::Kind::kCompute:
      Charge(t, elapsed, op.duration, &TimeBreakdown::user);
      return ExecResult::kCompleted;
    case Op::Kind::kTouch:
      return DoTouch(t, op, elapsed);
    case Op::Kind::kSleep: {
      Block(t, Thread::BlockReason::kSleep, *elapsed);
      queue_.ScheduleAt(Now() + *elapsed + op.duration, [this, t]() { Wake(t); });
      return ExecResult::kBlocked;
    }
    case Op::Kind::kPrefetch:
      return DoPrefetch(t, op, elapsed);
    case Op::Kind::kRelease:
      return DoRelease(t, op, elapsed);
    case Op::Kind::kWait: {
      if (op.wait->ConsumeSignal()) {
        return ExecResult::kCompleted;
      }
      op.wait->Enqueue(t);
      Block(t, Thread::BlockReason::kWaitQueue, *elapsed);
      return ExecResult::kBlocked;
    }
    case Op::Kind::kAcquireLock: {
      if (!AcquireOrBlock(t, *op.lock, elapsed)) {
        return ExecResult::kBlocked;
      }
      return ExecResult::kCompleted;
    }
    case Op::Kind::kReleaseLock:
      ReleaseLock(t, *op.lock);
      return ExecResult::kCompleted;
    case Op::Kind::kYield:
    case Op::Kind::kExit:
      // Handled in RunSlice.
      return ExecResult::kCompleted;
  }
  return ExecResult::kCompleted;
}

bool Kernel::AcquireOrBlock(Thread* t, MemoryLock& lock, SimDuration* elapsed) {
  if (lock.IsHeldBy(t)) {
    return true;  // handed off while we were blocked
  }
  if (lock.TryAcquire(t)) {
    Charge(t, elapsed, config_.costs.lock_acquire, &TimeBreakdown::system);
    return true;
  }
  lock.EnqueueWaiter(t);
  Block(t, Thread::BlockReason::kLock, *elapsed);
  return false;
}

void Kernel::ReleaseLock(Thread* t, MemoryLock& lock) {
  if (Thread* next = lock.Release(t)) {
    Wake(next);
  }
}

// --- memory helpers ----------------------------------------------------------

FrameId Kernel::AllocateFrame(AddressSpace* as, VPage vpage) {
  const FrameId f = frame_pool_.PopHead(as->home_node());
  if (f == kNoFrame) {
    return kNoFrame;
  }
  ++node_allocations_[static_cast<size_t>(frame_pool_.NodeOf(f))];
  const AsId old_owner = frames_.owner(f);
  if (old_owner != kNoAs) {
    // Break the stale rescue identity of the page that last lived here.
    AddressSpace* old_as = address_spaces_[static_cast<size_t>(old_owner)].get();
    Pte& old_pte = old_as->page_table().at(frames_.vpage(f));
    if (old_pte.frame == f && !old_pte.resident) {
      old_pte.frame = kNoFrame;
    }
  }
  frames_.ResetIdentity(f);
  frames_.set_owner(f, as->id());
  frames_.set_vpage(f, vpage);
  ++stats_.allocations;
  Emit(VmHookOp::kAlloc, kKernelTid, as->id(), vpage, f);
  if (frame_pool_.size() < config_.tunables.min_freemem_pages) {
    WakeDaemon();
  }
  MaybeNotifySharedHeaders();
  return f;
}

void Kernel::MapFrame(AddressSpace* as, VPage vpage, FrameId f, bool validate) {
  Pte& pte = as->page_table().at(vpage);
  assert(!pte.resident);
  pte.frame = f;
  pte.resident = true;
  pte.valid = validate;
  pte.invalid_reason = validate ? InvalidReason::kNone : InvalidReason::kFreshPrefetch;
  pte.ever_materialized = true;
  frames_.set_mapped(f, true);
  frames_.set_contents_valid(f, true);
  frames_.set_freed_by(f, FreedBy::kNone);
  as->page_table().IncrementResident();
  UpdateOverMaxrss(as);
  if (as->HasPagingDirected()) {
    as->bitmap()->Set(vpage);
  }
  Emit(VmHookOp::kMap, kKernelTid, as->id(), vpage, f, validate ? 1 : 0);
}

void Kernel::UnmapFrame(AddressSpace* as, VPage vpage, FreedBy freed_by) {
  Pte& pte = as->page_table().at(vpage);
  assert(pte.resident);
  const FrameId f = pte.frame;
  pte.resident = false;
  pte.valid = false;
  pte.invalid_reason = InvalidReason::kNone;
  // pte.frame intentionally kept: it is the rescue link.
  frames_.set_mapped(f, false);
  frames_.set_referenced(f, false);
  frames_.set_contents_valid(f, true);
  frames_.set_freed_by(f, freed_by);
  as->page_table().DecrementResident();
  UpdateOverMaxrss(as);
  if (as->HasPagingDirected()) {
    as->bitmap()->Clear(vpage);
  }
  Emit(VmHookOp::kUnmap, kKernelTid, as->id(), vpage, pte.frame, static_cast<int64_t>(freed_by));
}

void Kernel::FreeFrame(FrameId f, bool at_tail) {
  assert(!frames_.mapped(f));
  if (frames_.dirty(f)) {
    frames_.set_io_busy(f, true);
    ++stats_.writebacks;
    Emit(VmHookOp::kWritebackBegin, kKernelTid, frames_.owner(f), frames_.vpage(f), f);
    AddressSpace* as = address_spaces_[static_cast<size_t>(frames_.owner(f))].get();
    swap_->WritePage(as->SwapSlot(frames_.vpage(f)), [this, f, at_tail]() {
      frames_.set_dirty(f, false);
      frames_.set_io_busy(f, false);
      Emit(VmHookOp::kWritebackEnd, kKernelTid, frames_.owner(f), frames_.vpage(f), f);
      if (at_tail) {
        frame_pool_.PushTail(f);
      } else {
        frame_pool_.PushHead(f);
      }
      Emit(at_tail ? VmHookOp::kFreePushTail : VmHookOp::kFreePushHead, kKernelTid,
           frames_.owner(f), frames_.vpage(f), f);
      WakeMemoryWaiters();
      WakeFrameWaiters(f);  // touches that arrived mid-writeback can now rescue
      MaybeNotifySharedHeaders();
    });
    return;
  }
  if (at_tail) {
    frame_pool_.PushTail(f);
  } else {
    frame_pool_.PushHead(f);
  }
  Emit(at_tail ? VmHookOp::kFreePushTail : VmHookOp::kFreePushHead, kKernelTid,
       frames_.owner(f), frames_.vpage(f), f);
  WakeMemoryWaiters();
  MaybeNotifySharedHeaders();
}

void Kernel::WakeMemoryWaiters() {
  // Wake everyone; re-blocking is cheap and the waiter count is tiny.
  while (Thread* t = memory_wait_.Dequeue()) {
    Wake(t);
  }
}

void Kernel::WaitOnFrame(Thread* t, FrameId f, SimDuration elapsed) {
  frame_waiters_[f].push_back(t);
  Block(t, Thread::BlockReason::kIo, elapsed);
}

bool Kernel::TryRescue(Thread* t, AddressSpace* as, VPage vpage) {
  Pte& pte = as->page_table().at(vpage);
  const FrameId f = pte.frame;
  if (f == kNoFrame) {
    return false;
  }
  if (!frames_.IsPage(f, as->id(), vpage) || !frames_.contents_valid(f) || frames_.io_busy(f) ||
      !frame_pool_.Contains(f)) {
    pte.frame = kNoFrame;  // stale link
    return false;
  }
  const FreedBy freed_by = frames_.freed_by(f);
  frame_pool_.Remove(f);
  Emit(VmHookOp::kRescue, t->id(), as->id(), vpage, f, static_cast<int64_t>(freed_by));
  if (freed_by == FreedBy::kDaemon) {
    ++stats_.rescued_daemon_freed;
    ++as->stats().rescued_from_steal;
  } else {
    ++stats_.rescued_release_freed;
    ++as->stats().rescued_from_release;
  }
  return true;
}

void Kernel::WakeFrameWaiters(FrameId f) {
  const auto it = frame_waiters_.find(f);
  if (it == frame_waiters_.end()) {
    return;
  }
  std::vector<Thread*> waiters = std::move(it->second);
  frame_waiters_.erase(it);
  for (Thread* t : waiters) {
    Wake(t);
  }
}

void Kernel::UpdateSharedHeader(AddressSpace* as) {
  if (!as->HasPagingDirected()) {
    return;
  }
  const int64_t current = as->page_table().resident_count();
  const int64_t upper =
      std::min(config_.tunables.maxrss_pages,
               current + frame_pool_.size() - config_.tunables.min_freemem_pages);
  as->bitmap()->SetHeader(current, std::max<int64_t>(upper, 0));
  as->set_header_free_snapshot(frame_pool_.size());
  Emit(VmHookOp::kHeaderUpdate, kKernelTid, as->id(), kNoVPage, kNoFrame, current,
       std::max<int64_t>(upper, 0));
}

void Kernel::IssueReadAhead(AddressSpace* as, VPage vpage) {
  const FrameId f = AllocateFrame(as, vpage);
  if (f == kNoFrame) {
    return;
  }
  frames_.set_io_busy(f, true);
  Pte& pte = as->page_table().at(vpage);
  pte.frame = f;  // collapse/rescue link while the read is in flight
  pte.ever_materialized = true;
  if (as->HasPagingDirected()) {
    as->bitmap()->Set(vpage);
  }
  ++stats_.readahead_reads;
  const AsId as_id = as->id();
  swap_->ReadPage(as->SwapSlot(vpage), [this, as_id, vpage, f]() {
    frames_.set_io_busy(f, false);
    AddressSpace* owner = address_spaces_[static_cast<size_t>(as_id)].get();
    if (frames_.IsPage(f, as_id, vpage) && !owner->page_table().at(vpage).resident) {
      // Like a prefetch: resident but unvalidated (no TLB entry).
      MapFrame(owner, vpage, f, /*validate=*/false);
      UpdateSharedHeader(owner);
    }
    WakeFrameWaiters(f);
  });
}

bool Kernel::EvictLocalVictim(AddressSpace* as) {
  const VPage pages = as->num_pages();
  VPage cursor = as->local_clock_cursor();
  for (VPage scanned = 0; scanned < pages; ++scanned) {
    const VPage v = (cursor + scanned) % pages;
    const Pte& pte = as->page_table().at(v);
    if (!pte.resident || frames_.io_busy(pte.frame)) {
      continue;
    }
    const FrameId f = pte.frame;
    as->set_local_clock_cursor((v + 1) % pages);
    UnmapFrame(as, v, FreedBy::kDaemon);
    FreeFrame(f, /*at_tail=*/false);
    ++stats_.local_evictions;
    ++as->stats().pages_stolen_from;
    return true;
  }
  return false;
}

// --- memory-tiering migration (extension) -------------------------------------

FrameId Kernel::TierTakeFrame(int tier, SimDuration* cost) {
  TierPlane& plane = tier_planes_[static_cast<size_t>(tier - 1)];
  FrameId tf = plane.pool->PopHeadFromNode(0);
  if (tf != kNoFrame) {
    return tf;
  }
  // Capacity eviction: the clock hand picks the victim (with an empty pool
  // every tier frame is occupied, so the hand's frame is it). The victim
  // cascades one tier deeper, or drops to disk from the last tier; either way
  // its frame lands on the pool head and is popped right back for the caller.
  FrameId victim = plane.clock_hand;
  for (int64_t scanned = 0; scanned < plane.frames; ++scanned) {
    if (plane.owner[static_cast<size_t>(victim)] != kNoAs) {
      break;
    }
    victim = static_cast<FrameId>((victim + 1) % plane.frames);
  }
  plane.clock_hand = static_cast<FrameId>((victim + 1) % plane.frames);
  const AsId vas = plane.owner[static_cast<size_t>(victim)];
  const VPage vp = plane.vpage[static_cast<size_t>(victim)];
  const bool vdirty = plane.dirty[static_cast<size_t>(victim)] != 0;
  AddressSpace* as = address_spaces_[static_cast<size_t>(vas)].get();
  Pte& vpte = as->page_table().at(vp);
  const int num_slow = static_cast<int>(tier_planes_.size());
  if (tier < num_slow) {
    const FrameId dest = TierTakeFrame(tier + 1, cost);
    TierPlane& deeper = tier_planes_[static_cast<size_t>(tier)];
    deeper.owner[static_cast<size_t>(dest)] = vas;
    deeper.vpage[static_cast<size_t>(dest)] = vp;
    deeper.dirty[static_cast<size_t>(dest)] = vdirty ? 1 : 0;
    vpte.tier = static_cast<uint8_t>(tier + 1);
    vpte.tier_frame = dest;
    *cost += deeper.demote_cost;
    Emit(VmHookOp::kTierEvict, releaser_thread_->id(), vas, vp, dest, tier, tier + 1);
  } else {
    // Last tier: the page falls out of the hierarchy. Its contents survive on
    // swap only if clean there already; a dirty victim charges a synchronous
    // page-out cost (the migration engine's write queue, modeled CPU-side).
    vpte.tier = 0;
    vpte.tier_frame = kNoFrame;
    if (vdirty) {
      ++stats_.tier_writebacks;
      *cost += plane.demote_cost;
    }
    Emit(VmHookOp::kTierEvict, releaser_thread_->id(), vas, vp, kNoFrame, tier, 0);
  }
  plane.owner[static_cast<size_t>(victim)] = kNoAs;
  plane.vpage[static_cast<size_t>(victim)] = kNoVPage;
  plane.dirty[static_cast<size_t>(victim)] = 0;
  plane.pool->PushHead(victim);
  ++stats_.tier_evictions;
  return plane.pool->PopHeadFromNode(0);
}

SimDuration Kernel::DemotePage(AddressSpace* as, VPage vpage, int depth) {
  SimDuration cost = 0;
  Pte& pte = as->page_table().at(vpage);
  const FrameId f = pte.frame;
  TierPlane& plane = tier_planes_[static_cast<size_t>(depth - 1)];
  const FrameId tf = TierTakeFrame(depth, &cost);
  // Event order matters for the oracle: kDemote sees the page still resident
  // on `f` and pops the tier pool's head, then the ordinary kUnmap/kFreePush
  // stream follows with the frame already clean (the contents moved, so no
  // writeback happens and the free push passes the oracle's dirty check).
  Emit(VmHookOp::kDemote, releaser_thread_->id(), as->id(), vpage, f, depth, tf);
  UnmapFrame(as, vpage, FreedBy::kReleaser);
  plane.owner[static_cast<size_t>(tf)] = as->id();
  plane.vpage[static_cast<size_t>(tf)] = vpage;
  plane.dirty[static_cast<size_t>(tf)] = frames_.dirty(f) ? 1 : 0;
  pte.frame = kNoFrame;  // no DRAM rescue: the authoritative copy moved away
  pte.tier = static_cast<uint8_t>(depth);
  pte.tier_frame = tf;
  frames_.set_dirty(f, false);           // contents migrated, not written back
  frames_.set_contents_valid(f, false);  // the DRAM copy is dead
  FreeFrame(f, /*at_tail=*/config_.tunables.release_to_tail);
  cost += plane.demote_cost;
  ++stats_.tier_demotions;
  return cost;
}

void Kernel::MaybeNotifySharedHeaders() {
  const int64_t threshold = config_.tunables.shared_header_notify_threshold;
  if (threshold <= 0) {
    return;  // the paper's lazy behavior
  }
  const int64_t free = frame_pool_.size();
  for (const auto& as : address_spaces_) {
    if (as->HasPagingDirected() &&
        std::abs(free - as->header_free_snapshot()) > threshold) {
      UpdateSharedHeader(as.get());
    }
  }
}

// --- fault handling (kTouch) --------------------------------------------------

Kernel::ExecResult Kernel::DoTouch(Thread* t, Op& op, SimDuration* elapsed) {
  AddressSpace* as = op.as != nullptr ? op.as : t->as_;
  assert(as != nullptr);
  Pte& pte = as->page_table().at(op.vpage);
  MemoryLock& lock = as->memory_lock();
  const CostModel& costs = config_.costs;

  // Fast path: valid mapping, no trap, no locking.
  if (t->fault_phase_ == Thread::FaultPhase::kNone && !lock.IsHeldBy(t) && pte.resident &&
      pte.valid) {
    Charge(t, elapsed, costs.touch_hit + op.duration, &TimeBreakdown::user);
    if (op.is_write) {
      MarkDirty(pte.frame);
    }
    return ExecResult::kCompleted;
  }

  if (!AcquireOrBlock(t, lock, elapsed)) {
    return ExecResult::kBlocked;
  }

  // Resumption after page-in I/O: finalize the mapping.
  if (t->fault_phase_ == Thread::FaultPhase::kIoDone) {
    const FrameId f = t->fault_frame_;
    frames_.set_io_busy(f, false);
    Emit(VmHookOp::kFaultEnd, t->id(), as->id(), op.vpage, f);
    MapFrame(as, op.vpage, f, /*validate=*/true);
    frames_.set_referenced(f, true);
    if (op.is_write) {
      MarkDirty(f);
    }
    t->fault_phase_ = Thread::FaultPhase::kNone;
    t->fault_frame_ = kNoFrame;
    Charge(t, elapsed, costs.hard_fault_service, &TimeBreakdown::system);
    ++t->faults_.hard_faults;
    ++stats_.hard_faults;
    UpdateSharedHeader(as);
    ReleaseLock(t, lock);
    WakeFrameWaiters(f);  // other threads that collapsed onto this page-in
    Charge(t, elapsed, op.duration, &TimeBreakdown::user);
    return ExecResult::kCompleted;
  }

  // Re-examine under the lock: state may have changed while we waited.
  if (pte.resident && pte.valid) {
    ReleaseLock(t, lock);
    Charge(t, elapsed, costs.touch_hit + op.duration, &TimeBreakdown::user);
    if (op.is_write) {
      MarkDirty(pte.frame);
    }
    return ExecResult::kCompleted;
  }

  // Soft-fault family: resident but invalid mapping; revalidate.
  if (pte.resident) {
    const InvalidReason old_reason = pte.invalid_reason;
    switch (pte.invalid_reason) {
      case InvalidReason::kFreshPrefetch:
        Charge(t, elapsed, costs.fresh_prefetch_validate, &TimeBreakdown::system);
        ++t->faults_.fresh_prefetch_touches;
        break;
      case InvalidReason::kDaemonInvalidated:
        Charge(t, elapsed, costs.soft_fault, &TimeBreakdown::system);
        ++t->faults_.soft_faults;
        ++stats_.soft_faults;
        break;
      case InvalidReason::kMonitorSampled:
        // Same soft-fault flavor as a daemon sample; tracked separately so the
        // monitor's imposed overhead is attributable.
        Charge(t, elapsed, costs.soft_fault, &TimeBreakdown::system);
        ++t->faults_.soft_faults;
        ++stats_.soft_faults;
        ++stats_.monitor_soft_faults;
        break;
      case InvalidReason::kReleasePending:
        // Touch cancels the pending release (the releaser will see the bit).
        Charge(t, elapsed, costs.soft_fault, &TimeBreakdown::system);
        ++t->faults_.release_saves;
        break;
      case InvalidReason::kNone:
        Charge(t, elapsed, costs.soft_fault, &TimeBreakdown::system);
        break;
    }
    pte.valid = true;
    pte.invalid_reason = InvalidReason::kNone;
    frames_.set_referenced(pte.frame, true);
    Emit(VmHookOp::kValidate, t->id(), as->id(), op.vpage, pte.frame,
         static_cast<int64_t>(old_reason));
    if (op.is_write) {
      MarkDirty(pte.frame);
    }
    if (as->HasPagingDirected()) {
      as->bitmap()->Set(op.vpage);
    }
    UpdateSharedHeader(as);
    ReleaseLock(t, lock);
    Charge(t, elapsed, op.duration, &TimeBreakdown::user);
    return ExecResult::kCompleted;
  }

  // Collapse onto in-flight I/O: a prefetch (or another thread's fault, or a
  // writeback) is already moving this page; wait for that I/O instead of
  // issuing a duplicate read.
  if (pte.frame != kNoFrame) {
    if (frames_.IsPage(pte.frame, as->id(), op.vpage) && frames_.io_busy(pte.frame)) {
      ++t->faults_.collapsed_faults;
      ReleaseLock(t, lock);
      WaitOnFrame(t, pte.frame, *elapsed);
      return ExecResult::kBlocked;
    }
  }

  // Rescue: the frame that last held this page is still on the free list.
  if (TryRescue(t, as, op.vpage)) {
    const FrameId f = pte.frame;
    MapFrame(as, op.vpage, f, /*validate=*/true);
    frames_.set_referenced(f, true);
    if (op.is_write) {
      MarkDirty(f);
    }
    Charge(t, elapsed, costs.rescue_fault, &TimeBreakdown::system);
    ++t->faults_.rescue_faults;
    UpdateSharedHeader(as);
    ReleaseLock(t, lock);
    Charge(t, elapsed, op.duration, &TimeBreakdown::user);
    return ExecResult::kCompleted;
  }

  // Local replacement (extension): a process at its partition cap evicts one
  // of its own pages before taking a fresh frame.
  const int64_t partition = config_.tunables.local_partition_pages;
  if (partition > 0 && as->page_table().resident_count() >= partition) {
    EvictLocalVictim(as);
  }

  // Need a fresh frame.
  const FrameId f = AllocateFrame(as, op.vpage);
  if (f == kNoFrame) {
    // No memory: wake the daemon and wait for a free frame, then retry.
    ++stats_.memory_waits;
    Emit(VmHookOp::kMemoryWaitBegin, t->id(), as->id(), op.vpage, kNoFrame);
    WakeDaemon();
    ReleaseLock(t, lock);
    memory_wait_.Enqueue(t);
    Block(t, Thread::BlockReason::kMemory, *elapsed);
    return ExecResult::kBlocked;
  }

  // Promotion from a slow tier (memory-tiering extension): the page's
  // authoritative contents live in tier pte.tier, so migrate them up into the
  // fresh DRAM frame — no disk I/O, carried dirty bit restored.
  if (TMH_UNLIKELY(pte.tier != 0)) {
    const int tier = pte.tier;
    const FrameId tf = pte.tier_frame;
    TierPlane& plane = tier_planes_[static_cast<size_t>(tier - 1)];
    MapFrame(as, op.vpage, f, /*validate=*/true);
    frames_.set_referenced(f, true);
    if (plane.dirty[static_cast<size_t>(tf)] != 0) {
      // Restore without the kDirty hook: the oracle re-inserts the carried
      // dirty bit while replaying kPromote (a migration, not a first store).
      frames_.set_dirty(f, true);
    }
    Emit(VmHookOp::kPromote, t->id(), as->id(), op.vpage, f, tier, tf);
    plane.owner[static_cast<size_t>(tf)] = kNoAs;
    plane.vpage[static_cast<size_t>(tf)] = kNoVPage;
    plane.dirty[static_cast<size_t>(tf)] = 0;
    plane.pool->PushHead(tf);
    pte.tier = 0;
    pte.tier_frame = kNoFrame;
    if (op.is_write) {
      MarkDirty(f);
    }
    Charge(t, elapsed, plane.promote_cost, &TimeBreakdown::system);
    ++t->faults_.soft_faults;
    ++stats_.tier_promotions;
    UpdateSharedHeader(as);
    ReleaseLock(t, lock);
    Charge(t, elapsed, op.duration, &TimeBreakdown::user);
    return ExecResult::kCompleted;
  }

  const bool needs_io =
      pte.ever_materialized || as->BackingOf(op.vpage) == Backing::kSwap;
  if (!needs_io) {
    // Zero-fill fault: anonymous page touched for the first time.
    MapFrame(as, op.vpage, f, /*validate=*/true);
    frames_.set_referenced(f, true);
    MarkDirty(f);  // zero-filled contents exist nowhere on swap yet
    Charge(t, elapsed, costs.zero_fill, &TimeBreakdown::system);
    ++t->faults_.zero_fill_faults;
    ++stats_.zero_fills;
    UpdateSharedHeader(as);
    ReleaseLock(t, lock);
    Charge(t, elapsed, op.duration, &TimeBreakdown::user);
    return ExecResult::kCompleted;
  }

  // Hard fault: page-in from swap. Drop the lock across the I/O.
  frames_.set_io_busy(f, true);
  t->fault_frame_ = f;
  pte.frame = f;  // lets concurrent touches collapse onto this page-in
  pte.ever_materialized = true;
  if (as->HasPagingDirected()) {
    as->bitmap()->Set(op.vpage);  // "bits are set whenever a physical page is allocated"
  }
  // Read-ahead clustering (extension; default off): pull the next pages of
  // the region in with the same fault while free memory has headroom.
  for (int64_t k = 1; k <= config_.tunables.fault_readahead_pages; ++k) {
    const VPage next = op.vpage + k;
    if (next >= as->num_pages() ||
        frame_pool_.size() <= config_.tunables.min_freemem_pages) {
      break;
    }
    const Pte& npte = as->page_table().at(next);
    const bool backed = npte.ever_materialized || as->BackingOf(next) == Backing::kSwap;
    if (npte.resident || npte.frame != kNoFrame || npte.tier != 0 || !backed) {
      continue;
    }
    IssueReadAhead(as, next);
  }
  UpdateSharedHeader(as);
  ReleaseLock(t, lock);
  Emit(VmHookOp::kFaultBegin, t->id(), as->id(), op.vpage, f);
  Block(t, Thread::BlockReason::kIo, *elapsed);
  swap_->ReadPage(as->SwapSlot(op.vpage), [this, t]() {
    t->fault_phase_ = Thread::FaultPhase::kIoDone;
    Wake(t);
  });
  return ExecResult::kBlocked;
}

// --- PagingDirected prefetch (kPrefetch) ---------------------------------------

Kernel::ExecResult Kernel::DoPrefetch(Thread* t, Op& op, SimDuration* elapsed) {
  AddressSpace* as = op.as != nullptr ? op.as : t->as_;
  assert(as != nullptr && as->HasPagingDirected());
  PageTable& pt = as->page_table();
  Pte& pte = pt.at(op.vpage);
  MemoryLock& lock = as->memory_lock();
  const CostModel& costs = config_.costs;

  // Cheap unlocked check: already resident -> nothing to do.
  if (t->fault_phase_ == Thread::FaultPhase::kNone && !lock.IsHeldBy(t) && pte.resident) {
    Charge(t, elapsed, costs.prefetch_issue, &TimeBreakdown::system);
    ++stats_.prefetch_requests;
    ++stats_.prefetch_noop;
    ++as->stats().prefetches_noop;
    UpdateSharedHeader(as);
    return ExecResult::kCompleted;
  }

  if (!AcquireOrBlock(t, lock, elapsed)) {
    return ExecResult::kBlocked;
  }

  // Resumption after prefetch I/O: map without validating (no TLB entry).
  if (t->fault_phase_ == Thread::FaultPhase::kIoDone) {
    const FrameId f = t->fault_frame_;
    frames_.set_io_busy(f, false);
    Emit(VmHookOp::kPrefetchComplete, t->id(), as->id(), op.vpage, f);
    MapFrame(as, op.vpage, f, /*validate=*/false);
    t->fault_phase_ = Thread::FaultPhase::kNone;
    t->fault_frame_ = kNoFrame;
    UpdateSharedHeader(as);
    ReleaseLock(t, lock);
    WakeFrameWaiters(f);  // touches that collapsed onto this prefetch
    return ExecResult::kCompleted;
  }

  Charge(t, elapsed, costs.prefetch_issue, &TimeBreakdown::system);
  ++stats_.prefetch_requests;
  ++as->stats().prefetches_issued;
  UpdateSharedHeader(as);

  if (pte.resident) {
    ++stats_.prefetch_noop;
    ++as->stats().prefetches_noop;
    ReleaseLock(t, lock);
    return ExecResult::kCompleted;
  }

  // Already in flight (another prefetch or a fault): nothing to do.
  if (pte.frame != kNoFrame) {
    if (frames_.IsPage(pte.frame, as->id(), op.vpage) && frames_.io_busy(pte.frame)) {
      ++stats_.prefetch_noop;
      ++as->stats().prefetches_noop;
      ReleaseLock(t, lock);
      return ExecResult::kCompleted;
    }
  }

  // Rescue via prefetch: free-list frame still holds the data.
  if (TryRescue(t, as, op.vpage)) {
    MapFrame(as, op.vpage, pte.frame, /*validate=*/false);
    UpdateSharedHeader(as);
    ReleaseLock(t, lock);
    return ExecResult::kCompleted;
  }

  // A page held in a slow tier promotes on touch, never on prefetch: the
  // authoritative copy is in the tier, not on swap, so a swap read here would
  // resurrect stale contents.
  if (TMH_UNLIKELY(pte.tier != 0)) {
    ++stats_.prefetch_noop;
    ++as->stats().prefetches_noop;
    ReleaseLock(t, lock);
    return ExecResult::kCompleted;
  }

  // Never-materialized anonymous page: nothing on swap to fetch.
  if (!pte.ever_materialized && as->BackingOf(op.vpage) != Backing::kSwap) {
    ++stats_.prefetch_noop;
    ++as->stats().prefetches_noop;
    ReleaseLock(t, lock);
    return ExecResult::kCompleted;
  }

  // Local replacement (extension): prefetching never evicts; a process at its
  // partition cap simply has its prefetches dropped.
  const int64_t partition = config_.tunables.local_partition_pages;
  if (partition > 0 && as->page_table().resident_count() >= partition) {
    ++stats_.prefetch_dropped;
    ++as->stats().prefetches_dropped;
    Emit(VmHookOp::kPrefetchDrop, t->id(), as->id(), op.vpage, kNoFrame);
    ReleaseLock(t, lock);
    return ExecResult::kCompleted;
  }

  // "If there is no free memory, the request is discarded immediately."
  const FrameId f = AllocateFrame(as, op.vpage);
  if (f == kNoFrame) {
    ++stats_.prefetch_dropped;
    ++as->stats().prefetches_dropped;
    Emit(VmHookOp::kPrefetchDrop, t->id(), as->id(), op.vpage, kNoFrame);
    WakeDaemon();
    ReleaseLock(t, lock);
    return ExecResult::kCompleted;
  }

  frames_.set_io_busy(f, true);
  t->fault_frame_ = f;
  pte.frame = f;  // lets touches collapse onto the in-flight prefetch
  pte.ever_materialized = true;
  as->bitmap()->Set(op.vpage);
  ++stats_.prefetch_io;
  ReleaseLock(t, lock);
  Emit(VmHookOp::kPrefetchIssue, t->id(), as->id(), op.vpage, f);
  Block(t, Thread::BlockReason::kIo, *elapsed);
  swap_->ReadPage(as->SwapSlot(op.vpage), [this, t]() {
    t->fault_phase_ = Thread::FaultPhase::kIoDone;
    Wake(t);
  });
  return ExecResult::kBlocked;
}

// --- PagingDirected release (kRelease) -----------------------------------------

Kernel::ExecResult Kernel::DoRelease(Thread* t, Op& op, SimDuration* elapsed) {
  AddressSpace* as = op.as != nullptr ? op.as : t->as_;
  assert(as != nullptr && as->HasPagingDirected());
  MemoryLock& lock = as->memory_lock();
  const CostModel& costs = config_.costs;

  if (!AcquireOrBlock(t, lock, elapsed)) {
    return ExecResult::kBlocked;
  }

  Charge(t, elapsed, costs.release_syscall + op.count * costs.release_per_page,
         &TimeBreakdown::system);
  ++stats_.release_requests;
  ++as->stats().release_requests;

  // On a tiered machine the Eq. 2 reuse priority chooses the demotion depth:
  // priority 0 (no expected reuse) sinks to the deepest tier; each higher
  // priority keeps the page one tier closer to DRAM.
  int32_t depth = 0;
  if (TMH_UNLIKELY(config_.has_slow_tiers())) {
    const int32_t slow = config_.num_slow_tiers();
    depth = std::clamp<int32_t>(slow - op.priority, 1, slow);
  }

  bool enqueued_any = false;
  for (VPage p = op.vpage; p < op.vpage + op.count; ++p) {
    enqueued_any |= EnqueueRelease(t->id(), as, p, depth);
  }
  UpdateSharedHeader(as);
  ReleaseLock(t, lock);
  if (enqueued_any && releaser_ != nullptr) {
    Signal(&releaser_->wait_queue());
  }
  return ExecResult::kCompleted;
}

bool Kernel::EnqueueRelease(int32_t tid, AddressSpace* as, VPage vpage, int32_t depth) {
  if (vpage < 0 || vpage >= as->num_pages()) {
    return false;
  }
  Pte& pte = as->page_table().at(vpage);
  if (!pte.resident || pte.invalid_reason == InvalidReason::kReleasePending) {
    return false;  // nothing resident, or already queued
  }
  if (frames_.io_busy(pte.frame)) {
    return false;
  }
  // Clear the bit and invalidate the mapping so any re-reference before the
  // releaser gets to it takes a soft fault that re-sets the bit.
  if (as->HasPagingDirected()) {
    as->bitmap()->Clear(vpage);
  }
  pte.valid = false;
  pte.invalid_reason = InvalidReason::kReleasePending;
  release_work_.push_back(ReleaseWorkItem{vpage, as->id(), depth});
  ++stats_.release_pages_enqueued;
  ++as->stats().release_pages_requested;
  Emit(VmHookOp::kReleaseEnqueue, tid, as->id(), vpage, pte.frame);
  return true;
}

// --- online access monitoring entry points -----------------------------------
// These run from monitor timer events, which execute atomically between thread
// quanta; the skip conditions below reject any page in a transitional state
// (non-resident, I/O-busy, already queued), and threads re-examine PTE state
// under the memory lock when they resume, so no thread observes a torn update.

void Kernel::AttachMonitor(AccessMonitor* monitor) {
  assert((monitor == nullptr || monitor_ == nullptr) && "at most one access monitor");
  monitor_ = monitor;
}

bool Kernel::MonitorSamplePage(AddressSpace* as, VPage vpage) {
  if (vpage < 0 || vpage >= as->num_pages()) {
    return false;
  }
  Pte& pte = as->page_table().at(vpage);
  if (!pte.resident || !pte.valid || frames_.io_busy(pte.frame)) {
    return false;
  }
  // Mirror of the daemon's reference-bit sampling, for one page: invalidate
  // the mapping and clear the bit; the next touch soft-faults and proves the
  // access. The resident bitmap bit stays set — the page is still resident.
  pte.valid = false;
  pte.invalid_reason = InvalidReason::kMonitorSampled;
  frames_.set_referenced(pte.frame, false);
  ++stats_.monitor_invalidations;
  ++as->stats().invalidations_received;
  Emit(VmHookOp::kInvalidate, kKernelTid, as->id(), vpage, pte.frame,
       static_cast<int64_t>(InvalidReason::kMonitorSampled));
  return true;
}

bool Kernel::MonitorEnqueueRelease(AddressSpace* as, VPage vpage, int32_t depth) {
  // The release syscall's per-page body: the releaser and the rescue path
  // cannot tell a monitor-issued release from a compiler-inserted one.
  if (!EnqueueRelease(kKernelTid, as, vpage, depth)) {
    return false;
  }
  ++stats_.monitor_releases_enqueued;
  return true;
}

void Kernel::MonitorPublishReleases(AddressSpace* as) {
  UpdateSharedHeader(as);
  WakeReleaser();
}

bool Kernel::MonitorProtectPage(AddressSpace* as, VPage vpage) {
  if (vpage < 0 || vpage >= as->num_pages()) {
    return false;
  }
  const Pte& pte = as->page_table().at(vpage);
  if (!pte.resident) {
    return false;
  }
  frames_.set_referenced(pte.frame, true);
  ++stats_.monitor_pages_protected;
  return true;
}

}  // namespace tmh
