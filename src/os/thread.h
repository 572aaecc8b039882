// Simulated kernel threads and the operation stream they execute.
//
// A thread runs a Program: a resumable generator of Ops. The kernel pulls one
// Op at a time while the thread holds a CPU; an Op that blocks (page-in I/O,
// lock wait, empty work queue, sleep) suspends the thread until its waker
// fires. Every microsecond a thread spends is attributed to one of the four
// buckets of Figure 7: user time, system time (fault handling), stalled for
// unavailable resources (CPU / memory / memory locks), or stalled for I/O.

#ifndef TMH_SRC_OS_THREAD_H_
#define TMH_SRC_OS_THREAD_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/sim/stats.h"
#include "src/sim/time.h"
#include "src/vm/types.h"

namespace tmh {

class AddressSpace;
class Kernel;
class MemoryLock;
class Thread;

// A wait queue for condition-style blocking (work queues, memory waits,
// daemon wakeups). Dumb container; Kernel performs the actual wake.
class WaitQueue {
 public:
  void Enqueue(Thread* t) { waiters_.push_back(t); }
  Thread* Dequeue() {
    if (waiters_.empty()) {
      return nullptr;
    }
    Thread* t = waiters_.front();
    waiters_.pop_front();
    return t;
  }
  [[nodiscard]] bool empty() const { return waiters_.empty(); }
  [[nodiscard]] size_t size() const { return waiters_.size(); }

  // Signals with no waiter are remembered so a subsequent Wait completes
  // immediately (prevents lost wakeups for the daemons' work loops).
  void AddPendingSignal() { ++pending_signals_; }
  bool ConsumeSignal() {
    if (pending_signals_ == 0) {
      return false;
    }
    --pending_signals_;
    return true;
  }
  // Drops accumulated signals (used when a daemon gives up until its next
  // periodic tick and must not spin on stale demand wakes).
  void ClearPendingSignals() { pending_signals_ = 0; }

 private:
  std::deque<Thread*> waiters_;
  uint64_t pending_signals_ = 0;
};

// One operation emitted by a Program. Ops pass by value from every
// Program::Next to Kernel::RunSlice, one per interpreter step, so the layout
// is held to 48 bytes: the op kind selects the one pointer it reads (`as` for
// touch, prefetch and release; `wait`; `lock`), and the small fields share
// the first 16 bytes (docs/INTERNALS.md §4).
struct Op {
  enum class Kind : uint8_t {
    kCompute,      // burn `duration` of user time
    kTouch,        // reference page `vpage` of `as`, then burn `duration` user time
    kSleep,        // leave the CPU for `duration` (interactive think time)
    kPrefetch,     // PagingDirected prefetch of `vpage` (blocks until page arrives)
    kRelease,      // PagingDirected release of [vpage, vpage+count), non-blocking
    kWait,         // block on `wait` until signaled
    kAcquireLock,  // acquire `lock` (blocks if held)
    kReleaseLock,  // release `lock`
    kYield,        // give up the CPU voluntarily, stay runnable
    kExit,         // program finished
  };

  // `kind` leads: every consumer reads it first. The same 48 bytes with `kind`
  // in the last word ran the Figure-7 grid slower than the 72-byte struct
  // did (docs/INTERNALS.md §4).
  Kind kind = Kind::kCompute;
  bool is_write = false;  // touch: store vs load
  int32_t priority = 0;   // release: Eq. 2 reuse priority
  int32_t tag = -1;       // release: compiler-generated request identifier
  SimDuration duration = 0;
  VPage vpage = kNoVPage;
  int64_t count = 1;  // release: number of pages
  union {
    AddressSpace* as = nullptr;  // touch/prefetch/release target (nullptr: the thread's own)
    WaitQueue* wait;             // kWait
    MemoryLock* lock;            // kAcquireLock, kReleaseLock
  };

  // Every factory names the pointer slot; GCC's -Wmissing-field-initializers
  // does not count the union's default as an initializer.
  static Op Compute(SimDuration d) {
    return Op{.kind = Kind::kCompute, .duration = d, .as = nullptr};
  }
  static Op Touch(VPage p, bool write, SimDuration d) {
    return Op{.kind = Kind::kTouch, .is_write = write, .duration = d, .vpage = p, .as = nullptr};
  }
  static Op Sleep(SimDuration d) { return Op{.kind = Kind::kSleep, .duration = d, .as = nullptr}; }
  static Op Prefetch(VPage p) { return Op{.kind = Kind::kPrefetch, .vpage = p, .as = nullptr}; }
  static Op Release(VPage p, int64_t n, int32_t prio, int32_t tag) {
    return Op{.kind = Kind::kRelease,
              .priority = prio,
              .tag = tag,
              .vpage = p,
              .count = n,
              .as = nullptr};
  }
  static Op Wait(WaitQueue* q) { return Op{.kind = Kind::kWait, .wait = q}; }
  static Op Acquire(MemoryLock* l) { return Op{.kind = Kind::kAcquireLock, .lock = l}; }
  static Op ReleaseL(MemoryLock* l) { return Op{.kind = Kind::kReleaseLock, .lock = l}; }
  static Op Yield() { return Op{.kind = Kind::kYield, .as = nullptr}; }
  static Op Exit() { return Op{.kind = Kind::kExit, .as = nullptr}; }
};
static_assert(sizeof(Op) == 48, "Op travels by value on every interpreter step");

// A resumable generator of Ops. Next() is called only when the previous Op has
// fully completed, so implementations advance their internal state in Next().
class Program {
 public:
  virtual ~Program() = default;
  virtual Op Next(Kernel& kernel) = 0;
};

// Figure 7's execution-time decomposition.
struct TimeBreakdown {
  SimDuration user = 0;
  SimDuration system = 0;          // fault handling and syscalls
  SimDuration resource_stall = 0;  // CPU queue + memory waits + memory-lock waits
  SimDuration io_stall = 0;        // blocked on page-in for own faults
  SimDuration sleep = 0;           // voluntary sleep (not part of execution time)

  [[nodiscard]] SimDuration Execution() const { return user + system + resource_stall + io_stall; }
};

// Per-thread fault statistics (Figures 8 and 10c).
struct FaultStats {
  uint64_t hard_faults = 0;          // required disk I/O
  uint64_t soft_faults = 0;          // daemon-invalidated revalidations
  uint64_t fresh_prefetch_touches = 0;  // first touch of a prefetched page
  uint64_t rescue_faults = 0;        // reclaimed from the free list
  uint64_t zero_fill_faults = 0;
  uint64_t release_saves = 0;        // touch revalidated a release-pending page
  uint64_t collapsed_faults = 0;     // waited on an already-in-flight page-in
};

class Thread {
 public:
  enum class State : uint8_t { kRunnable, kRunning, kBlocked, kDone };
  // Why a blocked thread is blocked; determines the stall bucket on wake.
  enum class BlockReason : uint8_t {
    kNone,
    kSleep,
    kIo,         // own page-in
    kLock,       // memory-lock wait
    kMemory,     // waiting for a free frame
    kWaitQueue,  // generic condition (work queues, daemon timers)
  };

  Thread(int32_t id, std::string name, AddressSpace* as, Program* program, bool is_daemon)
      : id_(id), name_(std::move(name)), as_(as), program_(program), is_daemon_(is_daemon) {}

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  [[nodiscard]] int32_t id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] AddressSpace* address_space() const { return as_; }
  [[nodiscard]] Program* program() const { return program_; }
  // Daemon threads' time is kernel overhead, not application execution time.
  [[nodiscard]] bool is_daemon() const { return is_daemon_; }

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] const TimeBreakdown& times() const { return times_; }
  [[nodiscard]] const FaultStats& faults() const { return faults_; }
  // Per-page-in wait times (ns): how long each of this thread's faults spent
  // blocked on I/O — the "page fault service time" the paper's Section 1.1
  // says the memory hog inflates.
  [[nodiscard]] const Accumulator& fault_service() const { return fault_service_; }
  [[nodiscard]] SimTime finished_at() const { return finished_at_; }
  [[nodiscard]] SimTime started_at() const { return started_at_; }

 private:
  friend class Kernel;
  friend class MemoryLock;

  const int32_t id_;
  const std::string name_;
  AddressSpace* const as_;
  Program* const program_;
  const bool is_daemon_;

  State state_ = State::kRunnable;
  BlockReason block_reason_ = BlockReason::kNone;
  SimTime block_start = 0;    // when the current block/queue wait began
  SimTime started_at_ = 0;
  SimTime finished_at_ = 0;

  // Pending op and resumable fault-handling state (see Kernel::DoTouch).
  Op pending_op_;
  bool has_pending_ = false;
  enum class FaultPhase : uint8_t { kNone, kIoDone } fault_phase_ = FaultPhase::kNone;
  FrameId fault_frame_ = kNoFrame;

  TimeBreakdown times_;
  FaultStats faults_;
  Accumulator fault_service_;
};

}  // namespace tmh

#endif  // TMH_SRC_OS_THREAD_H_
