// Disk and SCSI-controller service models.
//
// The paper's testbed stripes raw swap across ten Seagate Cheetah 4LP disks
// hanging off five SCSI adapters (Table 1). Prefetching's latency-hiding
// ability depends on the aggregate parallelism of that array, so the model
// keeps the two service stages separate:
//   1. positioning (seek + rotational latency) — parallel across disks;
//   2. transfer — serialized per SCSI controller (two disks share a bus).
// Consecutive blocks on the same disk skip most of the positioning cost, which
// is what makes striped sequential swap reads fast.

#ifndef TMH_SRC_DISK_DISK_H_
#define TMH_SRC_DISK_DISK_H_

#include <cstdint>
#include <deque>
#include <string>

#include "src/sim/event_queue.h"
#include "src/sim/inline_callable.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace tmh {

// Service parameters for one disk. Defaults approximate a Seagate Cheetah 4LP
// (10,033 RPM, ~7.7 ms average seek, ~16 MB/s sustained transfer).
struct DiskParams {
  SimDuration avg_seek = 7700 * kUsec;
  SimDuration half_rotation = 2990 * kUsec;     // 10k RPM => 5.98 ms/rev
  SimDuration sequential_seek = 300 * kUsec;    // track-to-track + settle
  int64_t transfer_bytes_per_sec = 16ll * 1000 * 1000;
  SimDuration controller_overhead = 150 * kUsec;  // SCSI command processing
  // Driver/drive request reordering (elevator / tagged command queuing): when
  // picking the next request, look this far into the queue for one contiguous
  // with the last served block before falling back to FIFO. 0 = strict FIFO.
  int queue_lookahead = 8;

  [[nodiscard]] SimDuration TransferTime(int64_t bytes) const {
    return (bytes * kSec) / transfer_bytes_per_sec;
  }
};

// One I/O request against a disk: read or write of `bytes` at logical `block`.
// The completion callback is an InlineCallable: every callback the kernel and
// the tests pass is a couple of words, so queueing and serving requests never
// touches the heap, and moving a request is a raw byte copy.
struct IoRequest {
  int64_t block = 0;  // disk-local block number (one block = one page slot)
  int64_t bytes = 0;
  bool is_write = false;
  InlineCallable done;       // invoked at completion time
  SimTime submitted_at = 0;  // set by Disk::Submit; used for latency stats
};

class ScsiController;

// A single disk drive with a FIFO request queue.
class Disk {
 public:
  Disk(EventQueue* queue, ScsiController* controller, DiskParams params, std::string name);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  // Enqueues a request; it completes asynchronously via request.done.
  void Submit(IoRequest request);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] size_t queue_depth() const { return pending_.size() + (busy_ ? 1 : 0); }
  [[nodiscard]] uint64_t requests_served() const { return requests_served_; }
  [[nodiscard]] const Accumulator& latency_stats() const { return latency_; }

 private:
  friend class ScsiController;

  void StartNext();
  void PositioningDone();
  void TransferDone();

  EventQueue* queue_;
  ScsiController* controller_;
  DiskParams params_;
  std::string name_;

  std::deque<IoRequest> pending_;
  // The single request in the positioning/transfer pipeline (a disk serves one
  // request at a time). Holding it here lets every pipeline event capture just
  // `this` — no request moves through lambdas, no heap-allocated closures.
  IoRequest current_;
  bool busy_ = false;
  int64_t last_block_end_ = -1;  // block just past the last completed request

  uint64_t requests_served_ = 0;
  Accumulator latency_;  // per-request latency, queue wait included (usec)
};

// Serializes the transfer phase of the disks attached to one SCSI bus.
class ScsiController {
 public:
  explicit ScsiController(EventQueue* queue, std::string name)
      : queue_(queue), name_(std::move(name)) {}

  ScsiController(const ScsiController&) = delete;
  ScsiController& operator=(const ScsiController&) = delete;

  // Requests the bus for `duration`; `granted` runs when the bus is acquired,
  // and the bus frees itself `duration` later.
  void AcquireBus(SimDuration duration, InlineCallable granted);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] uint64_t transfers() const { return transfers_; }

 private:
  struct Waiter {
    SimDuration duration;
    InlineCallable granted;
  };

  void Grant(Waiter waiter);
  void Release();

  EventQueue* queue_;
  std::string name_;
  bool busy_ = false;
  std::deque<Waiter> waiters_;
  uint64_t transfers_ = 0;
};

}  // namespace tmh

#endif  // TMH_SRC_DISK_DISK_H_
