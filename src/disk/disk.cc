#include "src/disk/disk.h"

#include <cassert>
#include <utility>

namespace tmh {

Disk::Disk(EventQueue* queue, ScsiController* controller, DiskParams params, std::string name)
    : queue_(queue), controller_(controller), params_(params), name_(std::move(name)) {
  assert(queue_ != nullptr && controller_ != nullptr);
}

void Disk::Submit(IoRequest request) {
  assert(request.done && "IoRequest must carry a completion callback");
  request.submitted_at = queue_->Now();
  pending_.push_back(std::move(request));
  if (!busy_) {
    StartNext();
  }
}

void Disk::StartNext() {
  if (pending_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  // Bounded look-ahead reordering: continue a sequential streak if any nearby
  // queued request allows it (the age-old elevator trick; keeps interleaved
  // read and write streams from paying a full seek per request).
  size_t pick = 0;
  const size_t lookahead =
      std::min(pending_.size(), static_cast<size_t>(std::max(params_.queue_lookahead, 0)) + 1);
  for (size_t i = 0; i < lookahead; ++i) {
    if (pending_[i].block == last_block_end_) {
      pick = i;
      break;
    }
  }
  current_ = std::move(pending_[pick]);
  pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(pick));

  // Positioning: a request contiguous with the previous one skips the seek and
  // most rotational delay (striped sequential access hits this path).
  SimDuration positioning;
  if (current_.block == last_block_end_) {
    positioning = params_.sequential_seek;
  } else {
    positioning = params_.avg_seek + params_.half_rotation;
  }
  queue_->ScheduleAfter(positioning, [this]() { PositioningDone(); });
}

void Disk::PositioningDone() {
  const SimDuration transfer =
      params_.TransferTime(current_.bytes) + params_.controller_overhead;
  controller_->AcquireBus(transfer, [this, transfer]() {
    // The bus is held for the transfer duration by the controller; completion
    // of this request coincides with the bus release.
    queue_->ScheduleAfter(transfer, [this]() { TransferDone(); });
  });
}

void Disk::TransferDone() {
  const int64_t blocks = (current_.bytes > 0) ? 1 : 0;
  last_block_end_ = current_.block + blocks;
  ++requests_served_;
  latency_.Add(static_cast<double>(queue_->Now() - current_.submitted_at));
  InlineCallable done = std::move(current_.done);
  // Start the next queued request before running the callback so a callback
  // that submits more I/O sees a consistent queue.
  StartNext();
  done();
}

void ScsiController::AcquireBus(SimDuration duration, InlineCallable granted) {
  if (busy_) {
    waiters_.push_back(Waiter{duration, std::move(granted)});
    return;
  }
  Grant(Waiter{duration, std::move(granted)});
}

void ScsiController::Grant(Waiter waiter) {
  busy_ = true;
  ++transfers_;
  queue_->ScheduleAfter(waiter.duration, [this]() { Release(); });
  waiter.granted();
}

void ScsiController::Release() {
  busy_ = false;
  if (!waiters_.empty()) {
    Waiter next = std::move(waiters_.front());
    waiters_.pop_front();
    Grant(std::move(next));
  }
}

}  // namespace tmh
