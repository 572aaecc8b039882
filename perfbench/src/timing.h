// Host-time measurement for the benchmark: a steady clock, a timer-cost
// calibration, and the timed wrappers the traced run puts around each
// layer's public entry points (Program::Next and the VmChecker callbacks).
//
// Timing every Program::Next call would double a grid's run time (a clock
// read costs about half an average call), so the wrappers time a
// pseudo-random 1 / 2^shift of the calls and scale the mean sampled call up
// to the total call count. Each sample is followed by one empty timed
// interval whose cost is subtracted: measured in place, it follows the clock's
// cost as the cache state around the calls changes, which a start-up
// calibration alone misses.

#ifndef TMH_PERFBENCH_SRC_TIMING_H_
#define TMH_PERFBENCH_SRC_TIMING_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/os/kernel.h"
#include "src/os/thread.h"
#include "src/os/vm_hooks.h"

namespace tmh::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

// Cost in ns of one empty timed interval (two back-to-back clock reads) in a
// tight loop at start-up, recorded with every result: the median over
// batches, so a preempted batch does not skew it.
inline double CalibrateTimerNs() {
  constexpr int kBatches = 21;
  constexpr int kReads = 20'000;
  std::vector<double> per_read;
  for (int b = 0; b < kBatches; ++b) {
    int64_t total = 0;
    for (int i = 0; i < kReads; ++i) {
      const int64_t t0 = NowNs();
      total += NowNs() - t0;
    }
    per_read.push_back(static_cast<double>(total) / kReads);
  }
  std::sort(per_read.begin(), per_read.end());
  return per_read[per_read.size() / 2];
}

// Counts every call and times a pseudo-random 1 / 2^shift of them.
class SampledTimer {
 public:
  SampledTimer(int shift, uint64_t seed)
      : mask_((uint64_t{1} << shift) - 1), state_(seed | 1) {}

  // Counts one call; true if this call is to be timed.
  bool CountAndSample() {
    ++calls_;
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return (state_ & mask_) == 0;
  }
  // Ends the sample started at `t0` and times one empty interval after it. A
  // sample longer than kMaxSampleNs (thousands of times a mean call) is one
  // the thread was descheduled in: it is dropped, since scaled up by 2^shift
  // a single such pause would add milliseconds times 2^shift to the estimate.
  void Stop(int64_t t0) {
    const int64_t t1 = NowNs();
    const int64_t empty = NowNs() - t1;
    if (t1 - t0 > kMaxSampleNs) {
      return;
    }
    sampled_ns_ += t1 - t0;
    empty_ns_ += empty;
    ++samples_;
  }

  [[nodiscard]] uint64_t calls() const { return calls_; }
  [[nodiscard]] uint64_t samples() const { return samples_; }

  // Estimated total self time, in seconds, of all counted calls.
  [[nodiscard]] double EstimateSeconds() const {
    if (samples_ == 0) {
      return 0;
    }
    const double per_call = std::max(
        0.0, static_cast<double>(sampled_ns_ - empty_ns_) / static_cast<double>(samples_));
    return per_call * static_cast<double>(calls_) * 1e-9;
  }

 private:
  static constexpr int64_t kMaxSampleNs = 1'000'000;
  uint64_t mask_;
  uint64_t state_;
  uint64_t calls_ = 0;
  uint64_t samples_ = 0;
  int64_t sampled_ns_ = 0;
  int64_t empty_ns_ = 0;
};

// Program decorator: forwards every Next() to the wrapped program and times a
// sample of the calls. The kernel sees the same op stream either way.
class TimedProgram : public Program {
 public:
  TimedProgram(Program* inner, uint64_t seed) : inner_(inner), timer_(kShift, seed) {}

  Op Next(Kernel& kernel) override {
    if (!timer_.CountAndSample()) {
      return inner_->Next(kernel);
    }
    const int64_t t0 = NowNs();
    Op op = inner_->Next(kernel);
    timer_.Stop(t0);
    return op;
  }

  [[nodiscard]] const SampledTimer& timer() const { return timer_; }

 private:
  static constexpr int kShift = 6;  // time 1 call in 64
  Program* inner_;
  SampledTimer timer_;
};

// VmChecker decorator: forwards both callbacks to the wrapped checker and
// times a sample of each. Attach it with Kernel::AttachChecker after the
// wrapped checker has attached itself.
class TimedChecker : public VmChecker {
 public:
  TimedChecker(VmChecker* inner, uint64_t seed)
      : inner_(inner), on_event_(kShift, seed), on_quiescent_(kShift, seed * 3 + 1) {}

  void OnVmEvent(const VmHookEvent& event) override {
    if (!on_event_.CountAndSample()) {
      inner_->OnVmEvent(event);
      return;
    }
    const int64_t t0 = NowNs();
    inner_->OnVmEvent(event);
    on_event_.Stop(t0);
  }

  void OnQuiescent(Kernel& kernel) override {
    if (!on_quiescent_.CountAndSample()) {
      inner_->OnQuiescent(kernel);
      return;
    }
    const int64_t t0 = NowNs();
    inner_->OnQuiescent(kernel);
    on_quiescent_.Stop(t0);
  }

  [[nodiscard]] const SampledTimer& on_event() const { return on_event_; }
  [[nodiscard]] const SampledTimer& on_quiescent() const { return on_quiescent_; }

 private:
  static constexpr int kShift = 4;  // checker calls are long: time 1 in 16
  VmChecker* inner_;
  SampledTimer on_event_;
  SampledTimer on_quiescent_;
};

}  // namespace tmh::perfbench

#endif  // TMH_PERFBENCH_SRC_TIMING_H_
