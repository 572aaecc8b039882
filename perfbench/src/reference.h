// A fixed reference computation, timed between a workload's points to
// measure how fast the shared machine runs at the moment. On a shared host the
// same code's speed drifts by tens of percent between runs a minute apart,
// with the neighbours' load; dividing a run's host time by the reference's
// time in the same run takes most of that drift out. The loop lives in the
// benchmark, not in the library, so a change to the simulator cannot move it.
//
// One pass mixes what the simulator's host time is made of: a dependent
// multiply chain (core speed), a pointer chase around a shuffled 64 KiB ring
// (cache latency, which the neighbours' load moves most) and a table-driven
// dispatch loop over a 256 KiB table (branches and cache together). The
// buffers are swept once before each timed pass, so the pass does not pay for
// whatever the workload left in the caches.

#ifndef TMH_PERFBENCH_SRC_REFERENCE_H_
#define TMH_PERFBENCH_SRC_REFERENCE_H_

#include <cstdint>
#include <vector>

namespace tmh::perfbench {

class ReferenceLoop {
 public:
  ReferenceLoop();

  // Host seconds of one warm pass. Every pass does the same work.
  double TimePass();

 private:
  std::vector<uint32_t> ring_;   // ring_[i] is the next index of the chase
  std::vector<uint8_t> code_;    // dispatch opcodes
  std::vector<uint64_t> table_;  // data the dispatch loop reads
  volatile uint64_t sink_ = 0;   // keeps the timed work from being optimised away
};

}  // namespace tmh::perfbench

#endif  // TMH_PERFBENCH_SRC_REFERENCE_H_
