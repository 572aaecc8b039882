// One benchmark point: a single simulated experiment (an out-of-core app with
// optional interactive task, checker, monitor and slow tiers; the interactive
// task alone; or one kernel storm), launched through the library's public
// API so that set-up, the simulated run and result collection can be timed
// separately, and — in the traced run — so that each layer's entry points can
// be wrapped in timers.

#ifndef TMH_PERFBENCH_SRC_POINTS_H_
#define TMH_PERFBENCH_SRC_POINTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/workloads/workloads.h"

namespace tmh::perfbench {

enum class PointKind : uint8_t { kApp, kAlone, kStorm };

// A point's run is timed in slices of this many simulated events.
inline constexpr uint64_t kChunkEvents = 1024;

// The four kernel storms: tenants zero-fill-fault and re-touch their working
// sets; touch, release and re-touch windows; run with free memory pinned
// below min_freemem and a tight maxrss; arrive and leave staggered.
enum class StormKind : uint8_t { kFault, kRelease, kDaemon, kChurn };

struct StormParams {
  int64_t frames = 10'000'000;
  int num_nodes = 8;
  int tenants = 96;
  int64_t pages_per_tenant = 4096;
  int laps = 3;
};

struct PointSpec {
  std::string label;       // unique within a workload; names a failing point
  std::string digest_key;  // committed digest the simulated counters must match
  PointKind kind = PointKind::kApp;
  // kApp and kAlone.
  const WorkloadInfo* workload = nullptr;
  double scale = 0.05;
  AppVersion version = AppVersion::kOriginal;
  bool interactive = false;
  SimDuration sleep = 5 * kSec;  // interactive think time
  bool checks = false;
  bool monitor = false;
  int tiers = 0;                 // total memory tiers; 0 = the flat machine
  // kStorm.
  StormKind storm = StormKind::kFault;
  StormParams storm_params;
  uint64_t seed = 1;  // touch-order permutation (not daemon) and arrival jitter
};

// Host seconds spent in each layer during one point (self time). The run's
// program and checker shares are sampled estimates (src/timing.h); they stay 0
// in an untraced point.
struct LayerHost {
  double compiler = 0;         // CompileVersion
  double os_setup = 0;         // kernel, daemons, address spaces, threads
  double run = 0;              // Kernel::RunUntilThreadsDone
  double runtime = 0;          // Interpreter::Next, run-time layer included
  double workloads = 0;        // InteractiveTask::Next
  double check_event = 0;      // VmChecker::OnVmEvent
  double check_quiescent = 0;  // VmChecker::OnQuiescent
  double check_final = 0;      // end-of-run InvariantChecker::CheckNow
  double collect = 0;          // statistics and digest
  double teardown = 0;         // destroying the kernel and the programs
  uint64_t next_calls = 0;     // Interpreter::Next calls
  uint64_t quiescent_calls = 0;

  [[nodiscard]] double setup() const { return compiler + os_setup; }
  // Kernel-side remainder of the run: os, vm, disk, sim and monitor together.
  [[nodiscard]] double os_run() const {
    return run - runtime - workloads - check_event - check_quiescent;
  }
  void Add(const LayerHost& other);
};

// Simulated work counted by the layers; summed over points.
struct SimCounters {
  uint64_t page_touches = 0;  // compiled programs' and storm tenants' touches
  uint64_t iterations = 0;
  uint64_t prefetch_hints = 0;
  uint64_t prefetch_enqueued = 0;
  uint64_t release_hints = 0;
  uint64_t releases_issued = 0;
  uint64_t sim_events = 0;
  uint64_t daemon_pages_stolen = 0;
  uint64_t releaser_pages_freed = 0;
  uint64_t releaser_skipped = 0;
  uint64_t rescues = 0;
  uint64_t memory_waits = 0;
  uint64_t swap_reads = 0;
  uint64_t swap_writes = 0;
  uint64_t tier_demotions = 0;
  uint64_t tier_promotions = 0;
  uint64_t tier_evictions = 0;
  uint64_t samples_armed = 0;
  uint64_t samples_checked = 0;
  uint64_t samples_hit = 0;
  uint64_t cold_pages_enqueued = 0;
  // Simulated (not host) time of the out-of-core apps, and the interactive
  // task's mean response.
  double app_exec_s = 0;
  double app_io_stall_s = 0;
  double app_resource_stall_s = 0;
  double interactive_response_ms_sum = 0;
  uint64_t interactive_points = 0;

  void Add(const SimCounters& other);
};

struct PointResult {
  std::string label;
  std::string digest_key;
  bool ok = true;
  std::string failure;  // why the point failed (empty when ok)
  uint64_t digest = 0;  // FNV-1a of the end-of-run simulated counters
  LayerHost host;
  // Host seconds of each successive kChunkEvents-event slice of the run. The
  // slices end at the same simulated events in every repetition, so they can
  // be compared slice by slice.
  std::vector<double> chunk_s;
  SimCounters sim;
  // Fields the golden tables are rendered from.
  TimeBreakdown app_times;
  uint64_t app_hard_faults = 0;
  double interactive_mean_response_ns = 0;
  // Storms: host bytes the kernel's construction added to the resident set,
  // per simulated frame.
  double kernel_bytes_per_frame = 0;
  double finished_s = 0;  // NowSeconds() when collection ended
};

// Runs one point. `traced` wraps the programs and the checker in timers.
PointResult RunPoint(const PointSpec& spec, bool traced);

// The host resident set, in bytes, right now (from /proc/self/statm).
int64_t CurrentRssBytes();

// The process's resident high-water mark, in bytes (VmHWM in
// /proc/self/status). Unlike getrusage's ru_maxrss it does not carry over
// the parent's peak across fork and exec.
int64_t PeakRssBytes();

// FNV-1a, 64-bit.
uint64_t Fnv1a(const std::string& text);

}  // namespace tmh::perfbench

#endif  // TMH_PERFBENCH_SRC_POINTS_H_
