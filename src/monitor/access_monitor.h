// Online region-based access monitoring with a schemes engine.
//
// The paper's releases come from the compiler: the application knows its own
// reuse pattern and tells the OS. This subsystem is the OS-side counterpart
// for programs that were never recompiled — a DAMON-style sampler that keeps,
// per address space, a bounded set of contiguous virtual regions, samples one
// page per region per tick (software reference sampling, exactly the vhand
// mechanism: invalidate the mapping, let the next touch prove liveness), and
// adaptively splits/merges regions so precision concentrates where access
// behavior differs. Overhead is O(regions) per tick — bounded by
// MonitorConfig::max_regions — never O(pages).
//
// On top of the region stats sits a DAMOS-like schemes engine: a region that
// has stayed at or below the cold threshold for enough aggregation windows is
// fed into the *existing* release path (the releaser daemon frees it, tail
// insertion, rescue-able — identical semantics to a compiler-inserted
// release), and optionally a hot region gets its reference bits re-set so the
// paging daemon's clock treats it as recently used (the monitor's stand-in
// for a raised Eq. 2 priority).
//
// The monitor drives itself from the kernel's event queue and mutates memory
// state only through the kernel's Monitor* entry points, which emit the
// standard vm_hooks stream — so an attached InvariantChecker / VmOracle
// validates monitor-issued actions with no monitor-specific code. With no
// monitor constructed, the kernel schedules zero monitor events and executes
// zero monitor instructions.

#ifndef TMH_SRC_MONITOR_ACCESS_MONITOR_H_
#define TMH_SRC_MONITOR_ACCESS_MONITOR_H_

#include <cstdint>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/time.h"
#include "src/vm/types.h"

namespace tmh {

class AddressSpace;
class Kernel;

struct MonitorConfig {
  // One sampling tick: every region evaluates its previously armed sample and
  // arms a fresh one. IRIX's vhand samples on the daemon beat (250 ms); the
  // monitor ticks faster but touches only max_regions pages per tick.
  SimDuration sample_period = 20 * kMsec;
  // Ticks per aggregation window. At the defaults one window is 200 ms and a
  // region's nr_accesses lies in [0, samples_per_aggregation].
  int64_t samples_per_aggregation = 10;
  // Adaptive region count bounds. Merging never drops an address space below
  // min_regions (unless it has fewer pages); splitting never exceeds
  // max_regions. Together they bound per-tick work for any access pattern.
  int64_t min_regions = 8;
  int64_t max_regions = 64;
  // Seed for sample placement and split offsets (deterministic replay).
  uint64_t seed = 1;

  // --- schemes (pattern -> action); thresholds are AccessMonitor::k* -------
  // Cold: a region whose nr_accesses stayed <= kColdMaxAccesses for
  // kColdMinAge consecutive windows is released through the standard release
  // path, up to kColdQuotaPages pages per address space per window. On tiered
  // machines the release demotes into the deepest slow tier (monitored
  // coldness carries no reuse hint, like a priority-0 release).
  bool release_cold = true;
  // Hot: a region with nr_accesses >= kHotMinAccesses in the closed window
  // gets its frames' reference bits re-set, shielding it from the clock for
  // one daemon pass (the Eq. 2 priority analog).
  bool protect_hot = false;
};

// One contiguous virtual region [begin, end) with uniform-ish access behavior.
struct MonitorRegion {
  VPage begin = 0;
  VPage end = 0;
  // Sampled hits in the last closed aggregation window (schemes input).
  int64_t nr_accesses = 0;
  // Hits so far in the open window.
  int64_t hits = 0;
  // Consecutive closed windows with nr_accesses <= kColdMaxAccesses.
  int64_t age = 0;
  // Page armed by the previous tick, kNoVPage before the first arm.
  VPage sampled = kNoVPage;
};

struct MonitorStats {
  uint64_t ticks = 0;
  uint64_t aggregations = 0;
  uint64_t samples_armed = 0;    // pages invalidated for reference sampling
  uint64_t samples_checked = 0;  // armed samples evaluated a tick later
  uint64_t samples_hit = 0;      // evaluated samples that proved an access
  uint64_t region_splits = 0;
  uint64_t region_merges = 0;
  uint64_t max_regions_seen = 0;  // high-water mark over all address spaces
  uint64_t cold_regions_actioned = 0;
  uint64_t cold_pages_enqueued = 0;  // releases queued by the schemes engine
  uint64_t hot_regions_actioned = 0;
  uint64_t hot_pages_protected = 0;
};

class AccessMonitor {
 public:
  // The schemes engine's thresholds (INTERNALS §12). Adjacent regions whose
  // closed-window access counts differ by at most kMergeThreshold merge into
  // one. A region is cold after kColdMinAge consecutive windows at or below
  // kColdMaxAccesses, and at most kColdQuotaPages of an address space's cold
  // pages are queued per window. A region is hot at kHotMinAccesses.
  static constexpr int64_t kMergeThreshold = 1;
  static constexpr int64_t kColdMaxAccesses = 0;
  static constexpr int64_t kColdMinAge = 2;
  static constexpr int64_t kColdQuotaPages = 512;
  static constexpr int64_t kHotMinAccesses = 5;

  // Attaches to the kernel (asserts no other monitor is attached). Monitoring
  // does not begin until Start().
  AccessMonitor(Kernel& kernel, MonitorConfig config);
  ~AccessMonitor();

  AccessMonitor(const AccessMonitor&) = delete;
  AccessMonitor& operator=(const AccessMonitor&) = delete;

  // Explicit targeting (DAMON monitors named targets, not the whole system):
  // if any target is registered before Start(), only those address spaces are
  // sampled. With no explicit targets, every address space is monitored,
  // including ones created after Start() (picked up on the next tick).
  void AddTarget(AddressSpace* as);

  // Schedules the first sampling tick.
  void Start();

  [[nodiscard]] const MonitorStats& stats() const { return stats_; }
  [[nodiscard]] const MonitorConfig& config() const { return config_; }

  // Region introspection for tests/reports: the regions currently covering
  // address space `as_id`, or nullptr if the monitor has not seen it yet.
  [[nodiscard]] const std::vector<MonitorRegion>* RegionsFor(AsId as_id) const;

 private:
  struct AsState {
    AddressSpace* as = nullptr;
    std::vector<MonitorRegion> regions;
  };

  void Tick();
  void EnsureStates();
  void Evaluate(AsState& state);
  void CloseWindow(AsState& state);
  void ApplySchemes(AsState& state);
  void MergeRegions(AsState& state);
  void SplitRegions(AsState& state);
  void Arm(AsState& state);

  Kernel* kernel_;
  MonitorConfig config_;
  Rng rng_;
  std::vector<AsState> states_;  // index == AsId; as == nullptr when untracked
  int64_t ticks_in_window_ = 0;
  bool explicit_targets_ = false;
  bool started_ = false;
  MonitorStats stats_;
};

}  // namespace tmh

#endif  // TMH_SRC_MONITOR_ACCESS_MONITOR_H_
