// Machine and kernel configuration.
//
// Defaults mirror Table 1 of the paper: a 4-processor SGI Origin 200 with
// ~75 MB of memory available to user programs, 16 KB pages, and swap striped
// over ten Seagate Cheetah 4LP disks on five SCSI adapters. The cost model
// captures the CPU-side service times whose *relative* magnitudes drive the
// paper's results (hard vs soft faults, daemon vs releaser per-page work).

#ifndef TMH_SRC_OS_CONFIG_H_
#define TMH_SRC_OS_CONFIG_H_

#include <cstdint>
#include <vector>

#include "src/disk/swap_space.h"
#include "src/sim/time.h"

namespace tmh {

// CPU-side costs of memory-management events, in microseconds.
struct CostModel {
  SimDuration touch_hit = 0;                 // valid-PTE touch: no trap at all
  SimDuration soft_fault = 60 * kUsec;       // revalidate a daemon-invalidated page
  // First touch of a prefetched page: prefetch completion deliberately skips
  // validation and the TLB, so the touch takes a real (I/O-free) page fault
  // that finishes the job — which is why the paper's system time is nearly
  // identical with and without prefetching.
  SimDuration fresh_prefetch_validate = 150 * kUsec;
  SimDuration rescue_fault = 90 * kUsec;     // reclaim a page from the free list
  SimDuration hard_fault_service = 250 * kUsec;  // CPU portion of a page-in fault
  SimDuration zero_fill = 150 * kUsec;       // first touch of an anonymous page
  SimDuration release_syscall = 15 * kUsec;  // fixed cost of a release request
  SimDuration release_per_page = 2 * kUsec;
  SimDuration prefetch_issue = 12 * kUsec;   // pool-thread CPU per prefetch request
  SimDuration daemon_scan_per_page = 8 * kUsec;   // vhand clock-hand work per frame
  SimDuration daemon_steal_per_page = 30 * kUsec; // full reclaim by the paging daemon
  SimDuration releaser_per_page = 10 * kUsec;     // specialized releaser per-page work
  SimDuration lock_acquire = 1 * kUsec;
};

// IRIX-style tunable parameters (Section 3.1.3).
struct Tunables {
  // Paging daemon wakes when free memory falls below this many pages
  // (min_freemem in the paper) ...
  int64_t min_freemem_pages = 64;
  // ... and steals until free memory reaches this many pages.
  int64_t target_freemem_pages = 192;
  // Maximum resident set size per process (maxrss). Effectively unlimited by
  // default, as in the paper's experiments.
  int64_t maxrss_pages = INT64_MAX / 2;
  // Periodic activation interval of the paging daemon.
  SimDuration daemon_period = 250 * kMsec;
  // Frames examined per address-space lock hold by the paging daemon. Long
  // holds are what starves concurrent fault handling (Section 4.3).
  int daemon_batch = 96;
  // Pages processed per lock hold by the releaser daemon ("it typically
  // operates on smaller blocks of pages", Section 4.3).
  int releaser_batch = 16;
  // Released pages go to the tail of the free list so too-early releases can
  // be rescued (Section 3.1.2). false = head insertion (rescue ablation).
  bool release_to_tail = true;
  // Demand-fault read-ahead clustering ("klustering"): on a hard fault, also
  // page in up to this many following pages of the same region, unvalidated,
  // if free memory has headroom. IRIX-style sequential read-ahead; default
  // off so the paper-calibrated baselines are exactly the paper's system.
  int64_t fault_readahead_pages = 0;
  // Section 2.1's contrasted alternative, implemented as an extension: local
  // (per-process) replacement. When > 0, every process is capped at this many
  // resident pages; a fault beyond the cap evicts one of the process's OWN
  // pages (round-robin clock) instead of letting global replacement run, and
  // prefetches beyond the cap are dropped. 0 = global replacement (default).
  int64_t local_partition_pages = 0;
  // Section 3.1.1's unexplored alternative, implemented as an extension: when
  // nonzero, the OS refreshes a process's shared-page header as soon as free
  // memory has moved by more than this many pages since the header was last
  // written, instead of waiting for the process's own memory activity.
  // 0 = the paper's lazy-update behavior.
  int64_t shared_header_notify_threshold = 0;
  // Minimum fraction of physical memory the clock hand sweeps per activation
  // (vhand's scan rate scales with memory pressure). Once the free target is
  // met the remainder of the quota only samples reference bits (invalidates);
  // this is what erodes an idle task's resident set under sustained pressure.
  double daemon_min_sweep_fraction = 0.25;
};

// One level of the physical-memory hierarchy (extension beyond the paper's
// binary resident/on-disk model). tiers[0] always describes DRAM — its
// `frames` field is ignored because DRAM capacity stays derived from
// user_memory_bytes — and entries 1..N-1 describe progressively slower tiers
// (e.g. CXL-attached memory) that releases demote into instead of freeing.
struct TierSpec {
  int64_t frames = 0;            // capacity in pages (ignored for tiers[0])
  SimDuration promote_cost = 25 * kUsec;  // CPU charge to migrate one page up
  SimDuration demote_cost = 25 * kUsec;   // CPU charge to migrate one page down
};

struct MachineConfig {
  int num_cpus = 4;
  // Memory nodes (NUMA-style shards). The frame range is partitioned
  // contiguously; each node gets its own free list and paging-daemon clock
  // hand. 1 (the paper's single-node Origin 200) reproduces the historical
  // single-list behavior exactly; capped at FramePool::kMaxNodes (64) so the
  // allocation fallback stays O(1) via a single occupancy word.
  int num_nodes = 1;
  int64_t page_size_bytes = 16 * 1024;
  int64_t user_memory_bytes = 75ll * 1024 * 1024;
  SimDuration quantum = 10 * kMsec;
  CostModel costs;
  Tunables tunables;
  SwapConfig swap;
  // Memory-tier geometry. Empty = the paper's binary model (equivalent to a
  // single DRAM tier); {DRAM} is the degenerate N=1 configuration, which flows
  // through the tier-gated code paths but produces byte-identical behavior
  // because there is never a "next tier" to demote into.
  std::vector<TierSpec> tiers;

  [[nodiscard]] int num_tiers() const {
    return tiers.empty() ? 1 : static_cast<int>(tiers.size());
  }
  [[nodiscard]] bool has_slow_tiers() const { return tiers.size() > 1; }
  [[nodiscard]] int num_slow_tiers() const { return num_tiers() - 1; }

  [[nodiscard]] int64_t num_frames() const { return user_memory_bytes / page_size_bytes; }
  [[nodiscard]] int64_t BytesToPages(int64_t bytes) const {
    return (bytes + page_size_bytes - 1) / page_size_bytes;
  }
};

}  // namespace tmh

#endif  // TMH_SRC_OS_CONFIG_H_
