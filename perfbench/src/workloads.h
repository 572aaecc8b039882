// The benchmark's four workloads, as lists of points, and the golden-table
// checks that two of them carry.
//
//   fig07_grid       the Figure-7 grid: six hogs x O/P/R/B at scale 0.05
//   interactive_hog  MATVEC beside the interactive task: the fig10a sleep
//                    sweep, the access monitor, and a 3-tier machine
//   kernel_storms    fault, release, daemon and tenant-churn storms on a
//                    10^7-frame, 8-node machine with 96 tenants (seeded)
//   checked_grid     four hogs x O/R/B with the invariant checker attached
//
// The seed is an input of kernel_storms only, where it permutes each tenant's
// touch order (except in the daemon storm) and jitters arrivals; the other workloads' inputs are the ones
// the committed goldens were rendered from.

#ifndef TMH_PERFBENCH_SRC_WORKLOADS_H_
#define TMH_PERFBENCH_SRC_WORKLOADS_H_

#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/points.h"

namespace tmh::perfbench {

struct Workload {
  std::string name;
  std::vector<PointSpec> points;  // in the order they run
  bool fig07_table = false;       // points labelled "<HOG>/<ver>" form Figure 7
  bool fig10a_table = false;      // points labelled "fig10a/..." form Figure 10(a)
};

const std::vector<std::string>& WorkloadNames();

// The named workload's points; `smoke` shrinks the storm machine and the
// checked grid to a quick size. Nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed, bool smoke);

// Renders the workload's golden tables from `results` (indexed like
// w.points) and compares each with its committed golden in `golden_dir`.
// Returns one message per table that differs; `checked` counts the tables.
std::vector<std::string> CheckGoldenTables(const Workload& w,
                                           const std::vector<PointResult>& results,
                                           const std::string& golden_dir, int* checked);

}  // namespace tmh::perfbench

#endif  // TMH_PERFBENCH_SRC_WORKLOADS_H_
