// Topology-aware resource scheduler (paper §3.2).
//
// "There can be several GPU-SSD pathways within an intra-host network that
// can support the same amount of bandwidth. The scheduler needs to
// carefully choose one of the pathways based on topology and usage
// information to maximize overall resource efficiency."
//
// Given a target and the current reservation ledger, the scheduler
// enumerates up to k candidate paths with the fabric's router (so a dead
// link never takes a candidate slot), filters by feasibility (residual
// capacity and the latency bound), and picks the one minimizing the
// post-placement maximum link utilization — spreading load across
// alternate pathways. A naive mode (always the shortest path) exists for
// the ablation benchmark.

#ifndef MIHN_SRC_MANAGER_SCHEDULER_H_
#define MIHN_SRC_MANAGER_SCHEDULER_H_

#include <map>
#include <optional>

#include "src/fabric/fabric.h"
#include "src/manager/intent.h"

namespace mihn::manager {

// Admission headroom: a link's reservations may not exceed this fraction of
// its effective capacity.
inline constexpr double kReservableFraction = 0.95;

struct SchedulerConfig {
  int k_paths = 4;
  // false = naive shortest-path placement (ablation baseline).
  bool topology_aware = true;
};

class Scheduler {
 public:
  Scheduler(const fabric::Fabric& fabric, SchedulerConfig config);

  struct Placement {
    topology::Path path;
    // Maximum post-placement reservation utilization along the path.
    double max_utilization = 0.0;
    // Candidate paths enumerated (before feasibility filtering) — tracing
    // metadata for the "how hard did the scheduler work" question.
    int candidates_considered = 0;
  };

  // Chooses a feasible path for |target| given |reserved| (per
  // DirectedIndex, bytes/sec). nullopt when no candidate is feasible —
  // either capacity or the latency bound fails everywhere.
  std::optional<Placement> Place(const PerformanceTarget& target,
                                 const std::map<int32_t, double>& reserved) const;


 private:
  const fabric::Fabric& fabric_;
  SchedulerConfig config_;
};

}  // namespace mihn::manager

#endif  // MIHN_SRC_MANAGER_SCHEDULER_H_
