#include "src/manager/scheduler.h"

#include <algorithm>
#include <utility>

namespace mihn::manager {

Scheduler::Scheduler(const fabric::Fabric& fabric, SchedulerConfig config)
    : fabric_(fabric), config_(config) {}

std::optional<Scheduler::Placement> Scheduler::Place(
    const PerformanceTarget& target, const std::map<int32_t, double>& reserved) const {
  const int k = config_.topology_aware ? std::max(config_.k_paths, 1) : 1;
  const auto candidates = fabric_.router().KShortestPaths(target.src, target.dst, k);
  const double bw = target.bandwidth.bytes_per_sec();

  std::optional<Placement> best;
  for (const topology::Path& path : candidates) {
    if (target.max_latency && path.BaseLatency(fabric_.topo()) > *target.max_latency) {
      continue;
    }
    bool feasible = true;
    double max_util = 0.0;
    for (const topology::DirectedLink& hop : path.hops) {
      const double cap = fabric_.EffectiveCapacity(hop).bytes_per_sec();
      const double budget = cap * kReservableFraction;
      const auto it = reserved.find(topology::DirectedIndex(hop));
      const double already = it == reserved.end() ? 0.0 : it->second;
      if (already + bw > budget) {
        feasible = false;
        break;
      }
      if (cap > 0.0) {
        max_util = std::max(max_util, (already + bw) / cap);
      }
    }
    if (!feasible) {
      continue;
    }
    if (!best || max_util < best->max_utilization) {
      best = Placement{path, max_util, static_cast<int>(candidates.size())};
    }
  }
  return best;
}

}  // namespace mihn::manager
