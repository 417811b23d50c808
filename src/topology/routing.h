// Path computation over a Topology.
//
// The fabric routes each flow along one Path; the manager's topology-aware
// scheduler (paper §3.2: "several GPU-SSD pathways ... choose one of the
// pathways based on topology and usage") enumerates alternatives with
// KShortestPaths and picks by residual capacity.

#ifndef MIHN_SRC_TOPOLOGY_ROUTING_H_
#define MIHN_SRC_TOPOLOGY_ROUTING_H_

#include <optional>
#include <string>
#include <vector>

#include "src/sim/time.h"
#include "src/sim/units.h"
#include "src/topology/topology.h"

namespace mihn::topology {

// A simple (loop-free) path: nodes[0] = source, nodes.back() = destination,
// hops[i] crosses from nodes[i] to nodes[i+1].
struct Path {
  std::vector<ComponentId> nodes;
  std::vector<DirectedLink> hops;

  bool empty() const { return hops.empty(); }
  ComponentId destination() const { return nodes.back(); }

  // Sum of per-hop base latencies (unloaded end-to-end latency).
  sim::TimeNs BaseLatency(const Topology& topo) const;

  // True if |link| (either direction) is on this path.
  bool Uses(LinkId link) const;

  // "nic0 -> s0.rp0 -> s0" rendering.
  std::string ToString(const Topology& topo) const;

  bool operator==(const Path&) const = default;
};

// Shortest-path queries over a Topology and the fabric's link health.
//
// Every query searches on demand: Dijkstra for ShortestPath, one full
// Dijkstra tree per health level for ShortestPaths, Yen's algorithm for
// KShortestPaths. A health change therefore takes effect at the next
// query, and a query writes nothing.
//
// Link health: the fabric mirrors its fault table here via SetLinkHealth.
// Dead links are treated as absent from the graph everywhere; degraded
// links are avoided by ShortestPath when a fully healthy route exists but
// still used as a fallback (a slow path beats no path). KShortestPaths
// enumerates degraded alternatives — its consumer (the scheduler) weighs
// residual capacity itself — but never dead ones.
class Router {
 public:
  explicit Router(const Topology& topo) : topo_(topo) {}

  // Lowest-total-base-latency path (Dijkstra), honoring link health.
  // nullopt if unreachable, src == dst, or either endpoint is not a
  // component of the topology.
  std::optional<Path> ShortestPath(ComponentId src, ComponentId dst) const;

  // ShortestPath(src, dsts[i]) for every i, from one search per health
  // level instead of one per destination: a full tree with dead and
  // degraded links excluded, then, for the destinations it did not reach,
  // a full tree with only dead links excluded. Both run ShortestPath's
  // search with its (distance, node) tie-break, so every answer is the
  // same path.
  std::vector<std::optional<Path>> ShortestPaths(ComponentId src,
                                                 const std::vector<ComponentId>& dsts) const;

  // Up to |k| loop-free paths in nondecreasing base-latency order (Yen's
  // algorithm). Deterministic: ties broken by node-id sequence. Dead links
  // (SetLinkHealth) never appear in any returned path; k == 1 is
  // ShortestPath's health-aware answer. Empty for k <= 0 or an endpoint
  // outside the topology.
  std::vector<Path> KShortestPaths(ComponentId src, ComponentId dst, int k) const;

  // Replaces the health sets. |dead| links are routed around
  // unconditionally; |degraded| links only when an alternative exists.
  // Returns true iff the de-duplicated sets actually changed, so periodic
  // re-syncs can tell a no-op apart.
  bool SetLinkHealth(std::vector<LinkId> dead, std::vector<LinkId> degraded);

 private:
  // One Dijkstra search treating |excluded_links| as absent (Yen's spur
  // searches pass their own).
  std::optional<Path> ComputeShortestPath(ComponentId src, ComponentId dst,
                                          const std::vector<LinkId>& excluded_links) const;
  // Dead plus degraded links: the first health level's exclusions.
  std::vector<LinkId> DeadAndDegraded() const;
  std::vector<Path> ComputeKShortestPaths(ComponentId src, ComponentId dst, int k) const;

  const Topology& topo_;

  // Link-health sets (sorted, de-duplicated) mirrored from the fabric's
  // fault table.
  std::vector<LinkId> dead_links_;
  std::vector<LinkId> degraded_links_;
};

}  // namespace mihn::topology

#endif  // MIHN_SRC_TOPOLOGY_ROUTING_H_
