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
#include <utility>
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

// The paths Router::ShortestPaths answers from one source, to every
// component at once, in buffers a caller reuses from source to source
// (Router::FillPathTree). A caller that weighs many candidate paths reads
// their latencies and hops here and builds a Path only for those it keeps.
class PathTree {
 public:
  // One Dijkstra tree: each component's distance from the source and the
  // hop (and node) it was reached through.
  struct Level {
    std::vector<int64_t> dist;
    std::vector<DirectedLink> via_hop;
    std::vector<ComponentId> via_node;
  };

  // Walks the path ShortestPaths(source, {dst}) answers: calls f(hop) for
  // each of its hops, last hop first, and returns its base latency in ns.
  // Returns -1, calling nothing, when there is no such path.
  template <typename F>
  int64_t ForEachHopBackward(ComponentId dst, F&& f) const {
    const Level* level = LevelOf(dst);
    if (level == nullptr) {
      return -1;
    }
    for (ComponentId cur = dst; cur != src_; cur = level->via_node[static_cast<size_t>(cur)]) {
      f(level->via_hop[static_cast<size_t>(cur)]);
    }
    return level->dist[static_cast<size_t>(dst)];
  }
  // That path; nullopt when there is none.
  std::optional<Path> PathTo(ComponentId dst) const;

 private:
  friend class Router;
  // The first level that reaches |dst|, as ShortestPaths answers it; null
  // for the source itself, a non-component or an unreached one.
  const Level* LevelOf(ComponentId dst) const;

  ComponentId src_ = kInvalidComponent;
  // The level_count_ trees grown, in ShortestPath's order: dead and
  // degraded links excluded (only while some link is degraded), then only
  // dead ones.
  Level levels_[2];
  int level_count_ = 0;
  // The search's heap and link mask, kept for the next fill.
  std::vector<std::pair<int64_t, ComponentId>> heap_;
  std::vector<char> excluded_;
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

  // The trees ShortestPaths(src, dsts) answers from, grown over every
  // component into |tree|'s buffers: the second health level is grown
  // only when some destination other than |src| is unreached at the first.
  // |tree| then answers ShortestPath(src, d) for every d in |dsts|, and for
  // every d the first level reaches.
  void FillPathTree(ComponentId src, const std::vector<ComponentId>& dsts, PathTree& tree) const;

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
