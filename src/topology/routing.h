// Path computation over a Topology.
//
// The fabric routes each flow along one Path; the manager's topology-aware
// scheduler (paper §3.2: "several GPU-SSD pathways ... choose one of the
// pathways based on topology and usage") enumerates alternatives with
// KShortestPaths and picks by residual capacity.

#ifndef MIHN_SRC_TOPOLOGY_ROUTING_H_
#define MIHN_SRC_TOPOLOGY_ROUTING_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
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
  ComponentId source() const { return nodes.front(); }
  ComponentId destination() const { return nodes.back(); }

  // Sum of per-hop base latencies (unloaded end-to-end latency).
  sim::TimeNs BaseLatency(const Topology& topo) const;

  // True if |link| (either direction) is on this path.
  bool Uses(LinkId link) const;

  // "nic0 -> s0.rp0 -> s0" rendering.
  std::string ToString(const Topology& topo) const;

  bool operator==(const Path&) const = default;
};

// Shortest-path queries with a built-in memo cache.
//
// Both hot consumers ask the same questions over and over against a
// topology that mutates rarely (never, after build, in most scenarios): the
// fabric re-resolves the DDIO spill path socket→DIMM when attaching a spill
// child mid-solve, and the scheduler runs Yen's algorithm per placement.
// Results are memoized keyed by (src, dst, k) and invalidated wholesale
// when Topology::version() moves or the link-health fault epoch bumps
// (SetLinkHealth) — an epoch compare per lookup, no subscription
// machinery. Exclusion-constrained ShortestPath calls (Yen's spur
// searches) bypass the cache. Hit/miss totals are exposed via
// cache_stats(); the fabric and manager surface them as trace counters.
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

  // Lowest-total-base-latency path (Dijkstra). nullopt if unreachable or
  // src == dst. |excluded_links| are treated as absent; only calls without
  // exclusions are served from the cache (and only those honor link
  // health — explicit exclusion calls are raw graph queries).
  std::optional<Path> ShortestPath(ComponentId src, ComponentId dst,
                                   const std::vector<LinkId>& excluded_links = {}) const;

  // Up to |k| loop-free paths in nondecreasing base-latency order (Yen's
  // algorithm). Deterministic: ties broken by node-id sequence. Cached.
  // Dead links (SetLinkHealth) never appear in any returned path.
  std::vector<Path> KShortestPaths(ComponentId src, ComponentId dst, int k) const;

  // Replaces the health sets. |dead| links are routed around
  // unconditionally; |degraded| links only when an alternative exists.
  // Returns true — and bumps fault_epoch(), flushing the memo — iff the
  // de-duplicated sets actually changed, so periodic re-syncs are free.
  bool SetLinkHealth(std::vector<LinkId> dead, std::vector<LinkId> degraded);

  // Monotonic counter of effective health changes. Folded into cache
  // invalidation; consumers (heartbeat mesh) watch it to re-resolve paths.
  uint64_t fault_epoch() const { return fault_epoch_; }

  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;  // Epoch flushes observed.
  };
  // Snapshot by value: the memo (and its counters) can be flushed by any
  // later query.
  CacheStats cache_stats() const { return stats_; }

 private:
  // Returns the memoized path set for (src, dst, k), computing on miss.
  const std::vector<Path>& Cached(ComponentId src, ComponentId dst, int k) const;

  std::optional<Path> ComputeShortestPath(ComponentId src, ComponentId dst,
                                          const std::vector<LinkId>& excluded_links) const;
  std::vector<Path> ComputeKShortestPaths(ComponentId src, ComponentId dst, int k) const;

  // Health-aware Dijkstra: avoid dead ∪ degraded, fall back to avoiding
  // only dead, nullopt when every route crosses a dead link.
  std::optional<Path> ComputeHealthyShortestPath(ComponentId src, ComponentId dst) const;

  const Topology& topo_;

  // Link-health sets (sorted, de-duplicated) mirrored from the fabric's
  // fault table. fault_epoch_ moves only on effective change.
  std::vector<LinkId> dead_links_;
  std::vector<LinkId> degraded_links_;
  uint64_t fault_epoch_ = 0;

  // Memo state. Ordered map: iteration never observes hash order (D1), and
  // the key tuple gives deterministic, allocation-light lookups.
  mutable std::map<std::tuple<ComponentId, ComponentId, int>, std::vector<Path>> cache_;
  mutable uint64_t cached_version_ = 0;
  mutable uint64_t cached_fault_epoch_ = 0;
  mutable CacheStats stats_;
};

}  // namespace mihn::topology

#endif  // MIHN_SRC_TOPOLOGY_ROUTING_H_
