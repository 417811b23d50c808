#include "src/topology/routing.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <sstream>

namespace mihn::topology {

sim::TimeNs Path::BaseLatency(const Topology& topo) const {
  sim::TimeNs total = sim::TimeNs::Zero();
  for (const DirectedLink& hop : hops) {
    total += topo.link(hop.link).spec.base_latency;
  }
  return total;
}

bool Path::Uses(LinkId link) const {
  return std::any_of(hops.begin(), hops.end(),
                     [link](const DirectedLink& h) { return h.link == link; });
}

std::string Path::ToString(const Topology& topo) const {
  std::ostringstream out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) {
      out << " -> ";
    }
    out << topo.component(nodes[i]).name;
  }
  return out.str();
}

std::optional<Path> Router::ShortestPath(ComponentId src, ComponentId dst,
                                         const std::vector<LinkId>& excluded_links) const {
  if (!excluded_links.empty()) {
    // Exclusion sets are Yen-internal spur searches: high-cardinality keys
    // with near-zero reuse. Caching them would only bloat the memo.
    return ComputeShortestPath(src, dst, excluded_links);
  }
  const std::vector<Path>& paths = Cached(src, dst, 1);
  if (paths.empty()) {
    return std::nullopt;
  }
  return paths.front();
}

std::vector<Path> Router::KShortestPaths(ComponentId src, ComponentId dst, int k) const {
  if (k <= 0) {
    return {};
  }
  return Cached(src, dst, k);
}

bool Router::SetLinkHealth(std::vector<LinkId> dead, std::vector<LinkId> degraded) {
  auto normalize = [](std::vector<LinkId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  normalize(dead);
  normalize(degraded);
  if (dead == dead_links_ && degraded == degraded_links_) {
    return false;
  }
  dead_links_ = std::move(dead);
  degraded_links_ = std::move(degraded);
  ++fault_epoch_;
  return true;
}

const std::vector<Path>& Router::Cached(ComponentId src, ComponentId dst, int k) const {
  if (cached_version_ != topo_.version() || cached_fault_epoch_ != fault_epoch_) {
    if (!cache_.empty()) {
      ++stats_.invalidations;
    }
    cache_.clear();
    cached_version_ = topo_.version();
    cached_fault_epoch_ = fault_epoch_;
  }
  const auto key = std::make_tuple(src, dst, k);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  std::vector<Path> paths;
  if (k == 1) {
    // ShortestPath and KShortestPaths(k=1) agree by construction (Yen's
    // first result IS the Dijkstra path), so they share a cache entry.
    auto p = ComputeHealthyShortestPath(src, dst);
    if (p) {
      paths.push_back(std::move(*p));
    }
  } else {
    paths = ComputeKShortestPaths(src, dst, k);
  }
  return cache_.emplace(key, std::move(paths)).first->second;
}

std::optional<Path> Router::ComputeHealthyShortestPath(ComponentId src, ComponentId dst) const {
  if (dead_links_.empty() && degraded_links_.empty()) {
    return ComputeShortestPath(src, dst, {});
  }
  if (!degraded_links_.empty()) {
    std::vector<LinkId> avoid = dead_links_;
    avoid.insert(avoid.end(), degraded_links_.begin(), degraded_links_.end());
    if (auto healthy = ComputeShortestPath(src, dst, avoid)) {
      return healthy;
    }
  }
  return ComputeShortestPath(src, dst, dead_links_);
}

std::optional<Path> Router::ComputeShortestPath(ComponentId src, ComponentId dst,
                                                const std::vector<LinkId>& excluded_links) const {
  if (src == dst || src < 0 || dst < 0) {
    return std::nullopt;
  }
  const size_t n = topo_.component_count();
  std::vector<bool> link_excluded(topo_.link_count(), false);
  for (const LinkId l : excluded_links) {
    if (l >= 0 && static_cast<size_t>(l) < link_excluded.size()) {
      link_excluded[static_cast<size_t>(l)] = true;
    }
  }

  constexpr int64_t kInf = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> dist(n, kInf);
  std::vector<LinkId> via_link(n, kInvalidLink);
  std::vector<ComponentId> via_node(n, kInvalidComponent);

  // (distance, node); ties resolved by node id for determinism.
  using Entry = std::pair<int64_t, ComponentId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[static_cast<size_t>(src)] = 0;
  heap.emplace(0, src);

  while (!heap.empty()) {
    const auto [d, node] = heap.top();
    heap.pop();
    if (d > dist[static_cast<size_t>(node)]) {
      continue;
    }
    if (node == dst) {
      break;
    }
    for (const LinkId lid : topo_.IncidentLinks(node)) {
      if (link_excluded[static_cast<size_t>(lid)]) {
        continue;
      }
      const Link& link = topo_.link(lid);
      const ComponentId next = link.Other(node);
      const int64_t nd = d + link.spec.base_latency.nanos();
      if (nd < dist[static_cast<size_t>(next)]) {
        dist[static_cast<size_t>(next)] = nd;
        via_link[static_cast<size_t>(next)] = lid;
        via_node[static_cast<size_t>(next)] = node;
        heap.emplace(nd, next);
      }
    }
  }

  if (dist[static_cast<size_t>(dst)] == kInf) {
    return std::nullopt;
  }

  Path path;
  for (ComponentId cur = dst; cur != src; cur = via_node[static_cast<size_t>(cur)]) {
    const LinkId lid = via_link[static_cast<size_t>(cur)];
    const Link& link = topo_.link(lid);
    path.nodes.push_back(cur);
    path.hops.push_back(DirectedLink{lid, link.b == cur});
  }
  path.nodes.push_back(src);
  std::reverse(path.nodes.begin(), path.nodes.end());
  std::reverse(path.hops.begin(), path.hops.end());
  return path;
}

std::vector<Path> Router::ComputeKShortestPaths(ComponentId src, ComponentId dst, int k) const {
  std::vector<Path> result;
  auto first = ComputeShortestPath(src, dst, dead_links_);
  if (!first) {
    return result;
  }
  result.push_back(std::move(*first));

  // Yen's algorithm. Candidates ordered by (latency, node sequence).
  auto latency_of = [this](const Path& p) { return p.BaseLatency(topo_).nanos(); };
  auto path_less = [&](const Path& a, const Path& b) {
    const int64_t la = latency_of(a);
    const int64_t lb = latency_of(b);
    if (la != lb) {
      return la < lb;
    }
    return a.nodes < b.nodes;
  };
  std::vector<Path> candidates;

  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    // For each spur node in the previous best path...
    for (size_t i = 0; i + 1 < prev.nodes.size(); ++i) {
      const ComponentId spur = prev.nodes[i];
      // Root = prev.nodes[0..i]. Dead links stay removed in every spur
      // search so no enumerated alternative routes through one.
      std::vector<LinkId> removed = dead_links_;
      for (const Path& p : result) {
        if (p.nodes.size() > i &&
            std::equal(p.nodes.begin(), p.nodes.begin() + static_cast<long>(i) + 1,
                       prev.nodes.begin())) {
          removed.push_back(p.hops[i].link);
        }
      }
      // Also exclude links that would revisit root nodes.
      std::set<ComponentId> root_nodes(prev.nodes.begin(),
                                       prev.nodes.begin() + static_cast<long>(i));
      for (const ComponentId rn : root_nodes) {
        for (const LinkId lid : topo_.IncidentLinks(rn)) {
          removed.push_back(lid);
        }
      }
      auto spur_path = ComputeShortestPath(spur, dst, removed);
      if (!spur_path) {
        continue;
      }
      Path total;
      total.nodes.assign(prev.nodes.begin(), prev.nodes.begin() + static_cast<long>(i));
      total.nodes.insert(total.nodes.end(), spur_path->nodes.begin(), spur_path->nodes.end());
      total.hops.assign(prev.hops.begin(), prev.hops.begin() + static_cast<long>(i));
      total.hops.insert(total.hops.end(), spur_path->hops.begin(), spur_path->hops.end());
      // Deduplicate against known results and candidates. Compare hop
      // sequences, not node sequences: parallel links yield distinct paths
      // through identical nodes, and the scheduler cares about the
      // distinction (each parallel link is its own capacity pool).
      const bool known = std::any_of(result.begin(), result.end(),
                                     [&](const Path& p) { return p.hops == total.hops; }) ||
                         std::any_of(candidates.begin(), candidates.end(),
                                     [&](const Path& p) { return p.hops == total.hops; });
      if (!known) {
        candidates.push_back(std::move(total));
      }
    }
    if (candidates.empty()) {
      break;
    }
    const auto best = std::min_element(candidates.begin(), candidates.end(), path_less);
    result.push_back(*best);
    candidates.erase(best);
  }
  return result;
}

}  // namespace mihn::topology
