#include "src/topology/routing.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <sstream>

namespace mihn::topology {
namespace {

constexpr int64_t kUnreached = std::numeric_limits<int64_t>::max();

bool IsComponent(const Topology& topo, ComponentId id) {
  return id >= 0 && static_cast<size_t>(id) < topo.component_count();
}

// One Dijkstra search: each node's distance from the source and the link
// (and node) it was reached through.
struct SearchTree {
  std::vector<int64_t> dist;
  std::vector<LinkId> via_link;
  std::vector<ComponentId> via_node;
};

// Dijkstra from the component |src| with |excluded_links| treated as
// absent. Heap entries are (distance, node), so equal distances settle in
// node-id order. The search stops once |stop_at| is settled;
// kInvalidComponent grows the full tree. A settled node's tree link never
// changes afterwards (latencies are non-negative and only a strictly
// shorter distance relinks), so an early-stopped search and the full tree
// give every node they both settle the same path.
SearchTree Search(const Topology& topo, ComponentId src, ComponentId stop_at,
                  const std::vector<LinkId>& excluded_links) {
  const size_t n = topo.component_count();
  std::vector<bool> link_excluded(topo.link_count(), false);
  for (const LinkId l : excluded_links) {
    if (l >= 0 && static_cast<size_t>(l) < link_excluded.size()) {
      link_excluded[static_cast<size_t>(l)] = true;
    }
  }

  SearchTree tree{std::vector<int64_t>(n, kUnreached), std::vector<LinkId>(n, kInvalidLink),
                  std::vector<ComponentId>(n, kInvalidComponent)};
  using Entry = std::pair<int64_t, ComponentId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  tree.dist[static_cast<size_t>(src)] = 0;
  heap.emplace(0, src);

  while (!heap.empty()) {
    const auto [d, node] = heap.top();
    heap.pop();
    if (d > tree.dist[static_cast<size_t>(node)]) {
      continue;
    }
    if (node == stop_at) {
      break;
    }
    for (const LinkId lid : topo.IncidentLinks(node)) {
      if (link_excluded[static_cast<size_t>(lid)]) {
        continue;
      }
      const Link& link = topo.link(lid);
      const ComponentId next = link.Other(node);
      const int64_t nd = d + link.spec.base_latency.nanos();
      if (nd < tree.dist[static_cast<size_t>(next)]) {
        tree.dist[static_cast<size_t>(next)] = nd;
        tree.via_link[static_cast<size_t>(next)] = lid;
        tree.via_node[static_cast<size_t>(next)] = node;
        heap.emplace(nd, next);
      }
    }
  }
  return tree;
}

// |tree|'s path from its source |src| to |dst|; nullopt when |dst| is the
// source, not a component, or unreached.
std::optional<Path> TreePath(const Topology& topo, const SearchTree& tree, ComponentId src,
                             ComponentId dst) {
  if (dst == src || !IsComponent(topo, dst) ||
      tree.dist[static_cast<size_t>(dst)] == kUnreached) {
    return std::nullopt;
  }
  // Walk the tree links back from |dst| twice: once to size the path,
  // once to fill it from the end.
  size_t hops = 0;
  for (ComponentId cur = dst; cur != src; cur = tree.via_node[static_cast<size_t>(cur)]) {
    ++hops;
  }
  Path path;
  path.nodes.resize(hops + 1);
  path.hops.resize(hops);
  path.nodes[0] = src;
  for (ComponentId cur = dst; cur != src; cur = tree.via_node[static_cast<size_t>(cur)]) {
    const LinkId lid = tree.via_link[static_cast<size_t>(cur)];
    path.nodes[hops] = cur;
    path.hops[--hops] = DirectedLink{lid, topo.link(lid).b == cur};
  }
  return path;
}

}  // namespace

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

std::optional<Path> Router::ShortestPath(ComponentId src, ComponentId dst) const {
  // Avoid dead and degraded links, fall back to avoiding only dead ones,
  // nullopt when every route crosses a dead link.
  if (!degraded_links_.empty()) {
    if (auto healthy = ComputeShortestPath(src, dst, DeadAndDegraded())) {
      return healthy;
    }
  }
  return ComputeShortestPath(src, dst, dead_links_);
}

std::vector<std::optional<Path>> Router::ShortestPaths(
    ComponentId src, const std::vector<ComponentId>& dsts) const {
  std::vector<std::optional<Path>> paths(dsts.size());
  // Fills the still-unanswered destinations from one full tree; true if
  // some destination is still unanswered after it.
  auto answer_from_tree = [&](const std::vector<LinkId>& excluded_links) {
    const SearchTree tree = Search(topo_, src, kInvalidComponent, excluded_links);
    bool unanswered = false;
    for (size_t i = 0; i < dsts.size(); ++i) {
      if (!paths[i]) {
        paths[i] = TreePath(topo_, tree, src, dsts[i]);
        unanswered = unanswered || !paths[i];
      }
    }
    return unanswered;
  };
  if (dsts.empty() || !IsComponent(topo_, src)) {
    return paths;
  }
  // The same two health levels as ShortestPath.
  if (!degraded_links_.empty() && !answer_from_tree(DeadAndDegraded())) {
    return paths;
  }
  answer_from_tree(dead_links_);
  return paths;
}

std::vector<Path> Router::KShortestPaths(ComponentId src, ComponentId dst, int k) const {
  if (k <= 0) {
    return {};
  }
  if (k > 1) {
    return ComputeKShortestPaths(src, dst, k);
  }
  std::vector<Path> paths;
  if (auto path = ShortestPath(src, dst)) {
    paths.push_back(std::move(*path));
  }
  return paths;
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
  return true;
}

std::optional<Path> Router::ComputeShortestPath(ComponentId src, ComponentId dst,
                                                const std::vector<LinkId>& excluded_links) const {
  if (src == dst || !IsComponent(topo_, src) || !IsComponent(topo_, dst)) {
    return std::nullopt;
  }
  return TreePath(topo_, Search(topo_, src, dst, excluded_links), src, dst);
}

std::vector<LinkId> Router::DeadAndDegraded() const {
  std::vector<LinkId> links = dead_links_;
  links.insert(links.end(), degraded_links_.begin(), degraded_links_.end());
  return links;
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
