#include "src/topology/routing.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <sstream>

namespace mihn::topology {
namespace {

constexpr int64_t kUnreached = std::numeric_limits<int64_t>::max();

bool IsComponent(const Topology& topo, ComponentId id) {
  return id >= 0 && static_cast<size_t>(id) < topo.component_count();
}

// Dijkstra from the component |src| with |excluded_links| treated as
// absent, into |tree|, with |heap| and |excluded| as scratch. Heap entries
// are (distance, node), so equal distances settle in node-id order. The
// search stops once |stop_at| is settled; kInvalidComponent grows the full
// tree. A settled node's tree link never changes afterwards (latencies
// are non-negative and only a strictly shorter distance relinks), so an
// early-stopped search and the full tree give every node they both settle
// the same path.
void Search(const Topology& topo, ComponentId src, ComponentId stop_at,
            const std::vector<LinkId>& excluded_links,
            std::vector<std::pair<int64_t, ComponentId>>& heap, std::vector<char>& excluded,
            PathTree::Level& tree) {
  const size_t n = topo.component_count();
  excluded.assign(topo.link_count(), 0);
  for (const LinkId l : excluded_links) {
    if (l >= 0 && static_cast<size_t>(l) < excluded.size()) {
      excluded[static_cast<size_t>(l)] = 1;
    }
  }
  tree.dist.assign(n, kUnreached);
  tree.via_hop.assign(n, DirectedLink{});
  tree.via_node.assign(n, kInvalidComponent);
  heap.clear();
  const auto later = std::greater<>();
  tree.dist[static_cast<size_t>(src)] = 0;
  heap.emplace_back(0, src);

  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [d, node] = heap.back();
    heap.pop_back();
    if (d > tree.dist[static_cast<size_t>(node)]) {
      continue;
    }
    if (node == stop_at) {
      break;
    }
    for (const LinkId lid : topo.IncidentLinks(node)) {
      if (excluded[static_cast<size_t>(lid)] != 0) {
        continue;
      }
      const Link& link = topo.link(lid);
      const ComponentId next = link.Other(node);
      const int64_t nd = d + link.spec.base_latency.nanos();
      if (nd < tree.dist[static_cast<size_t>(next)]) {
        tree.dist[static_cast<size_t>(next)] = nd;
        tree.via_hop[static_cast<size_t>(next)] = DirectedLink{lid, link.b == next};
        tree.via_node[static_cast<size_t>(next)] = node;
        heap.emplace_back(nd, next);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
}

// |tree|'s path from its source |src| to |dst|, which it reaches.
Path TreePath(const PathTree::Level& tree, ComponentId src, ComponentId dst) {
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
    path.nodes[hops] = cur;
    path.hops[--hops] = tree.via_hop[static_cast<size_t>(cur)];
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

const PathTree::Level* PathTree::LevelOf(ComponentId dst) const {
  if (dst == src_ || dst < 0) {
    return nullptr;
  }
  for (int i = 0; i < level_count_; ++i) {
    const std::vector<int64_t>& dist = levels_[i].dist;
    if (static_cast<size_t>(dst) < dist.size() && dist[static_cast<size_t>(dst)] != kUnreached) {
      return &levels_[i];
    }
  }
  return nullptr;
}

std::optional<Path> PathTree::PathTo(ComponentId dst) const {
  const Level* level = LevelOf(dst);
  if (level == nullptr) {
    return std::nullopt;
  }
  return TreePath(*level, src_, dst);
}

std::vector<std::optional<Path>> Router::ShortestPaths(
    ComponentId src, const std::vector<ComponentId>& dsts) const {
  std::vector<std::optional<Path>> paths(dsts.size());
  if (dsts.empty()) {
    return paths;
  }
  PathTree tree;
  FillPathTree(src, dsts, tree);
  for (size_t i = 0; i < dsts.size(); ++i) {
    paths[i] = tree.PathTo(dsts[i]);
  }
  return paths;
}

void Router::FillPathTree(ComponentId src, const std::vector<ComponentId>& dsts,
                          PathTree& tree) const {
  tree.src_ = src;
  tree.level_count_ = 0;
  if (!IsComponent(topo_, src)) {
    return;
  }
  const auto grow = [&](const std::vector<LinkId>& excluded_links) {
    Search(topo_, src, kInvalidComponent, excluded_links, tree.heap_, tree.excluded_,
           tree.levels_[tree.level_count_++]);
  };
  // The same two health levels as ShortestPath; the second only for a
  // destination the first misses.
  if (!degraded_links_.empty()) {
    grow(DeadAndDegraded());
    if (std::all_of(dsts.begin(), dsts.end(), [&](ComponentId dst) {
          return dst == src || tree.LevelOf(dst) != nullptr;
        })) {
      return;
    }
  }
  grow(dead_links_);
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
  std::vector<std::pair<int64_t, ComponentId>> heap;
  std::vector<char> excluded;
  PathTree::Level tree;
  Search(topo_, src, dst, excluded_links, heap, excluded, tree);
  if (tree.dist[static_cast<size_t>(dst)] == kUnreached) {
    return std::nullopt;
  }
  return TreePath(tree, src, dst);
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
