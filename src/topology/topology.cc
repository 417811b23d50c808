#include "src/topology/topology.h"

#include <deque>
#include <sstream>

namespace mihn::topology {

ComponentId Topology::AddComponent(ComponentKind kind, std::string name, ComponentId socket) {
  const ComponentId id = static_cast<ComponentId>(components_.size());
  if (by_name_.contains(name)) {
    return kInvalidComponent;
  }
  Component c;
  c.id = id;
  c.kind = kind;
  c.name = std::move(name);
  c.socket = (kind == ComponentKind::kCpuSocket) ? id : socket;
  by_name_.emplace(c.name, id);
  components_.push_back(std::move(c));
  adjacency_.emplace_back();
  ++version_;
  return id;
}

LinkId Topology::AddLink(ComponentId a, ComponentId b, LinkSpec spec) {
  if (a == b || a < 0 || b < 0 || static_cast<size_t>(a) >= components_.size() ||
      static_cast<size_t>(b) >= components_.size()) {
    return kInvalidLink;
  }
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{id, a, b, spec});
  adjacency_[static_cast<size_t>(a)].push_back(id);
  adjacency_[static_cast<size_t>(b)].push_back(id);
  ++version_;
  return id;
}

std::optional<ComponentId> Topology::FindComponent(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<ComponentId> Topology::ComponentsOfKind(ComponentKind kind) const {
  std::vector<ComponentId> out;
  for (const Component& c : components_) {
    if (c.kind == kind) {
      out.push_back(c.id);
    }
  }
  return out;
}

std::vector<LinkId> Topology::LinksOfKind(LinkKind kind) const {
  std::vector<LinkId> out;
  for (const Link& l : links_) {
    if (l.spec.kind == kind) {
      out.push_back(l.id);
    }
  }
  return out;
}

std::string Topology::Validate() const {
  if (components_.empty()) {
    return "topology has no components";
  }
  for (const Link& l : links_) {
    if (l.spec.capacity.IsZero()) {
      return "link " + std::to_string(l.id) + " (" + component(l.a).name + " <-> " +
             component(l.b).name + ") has zero capacity";
    }
    if (l.spec.base_latency < sim::TimeNs::Zero()) {
      return "link " + std::to_string(l.id) + " has negative base latency";
    }
  }
  for (const Component& c : components_) {
    if (IsEndpointKind(c.kind) && adjacency_[static_cast<size_t>(c.id)].empty() &&
        components_.size() > 1) {
      return "endpoint component '" + c.name + "' has no links";
    }
  }
  // Connectivity via BFS from component 0.
  std::vector<bool> seen(components_.size(), false);
  std::deque<ComponentId> frontier{0};
  seen[0] = true;
  size_t visited = 1;
  while (!frontier.empty()) {
    const ComponentId cur = frontier.front();
    frontier.pop_front();
    for (const LinkId lid : adjacency_[static_cast<size_t>(cur)]) {
      const ComponentId next = links_[static_cast<size_t>(lid)].Other(cur);
      if (!seen[static_cast<size_t>(next)]) {
        seen[static_cast<size_t>(next)] = true;
        ++visited;
        frontier.push_back(next);
      }
    }
  }
  if (visited != components_.size()) {
    for (const Component& c : components_) {
      if (!seen[static_cast<size_t>(c.id)]) {
        return "topology is disconnected: '" + c.name + "' is unreachable from '" +
               components_[0].name + "'";
      }
    }
  }
  return "";
}

std::string Topology::Describe() const {
  std::ostringstream out;
  out << "topology: " << components_.size() << " components, " << links_.size() << " links\n";
  for (const Component& c : components_) {
    out << "  [" << c.id << "] " << c.name << " (" << ComponentKindName(c.kind) << ")";
    if (c.socket != kInvalidComponent && c.socket != c.id) {
      out << " @" << component(c.socket).name;
    }
    out << "\n";
    for (const LinkId lid : adjacency_[static_cast<size_t>(c.id)]) {
      const Link& l = links_[static_cast<size_t>(lid)];
      out << "      --" << LinkKindName(l.spec.kind) << "--> " << component(l.Other(c.id)).name
          << " (" << l.spec.capacity.ToString() << ", " << l.spec.base_latency.ToString() << ")\n";
    }
  }
  return out.str();
}

}  // namespace mihn::topology
