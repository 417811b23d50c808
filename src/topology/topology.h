// The intra-host network graph.
//
// A Topology is an immutable-after-build undirected multigraph of
// Components and Links. It is pure structure: all dynamics (flows,
// utilization, faults) live in mihn::fabric. Build one with the fluent
// mutators, call Validate(), then share it by const reference.

#ifndef MIHN_SRC_TOPOLOGY_TOPOLOGY_H_
#define MIHN_SRC_TOPOLOGY_TOPOLOGY_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/topology/component.h"
#include "src/topology/link.h"

namespace mihn::topology {

class Topology {
 public:
  Topology() = default;

  // -- Construction ---------------------------------------------------------

  // Adds a component. |name| must be unique. |socket| ties the component to
  // a NUMA domain (pass the socket's own id, or kInvalidComponent for
  // off-host components).
  ComponentId AddComponent(ComponentKind kind, std::string name,
                           ComponentId socket = kInvalidComponent);

  // Connects |a| and |b| with a link of the given spec. Self-loops are
  // rejected (returns kInvalidLink).
  LinkId AddLink(ComponentId a, ComponentId b, LinkSpec spec);

  // -- Queries --------------------------------------------------------------

  size_t component_count() const { return components_.size(); }
  size_t link_count() const { return links_.size(); }

  // Structural epoch: bumped by every successful mutation. Consumers that
  // memoize derived structure (e.g. topology::Router's path cache) compare
  // epochs to detect staleness instead of subscribing to mutations.
  uint64_t version() const { return version_; }

  const Component& component(ComponentId id) const { return components_[static_cast<size_t>(id)]; }
  const Link& link(LinkId id) const { return links_[static_cast<size_t>(id)]; }

  const std::vector<Component>& components() const { return components_; }
  const std::vector<Link>& links() const { return links_; }

  // Links incident to |id| (order of insertion).
  const std::vector<LinkId>& IncidentLinks(ComponentId id) const {
    return adjacency_[static_cast<size_t>(id)];
  }

  // Component lookup by unique name; nullopt if absent.
  std::optional<ComponentId> FindComponent(std::string_view name) const;

  // All components of the given kind.
  std::vector<ComponentId> ComponentsOfKind(ComponentKind kind) const;

  // All links of the given kind.
  std::vector<LinkId> LinksOfKind(LinkKind kind) const;

  // -- Validation -----------------------------------------------------------

  // Returns an empty string if the topology is well-formed, else a
  // description of the first problem found. Checks: at least one component,
  // connectivity (ignoring isolated monitor stores is NOT allowed — the
  // graph must be one piece), endpoint devices have at least one link, and
  // every link has positive capacity.
  std::string Validate() const;

  // Multi-line ASCII rendering (name, kind, links) for debugging.
  std::string Describe() const;

 private:
  uint64_t version_ = 0;
  std::vector<Component> components_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;
  // mihn-check: unordered-ok(name->id lookup only; never iterated, so hash order cannot leak)
  std::unordered_map<std::string, ComponentId> by_name_;
};

}  // namespace mihn::topology

#endif  // MIHN_SRC_TOPOLOGY_TOPOLOGY_H_
