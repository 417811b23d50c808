// Link model: the fabrics of the intra-host network.
//
// LinkKind mirrors the five highlighted link classes of the paper's
// Figure 1, plus two auxiliary classes (root-port attach, device-internal).
// DefaultLinkSpec() carries Figure 1's published capacity/latency ranges;
// presets instantiate links from these specs so bench_figure1 can check the
// simulator reproduces the table.

#ifndef MIHN_SRC_TOPOLOGY_LINK_H_
#define MIHN_SRC_TOPOLOGY_LINK_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "src/sim/time.h"
#include "src/sim/units.h"
#include "src/topology/component.h"

namespace mihn::topology {

enum class LinkKind : uint8_t {
  kInterSocket,       // (1) e.g. Intel UPI / AMD Infinity: 20-72 GB/s, 130-220 ns.
  kIntraSocket,       // (2) on-die mesh + memory bus: 100-200 GB/s, 2-110 ns.
  kPcieSwitchUp,      // (3) switch upstream x16: ~256 Gbps, 30-120 ns.
  kPcieSwitchDown,    // (4) switch downstream x16: ~256 Gbps, 30-120 ns.
  kInterHost,         // (5) Ethernet/IB NIC-to-peer: ~200 Gbps, < 2 us.
  kPcieRootLink,      // Root port <-> directly-attached device; same class as (3).
  kDeviceInternal,    // Intra-device path (e.g. MC <-> DIMM); high capacity, tiny latency.
  kCxl,               // CXL.mem link: cache-coherent device<->host memory access; the
                      // paper cites ~150 ns device-to-host-memory latency [49].
};

std::string_view LinkKindName(LinkKind kind);

// Inverse of LinkKindName; nullopt for a name no kind carries.
std::optional<LinkKind> ParseLinkKind(std::string_view name);

// Figure 1 class number (1..5) for the headline classes, 0 for auxiliary.
int Figure1Class(LinkKind kind);

// Static properties of a link. Capacity is per direction (all these fabrics
// are full duplex).
struct LinkSpec {
  LinkKind kind = LinkKind::kIntraSocket;
  sim::Bandwidth capacity;
  sim::TimeNs base_latency;  // Unloaded propagation + processing delay.
};

// Mid-range default spec for each link kind, drawn from Figure 1:
//   (1) 46 GB/s, 175 ns   (2) 150 GB/s, 56 ns   (3)(4) 256 Gbps, 75 ns
//   (5) 200 Gbps, 1.5 us  root link as (3);     device-internal 400 GB/s, 5 ns;
//   CXL x16: 64 GB/s, 150 ns (Sharma [49], cited in the paper).
LinkSpec DefaultLinkSpec(LinkKind kind);

struct Link {
  LinkId id = kInvalidLink;
  ComponentId a = kInvalidComponent;
  ComponentId b = kInvalidComponent;
  LinkSpec spec;

  // The endpoint that is not |from|. Precondition: from is a or b.
  ComponentId Other(ComponentId from) const { return from == a ? b : a; }
};

// A directed traversal of a link, as used in flow paths. Full-duplex links
// have independent capacity per direction, so (link, direction) is the unit
// of bandwidth contention.
struct DirectedLink {
  LinkId link = kInvalidLink;
  bool forward = true;  // true: a->b, false: b->a.

  bool operator==(const DirectedLink&) const = default;
};

// Dense index for a DirectedLink: link * 2 + (forward ? 0 : 1).
inline int32_t DirectedIndex(DirectedLink d) { return d.link * 2 + (d.forward ? 0 : 1); }

}  // namespace mihn::topology

#endif  // MIHN_SRC_TOPOLOGY_LINK_H_
