// Component model: the end nodes and interior nodes of the intra-host
// network graph (paper §2: "We name these fabrics and the end node devices
// together as the intra-host network").

#ifndef MIHN_SRC_TOPOLOGY_COMPONENT_H_
#define MIHN_SRC_TOPOLOGY_COMPONENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mihn::topology {

// Index of a component within its Topology. Stable for the topology's
// lifetime; components are never removed.
using ComponentId = int32_t;
inline constexpr ComponentId kInvalidComponent = -1;

// Index of a link within its Topology.
using LinkId = int32_t;
inline constexpr LinkId kInvalidLink = -1;

enum class ComponentKind : uint8_t {
  kCpuSocket,         // Socket-level hub: cores + on-die mesh + LLC.
  kMemoryController,  // DDR controller; parent of DIMMs.
  kDimm,              // A memory module (traffic sink/source for DMA).
  kPcieRootPort,      // PCIe root complex port on a socket.
  kPcieSwitch,        // Multi-port PCIe switch below a root port.
  kNic,               // RDMA-capable network adapter.
  kGpu,               // GPU accelerator.
  kNvmeSsd,           // NVMe storage device.
  kFpga,              // FPGA accelerator.
  kExternalHost,      // Abstract remote peer beyond the inter-host link.
  kMonitorStore,      // Telemetry collection endpoint (paper §3.1 Q2).
  kCxlMemory,         // CXL-attached memory expander / pooled memory device.
};

// True for kinds that can originate or terminate transfers (DMA endpoints).
// Interior fabric nodes (root ports, switches) only forward.
bool IsEndpointKind(ComponentKind kind);

// Short lowercase label, e.g. "nic", "pcie_switch".
std::string_view ComponentKindName(ComponentKind kind);

// Inverse of ComponentKindName; nullopt for a name no kind carries.
std::optional<ComponentKind> ParseComponentKind(std::string_view name);

struct Component {
  ComponentId id = kInvalidComponent;
  ComponentKind kind = ComponentKind::kCpuSocket;
  // Unique hierarchical name, e.g. "s0.rp1.sw0" or "gpu3".
  std::string name;
  // Socket this component belongs to (itself for sockets; kInvalidComponent
  // for external hosts). Used by NUMA-aware scheduling.
  ComponentId socket = kInvalidComponent;
};

}  // namespace mihn::topology

#endif  // MIHN_SRC_TOPOLOGY_COMPONENT_H_
