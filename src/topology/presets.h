// Preset server topologies.
//
// BuildServer() constructs a parameterized commodity server in the shape of
// the paper's Figure 1: CPU sockets joined by inter-socket links, memory
// controllers and DIMMs behind each socket's on-die fabric, PCIe root ports
// with optional multi-port switches, and I/O devices (NICs, GPUs, NVMe
// SSDs) at the leaves. NICs can face abstract external hosts across
// inter-host links. Three named presets cover the paper's motivating
// hardware: a two-socket commodity server, a DGX-class accelerator box, and
// a small edge node.

#ifndef MIHN_SRC_TOPOLOGY_PRESETS_H_
#define MIHN_SRC_TOPOLOGY_PRESETS_H_

#include <vector>

#include "src/topology/topology.h"

namespace mihn::topology {

struct ServerSpec {
  int sockets = 2;
  int memory_controllers_per_socket = 2;
  int dimms_per_controller = 2;
  int root_ports_per_socket = 2;
  // 0 means devices attach directly to root ports with kPcieRootLink.
  int switches_per_root_port = 1;
  int nics_per_leaf = 1;  // "Leaf" = switch, or root port when direct-attached.
  int gpus_per_leaf = 1;
  int ssds_per_leaf = 1;
  // Parallel inter-socket links per adjacent socket pair (commodity CPUs
  // ship 2-3 UPI/xGMI links); > 1 gives the scheduler alternate pathways.
  int inter_socket_links = 2;
  bool external_host_per_nic = true;
  // CXL memory expanders per socket (0 = none): cache-coherent pooled
  // memory behind a kCxl link, the paper's cited direction for flexible
  // intra-host memory [49, 20, 21].
  int cxl_memory_per_socket = 0;
  // Attach a telemetry collection endpoint to socket 0's fabric (§3.1 Q2:
  // monitoring data competes for intra-host resources).
  bool monitor_store = true;

  // Link specs; default to Figure 1 mid-range values.
  LinkSpec inter_socket = DefaultLinkSpec(LinkKind::kInterSocket);
  LinkSpec intra_socket = DefaultLinkSpec(LinkKind::kIntraSocket);
  LinkSpec switch_up = DefaultLinkSpec(LinkKind::kPcieSwitchUp);
  LinkSpec switch_down = DefaultLinkSpec(LinkKind::kPcieSwitchDown);
  LinkSpec root_link = DefaultLinkSpec(LinkKind::kPcieRootLink);
  LinkSpec inter_host = DefaultLinkSpec(LinkKind::kInterHost);
  LinkSpec device_internal = DefaultLinkSpec(LinkKind::kDeviceInternal);
  LinkSpec cxl = DefaultLinkSpec(LinkKind::kCxl);
};

// A built topology plus convenient handles to notable components, in
// construction order (nics[0] hangs off socket 0's first leaf, etc.).
struct Server {
  Topology topo;
  std::vector<ComponentId> sockets;
  std::vector<ComponentId> dimms;
  std::vector<ComponentId> nics;
  std::vector<ComponentId> gpus;
  std::vector<ComponentId> ssds;
  std::vector<ComponentId> external_hosts;
  std::vector<ComponentId> cxl_memories;
  ComponentId monitor_store = kInvalidComponent;
};

// Builds a server from |spec|. The result's topology always passes
// Topology::Validate().
Server BuildServer(const ServerSpec& spec);

// The Figure 1 example: two sockets, one PCIe switch per root port, one
// NIC + GPU + SSD per switch, external hosts behind the NICs.
Server CommodityTwoSocket();

// DGX-class accelerator server: two sockets, two switches per root port,
// two GPUs and one NIC per switch (8 GPUs, 4 NICs).
Server DgxClass();

// Single-socket edge node: direct-attached NIC and SSD, no GPU.
Server EdgeNode();

}  // namespace mihn::topology

#endif  // MIHN_SRC_TOPOLOGY_PRESETS_H_
