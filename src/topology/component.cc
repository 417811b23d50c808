#include "src/topology/component.h"

namespace mihn::topology {

bool IsEndpointKind(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::kCpuSocket:
    case ComponentKind::kDimm:
    case ComponentKind::kNic:
    case ComponentKind::kGpu:
    case ComponentKind::kNvmeSsd:
    case ComponentKind::kFpga:
    case ComponentKind::kExternalHost:
    case ComponentKind::kMonitorStore:
    case ComponentKind::kCxlMemory:
      return true;
    case ComponentKind::kMemoryController:
    case ComponentKind::kPcieRootPort:
    case ComponentKind::kPcieSwitch:
      return false;
  }
  return false;
}

std::string_view ComponentKindName(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::kCpuSocket:
      return "cpu_socket";
    case ComponentKind::kMemoryController:
      return "memory_controller";
    case ComponentKind::kDimm:
      return "dimm";
    case ComponentKind::kPcieRootPort:
      return "pcie_root_port";
    case ComponentKind::kPcieSwitch:
      return "pcie_switch";
    case ComponentKind::kNic:
      return "nic";
    case ComponentKind::kGpu:
      return "gpu";
    case ComponentKind::kNvmeSsd:
      return "nvme_ssd";
    case ComponentKind::kFpga:
      return "fpga";
    case ComponentKind::kExternalHost:
      return "external_host";
    case ComponentKind::kMonitorStore:
      return "monitor_store";
    case ComponentKind::kCxlMemory:
      return "cxl_memory";
  }
  return "unknown";
}

std::optional<ComponentKind> ParseComponentKind(std::string_view name) {
  static constexpr ComponentKind kKinds[] = {
      ComponentKind::kCpuSocket,    ComponentKind::kMemoryController,
      ComponentKind::kDimm,         ComponentKind::kPcieRootPort,
      ComponentKind::kPcieSwitch,   ComponentKind::kNic,
      ComponentKind::kGpu,          ComponentKind::kNvmeSsd,
      ComponentKind::kFpga,         ComponentKind::kExternalHost,
      ComponentKind::kMonitorStore, ComponentKind::kCxlMemory,
  };
  for (const ComponentKind kind : kKinds) {
    if (ComponentKindName(kind) == name) {
      return kind;
    }
  }
  return std::nullopt;
}

}  // namespace mihn::topology
