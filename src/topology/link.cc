#include "src/topology/link.h"

namespace mihn::topology {

std::string_view LinkKindName(LinkKind kind) {
  switch (kind) {
    case LinkKind::kInterSocket:
      return "inter_socket";
    case LinkKind::kIntraSocket:
      return "intra_socket";
    case LinkKind::kPcieSwitchUp:
      return "pcie_switch_up";
    case LinkKind::kPcieSwitchDown:
      return "pcie_switch_down";
    case LinkKind::kInterHost:
      return "inter_host";
    case LinkKind::kPcieRootLink:
      return "pcie_root_link";
    case LinkKind::kDeviceInternal:
      return "device_internal";
    case LinkKind::kCxl:
      return "cxl";
  }
  return "unknown";
}

std::optional<LinkKind> ParseLinkKind(std::string_view name) {
  static constexpr LinkKind kKinds[] = {
      LinkKind::kInterSocket,    LinkKind::kIntraSocket,  LinkKind::kPcieSwitchUp,
      LinkKind::kPcieSwitchDown, LinkKind::kInterHost,    LinkKind::kPcieRootLink,
      LinkKind::kDeviceInternal, LinkKind::kCxl,
  };
  for (const LinkKind kind : kKinds) {
    if (LinkKindName(kind) == name) {
      return kind;
    }
  }
  return std::nullopt;
}

int Figure1Class(LinkKind kind) {
  switch (kind) {
    case LinkKind::kInterSocket:
      return 1;
    case LinkKind::kIntraSocket:
      return 2;
    case LinkKind::kPcieSwitchUp:
      return 3;
    case LinkKind::kPcieSwitchDown:
      return 4;
    case LinkKind::kInterHost:
      return 5;
    case LinkKind::kPcieRootLink:
    case LinkKind::kDeviceInternal:
    case LinkKind::kCxl:
      return 0;
  }
  return 0;
}

LinkSpec DefaultLinkSpec(LinkKind kind) {
  using sim::Bandwidth;
  using sim::TimeNs;
  switch (kind) {
    case LinkKind::kInterSocket:
      return {kind, Bandwidth::GBps(46), TimeNs::Nanos(175)};
    case LinkKind::kIntraSocket:
      return {kind, Bandwidth::GBps(150), TimeNs::Nanos(56)};
    case LinkKind::kPcieSwitchUp:
      return {kind, Bandwidth::Gbps(256), TimeNs::Nanos(75)};
    case LinkKind::kPcieSwitchDown:
      return {kind, Bandwidth::Gbps(256), TimeNs::Nanos(75)};
    case LinkKind::kInterHost:
      return {kind, Bandwidth::Gbps(200), TimeNs::Nanos(1500)};
    case LinkKind::kPcieRootLink:
      return {kind, Bandwidth::Gbps(256), TimeNs::Nanos(75)};
    case LinkKind::kDeviceInternal:
      return {kind, Bandwidth::GBps(400), TimeNs::Nanos(5)};
    case LinkKind::kCxl:
      // CXL 2.0 x16: ~64 GB/s raw; ~150 ns load latency device->host [49].
      return {kind, Bandwidth::GBps(64), TimeNs::Nanos(150)};
  }
  return {kind, Bandwidth::Zero(), TimeNs::Zero()};
}

}  // namespace mihn::topology
