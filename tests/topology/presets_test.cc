#include "src/topology/presets.h"

#include <gtest/gtest.h>

#include "src/topology/routing.h"

namespace mihn::topology {
namespace {

TEST(PresetsTest, CommodityTwoSocketValidates) {
  const Server s = CommodityTwoSocket();
  EXPECT_EQ(s.topo.Validate(), "") << s.topo.Describe();
}

TEST(PresetsTest, CommodityTwoSocketInventory) {
  const Server s = CommodityTwoSocket();
  EXPECT_EQ(s.sockets.size(), 2u);
  // 2 sockets x 2 root ports x 1 switch x (1 nic + 1 gpu + 1 ssd).
  EXPECT_EQ(s.nics.size(), 4u);
  EXPECT_EQ(s.gpus.size(), 4u);
  EXPECT_EQ(s.ssds.size(), 4u);
  EXPECT_EQ(s.external_hosts.size(), 4u);
  EXPECT_EQ(s.dimms.size(), 8u);
  EXPECT_NE(s.monitor_store, kInvalidComponent);
}

TEST(PresetsTest, CommodityHasAllFigure1LinkClasses) {
  const Server s = CommodityTwoSocket();
  for (const LinkKind k :
       {LinkKind::kInterSocket, LinkKind::kIntraSocket, LinkKind::kPcieSwitchUp,
        LinkKind::kPcieSwitchDown, LinkKind::kInterHost}) {
    EXPECT_FALSE(s.topo.LinksOfKind(k).empty()) << LinkKindName(k);
  }
}

TEST(PresetsTest, ComponentKindsMatchHandles) {
  const Server s = CommodityTwoSocket();
  for (const ComponentId nic : s.nics) {
    EXPECT_EQ(s.topo.component(nic).kind, ComponentKind::kNic);
  }
  for (const ComponentId gpu : s.gpus) {
    EXPECT_EQ(s.topo.component(gpu).kind, ComponentKind::kGpu);
  }
  for (const ComponentId dimm : s.dimms) {
    EXPECT_EQ(s.topo.component(dimm).kind, ComponentKind::kDimm);
  }
}

TEST(PresetsTest, RemoteToDimmPathCrossesExpectedClasses) {
  // The paper's end-to-end example: a remote RDMA access traverses classes
  // (5) inter-host, (3)/(4) PCIe, (2) intra-socket fabrics.
  const Server s = CommodityTwoSocket();
  Router router(s.topo);
  const auto path = router.ShortestPath(s.external_hosts[0], s.dimms[0]);
  ASSERT_TRUE(path.has_value());
  std::set<LinkKind> kinds;
  for (const DirectedLink& hop : path->hops) {
    kinds.insert(s.topo.link(hop.link).spec.kind);
  }
  EXPECT_TRUE(kinds.contains(LinkKind::kInterHost));
  EXPECT_TRUE(kinds.contains(LinkKind::kPcieSwitchDown));
  EXPECT_TRUE(kinds.contains(LinkKind::kPcieSwitchUp));
  EXPECT_TRUE(kinds.contains(LinkKind::kIntraSocket));
}

TEST(PresetsTest, DgxClassValidatesAndHasEightGpus) {
  const Server s = DgxClass();
  EXPECT_EQ(s.topo.Validate(), "");
  EXPECT_EQ(s.gpus.size(), 8u);
  EXPECT_EQ(s.nics.size(), 4u);
}

TEST(PresetsTest, DgxGpusSpreadAcrossSockets) {
  const Server s = DgxClass();
  const ComponentId sock0 = s.topo.component(s.gpus.front()).socket;
  const ComponentId sockN = s.topo.component(s.gpus.back()).socket;
  EXPECT_NE(sock0, sockN);
}

TEST(PresetsTest, EdgeNodeValidatesAndIsDirectAttached) {
  const Server s = EdgeNode();
  EXPECT_EQ(s.topo.Validate(), "");
  EXPECT_EQ(s.gpus.size(), 0u);
  EXPECT_EQ(s.nics.size(), 1u);
  EXPECT_EQ(s.ssds.size(), 1u);
  EXPECT_TRUE(s.topo.LinksOfKind(LinkKind::kPcieSwitchUp).empty());
  EXPECT_FALSE(s.topo.LinksOfKind(LinkKind::kPcieRootLink).empty());
}

TEST(PresetsTest, MonitorStoreCanBeDisabled) {
  ServerSpec spec;
  spec.monitor_store = false;
  const Server s = BuildServer(spec);
  EXPECT_EQ(s.monitor_store, kInvalidComponent);
  EXPECT_EQ(s.topo.Validate(), "");
}

TEST(PresetsTest, ExternalHostsCanBeDisabled) {
  ServerSpec spec;
  spec.external_host_per_nic = false;
  const Server s = BuildServer(spec);
  EXPECT_TRUE(s.external_hosts.empty());
  EXPECT_TRUE(s.topo.LinksOfKind(LinkKind::kInterHost).empty());
  EXPECT_EQ(s.topo.Validate(), "");
}

TEST(PresetsTest, FourSocketRingConnects) {
  ServerSpec spec;
  spec.sockets = 4;
  const Server s = BuildServer(spec);
  EXPECT_EQ(s.topo.Validate(), "");
  // (Chain of 3 pairs + closing ring pair) x 2 parallel links = 8.
  EXPECT_EQ(s.topo.LinksOfKind(LinkKind::kInterSocket).size(), 8u);
}

TEST(PresetsTest, AlternateGpuSsdPathwaysExistOnDgx) {
  // §3.2: "there can be several GPU-SSD pathways within an intra-host
  // network" — the scheduler preset must actually provide them.
  const Server s = DgxClass();
  Router router(s.topo);
  // Cross-socket GPU -> SSD: the parallel inter-socket links provide
  // genuinely distinct pathways.
  const auto paths = router.KShortestPaths(s.gpus[0], s.ssds.back(), 3);
  EXPECT_GE(paths.size(), 2u);
}

// Two-socket server with one CXL memory expander per socket: the
// memory-pooling configuration the paper points to.
Server CxlPooledServer() {
  ServerSpec spec;
  spec.cxl_memory_per_socket = 1;
  return BuildServer(spec);
}

TEST(PresetsTest, CxlPooledServerValidates) {
  const Server s = CxlPooledServer();
  EXPECT_EQ(s.topo.Validate(), "");
  EXPECT_EQ(s.cxl_memories.size(), 2u);
  for (const ComponentId cxl : s.cxl_memories) {
    EXPECT_EQ(s.topo.component(cxl).kind, ComponentKind::kCxlMemory);
  }
  // CXL memory hangs directly off its socket via a kCxl link.
  const auto cxl_links = s.topo.LinksOfKind(LinkKind::kCxl);
  ASSERT_EQ(cxl_links.size(), 2u);
  const LinkSpec spec = s.topo.link(cxl_links[0]).spec;
  // The paper's cited numbers: ~150ns, and CXL 2.0 x16-class bandwidth.
  EXPECT_EQ(spec.base_latency, sim::TimeNs::Nanos(150));
  EXPECT_DOUBLE_EQ(spec.capacity.ToGBps(), 64.0);
}

TEST(PresetsTest, CxlMemoryReachableFromDevices) {
  const Server s = CxlPooledServer();
  Router router(s.topo);
  const auto path = router.ShortestPath(s.gpus[0], s.cxl_memories[0]);
  ASSERT_TRUE(path.has_value());
  // PCIe up to the socket, then one CXL hop.
  EXPECT_EQ(s.topo.link(path->hops.back().link).spec.kind, LinkKind::kCxl);
}

TEST(PresetsTest, DefaultPresetHasNoCxl) {
  const Server s = CommodityTwoSocket();
  EXPECT_TRUE(s.cxl_memories.empty());
  EXPECT_TRUE(s.topo.LinksOfKind(LinkKind::kCxl).empty());
}

TEST(PresetsTest, CustomLinkSpecsArePropagated) {
  ServerSpec spec;
  spec.inter_socket.capacity = sim::Bandwidth::GBps(64);
  const Server s = BuildServer(spec);
  for (const LinkId lid : s.topo.LinksOfKind(LinkKind::kInterSocket)) {
    EXPECT_DOUBLE_EQ(s.topo.link(lid).spec.capacity.ToGBps(), 64.0);
  }
}

}  // namespace
}  // namespace mihn::topology
