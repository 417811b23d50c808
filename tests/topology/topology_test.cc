#include "src/topology/topology.h"

#include <gtest/gtest.h>

namespace mihn::topology {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

Topology MakeTriangle() {
  Topology topo;
  const ComponentId s0 = topo.AddComponent(ComponentKind::kCpuSocket, "s0");
  const ComponentId nic = topo.AddComponent(ComponentKind::kNic, "nic0", s0);
  const ComponentId gpu = topo.AddComponent(ComponentKind::kGpu, "gpu0", s0);
  topo.AddLink(s0, nic, DefaultLinkSpec(LinkKind::kPcieRootLink));
  topo.AddLink(s0, gpu, DefaultLinkSpec(LinkKind::kPcieRootLink));
  topo.AddLink(nic, gpu, DefaultLinkSpec(LinkKind::kPcieRootLink));
  return topo;
}

TEST(TopologyTest, AddComponentAssignsSequentialIds) {
  Topology topo;
  EXPECT_EQ(topo.AddComponent(ComponentKind::kCpuSocket, "s0"), 0);
  EXPECT_EQ(topo.AddComponent(ComponentKind::kNic, "nic0"), 1);
  EXPECT_EQ(topo.component_count(), 2u);
  EXPECT_EQ(topo.component(0).name, "s0");
  EXPECT_EQ(topo.component(1).kind, ComponentKind::kNic);
}

TEST(TopologyTest, DuplicateNameRejected) {
  Topology topo;
  topo.AddComponent(ComponentKind::kCpuSocket, "s0");
  EXPECT_EQ(topo.AddComponent(ComponentKind::kNic, "s0"), kInvalidComponent);
  EXPECT_EQ(topo.component_count(), 1u);
}

TEST(TopologyTest, SocketSelfReference) {
  Topology topo;
  const ComponentId s0 = topo.AddComponent(ComponentKind::kCpuSocket, "s0");
  EXPECT_EQ(topo.component(s0).socket, s0);
  const ComponentId nic = topo.AddComponent(ComponentKind::kNic, "nic0", s0);
  EXPECT_EQ(topo.component(nic).socket, s0);
}

TEST(TopologyTest, SelfLoopRejected) {
  Topology topo;
  const ComponentId s0 = topo.AddComponent(ComponentKind::kCpuSocket, "s0");
  EXPECT_EQ(topo.AddLink(s0, s0, DefaultLinkSpec(LinkKind::kIntraSocket)), kInvalidLink);
}

TEST(TopologyTest, OutOfRangeLinkRejected) {
  Topology topo;
  const ComponentId s0 = topo.AddComponent(ComponentKind::kCpuSocket, "s0");
  EXPECT_EQ(topo.AddLink(s0, 42, DefaultLinkSpec(LinkKind::kIntraSocket)), kInvalidLink);
  EXPECT_EQ(topo.AddLink(kInvalidComponent, s0, DefaultLinkSpec(LinkKind::kIntraSocket)),
            kInvalidLink);
}

TEST(TopologyTest, IncidentLinksTrackBothEndpoints) {
  const Topology topo = MakeTriangle();
  EXPECT_EQ(topo.IncidentLinks(0).size(), 2u);
  EXPECT_EQ(topo.IncidentLinks(1).size(), 2u);
  EXPECT_EQ(topo.IncidentLinks(2).size(), 2u);
  EXPECT_EQ(topo.link_count(), 3u);
}

TEST(TopologyTest, LinkOther) {
  const Topology topo = MakeTriangle();
  const Link& l = topo.link(0);
  EXPECT_EQ(l.Other(l.a), l.b);
  EXPECT_EQ(l.Other(l.b), l.a);
}

TEST(TopologyTest, FindComponentByName) {
  const Topology topo = MakeTriangle();
  ASSERT_TRUE(topo.FindComponent("gpu0").has_value());
  EXPECT_EQ(*topo.FindComponent("gpu0"), 2);
  EXPECT_FALSE(topo.FindComponent("nope").has_value());
}

TEST(TopologyTest, ComponentsOfKind) {
  const Topology topo = MakeTriangle();
  EXPECT_EQ(topo.ComponentsOfKind(ComponentKind::kNic).size(), 1u);
  EXPECT_EQ(topo.ComponentsOfKind(ComponentKind::kNvmeSsd).size(), 0u);
}

TEST(TopologyTest, LinksOfKind) {
  const Topology topo = MakeTriangle();
  EXPECT_EQ(topo.LinksOfKind(LinkKind::kPcieRootLink).size(), 3u);
  EXPECT_EQ(topo.LinksOfKind(LinkKind::kInterSocket).size(), 0u);
}

TEST(TopologyTest, ValidateAcceptsWellFormed) {
  EXPECT_EQ(MakeTriangle().Validate(), "");
}

TEST(TopologyTest, ValidateRejectsEmpty) {
  Topology topo;
  EXPECT_NE(topo.Validate(), "");
}

TEST(TopologyTest, ValidateRejectsDisconnected) {
  Topology topo = MakeTriangle();
  topo.AddComponent(ComponentKind::kGpu, "lonely_gpu");
  const std::string err = topo.Validate();
  EXPECT_NE(err.find("lonely_gpu"), std::string::npos) << err;
}

TEST(TopologyTest, ValidateRejectsZeroCapacityLink) {
  Topology topo;
  const ComponentId a = topo.AddComponent(ComponentKind::kCpuSocket, "s0");
  const ComponentId b = topo.AddComponent(ComponentKind::kNic, "nic0", a);
  topo.AddLink(a, b, LinkSpec{LinkKind::kPcieRootLink, Bandwidth::Zero(), TimeNs::Nanos(10)});
  EXPECT_NE(topo.Validate().find("zero capacity"), std::string::npos);
}

TEST(TopologyTest, DescribeMentionsAllComponents) {
  const Topology topo = MakeTriangle();
  const std::string desc = topo.Describe();
  EXPECT_NE(desc.find("s0"), std::string::npos);
  EXPECT_NE(desc.find("nic0"), std::string::npos);
  EXPECT_NE(desc.find("gpu0"), std::string::npos);
}

TEST(LinkKindTest, Figure1Classes) {
  EXPECT_EQ(Figure1Class(LinkKind::kInterSocket), 1);
  EXPECT_EQ(Figure1Class(LinkKind::kIntraSocket), 2);
  EXPECT_EQ(Figure1Class(LinkKind::kPcieSwitchUp), 3);
  EXPECT_EQ(Figure1Class(LinkKind::kPcieSwitchDown), 4);
  EXPECT_EQ(Figure1Class(LinkKind::kInterHost), 5);
  EXPECT_EQ(Figure1Class(LinkKind::kPcieRootLink), 0);
}

TEST(LinkKindTest, DefaultSpecsInsideFigure1Ranges) {
  // (1) 20-72 GB/s, 130-220ns.
  const LinkSpec s1 = DefaultLinkSpec(LinkKind::kInterSocket);
  EXPECT_GE(s1.capacity.ToGBps(), 20.0);
  EXPECT_LE(s1.capacity.ToGBps(), 72.0);
  EXPECT_GE(s1.base_latency.nanos(), 130);
  EXPECT_LE(s1.base_latency.nanos(), 220);
  // (2) 100-200 GB/s, 2-110ns.
  const LinkSpec s2 = DefaultLinkSpec(LinkKind::kIntraSocket);
  EXPECT_GE(s2.capacity.ToGBps(), 100.0);
  EXPECT_LE(s2.capacity.ToGBps(), 200.0);
  EXPECT_GE(s2.base_latency.nanos(), 2);
  EXPECT_LE(s2.base_latency.nanos(), 110);
  // (3)/(4) ~256 Gbps, 30-120ns.
  for (const LinkKind k : {LinkKind::kPcieSwitchUp, LinkKind::kPcieSwitchDown}) {
    const LinkSpec s = DefaultLinkSpec(k);
    EXPECT_NEAR(s.capacity.ToGbps(), 256.0, 1.0);
    EXPECT_GE(s.base_latency.nanos(), 30);
    EXPECT_LE(s.base_latency.nanos(), 120);
  }
  // (5) ~200 Gbps, < 2us.
  const LinkSpec s5 = DefaultLinkSpec(LinkKind::kInterHost);
  EXPECT_NEAR(s5.capacity.ToGbps(), 200.0, 1.0);
  EXPECT_LT(s5.base_latency, TimeNs::Micros(2));
}

TEST(ComponentKindTest, EndpointClassification) {
  EXPECT_TRUE(IsEndpointKind(ComponentKind::kNic));
  EXPECT_TRUE(IsEndpointKind(ComponentKind::kGpu));
  EXPECT_TRUE(IsEndpointKind(ComponentKind::kDimm));
  EXPECT_TRUE(IsEndpointKind(ComponentKind::kExternalHost));
  EXPECT_FALSE(IsEndpointKind(ComponentKind::kPcieSwitch));
  EXPECT_FALSE(IsEndpointKind(ComponentKind::kPcieRootPort));
  EXPECT_FALSE(IsEndpointKind(ComponentKind::kMemoryController));
}

TEST(ComponentKindTest, NamesAreNonEmptyAndDistinctish) {
  EXPECT_EQ(ComponentKindName(ComponentKind::kNic), "nic");
  EXPECT_EQ(ComponentKindName(ComponentKind::kPcieSwitch), "pcie_switch");
  EXPECT_EQ(LinkKindName(LinkKind::kInterHost), "inter_host");
}

TEST(DirectedLinkTest, DenseIndex) {
  EXPECT_EQ(DirectedIndex(DirectedLink{3, true}), 6);
  EXPECT_EQ(DirectedIndex(DirectedLink{3, false}), 7);
  EXPECT_EQ(DirectedIndex(DirectedLink{0, true}), 0);
}

}  // namespace
}  // namespace mihn::topology
