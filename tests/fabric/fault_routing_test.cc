// Fault-aware routing: Fabric::Route must exclude dead links, prefer
// fully-healthy paths over degraded ones, and — via the router's fault
// epoch — stop serving stale cached paths the moment a fault is injected
// or cleared.

#include <gtest/gtest.h>

#include "src/fabric/fabric.h"
#include "src/topology/presets.h"
#include "src/workload/sources.h"

namespace mihn::fabric {
namespace {

using sim::Bandwidth;
using sim::Simulation;
using sim::TimeNs;
using topology::ComponentId;
using topology::ComponentKind;
using topology::LinkId;
using topology::LinkKind;
using topology::LinkSpec;
using topology::Topology;

// A dual-ported NIC behind two independent PCIe switches:
//
//   socket -- rp0 -- sw0 --+
//      |                   nic
//      +--- rp1 -- sw1 ----+
//
// Killing one switch uplink must re-route socket<->nic traffic through
// the other port.
struct DualPorted {
  Topology topo;
  ComponentId socket, rp0, sw0, rp1, sw1, nic;
  LinkId up0, up1, down0, down1;
};

DualPorted MakeDualPorted() {
  DualPorted d;
  d.socket = d.topo.AddComponent(ComponentKind::kCpuSocket, "s0");
  d.rp0 = d.topo.AddComponent(ComponentKind::kPcieRootPort, "s0.rp0", d.socket);
  d.sw0 = d.topo.AddComponent(ComponentKind::kPcieSwitch, "s0.rp0.sw0", d.socket);
  d.rp1 = d.topo.AddComponent(ComponentKind::kPcieRootPort, "s0.rp1", d.socket);
  d.sw1 = d.topo.AddComponent(ComponentKind::kPcieSwitch, "s0.rp1.sw0", d.socket);
  d.nic = d.topo.AddComponent(ComponentKind::kNic, "nic0", d.socket);
  d.topo.AddLink(d.socket, d.rp0, topology::DefaultLinkSpec(LinkKind::kIntraSocket));
  d.up0 = d.topo.AddLink(d.rp0, d.sw0, topology::DefaultLinkSpec(LinkKind::kPcieSwitchUp));
  d.down0 = d.topo.AddLink(d.sw0, d.nic, topology::DefaultLinkSpec(LinkKind::kPcieSwitchDown));
  d.topo.AddLink(d.socket, d.rp1, topology::DefaultLinkSpec(LinkKind::kIntraSocket));
  d.up1 = d.topo.AddLink(d.rp1, d.sw1, topology::DefaultLinkSpec(LinkKind::kPcieSwitchUp));
  d.down1 = d.topo.AddLink(d.sw1, d.nic, topology::DefaultLinkSpec(LinkKind::kPcieSwitchDown));
  return d;
}

TEST(FaultRoutingTest, RouteExcludesDeadLink) {
  Simulation sim;
  const DualPorted d = MakeDualPorted();
  Fabric fabric(sim, d.topo);

  const auto before = fabric.Route(d.nic, d.socket);
  ASSERT_TRUE(before.has_value());

  // Kill whichever uplink the route uses; the other port must take over.
  const LinkId used = before->Uses(d.up0) ? d.up0 : d.up1;
  const LinkId other = used == d.up0 ? d.up1 : d.up0;
  ASSERT_TRUE(before->Uses(used));
  fabric.InjectLinkFault(used, LinkFault{.capacity_factor = 0.0});

  const auto after = fabric.Route(d.nic, d.socket);
  ASSERT_TRUE(after.has_value());
  EXPECT_FALSE(after->Uses(used));
  EXPECT_TRUE(after->Uses(other));
}

TEST(FaultRoutingTest, ClearRestoresOriginalRouteNotTheDetour) {
  Simulation sim;
  const DualPorted d = MakeDualPorted();
  Fabric fabric(sim, d.topo);

  const auto original = fabric.Route(d.nic, d.socket);
  ASSERT_TRUE(original.has_value());
  const LinkId used = original->Uses(d.up0) ? d.up0 : d.up1;

  fabric.InjectLinkFault(used, LinkFault{.capacity_factor = 0.0});
  const auto detour = fabric.Route(d.nic, d.socket);
  ASSERT_TRUE(detour.has_value());
  EXPECT_NE(*detour, *original);

  // PR-4 regression: the route memo must be invalidated by the fault
  // epoch, not only by topology edits — after the clear we must get the
  // original path back, not the cached detour.
  fabric.ClearLinkFault(used);
  const auto restored = fabric.Route(d.nic, d.socket);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, *original);
  EXPECT_NE(*restored, *detour);
}

TEST(FaultRoutingTest, DegradedLinkAvoidedWhenHealthyAlternativeExists) {
  Simulation sim;
  const DualPorted d = MakeDualPorted();
  Fabric fabric(sim, d.topo);

  const auto original = fabric.Route(d.socket, d.nic);
  ASSERT_TRUE(original.has_value());
  const LinkId used = original->Uses(d.up0) ? d.up0 : d.up1;

  // A degraded (but alive) link: routing prefers the fully-healthy port.
  fabric.InjectLinkFault(used, LinkFault{.capacity_factor = 0.25});
  const auto rerouted = fabric.Route(d.socket, d.nic);
  ASSERT_TRUE(rerouted.has_value());
  EXPECT_FALSE(rerouted->Uses(used));

  // When every path is degraded, routing still returns one.
  const LinkId other = used == d.up0 ? d.up1 : d.up0;
  fabric.InjectLinkFault(other, LinkFault{.capacity_factor = 0.25});
  const auto degraded = fabric.Route(d.socket, d.nic);
  ASSERT_TRUE(degraded.has_value());
}

TEST(FaultRoutingTest, UnreachableWhenEveryPathCrossesADeadLink) {
  Simulation sim;
  const DualPorted d = MakeDualPorted();
  Fabric fabric(sim, d.topo);

  fabric.InjectLinkFault(d.up0, LinkFault{.capacity_factor = 0.0});
  fabric.InjectLinkFault(d.up1, LinkFault{.capacity_factor = 0.0});
  EXPECT_FALSE(fabric.Route(d.socket, d.nic).has_value());

  fabric.ClearLinkFault(d.up1);
  EXPECT_TRUE(fabric.Route(d.socket, d.nic).has_value());
}

TEST(FaultRoutingTest, RouteEpochAdvancesOnEffectiveChangeOnly) {
  Simulation sim;
  const DualPorted d = MakeDualPorted();
  Fabric fabric(sim, d.topo);

  const uint64_t start = fabric.route_epoch();
  fabric.InjectLinkFault(d.up0, LinkFault{.capacity_factor = 0.0});
  const uint64_t after_inject = fabric.route_epoch();
  EXPECT_GT(after_inject, start);

  // Re-injecting the same fault is a routing no-op.
  fabric.InjectLinkFault(d.up0, LinkFault{.capacity_factor = 0.0});
  EXPECT_EQ(fabric.route_epoch(), after_inject);

  // A pure-latency fault flips the link to degraded: epoch moves.
  fabric.InjectLinkFault(d.up1, LinkFault{.extra_latency = TimeNs::Micros(5)});
  const uint64_t after_latency = fabric.route_epoch();
  EXPECT_GT(after_latency, after_inject);

  fabric.ClearLinkFault(d.up0);
  fabric.ClearLinkFault(d.up1);
  EXPECT_GT(fabric.route_epoch(), after_latency);
}

// The issue's headline scenario: a flow through a PCIe switch uplink, the
// uplink dies, and a restart re-routes the flow onto the surviving port.
TEST(FaultRoutingTest, StreamReroutesAroundKilledSwitchUplink) {
  Simulation sim;
  const DualPorted d = MakeDualPorted();
  Fabric fabric(sim, d.topo);

  workload::StreamSource::Config config;
  config.src = d.nic;
  config.dst = d.socket;
  config.demand = Bandwidth::GBps(8);
  workload::StreamSource stream(fabric, config);
  stream.Start();
  sim.RunFor(TimeNs::Millis(1));

  const auto before = fabric.GetFlowInfo(stream.flow());
  ASSERT_TRUE(before.has_value());
  ASSERT_NE(before->path, nullptr);
  const topology::Path original = *before->path;
  const LinkId used = original.Uses(d.up0) ? d.up0 : d.up1;
  EXPECT_GT(stream.AchievedRate().ToGBps(), 0.0);

  fabric.InjectLinkFault(used, LinkFault{.capacity_factor = 0.0});
  sim.RunFor(TimeNs::Millis(1));
  EXPECT_DOUBLE_EQ(stream.AchievedRate().ToGBps(), 0.0);

  stream.Stop();
  stream.Start();
  sim.RunFor(TimeNs::Millis(1));

  const auto after = fabric.GetFlowInfo(stream.flow());
  ASSERT_TRUE(after.has_value());
  ASSERT_NE(after->path, nullptr);
  EXPECT_FALSE(after->path->Uses(used));
  EXPECT_GT(stream.AchievedRate().ToGBps(), 0.0);
}

}  // namespace
}  // namespace mihn::fabric
