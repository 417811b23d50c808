#include "src/chaos/fault_schedule.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/topology/presets.h"

namespace mihn::chaos {
namespace {

using sim::TimeNs;
using topology::LinkKind;

// The links of |topo| that carry a fault, in id order.
std::vector<topology::LinkId> FaultedLinks(const fabric::Fabric& fabric,
                                           const topology::Topology& topo) {
  std::vector<topology::LinkId> faulted;
  for (const topology::Link& link : topo.links()) {
    if (fabric.GetLinkFault(link.id).has_value()) {
      faulted.push_back(link.id);
    }
  }
  return faulted;
}

TEST(FaultScheduleTest, BuildersAppendSpecsInOrder) {
  FaultSchedule schedule;
  schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(10), TimeNs::Millis(20))
      .Degrade(LinkKind::kInterSocket, 1, 0.5, TimeNs::Millis(30))
      .InflateLatency(LinkKind::kIntraSocket, 0, TimeNs::Micros(10), TimeNs::Millis(40))
      .Flap(LinkKind::kPcieSwitchUp, 1, TimeNs::Micros(500), 0.5, TimeNs::Millis(50))
      .DisableDdio(TimeNs::Millis(60));
  ASSERT_EQ(schedule.specs().size(), 5u);
  EXPECT_EQ(schedule.specs()[0].kind, FaultKind::kKill);
  EXPECT_EQ(schedule.specs()[1].kind, FaultKind::kDegrade);
  EXPECT_EQ(schedule.specs()[2].kind, FaultKind::kLatency);
  EXPECT_EQ(schedule.specs()[3].kind, FaultKind::kFlap);
  EXPECT_EQ(schedule.specs()[4].kind, FaultKind::kDdioOff);
  EXPECT_TRUE(schedule.specs()[0].Cleared());
  EXPECT_FALSE(schedule.specs()[1].Cleared());
}

TEST(FaultScheduleTest, ResolveBindsSymbolicLinkReferences) {
  const topology::Server server = topology::CommodityTwoSocket();
  FaultSchedule schedule;
  schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(1));
  schedule.Kill(LinkKind::kInterSocket, 1, TimeNs::Millis(2));

  std::string error;
  const auto resolved = schedule.Resolve(server.topo, &error);
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_TRUE(error.empty());
  EXPECT_EQ(resolved[0].link, server.topo.LinksOfKind(LinkKind::kPcieSwitchUp)[0]);
  EXPECT_EQ(resolved[1].link, server.topo.LinksOfKind(LinkKind::kInterSocket)[1]);
}

TEST(FaultScheduleTest, ResolveRejectsDanglingReference) {
  const topology::Server server = topology::CommodityTwoSocket();
  FaultSchedule schedule;
  schedule.Kill(LinkKind::kInterSocket, 99, TimeNs::Millis(1));
  std::string error;
  EXPECT_TRUE(schedule.Resolve(server.topo, &error).empty());
  EXPECT_NE(error.find("inter_socket"), std::string::npos);
  EXPECT_NE(error.find("99"), std::string::npos);
}

// The fabric holds one fault per link: a degrade that starts inside a
// kill's window would overwrite the kill, and the kill's clear would then
// lift the degrade early, so the schedule is rejected where it is bound.
TEST(FaultScheduleTest, ResolveRejectsOverlappingFaultsOnOneLink) {
  const topology::Server server = topology::CommodityTwoSocket();
  FaultSchedule schedule;
  schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(30), TimeNs::Millis(45))
      .Degrade(LinkKind::kPcieSwitchUp, 0, 0.3, TimeNs::Millis(40), TimeNs::Millis(50));
  std::string error;
  EXPECT_TRUE(schedule.Resolve(server.topo, &error).empty());
  EXPECT_NE(error.find("fault 1: overlaps fault 0 on pcie_switch_up link 0"), std::string::npos)
      << error;

  // A fault that never clears overlaps everything after it on its link.
  FaultSchedule open_ended;
  open_ended.Kill(LinkKind::kInterSocket, 1, TimeNs::Millis(10))
      .InflateLatency(LinkKind::kInterSocket, 1, TimeNs::Micros(50), TimeNs::Millis(90),
                      TimeNs::Millis(95));
  error.clear();
  EXPECT_TRUE(open_ended.Resolve(server.topo, &error).empty());
  EXPECT_NE(error.find("fault 1: overlaps fault 0 on inter_socket link 1"), std::string::npos)
      << error;
}

// One fabric config: a second DDIO-off inside the first would save "off" as
// the value to restore, and DDIO would stay off after both windows.
TEST(FaultScheduleTest, ResolveRejectsOverlappingDdioOff) {
  const topology::Server server = topology::CommodityTwoSocket();
  FaultSchedule schedule;
  schedule.DisableDdio(TimeNs::Millis(10), TimeNs::Millis(30))
      .Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(15), TimeNs::Millis(25))
      .DisableDdio(TimeNs::Millis(20), TimeNs::Millis(40));
  std::string error;
  EXPECT_TRUE(schedule.Resolve(server.topo, &error).empty());
  EXPECT_NE(error.find("fault 2: overlaps fault 0 on the DDIO setting"), std::string::npos)
      << error;
}

// Windows that only touch stay legal, in either schedule order: the first
// fault's clear lands before the next one's inject at the shared instant.
TEST(FaultInjectorTest, TouchingWindowsHandOverAtTheSharedInstant) {
  const topology::Server server = topology::CommodityTwoSocket();
  sim::Simulation sim;
  fabric::Fabric fabric(sim, server.topo);
  const topology::LinkId link = server.topo.LinksOfKind(LinkKind::kPcieSwitchUp)[0];

  FaultSchedule schedule;
  schedule.Degrade(LinkKind::kPcieSwitchUp, 0, 0.3, TimeNs::Millis(45), TimeNs::Millis(50))
      .Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(30), TimeNs::Millis(45))
      .DisableDdio(TimeNs::Millis(20), TimeNs::Millis(30))
      .DisableDdio(TimeNs::Millis(10), TimeNs::Millis(20));
  std::string error;
  std::vector<ResolvedFault> resolved = schedule.Resolve(server.topo, &error);
  ASSERT_EQ(resolved.size(), 4u) << error;
  FaultInjector injector(fabric, std::move(resolved), TimeNs::Millis(60));
  injector.Arm();

  sim.RunUntil(TimeNs::Millis(25));
  EXPECT_FALSE(fabric.config().ddio_enabled);
  sim.RunUntil(TimeNs::Millis(42));
  ASSERT_TRUE(fabric.GetLinkFault(link).has_value());
  EXPECT_EQ(fabric.GetLinkFault(link)->capacity_factor, 0.0);
  EXPECT_TRUE(fabric.config().ddio_enabled);
  sim.RunUntil(TimeNs::Millis(47));
  ASSERT_TRUE(fabric.GetLinkFault(link).has_value());
  EXPECT_EQ(fabric.GetLinkFault(link)->capacity_factor, 0.3);
  sim.RunUntil(TimeNs::Millis(55));
  EXPECT_TRUE(FaultedLinks(fabric, server.topo).empty());
}

TEST(FaultInjectorTest, GroundTruthWindowsAndHardness) {
  const topology::Server server = topology::CommodityTwoSocket();
  sim::Simulation sim;
  fabric::Fabric fabric(sim, server.topo);

  FaultSchedule schedule;
  schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(10), TimeNs::Millis(20));
  schedule.Degrade(LinkKind::kInterSocket, 0, 0.5, TimeNs::Millis(30));  // Never cleared.
  schedule.Flap(LinkKind::kPcieSwitchUp, 1, TimeNs::Micros(500), 0.5, TimeNs::Millis(5),
                TimeNs::Millis(15));
  std::string error;
  FaultInjector injector(fabric, schedule.Resolve(server.topo, &error),
                         TimeNs::Millis(100));

  const auto& truth = injector.ground_truth();
  ASSERT_EQ(truth.size(), 3u);
  EXPECT_EQ(truth[0].start, TimeNs::Millis(10));
  EXPECT_EQ(truth[0].end, TimeNs::Millis(20));
  EXPECT_TRUE(truth[0].hard);
  // Uncleared faults extend to the end of the run.
  EXPECT_EQ(truth[1].end, TimeNs::Millis(100));
  EXPECT_FALSE(truth[1].hard);
  EXPECT_TRUE(truth[2].hard);
}

TEST(FaultInjectorTest, KillInjectsAndClearsOnSchedule) {
  const topology::Server server = topology::CommodityTwoSocket();
  sim::Simulation sim;
  fabric::Fabric fabric(sim, server.topo);
  const topology::LinkId link = server.topo.LinksOfKind(LinkKind::kPcieSwitchUp)[0];

  FaultSchedule schedule;
  schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(10), TimeNs::Millis(20));
  std::string error;
  FaultInjector injector(fabric, schedule.Resolve(server.topo, &error),
                         TimeNs::Millis(50));
  injector.Arm();

  sim.RunFor(TimeNs::Millis(5));
  EXPECT_TRUE(FaultedLinks(fabric, server.topo).empty());
  sim.RunFor(TimeNs::Millis(10));  // t = 15ms: fault active.
  ASSERT_EQ(FaultedLinks(fabric, server.topo), std::vector<topology::LinkId>{link});
  EXPECT_EQ(fabric.GetLinkFault(link)->capacity_factor, 0.0);
  sim.RunFor(TimeNs::Millis(10));  // t = 25ms: cleared.
  EXPECT_TRUE(FaultedLinks(fabric, server.topo).empty());
  EXPECT_EQ(injector.operations(), 2u);
}

TEST(FaultInjectorTest, FlapTogglesAndEndsClean) {
  const topology::Server server = topology::CommodityTwoSocket();
  sim::Simulation sim;
  fabric::Fabric fabric(sim, server.topo);

  FaultSchedule schedule;
  // 1ms period, half duty, active [10ms, 14ms): 4 kill/revive cycles.
  schedule.Flap(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(1), 0.5, TimeNs::Millis(10),
                TimeNs::Millis(14));
  std::string error;
  FaultInjector injector(fabric, schedule.Resolve(server.topo, &error),
                         TimeNs::Millis(50));
  injector.Arm();

  sim.RunFor(TimeNs::Millis(50));
  // However the cycles land, the link must be healthy after clear_at.
  EXPECT_TRUE(FaultedLinks(fabric, server.topo).empty());
  EXPECT_GE(injector.operations(), 8u);  // 4 kills + >= 4 clears.
}

// The injector's events capture it: destroying it must cancel every one
// still pending, or they would run on freed memory.
TEST(FaultInjectorTest, DestroyedInjectorCancelsItsPendingEvents) {
  const topology::Server server = topology::CommodityTwoSocket();
  sim::Simulation sim;
  fabric::Fabric fabric(sim, server.topo);
  const topology::LinkId flapped = server.topo.LinksOfKind(LinkKind::kPcieSwitchUp)[1];

  FaultSchedule schedule;
  schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(10), TimeNs::Millis(20))
      .Flap(LinkKind::kPcieSwitchUp, 1, TimeNs::Millis(1), 0.5, TimeNs::Millis(2),
            TimeNs::Millis(30))
      .DisableDdio(TimeNs::Millis(15), TimeNs::Millis(25));
  std::string error;
  {
    FaultInjector injector(fabric, schedule.Resolve(server.topo, &error),
                           TimeNs::Millis(50));
    injector.Arm();
    sim.RunFor(TimeNs::Millis(5));  // Mid-flap: a revive and a cycle pending.
    ASSERT_EQ(FaultedLinks(fabric, server.topo), std::vector<topology::LinkId>{flapped});
  }
  // The pending inject, clear, flap and DDIO events left with the injector.
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.RunFor(TimeNs::Millis(60));
  // Nothing touched the fabric after the injector died: the flapped link
  // is still down, the kill never landed and DDIO stayed on.
  EXPECT_EQ(FaultedLinks(fabric, server.topo), std::vector<topology::LinkId>{flapped});
  EXPECT_TRUE(fabric.config().ddio_enabled);
}

TEST(FaultInjectorTest, DdioOffTogglesFabricConfig) {
  const topology::Server server = topology::CommodityTwoSocket();
  sim::Simulation sim;
  fabric::Fabric fabric(sim, server.topo);
  ASSERT_TRUE(fabric.config().ddio_enabled);

  FaultSchedule schedule;
  schedule.DisableDdio(TimeNs::Millis(10), TimeNs::Millis(20));
  std::string error;
  FaultInjector injector(fabric, schedule.Resolve(server.topo, &error),
                         TimeNs::Millis(50));
  injector.Arm();

  sim.RunFor(TimeNs::Millis(15));
  EXPECT_FALSE(fabric.config().ddio_enabled);
  sim.RunFor(TimeNs::Millis(10));
  EXPECT_TRUE(fabric.config().ddio_enabled);
}

}  // namespace
}  // namespace mihn::chaos
