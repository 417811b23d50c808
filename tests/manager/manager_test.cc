#include "src/manager/manager.h"

#include <gtest/gtest.h>

#include "src/host/host_network.h"
#include "src/workload/sources.h"

namespace mihn::manager {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

HostNetwork::Options Quiet() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

PerformanceTarget SsdTarget(const topology::Server& server, double gbps) {
  PerformanceTarget target;
  target.src = server.ssds[0];
  target.dst = server.dimms[0];
  target.bandwidth = Bandwidth::GBps(gbps);
  return target;
}

TEST(ManagerTest, RegisterAndLookupTenant) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  const fabric::TenantId id = manager.RegisterTenant("alice", 2.0, ResourceModel::kHose);
  const Tenant* tenant = manager.GetTenant(id);
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->name, "alice");
  EXPECT_DOUBLE_EQ(tenant->weight, 2.0);
  EXPECT_EQ(tenant->model, ResourceModel::kHose);
  EXPECT_EQ(manager.GetTenant(999), nullptr);
}

TEST(ManagerTest, SubmitIntentAdmitsAndReserves) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  const fabric::TenantId tenant = manager.RegisterTenant("alice");
  const auto result = manager.SubmitIntent(tenant, SsdTarget(host.server(), 10));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(manager.admitted(), 1u);
  const Allocation* alloc = manager.GetAllocation(result.id);
  ASSERT_NE(alloc, nullptr);
  EXPECT_EQ(alloc->tenant, tenant);
  for (const topology::DirectedLink& hop : alloc->path.hops) {
    EXPECT_DOUBLE_EQ(manager.ReservedOn(hop).ToGBps(), 10.0);
  }
}

TEST(ManagerTest, RejectsUnknownTenantAndBadTargets) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  EXPECT_FALSE(manager.SubmitIntent(42, SsdTarget(host.server(), 10)).ok());
  const fabric::TenantId tenant = manager.RegisterTenant("alice");
  EXPECT_FALSE(manager.SubmitIntent(tenant, SsdTarget(host.server(), 0)).ok());
  EXPECT_EQ(manager.rejected(), 2u);
}

TEST(ManagerTest, AdmissionControlRejectsOversubscription) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  const fabric::TenantId tenant = manager.RegisterTenant("alice");
  // PCIe effective ~29 GB/s: two 14 GB/s fit, a third cannot.
  EXPECT_TRUE(manager.SubmitIntent(tenant, SsdTarget(host.server(), 14)).ok());
  EXPECT_TRUE(manager.SubmitIntent(tenant, SsdTarget(host.server(), 13)).ok());
  const auto third = manager.SubmitIntent(tenant, SsdTarget(host.server(), 14));
  EXPECT_FALSE(third.ok());
  EXPECT_NE(third.error.find("no feasible path"), std::string::npos);
}

TEST(ManagerTest, ReleaseFreesCapacity) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  const fabric::TenantId tenant = manager.RegisterTenant("alice");
  const auto first = manager.SubmitIntent(tenant, SsdTarget(host.server(), 20));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(manager.SubmitIntent(tenant, SsdTarget(host.server(), 20)).ok());
  manager.ReleaseAllocation(first.id);
  EXPECT_TRUE(manager.SubmitIntent(tenant, SsdTarget(host.server(), 20)).ok());
  EXPECT_EQ(manager.GetAllocation(first.id), nullptr);
}

TEST(ManagerTest, HoseTenantSharesReservation) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  const fabric::TenantId hose = manager.RegisterTenant("hose", 1.0, ResourceModel::kHose);
  // Two targets from the same SSD over the same first hop: hose model
  // reserves max, not sum, so both 14 GB/s targets fit where pipe would not.
  PerformanceTarget t1 = SsdTarget(host.server(), 14);
  PerformanceTarget t2 = SsdTarget(host.server(), 14);
  t2.dst = host.server().dimms[1];
  ASSERT_TRUE(manager.SubmitIntent(hose, t1).ok());
  ASSERT_TRUE(manager.SubmitIntent(hose, t2).ok());
  // The shared first hop carries max(14,14)=14, not 28.
  const auto path = *host.fabric().Route(host.server().ssds[0], host.server().dimms[0]);
  EXPECT_DOUBLE_EQ(manager.ReservedOn(path.hops[0]).ToGBps(), 14.0);
}

TEST(ManagerTest, StaticModeEnforcesReservation) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  ManagerConfig config;
  config.mode = ManagerConfig::Mode::kStatic;
  Manager manager(host.fabric(), config);
  const fabric::TenantId tenant = manager.RegisterTenant("alice");
  const auto alloc = manager.SubmitIntent(tenant, SsdTarget(host.server(), 5));
  ASSERT_TRUE(alloc.ok());

  fabric::FlowSpec spec;
  spec.path = manager.GetAllocation(alloc.id)->path;
  spec.tenant = tenant;
  const fabric::FlowId flow = host.fabric().StartFlow(spec);
  manager.AttachFlow(alloc.id, flow);
  // Before arbitration the elastic flow grabs the whole PCIe link.
  EXPECT_GT(host.fabric().FlowRate(flow).ToGBps(), 20.0);
  manager.ArbitrateOnce();
  // Static mode caps it at the reservation even though the link is idle.
  EXPECT_NEAR(host.fabric().FlowRate(flow).ToGBps(), 5.0, 0.1);
}

TEST(ManagerTest, WorkConservingGrantsIdleHeadroom) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  ManagerConfig config;
  config.mode = ManagerConfig::Mode::kWorkConserving;
  Manager manager(host.fabric(), config);
  const fabric::TenantId tenant = manager.RegisterTenant("alice");
  const auto alloc = manager.SubmitIntent(tenant, SsdTarget(host.server(), 5));
  ASSERT_TRUE(alloc.ok());
  fabric::FlowSpec spec;
  spec.path = manager.GetAllocation(alloc.id)->path;
  spec.tenant = tenant;
  const fabric::FlowId flow = host.fabric().StartFlow(spec);
  manager.AttachFlow(alloc.id, flow);
  manager.ArbitrateOnce();
  // Reservation 5 + all the idle slack: far above 5.
  EXPECT_GT(host.fabric().FlowRate(flow).ToGBps(), 20.0);
}

TEST(ManagerTest, ScavengerThrottledToSlack) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  ManagerConfig config;
  config.mode = ManagerConfig::Mode::kStatic;
  Manager manager(host.fabric(), config);
  const fabric::TenantId victim = manager.RegisterTenant("victim");
  const auto alloc = manager.SubmitIntent(victim, SsdTarget(host.server(), 20));
  ASSERT_TRUE(alloc.ok());
  fabric::FlowSpec vspec;
  vspec.path = manager.GetAllocation(alloc.id)->path;
  vspec.tenant = victim;
  const fabric::FlowId vflow = host.fabric().StartFlow(vspec);
  manager.AttachFlow(alloc.id, vflow);

  // Malicious tenant floods the same path without any allocation.
  fabric::FlowSpec mspec;
  mspec.path = vspec.path;
  mspec.tenant = 99;
  const fabric::FlowId mflow = host.fabric().StartFlow(mspec);

  // Unmanaged: they split the link; the victim's 20 GB/s promise is broken.
  EXPECT_LT(host.fabric().FlowRate(vflow).ToGBps(), 16.0);

  manager.ArbitrateOnce();
  EXPECT_NEAR(host.fabric().FlowRate(vflow).ToGBps(), 20.0, 0.5);
  // The scavenger only gets what is left after the reservation.
  EXPECT_LT(host.fabric().FlowRate(mflow).ToGBps(), 9.0);
}

TEST(ManagerTest, PeriodicArbitrationRuns) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  ManagerConfig config;
  config.mode = ManagerConfig::Mode::kWorkConserving;
  config.arbiter_quantum = TimeNs::Micros(100);
  Manager manager(host.fabric(), config);
  manager.Start();
  manager.Start();  // Idempotent: still one arbiter.
  host.RunFor(TimeNs::Millis(1));
  EXPECT_EQ(manager.arbitrations(), 10u);
  host.RunFor(TimeNs::Millis(1));
  EXPECT_EQ(manager.arbitrations(), 20u);
}

TEST(ManagerTest, DestroyedManagerCancelsItsTimer) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const size_t before = sim.pending_events();
  {
    Manager manager(host.fabric());
    manager.Start();
    EXPECT_EQ(sim.pending_events(), before + 1);
  }
  // No arbiter tick is left bound to the dead manager.
  EXPECT_EQ(sim.pending_events(), before);
}

TEST(ManagerTest, OffModeDoesNothing) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  ManagerConfig config;
  config.mode = ManagerConfig::Mode::kOff;
  Manager manager(host.fabric(), config);
  manager.Start();  // No-op.
  const fabric::TenantId tenant = manager.RegisterTenant("alice");
  const auto alloc = manager.SubmitIntent(tenant, SsdTarget(host.server(), 5));
  fabric::FlowSpec spec;
  spec.path = manager.GetAllocation(alloc.id)->path;
  const fabric::FlowId flow = host.fabric().StartFlow(spec);
  manager.AttachFlow(alloc.id, flow);
  manager.ArbitrateOnce();
  EXPECT_GT(host.fabric().FlowRate(flow).ToGBps(), 20.0);  // Unrestricted.
}

TEST(ManagerTest, TenantViewShowsVirtualLinks) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  const fabric::TenantId tenant = manager.RegisterTenant("alice");
  const auto alloc = manager.SubmitIntent(tenant, SsdTarget(host.server(), 10));
  ASSERT_TRUE(alloc.ok());
  fabric::FlowSpec spec;
  spec.path = manager.GetAllocation(alloc.id)->path;
  spec.tenant = tenant;
  spec.demand = Bandwidth::GBps(4);
  const fabric::FlowId flow = host.fabric().StartFlow(spec);
  manager.AttachFlow(alloc.id, flow);

  const VirtualView view = manager.TenantView(tenant);
  ASSERT_EQ(view.links.size(), 1u);
  // The illusion: capacity equals exactly the allocation, regardless of the
  // physical link sizes underneath.
  EXPECT_DOUBLE_EQ(view.links[0].capacity.ToGBps(), 10.0);
  EXPECT_NEAR(view.links[0].used.ToGBps(), 4.0, 0.01);
  EXPECT_NEAR(view.links[0].utilization, 0.4, 0.001);
  EXPECT_GT(view.links[0].base_latency.nanos(), 0);
  EXPECT_DOUBLE_EQ(view.total_allocated.ToGBps(), 10.0);
  // Other tenants see nothing of alice's world.
  EXPECT_TRUE(manager.TenantView(tenant + 1).links.empty());
}

TEST(ManagerTest, AttachedFlowPrunedAfterCompletion) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  const fabric::TenantId tenant = manager.RegisterTenant("alice");
  const auto alloc = manager.SubmitIntent(tenant, SsdTarget(host.server(), 5));
  fabric::TransferSpec t;
  t.flow.path = manager.GetAllocation(alloc.id)->path;
  t.bytes = 1000;
  const fabric::FlowId flow = host.fabric().StartTransfer(std::move(t));
  manager.AttachFlow(alloc.id, flow);
  host.RunFor(TimeNs::Millis(1));  // Transfer completes and flow vanishes.
  manager.ArbitrateOnce();         // Must prune without crashing.
  EXPECT_TRUE(manager.GetAllocation(alloc.id)->flows.empty());
}

}  // namespace
}  // namespace mihn::manager
