#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/host/host_network.h"
#include "src/manager/manager.h"

namespace mihn::manager {
namespace {

using sim::Bandwidth;

HostNetwork::Options Quiet() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

TEST(MigrationTest, MovesAllocationToNewEndpoints) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  const auto& server = host.server();
  const auto tenant = manager.RegisterTenant("alice");
  PerformanceTarget target;
  target.src = server.ssds[0];
  target.dst = server.dimms[0];
  target.bandwidth = Bandwidth::GBps(10);
  const auto alloc = manager.SubmitIntent(tenant, target);
  ASSERT_TRUE(alloc.ok());
  const topology::Path old_path = manager.GetAllocation(alloc.id)->path;

  const auto moved = manager.MigrateAllocation(alloc.id, server.ssds[2], server.dimms[4]);
  ASSERT_TRUE(moved.ok()) << moved.error;
  EXPECT_EQ(moved.id, alloc.id);  // Identity is stable.
  const Allocation* after = manager.GetAllocation(alloc.id);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->target.src, server.ssds[2]);
  EXPECT_EQ(after->target.dst, server.dimms[4]);
  EXPECT_DOUBLE_EQ(after->target.bandwidth.ToGBps(), 10.0);
  // Old path released, new path reserved.
  EXPECT_DOUBLE_EQ(manager.ReservedOn(old_path.hops[0]).ToGBps(), 0.0);
  EXPECT_DOUBLE_EQ(manager.ReservedOn(after->path.hops[0]).ToGBps(), 10.0);
}

TEST(MigrationTest, SelfCreditAllowsMigrationWithinFullLink) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  const auto& server = host.server();
  const auto tenant = manager.RegisterTenant("alice");
  PerformanceTarget target;
  target.src = server.ssds[0];
  target.dst = server.dimms[0];
  target.bandwidth = Bandwidth::GBps(25);  // Nearly the whole PCIe path.
  const auto alloc = manager.SubmitIntent(tenant, target);
  ASSERT_TRUE(alloc.ok());
  // Migrating to a different DIMM re-uses the saturated first hops; without
  // self-credit the check would double-count and fail.
  const auto moved = manager.MigrateAllocation(alloc.id, server.ssds[0], server.dimms[1]);
  EXPECT_TRUE(moved.ok()) << moved.error;
}

TEST(MigrationTest, FailureLeavesAllocationIntact) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  const auto& server = host.server();
  const auto tenant = manager.RegisterTenant("alice");
  PerformanceTarget target;
  target.src = server.ssds[0];
  target.dst = server.dimms[0];
  target.bandwidth = Bandwidth::GBps(10);
  const auto alloc = manager.SubmitIntent(tenant, target);
  ASSERT_TRUE(alloc.ok());
  const Allocation before = *manager.GetAllocation(alloc.id);

  // Unreachable destination: migrate to the same component (no path).
  const auto moved = manager.MigrateAllocation(alloc.id, server.ssds[0], server.ssds[0]);
  EXPECT_FALSE(moved.ok());
  const Allocation* after = manager.GetAllocation(alloc.id);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->target.dst, before.target.dst);
  EXPECT_DOUBLE_EQ(manager.ReservedOn(before.path.hops[0]).ToGBps(), 10.0);
}

TEST(MigrationTest, RepairLeavesADeadHopAndAClearedFaultRestoresThePath) {
  // The scheduler places with the fabric's router, so a dead link is never
  // a candidate while the fault lasts and is one again once it clears.
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  const auto& server = host.server();
  const auto tenant = manager.RegisterTenant("alice");
  PerformanceTarget target;
  target.src = server.ssds[0];
  target.dst = server.dimms.back();  // Across sockets: two parallel links.
  target.bandwidth = Bandwidth::GBps(2);
  const auto alloc = manager.SubmitIntent(tenant, target);
  ASSERT_TRUE(alloc.ok()) << alloc.error;
  const topology::Path original = manager.GetAllocation(alloc.id)->path;
  const auto hop = std::find_if(
      original.hops.begin(), original.hops.end(), [&](const topology::DirectedLink& h) {
        return host.topo().link(h.link).spec.kind == topology::LinkKind::kInterSocket;
      });
  ASSERT_NE(hop, original.hops.end());

  host.fabric().InjectLinkFault(hop->link, fabric::LinkFault{0.0, sim::TimeNs::Zero()});
  EXPECT_EQ(manager.RepairFaultedAllocations(), std::vector<AllocationId>{alloc.id});
  const topology::Path& repaired = manager.GetAllocation(alloc.id)->path;
  EXPECT_FALSE(repaired.Uses(hop->link));
  EXPECT_EQ(repaired.nodes.front(), target.src);
  EXPECT_EQ(repaired.destination(), target.dst);
  EXPECT_DOUBLE_EQ(manager.ReservedOn(*hop).ToGBps(), 0.0);
  // Nothing left on a dead hop: a second pass repairs nothing.
  EXPECT_TRUE(manager.RepairFaultedAllocations().empty());

  host.fabric().ClearLinkFault(hop->link);
  const auto fresh = manager.SubmitIntent(tenant, target);
  ASSERT_TRUE(fresh.ok()) << fresh.error;
  EXPECT_EQ(manager.GetAllocation(fresh.id)->path, original);
}

TEST(MigrationTest, UnknownAllocationRejected) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  const auto moved = manager.MigrateAllocation(42, 0, 1);
  EXPECT_FALSE(moved.ok());
  EXPECT_NE(moved.error.find("unknown"), std::string::npos);
}

TEST(MigrationTest, AttachedFlowsAreDetachedAndUnlimited) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  ManagerConfig config;
  config.mode = ManagerConfig::Mode::kStatic;
  Manager manager(host.fabric(), config);
  const auto& server = host.server();
  const auto tenant = manager.RegisterTenant("alice");
  PerformanceTarget target;
  target.src = server.ssds[0];
  target.dst = server.dimms[0];
  target.bandwidth = Bandwidth::GBps(5);
  const auto alloc = manager.SubmitIntent(tenant, target);
  fabric::FlowSpec spec;
  spec.path = manager.GetAllocation(alloc.id)->path;
  const fabric::FlowId flow = host.fabric().StartFlow(spec);
  manager.AttachFlow(alloc.id, flow);
  manager.ArbitrateOnce();
  EXPECT_NEAR(host.fabric().FlowRate(flow).ToGBps(), 5.0, 0.1);

  const auto moved = manager.MigrateAllocation(alloc.id, server.ssds[1], server.dimms[1]);
  ASSERT_TRUE(moved.ok());
  EXPECT_TRUE(manager.GetAllocation(alloc.id)->flows.empty());
  // The old flow is released from its cap.
  EXPECT_GT(host.fabric().FlowRate(flow).ToGBps(), 20.0);
}

TEST(MigrationTest, VirtualViewFollowsTheMove) {
  // The tenant's virtual link persists across migration — same capacity,
  // new endpoints — without the tenant reconfiguring anything (§3.2).
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Manager manager(host.fabric());
  const auto& server = host.server();
  const auto tenant = manager.RegisterTenant("alice");
  PerformanceTarget target;
  target.src = server.ssds[0];
  target.dst = server.dimms[0];
  target.bandwidth = Bandwidth::GBps(10);
  const auto alloc = manager.SubmitIntent(tenant, target);
  ASSERT_TRUE(manager.MigrateAllocation(alloc.id, server.ssds[3], server.dimms[7]).ok());
  const VirtualView view = manager.TenantView(tenant);
  ASSERT_EQ(view.links.size(), 1u);
  EXPECT_EQ(view.links[0].src, server.ssds[3]);
  EXPECT_EQ(view.links[0].dst, server.dimms[7]);
  EXPECT_DOUBLE_EQ(view.links[0].capacity.ToGBps(), 10.0);
}

}  // namespace
}  // namespace mihn::manager
