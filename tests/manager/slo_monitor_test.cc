#include "src/manager/slo_monitor.h"

#include <gtest/gtest.h>

#include "src/host/host_network.h"
#include "src/workload/sources.h"

namespace mihn::manager {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

struct Fixture {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<HostNetwork> host;
  Manager* manager = nullptr;
  AllocationId alloc = kInvalidAllocation;
  fabric::TenantId tenant = fabric::kNoTenant;
  std::unique_ptr<workload::StreamSource> stream;

  explicit Fixture(double promise_gbps, ManagerConfig::Mode mode,
                   std::optional<TimeNs> max_latency = std::nullopt) {
    HostNetwork::Options options;
    options.autostart = HostNetwork::Autostart::kNone;
    options.manager.mode = mode;
    sim = std::make_unique<sim::Simulation>();
    host = std::make_unique<HostNetwork>(*sim, options);
    manager = &host->manager();
    tenant = manager->RegisterTenant("t");
    PerformanceTarget target;
    target.src = host->server().ssds[0];
    target.dst = host->server().dimms[0];
    target.bandwidth = Bandwidth::GBps(promise_gbps);
    target.max_latency = max_latency;
    alloc = manager->SubmitIntent(tenant, target).id;

    workload::StreamSource::Config config;
    config.src = target.src;
    config.dst = target.dst;
    config.tenant = tenant;
    stream = std::make_unique<workload::StreamSource>(host->fabric(), config);
    stream->Start();
    manager->AttachFlow(alloc, stream->flow());
  }
};

TEST(SloMonitorTest, CompliantAllocationHasNoViolations) {
  Fixture f(10, ManagerConfig::Mode::kStatic);
  f.manager->ArbitrateOnce();
  SloMonitor monitor(*f.manager, f.host->fabric());
  monitor.Start();
  f.host->RunFor(TimeNs::Millis(10));
  EXPECT_EQ(monitor.checks_performed(), 10u);
  EXPECT_TRUE(monitor.violations().empty());
  EXPECT_DOUBLE_EQ(monitor.Compliance(f.alloc), 1.0);
}

TEST(SloMonitorTest, FlagsBandwidthViolationUnderUnmanagedContention) {
  // Mode kOff: the promise exists but nothing enforces it; a rogue flow
  // steals half the link and the monitor catches the shortfall.
  Fixture f(20, ManagerConfig::Mode::kOff);
  fabric::FlowSpec rogue;
  rogue.path = *f.host->fabric().Route(f.host->server().ssds[0], f.host->server().dimms[0]);
  f.host->fabric().StartFlow(rogue);

  SloMonitor monitor(*f.manager, f.host->fabric());
  monitor.CheckOnce();
  ASSERT_FALSE(monitor.violations().empty());
  const auto& v = monitor.violations().front();
  EXPECT_EQ(v.kind, SloMonitor::Violation::Kind::kBandwidth);
  EXPECT_EQ(v.allocation, f.alloc);
  EXPECT_EQ(v.tenant, f.tenant);
  EXPECT_NEAR(v.expected, 20e9, 1e8);
  EXPECT_LT(v.actual, 16e9);
  EXPECT_LT(monitor.Compliance(f.alloc), 1.0);
}

TEST(SloMonitorTest, IdleTenantNeverFlagged) {
  Fixture f(20, ManagerConfig::Mode::kOff);
  // The tenant offers only 1 GB/s: no entitlement to 20, no violation.
  f.host->fabric().SetFlowDemand(f.stream->flow(), Bandwidth::GBps(1));
  SloMonitor monitor(*f.manager, f.host->fabric());
  monitor.CheckOnce();
  EXPECT_TRUE(monitor.violations().empty());
}

TEST(SloMonitorTest, FlagsLatencyViolation) {
  Fixture f(5, ManagerConfig::Mode::kOff, TimeNs::Micros(1));
  // Modest load: an elastic flow would saturate its own path and inflate
  // its latency past the bound by itself (a genuine effect, not the one
  // under test here).
  f.host->fabric().SetFlowDemand(f.stream->flow(), Bandwidth::GBps(2));
  SloMonitor monitor(*f.manager, f.host->fabric());
  monitor.CheckOnce();
  EXPECT_TRUE(monitor.violations().empty());
  // A fault blows the bound.
  const auto* alloc = f.manager->GetAllocation(f.alloc);
  f.host->fabric().InjectLinkFault(alloc->path.hops[0].link,
                                   fabric::LinkFault{1.0, TimeNs::Micros(5)});
  monitor.CheckOnce();
  ASSERT_FALSE(monitor.violations().empty());
  EXPECT_EQ(monitor.violations().front().kind, SloMonitor::Violation::Kind::kLatency);
}

TEST(SloMonitorTest, UnattachedAllocationSkipped) {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  sim::Simulation sim;
  HostNetwork host(sim, options);
  auto& manager = host.manager();
  const auto tenant = manager.RegisterTenant("t");
  PerformanceTarget target;
  target.src = host.server().ssds[0];
  target.dst = host.server().dimms[0];
  target.bandwidth = Bandwidth::GBps(10);
  manager.SubmitIntent(tenant, target);
  SloMonitor monitor(manager, host.fabric());
  monitor.CheckOnce();
  EXPECT_TRUE(monitor.violations().empty());
}

TEST(SloMonitorTest, DestroyedMonitorCancelsItsTimer) {
  Fixture f(10, ManagerConfig::Mode::kStatic);
  sim::Simulation& sim = *f.sim;
  const size_t before = sim.pending_events();
  {
    SloMonitor monitor(*f.manager, f.host->fabric());
    monitor.Start();
    f.host->RunFor(TimeNs::Millis(3));
    EXPECT_EQ(monitor.checks_performed(), 3u);
    EXPECT_EQ(sim.pending_events(), before + 1);
  }
  // No check tick is left bound to the dead monitor.
  EXPECT_EQ(sim.pending_events(), before);
}

TEST(SloMonitorTest, ComplianceTracksMixedOutcomes) {
  Fixture f(20, ManagerConfig::Mode::kOff);
  SloMonitor monitor(*f.manager, f.host->fabric());
  monitor.CheckOnce();  // Alone: compliant (29 > 20*0.95).
  fabric::FlowSpec rogue;
  rogue.path = *f.host->fabric().Route(f.host->server().ssds[0], f.host->server().dimms[0]);
  const auto rid = f.host->fabric().StartFlow(rogue);
  monitor.CheckOnce();  // Contended: violation.
  f.host->fabric().StopFlow(rid);
  monitor.CheckOnce();  // Recovered.
  EXPECT_NEAR(monitor.Compliance(f.alloc), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(monitor.violations().size(), 1u);
}

TEST(SloMonitorTest, ViolationLogIsBounded) {
  // A permanently-starved allocation violates on every check; over a long
  // chaos campaign the log must stay capped, with evictions accounted.
  Fixture f(20, ManagerConfig::Mode::kOff);
  fabric::FlowSpec rogue;
  rogue.path = *f.host->fabric().Route(f.host->server().ssds[0], f.host->server().dimms[0]);
  f.host->fabric().StartFlow(rogue);

  SloMonitor::Config config;
  config.period = TimeNs::Millis(1);
  config.max_violations = 16;
  SloMonitor monitor(*f.manager, f.host->fabric(), config);
  monitor.Start();
  f.host->RunFor(TimeNs::Millis(100));

  EXPECT_EQ(monitor.violations().size(), 16u);
  EXPECT_EQ(monitor.violations_dropped(), monitor.checks_performed() - 16u);
  EXPECT_EQ(monitor.violations_total(),
            monitor.violations_dropped() + monitor.violations().size());
  // The retained window is the newest violations, in order.
  EXPECT_GT(monitor.violations().back().at, monitor.violations().front().at);
}

TEST(SloMonitorTest, NothingDroppedUnderTheBound) {
  Fixture f(10, ManagerConfig::Mode::kStatic);
  f.manager->ArbitrateOnce();
  SloMonitor monitor(*f.manager, f.host->fabric());
  monitor.Start();
  f.host->RunFor(TimeNs::Millis(10));
  EXPECT_EQ(monitor.violations_dropped(), 0u);
  EXPECT_EQ(monitor.violations_total(), 0u);
}

}  // namespace
}  // namespace mihn::manager
