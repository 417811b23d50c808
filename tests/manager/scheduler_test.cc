#include "src/manager/scheduler.h"

#include <gtest/gtest.h>

#include "src/host/host_network.h"

namespace mihn::manager {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

HostNetwork::Options Quiet() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  options.preset = HostNetwork::Preset::kDgxClass;
  return options;
}

TEST(SchedulerTest, PlacesFeasibleTarget) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Scheduler scheduler(host.fabric(), SchedulerConfig{});
  PerformanceTarget target;
  target.src = host.server().gpus[0];
  target.dst = host.server().ssds.back();
  target.bandwidth = Bandwidth::Gbps(20);
  const auto placement = scheduler.Place(target, {});
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->path.nodes.front(), target.src);
  EXPECT_EQ(placement->path.destination(), target.dst);
  EXPECT_GT(placement->max_utilization, 0.0);
}

TEST(SchedulerTest, RejectsOverCapacityTarget) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Scheduler scheduler(host.fabric(), SchedulerConfig{});
  PerformanceTarget target;
  target.src = host.server().gpus[0];
  target.dst = host.server().ssds[0];
  target.bandwidth = Bandwidth::GBps(1000);  // No PCIe path can carry this.
  EXPECT_FALSE(scheduler.Place(target, {}).has_value());
}

TEST(SchedulerTest, RespectsLatencyBound) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Scheduler scheduler(host.fabric(), SchedulerConfig{});
  PerformanceTarget target;
  target.src = host.server().gpus[0];
  target.dst = host.server().ssds[0];
  target.bandwidth = Bandwidth::Gbps(1);
  target.max_latency = TimeNs::Nanos(1);  // Impossible.
  EXPECT_FALSE(scheduler.Place(target, {}).has_value());
  target.max_latency = TimeNs::Micros(10);  // Generous.
  EXPECT_TRUE(scheduler.Place(target, {}).has_value());
}

TEST(SchedulerTest, AvoidsReservedLinks) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Scheduler scheduler(host.fabric(), SchedulerConfig{});
  PerformanceTarget target;
  // Cross-socket: parallel inter-socket links offer alternatives.
  target.src = host.server().gpus[0];
  target.dst = host.server().ssds.back();
  target.bandwidth = Bandwidth::GBps(10);

  const auto first = scheduler.Place(target, {});
  ASSERT_TRUE(first.has_value());

  // Heavily reserve the first placement's inter-socket hop; a re-placement
  // should route around it.
  std::map<int32_t, double> reserved;
  for (const topology::DirectedLink& hop : first->path.hops) {
    if (host.topo().link(hop.link).spec.kind == topology::LinkKind::kInterSocket) {
      reserved[topology::DirectedIndex(hop)] = 40e9;  // Of 46 GB/s.
    }
  }
  const auto second = scheduler.Place(target, reserved);
  ASSERT_TRUE(second.has_value());
  bool avoided = true;
  for (const auto& [index, bw] : reserved) {
    for (const topology::DirectedLink& hop : second->path.hops) {
      if (topology::DirectedIndex(hop) == index) {
        avoided = false;
      }
    }
  }
  EXPECT_TRUE(avoided);
  EXPECT_LT(second->max_utilization, 0.5);
}

TEST(SchedulerTest, NaiveModeIgnoresAlternatives) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  SchedulerConfig config;
  config.topology_aware = false;
  Scheduler naive(host.fabric(), config);
  PerformanceTarget target;
  target.src = host.server().gpus[0];
  target.dst = host.server().ssds.back();
  target.bandwidth = Bandwidth::GBps(10);
  const auto first = naive.Place(target, {});
  ASSERT_TRUE(first.has_value());
  // Reserve its path heavily; naive mode has no alternative and fails.
  std::map<int32_t, double> reserved;
  for (const topology::DirectedLink& hop : first->path.hops) {
    reserved[topology::DirectedIndex(hop)] = 1e30;
  }
  EXPECT_FALSE(naive.Place(target, reserved).has_value());
}

TEST(SchedulerTest, HeadroomFractionEnforced) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  Scheduler scheduler(host.fabric(), SchedulerConfig{});
  PerformanceTarget target;
  target.src = host.server().ssds[0];
  target.dst = host.server().sockets[0];
  // PCIe effective cap ~29.05 GB/s; 0.95 headroom -> ~27.6 max, so 28 GB/s
  // fits the link but not its headroom.
  target.bandwidth = Bandwidth::GBps(28);
  EXPECT_FALSE(scheduler.Place(target, {}).has_value());
  target.bandwidth = Bandwidth::GBps(27);
  EXPECT_TRUE(scheduler.Place(target, {}).has_value());
}

}  // namespace
}  // namespace mihn::manager
