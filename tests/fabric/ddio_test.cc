// Tests of the DDIO/LLC cache coupling inside the fabric: spill flows,
// thrash-induced memory-bus traffic, and the miss-drain throttle.

#include <gtest/gtest.h>

#include "src/fabric/fabric.h"

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

// nic --(pcie 32 GB/s)-- rp --(intra 100 GB/s)-- socket --(mem bus,
// configurable)-- mc --(internal 400 GB/s)-- dimm.
struct Host {
  Topology topo;
  ComponentId nic, rp, socket, mc, dimm;
  LinkId pcie, socket_rp, mem_bus, mc_dimm;
};

Host MakeHost(double mem_bus_gbps = 100.0) {
  Host h;
  h.socket = h.topo.AddComponent(ComponentKind::kCpuSocket, "s0");
  h.mc = h.topo.AddComponent(ComponentKind::kMemoryController, "s0.mc0", h.socket);
  h.dimm = h.topo.AddComponent(ComponentKind::kDimm, "s0.mc0.dimm0", h.socket);
  h.rp = h.topo.AddComponent(ComponentKind::kPcieRootPort, "s0.rp0", h.socket);
  h.nic = h.topo.AddComponent(ComponentKind::kNic, "nic0", h.socket);
  // Non-PCIe kinds so capacities are exact in tests.
  h.mem_bus = h.topo.AddLink(h.socket, h.mc,
                             LinkSpec{LinkKind::kIntraSocket, Bandwidth::GBps(mem_bus_gbps),
                                      TimeNs::Nanos(50)});
  h.mc_dimm = h.topo.AddLink(
      h.mc, h.dimm,
      LinkSpec{LinkKind::kDeviceInternal, Bandwidth::GBps(400), TimeNs::Nanos(5)});
  h.socket_rp = h.topo.AddLink(
      h.socket, h.rp, LinkSpec{LinkKind::kIntraSocket, Bandwidth::GBps(100), TimeNs::Nanos(20)});
  h.pcie = h.topo.AddLink(
      h.rp, h.nic, LinkSpec{LinkKind::kInterSocket, Bandwidth::GBps(32), TimeNs::Nanos(75)});
  return h;
}

FabricConfig SmallCacheConfig() {
  FabricConfig config;
  // DDIO capacity 2 ways x 1.5 MiB = 3 MiB; drain 20us -> fit rate
  // = 3 MiB / 20us = 157 GB/s. Make the cache tiny so a 32 GB/s NIC
  // overwhelms it: 0.1 MiB ways -> fit rate ~10.5 GB/s.
  config.way_bytes = 100 * 1024;
  config.ddio_ways = 2;
  return config;
}

FlowSpec DdioWrite(Fabric& fabric, const Host& h,
                   Bandwidth demand = Bandwidth::BytesPerSec(kUnlimitedDemand)) {
  FlowSpec spec;
  spec.path = *fabric.Route(h.nic, h.socket);
  spec.ddio_write = true;
  spec.demand = demand;
  spec.tenant = 1;
  return spec;
}

TEST(DdioTest, FittingWriteStaysInCache) {
  Simulation sim;
  const Host h = MakeHost();
  Fabric fabric(sim, h.topo);  // Default 3 MiB DDIO, fit rate ~157 GB/s.
  const FlowId id = fabric.StartFlow(DdioWrite(fabric, h));
  EXPECT_DOUBLE_EQ(fabric.FlowRate(id).ToGBps(), 32.0);
  const SocketCacheStats stats = fabric.CacheStats(h.socket);
  EXPECT_DOUBLE_EQ(stats.hit_rate, 1.0);
  EXPECT_DOUBLE_EQ(stats.spill_rate_bps, 0.0);
  // No traffic on the memory bus.
  EXPECT_DOUBLE_EQ(fabric.Utilization({h.mem_bus, true}), 0.0);
}

TEST(DdioTest, ThrashingSpillsToMemoryBus) {
  Simulation sim;
  const Host h = MakeHost();
  Fabric fabric(sim, h.topo, SmallCacheConfig());
  const FlowId id = fabric.StartFlow(DdioWrite(fabric, h));
  EXPECT_DOUBLE_EQ(fabric.FlowRate(id).ToGBps(), 32.0);  // Memory not limiting.
  const SocketCacheStats stats = fabric.CacheStats(h.socket);
  EXPECT_LT(stats.hit_rate, 0.5);
  EXPECT_GT(stats.spill_rate_bps, 0.0);
  EXPECT_GT(stats.AmplificationFactor(), 0.5);
  // Spill traffic is visible on the memory bus, attributed to the tenant
  // and the kSpill class.
  const auto snap = fabric.Snapshot({h.mem_bus, true});
  EXPECT_GT(snap.rate_by_class_bps[static_cast<size_t>(TrafficClass::kSpill)], 0.0);
  ASSERT_EQ(snap.rate_by_tenant_bps.size(), 1u);
  EXPECT_EQ(snap.rate_by_tenant_bps[0].first, 1);
  EXPECT_GT(snap.rate_by_tenant_bps[0].second, 0.0);
}

TEST(DdioTest, SpillEqualsMissFractionOfRate) {
  Simulation sim;
  const Host h = MakeHost();
  Fabric fabric(sim, h.topo, SmallCacheConfig());
  fabric.StartFlow(DdioWrite(fabric, h));
  const SocketCacheStats stats = fabric.CacheStats(h.socket);
  EXPECT_NEAR(stats.spill_rate_bps, stats.io_write_rate_bps * (1.0 - stats.hit_rate),
              stats.io_write_rate_bps * 0.01);
}

TEST(DdioTest, DdioDisabledSpillsEverything) {
  Simulation sim;
  const Host h = MakeHost();
  FabricConfig config;
  config.ddio_enabled = false;
  Fabric fabric(sim, h.topo, config);
  const FlowId id = fabric.StartFlow(DdioWrite(fabric, h));
  const SocketCacheStats stats = fabric.CacheStats(h.socket);
  EXPECT_DOUBLE_EQ(stats.hit_rate, 0.0);
  EXPECT_NEAR(stats.spill_rate_bps, fabric.FlowRate(id).bytes_per_sec(), 1e6);
  EXPECT_NEAR(fabric.Snapshot({h.mem_bus, true}).rate_bps,
              fabric.FlowRate(id).bytes_per_sec(), 1e6);
}

TEST(DdioTest, MemoryConstrainedSpillThrottlesParent) {
  Simulation sim;
  const Host h = MakeHost(/*mem_bus_gbps=*/8.0);  // Memory slower than NIC.
  FabricConfig config;
  config.ddio_enabled = false;  // All writes must reach memory.
  Fabric fabric(sim, h.topo, config);
  const FlowId id = fabric.StartFlow(DdioWrite(fabric, h));
  // The NIC cannot push 32 GB/s when the memory bus absorbs only 8.
  EXPECT_NEAR(fabric.FlowRate(id).ToGBps(), 8.0, 0.1);
}

TEST(DdioTest, PartialThrottleWithSmallCache) {
  Simulation sim;
  const Host h = MakeHost(/*mem_bus_gbps=*/8.0);
  Fabric fabric(sim, h.topo, SmallCacheConfig());
  const FlowId id = fabric.StartFlow(DdioWrite(fabric, h));
  const SocketCacheStats stats = fabric.CacheStats(h.socket);
  // Parent rate should exceed the pure-memory bound (cache absorbs hits)
  // but stay below line rate (misses are memory-constrained).
  EXPECT_GT(fabric.FlowRate(id).ToGBps(), 8.0);
  EXPECT_LT(fabric.FlowRate(id).ToGBps(), 32.0);
  EXPECT_LE(stats.spill_rate_bps, 8e9 * 1.001);
}

TEST(DdioTest, NonDdioFlowToSocketBypassesCacheModel) {
  Simulation sim;
  const Host h = MakeHost();
  Fabric fabric(sim, h.topo, SmallCacheConfig());
  FlowSpec spec;
  spec.path = *fabric.Route(h.nic, h.socket);
  spec.ddio_write = false;
  const FlowId id = fabric.StartFlow(spec);
  EXPECT_DOUBLE_EQ(fabric.FlowRate(id).ToGBps(), 32.0);
  EXPECT_DOUBLE_EQ(fabric.Utilization({h.mem_bus, true}), 0.0);
  EXPECT_DOUBLE_EQ(fabric.CacheStats(h.socket).io_write_rate_bps, 0.0);
}

TEST(DdioTest, TwoWritersShareCacheAndThrash) {
  // The paper's scenario: two high-bandwidth devices writing through DDIO
  // thrash each other even though each alone would fit.
  Simulation sim;
  const Host h = MakeHost();
  FabricConfig config;
  // Fit rate = cap/drain: choose cap so one 32 GB/s writer fits but two
  // (64 GB/s aggregate) overflow: fit rate 40 GB/s -> cap = 40e9 * 20e-6.
  config.ddio_ways = 1;
  config.way_bytes = static_cast<int64_t>(40e9 * 20e-6);
  Fabric fabric(sim, h.topo, config);

  const FlowId w1 = fabric.StartFlow(DdioWrite(fabric, h));
  EXPECT_DOUBLE_EQ(fabric.CacheStats(h.socket).hit_rate, 1.0);

  // Second writer arrives on the same PCIe path; both now share 32 GB/s of
  // PCIe... use a second device to avoid PCIe sharing: route from rp.
  FlowSpec second;
  second.path = *fabric.Route(h.rp, h.socket);
  second.ddio_write = true;
  second.tenant = 2;
  fabric.StartFlow(second);

  const SocketCacheStats stats = fabric.CacheStats(h.socket);
  EXPECT_GT(stats.io_write_rate_bps, 40e9);
  EXPECT_LT(stats.hit_rate, 1.0);
  EXPECT_GT(stats.spill_rate_bps, 0.0);
  // w1 still exists and sees degraded cache behaviour (spill attributed).
  EXPECT_GT(fabric.FlowRate(w1).ToGBps(), 0.0);
}

TEST(DdioTest, SpillChildRemovedWithParent) {
  Simulation sim;
  const Host h = MakeHost();
  Fabric fabric(sim, h.topo, SmallCacheConfig());
  const FlowId id = fabric.StartFlow(DdioWrite(fabric, h));
  EXPECT_EQ(fabric.ActiveFlows().size(), 2u);  // Parent + spill child.
  fabric.StopFlow(id);
  EXPECT_TRUE(fabric.ActiveFlows().empty());
  EXPECT_DOUBLE_EQ(fabric.Snapshot({h.mem_bus, true}).rate_bps, 0.0);
}

// With a DDIO write live, a solve adds and resizes spill flows, so RateIf
// re-runs the cache-coupled rounds on its scratch solver. Its answers must
// still be what SetFlowLimit would give, bit for bit, and it must change
// nothing: the lift below would add two spill flows (the socket's writes
// start to miss), yet no flow, solve, mutation or FlowId appears. Asked
// again once the spill flows exist, it must resize them as a solve would.
TEST(DdioTest, RateIfRunsTheSpillRoundsWithoutMutating) {
  const Host h = MakeHost(/*mem_bus_gbps=*/8.0);  // Spill memory is scarce.
  FabricConfig config;
  config.ddio_ways = 1;
  config.way_bytes = static_cast<int64_t>(40e9 * 20e-6);  // Fits 40 GB/s of writes.
  struct Node {
    Node(const Host& h, const FabricConfig& config) : fabric(sim, h.topo, config) {
      writer = fabric.StartFlow(DdioWrite(fabric, h));
      fabric.SetFlowLimit(writer, Bandwidth::GBps(10));
      FlowSpec second = DdioWrite(fabric, h, Bandwidth::GBps(20));
      second.path = *fabric.Route(h.rp, h.socket);
      second.tenant = 2;
      fabric.StartFlow(second);
      FlowSpec reader;
      reader.path = *fabric.Route(h.dimm, h.socket);
      reader.tenant = 3;
      fabric.StartFlow(reader);
      fabric.FlowRate(writer);
    }
    Simulation sim{1};
    Fabric fabric;
    FlowId writer = kInvalidFlow;
  };
  const Bandwidth lifted = Bandwidth::BytesPerSec(kUnlimitedDemand);
  Node asked(h, config);
  Node lifted_node(h, config);
  Node never_asked(h, config);
  MaxMinSolver scratch;
  ASSERT_EQ(asked.fabric.ActiveFlows().size(), 3u);  // 30 GB/s of writes fit.
  const uint64_t solves = asked.fabric.recompute_count();
  const uint64_t mutations = asked.fabric.mutation_count();
  const double rate = asked.fabric.FlowRate(asked.writer).bytes_per_sec();

  const double got = asked.fabric.RateIf(asked.writer, lifted, scratch).bytes_per_sec();
  lifted_node.fabric.SetFlowLimit(lifted_node.writer, lifted);
  EXPECT_EQ(got, lifted_node.fabric.FlowRate(lifted_node.writer).bytes_per_sec());
  EXPECT_EQ(lifted_node.fabric.ActiveFlows().size(), 5u);  // The lift spills.
  EXPECT_GT(got, rate);
  EXPECT_EQ(asked.fabric.ActiveFlows().size(), 3u);
  EXPECT_EQ(asked.fabric.recompute_count(), solves);
  EXPECT_EQ(asked.fabric.mutation_count(), mutations);
  EXPECT_EQ(asked.fabric.FlowRate(asked.writer).bytes_per_sec(), rate);
  FlowSpec next = DdioWrite(asked.fabric, h, Bandwidth::GBps(1));
  EXPECT_EQ(asked.fabric.StartFlow(next), never_asked.fabric.StartFlow(next));

  // Spill flows exist now: a what-if that lowers the writer resizes them.
  Node spilling(h, config);
  spilling.fabric.SetFlowLimit(spilling.writer, lifted);
  spilling.fabric.FlowRate(spilling.writer);
  const uint64_t spilling_solves = spilling.fabric.recompute_count();
  for (const double gbps : {2.0, 15.0, 30.0}) {
    const double answer =
        spilling.fabric.RateIf(spilling.writer, Bandwidth::GBps(gbps), scratch).bytes_per_sec();
    Node twin(h, config);  // The same history, then the real limit.
    twin.fabric.SetFlowLimit(twin.writer, lifted);
    twin.fabric.FlowRate(twin.writer);
    twin.fabric.SetFlowLimit(twin.writer, Bandwidth::GBps(gbps));
    EXPECT_EQ(answer, twin.fabric.FlowRate(twin.writer).bytes_per_sec()) << gbps;
  }
  EXPECT_EQ(spilling.fabric.recompute_count(), spilling_solves);
}

TEST(DdioTest, CacheStatsDefaultWhenUntracked) {
  Simulation sim;
  const Host h = MakeHost();
  Fabric fabric(sim, h.topo);
  const SocketCacheStats stats = fabric.CacheStats(h.socket);
  EXPECT_DOUBLE_EQ(stats.io_write_rate_bps, 0.0);
  EXPECT_DOUBLE_EQ(stats.hit_rate, 1.0);
  EXPECT_GT(stats.ddio_capacity_bytes, 0);
}

}  // namespace
}  // namespace mihn::fabric
