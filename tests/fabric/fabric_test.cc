#include "src/fabric/fabric.h"

#include <gtest/gtest.h>

#include "src/topology/presets.h"

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

// A three-node line using non-PCIe links so effective capacity == raw:
//   a --(100 GB/s, 100ns)-- b --(10 GB/s, 50ns)-- c
struct Line {
  Topology topo;
  ComponentId a, b, c;
  LinkId ab, bc;
};

Line MakeLine() {
  Line l;
  l.a = l.topo.AddComponent(ComponentKind::kCpuSocket, "a");
  l.b = l.topo.AddComponent(ComponentKind::kCpuSocket, "b");
  l.c = l.topo.AddComponent(ComponentKind::kCpuSocket, "c");
  l.ab = l.topo.AddLink(l.a, l.b,
                        LinkSpec{LinkKind::kInterSocket, Bandwidth::GBps(100), TimeNs::Nanos(100)});
  l.bc = l.topo.AddLink(l.b, l.c,
                        LinkSpec{LinkKind::kInterSocket, Bandwidth::GBps(10), TimeNs::Nanos(50)});
  return l;
}

topology::Path RoutedPath(Fabric& fabric, ComponentId src, ComponentId dst) {
  auto path = fabric.Route(src, dst);
  EXPECT_TRUE(path.has_value());
  return *path;
}

TEST(FabricTest, ElasticFlowTakesBottleneck) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  FlowSpec spec;
  spec.path = RoutedPath(fabric, line.a, line.c);
  const FlowId id = fabric.StartFlow(spec);
  ASSERT_NE(id, kInvalidFlow);
  EXPECT_DOUBLE_EQ(fabric.FlowRate(id).ToGBps(), 10.0);
}

TEST(FabricTest, TwoElasticFlowsSplitBottleneck) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  FlowSpec spec;
  spec.path = RoutedPath(fabric, line.a, line.c);
  const FlowId f1 = fabric.StartFlow(spec);
  const FlowId f2 = fabric.StartFlow(spec);
  EXPECT_DOUBLE_EQ(fabric.FlowRate(f1).ToGBps(), 5.0);
  EXPECT_DOUBLE_EQ(fabric.FlowRate(f2).ToGBps(), 5.0);
}

TEST(FabricTest, DemandCappedFlowReleasesShare) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  FlowSpec small;
  small.path = RoutedPath(fabric, line.a, line.c);
  small.demand = Bandwidth::GBps(2);
  FlowSpec big;
  big.path = small.path;
  const FlowId fs = fabric.StartFlow(small);
  const FlowId fb = fabric.StartFlow(big);
  EXPECT_DOUBLE_EQ(fabric.FlowRate(fs).ToGBps(), 2.0);
  EXPECT_DOUBLE_EQ(fabric.FlowRate(fb).ToGBps(), 8.0);
}

TEST(FabricTest, StopFlowRestoresBandwidth) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  FlowSpec spec;
  spec.path = RoutedPath(fabric, line.a, line.c);
  const FlowId f1 = fabric.StartFlow(spec);
  const FlowId f2 = fabric.StartFlow(spec);
  fabric.StopFlow(f1);
  EXPECT_DOUBLE_EQ(fabric.FlowRate(f2).ToGBps(), 10.0);
  EXPECT_EQ(fabric.ActiveFlows().size(), 1u);
  // Stopping again is a no-op.
  fabric.StopFlow(f1);
  EXPECT_EQ(fabric.ActiveFlows().size(), 1u);
}

TEST(FabricTest, SetFlowLimitCapsRate) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  FlowSpec spec;
  spec.path = RoutedPath(fabric, line.a, line.c);
  const FlowId id = fabric.StartFlow(spec);
  fabric.SetFlowLimit(id, Bandwidth::GBps(3));
  EXPECT_DOUBLE_EQ(fabric.FlowRate(id).ToGBps(), 3.0);
  fabric.SetFlowLimit(id, Bandwidth::GBps(1000));
  EXPECT_DOUBLE_EQ(fabric.FlowRate(id).ToGBps(), 10.0);
}

TEST(FabricTest, SetFlowWeightChangesShares) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  FlowSpec spec;
  spec.path = RoutedPath(fabric, line.a, line.c);
  const FlowId f1 = fabric.StartFlow(spec);
  const FlowId f2 = fabric.StartFlow(spec);
  fabric.SetFlowWeight(f1, 4.0);
  EXPECT_DOUBLE_EQ(fabric.FlowRate(f1).ToGBps(), 8.0);
  EXPECT_DOUBLE_EQ(fabric.FlowRate(f2).ToGBps(), 2.0);
}

TEST(FabricTest, SetFlowDemandReshapes) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  FlowSpec spec;
  spec.path = RoutedPath(fabric, line.a, line.c);
  const FlowId id = fabric.StartFlow(spec);
  fabric.SetFlowDemand(id, Bandwidth::GBps(4));
  EXPECT_DOUBLE_EQ(fabric.FlowRate(id).ToGBps(), 4.0);
}

TEST(FabricTest, EmptyPathRejected) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  EXPECT_EQ(fabric.StartFlow(FlowSpec{}), kInvalidFlow);
}

TEST(FabricTest, TransferCompletesAtFluidTimePlusLatency) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  TransferSpec spec;
  spec.flow.path = RoutedPath(fabric, line.a, line.c);
  spec.bytes = 10'000'000'000LL;  // 10 GB at 10 GB/s = 1 s of fluid time.
  TimeNs delivered = TimeNs::Zero();
  TransferResult result;
  spec.on_complete = [&](const TransferResult& r) {
    delivered = sim.Now();
    result = r;
  };
  fabric.StartTransfer(std::move(spec));
  sim.Run();
  ASSERT_GT(delivered.nanos(), 0);
  // Fluid drain exactly 1 s; path latency is 150 ns base, fully utilized so
  // inflated up to the cap (20x = 3 us). Delivery within [1s, 1s + 5us].
  EXPECT_GE(delivered, TimeNs::Seconds(1));
  EXPECT_LE(delivered, TimeNs::Seconds(1) + TimeNs::Micros(5));
  EXPECT_EQ(result.bytes, 10'000'000'000LL);
  EXPECT_EQ(result.start, TimeNs::Zero());
  EXPECT_EQ(result.end, delivered);
  EXPECT_NEAR(result.AverageRate().ToGBps(), 10.0, 0.1);
}

TEST(FabricTest, TransferSlowsWhenCompetitorJoins) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  TransferSpec spec;
  spec.flow.path = RoutedPath(fabric, line.a, line.c);
  spec.bytes = 10'000'000'000LL;
  TimeNs delivered = TimeNs::Zero();
  spec.on_complete = [&](const TransferResult&) { delivered = sim.Now(); };
  fabric.StartTransfer(std::move(spec));
  // At t=0.5s, start a competing elastic flow: remaining 5 GB drain at
  // 5 GB/s -> finishes ~1.5s.
  sim.ScheduleAt(TimeNs::Millis(500), [&] {
    FlowSpec bg;
    bg.path = RoutedPath(fabric, line.a, line.c);
    fabric.StartFlow(bg);
  });
  sim.Run();
  EXPECT_GE(delivered, TimeNs::Millis(1499));
  EXPECT_LE(delivered, TimeNs::Millis(1501));
}

TEST(FabricTest, ZeroByteTransferCompletesImmediately) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  TransferSpec spec;
  spec.flow.path = RoutedPath(fabric, line.a, line.c);
  spec.bytes = 0;
  bool done = false;
  spec.on_complete = [&](const TransferResult& r) {
    done = true;
    EXPECT_EQ(r.bytes, 0);
  };
  EXPECT_EQ(fabric.StartTransfer(std::move(spec)), kInvalidFlow);
  sim.Run();
  EXPECT_TRUE(done);
}

TEST(FabricTest, StoppedTransferNeverCompletes) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  TransferSpec spec;
  spec.flow.path = RoutedPath(fabric, line.a, line.c);
  spec.bytes = 10'000'000'000LL;
  bool done = false;
  spec.on_complete = [&](const TransferResult&) { done = true; };
  const FlowId id = fabric.StartTransfer(std::move(spec));
  sim.ScheduleAt(TimeNs::Millis(100), [&] { fabric.StopFlow(id); });
  sim.Run();
  EXPECT_FALSE(done);
}

TEST(FabricTest, CountersAccrueBytesPerTenant) {
  // A tenant's flow accrues bytes on its links, in total and per class, and
  // shows there as the tenant's rate.
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  FlowSpec spec;
  spec.path = RoutedPath(fabric, line.a, line.c);
  spec.tenant = 7;
  fabric.StartFlow(spec);
  sim.RunFor(TimeNs::Seconds(1));
  const auto snap = fabric.Snapshot(spec.path.hops[1]);
  EXPECT_NEAR(snap.bytes_total, 10e9, 1e6);
  EXPECT_NEAR(snap.bytes_by_class[static_cast<size_t>(TrafficClass::kData)], 10e9, 1e6);
  ASSERT_EQ(snap.rate_by_tenant_bps.size(), 1u);
  EXPECT_EQ(snap.rate_by_tenant_bps[0].first, 7);
  EXPECT_NEAR(snap.rate_by_tenant_bps[0].second, 10e9, 1.0);
}

TEST(FabricTest, FlowInfoReportsProgress) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  TransferSpec spec;
  spec.flow.path = RoutedPath(fabric, line.a, line.c);
  spec.flow.tenant = 3;
  spec.bytes = 10'000'000'000LL;
  const FlowId id = fabric.StartTransfer(std::move(spec));
  sim.RunFor(TimeNs::Millis(500));
  const auto info = fabric.GetFlowInfo(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->tenant, 3);
  EXPECT_NEAR(static_cast<double>(info->bytes_moved), 5e9, 1e7);
  EXPECT_NEAR(static_cast<double>(info->bytes_remaining), 5e9, 1e7);
  EXPECT_DOUBLE_EQ(info->rate.ToGBps(), 10.0);
}

TEST(FabricTest, UnknownFlowQueries) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  EXPECT_FALSE(fabric.GetFlowInfo(99).has_value());
  EXPECT_TRUE(fabric.FlowRate(99).IsZero());
  fabric.SetFlowLimit(99, Bandwidth::GBps(1));  // Must not crash.
}

TEST(FabricTest, ProbeLatencyUnloadedEqualsBase) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  const auto path = RoutedPath(fabric, line.a, line.c);
  EXPECT_EQ(fabric.ProbePathLatency(path), TimeNs::Nanos(150));
}

TEST(FabricTest, ProbeLatencyInflatesUnderLoad) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  const auto path = RoutedPath(fabric, line.a, line.c);
  const TimeNs unloaded = fabric.ProbePathLatency(path);
  FlowSpec spec;
  spec.path = path;
  fabric.StartFlow(spec);  // Saturates the bc link.
  const TimeNs loaded = fabric.ProbePathLatency(path);
  EXPECT_GT(loaded, Scale(unloaded, 2.0));
  // Capped at kMaxLatencyInflation per hop.
  EXPECT_LE(loaded, Scale(unloaded, kMaxLatencyInflation));
}

TEST(FabricTest, PartialLoadInflationIsModerate) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  const auto path = RoutedPath(fabric, line.a, line.c);
  FlowSpec spec;
  spec.path = path;
  spec.demand = Bandwidth::GBps(5);  // 50% of bottleneck, 5% of ab.
  fabric.StartFlow(spec);
  // bc at rho=0.5 -> inflation 2x => 100ns. ab at rho=0.05 -> ~105ns.
  const TimeNs loaded = fabric.ProbePathLatency(path);
  EXPECT_GT(loaded, TimeNs::Nanos(150));
  EXPECT_LT(loaded, TimeNs::Nanos(260));
}

TEST(FabricTest, PacketDeliveryAndCounters) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  const topology::Path path = RoutedPath(fabric, line.a, line.c);
  PacketSpec pkt;
  pkt.path = &path;
  pkt.bytes = 1000;
  bool delivered = false;
  TimeNs seen = TimeNs::Zero();
  pkt.on_delivered = [&] {
    delivered = true;
    seen = sim.Now();
  };
  const TimeNs predicted = fabric.SendPacket(std::move(pkt));
  // 150ns base + serialization 1000B at 100GB/s (10ns) + at 10GB/s (100ns).
  EXPECT_EQ(predicted, TimeNs::Nanos(260));
  sim.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(seen, predicted);
  EXPECT_EQ(sim.Now(), predicted);
  const auto snap = fabric.Snapshot(topology::DirectedLink{line.bc, true});
  EXPECT_DOUBLE_EQ(snap.bytes_total, 1000.0);
  EXPECT_DOUBLE_EQ(snap.bytes_by_class[static_cast<size_t>(TrafficClass::kProbe)], 1000.0);
}

TEST(FabricTest, FaultDegradesCapacityAndRate) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  FlowSpec spec;
  spec.path = RoutedPath(fabric, line.a, line.c);
  const FlowId id = fabric.StartFlow(spec);
  fabric.InjectLinkFault(line.bc, LinkFault{0.5, TimeNs::Zero()});
  EXPECT_DOUBLE_EQ(fabric.FlowRate(id).ToGBps(), 5.0);
  EXPECT_TRUE(fabric.GetLinkFault(line.bc).has_value());
  fabric.ClearLinkFault(line.bc);
  EXPECT_DOUBLE_EQ(fabric.FlowRate(id).ToGBps(), 10.0);
  EXPECT_FALSE(fabric.GetLinkFault(line.bc).has_value());
}

TEST(FabricTest, FaultAddsLatencySilently) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  const auto path = RoutedPath(fabric, line.a, line.c);
  fabric.InjectLinkFault(line.ab, LinkFault{1.0, TimeNs::Micros(1)});
  EXPECT_EQ(fabric.ProbePathLatency(path), TimeNs::Nanos(150) + TimeNs::Micros(1));
}

TEST(FabricTest, DeadLinkZeroesFlows) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  FlowSpec spec;
  spec.path = RoutedPath(fabric, line.a, line.c);
  const FlowId id = fabric.StartFlow(spec);
  fabric.InjectLinkFault(line.bc, LinkFault{0.0, TimeNs::Zero()});
  EXPECT_TRUE(fabric.FlowRate(id).IsZero());
}

TEST(FabricTest, UtilizationAndEffectiveCapacity) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  FlowSpec spec;
  spec.path = RoutedPath(fabric, line.a, line.c);
  spec.demand = Bandwidth::GBps(5);
  fabric.StartFlow(spec);
  const topology::DirectedLink bottleneck = spec.path.hops[1];
  EXPECT_DOUBLE_EQ(fabric.EffectiveCapacity(bottleneck).ToGBps(), 10.0);
  EXPECT_DOUBLE_EQ(fabric.Utilization(bottleneck), 0.5);
  // Reverse direction is idle (full duplex).
  const topology::DirectedLink reverse{bottleneck.link, !bottleneck.forward};
  EXPECT_DOUBLE_EQ(fabric.Utilization(reverse), 0.0);
}

TEST(FabricTest, FullDuplexDirectionsIndependent) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  FlowSpec fwd;
  fwd.path = RoutedPath(fabric, line.a, line.c);
  FlowSpec rev;
  rev.path = RoutedPath(fabric, line.c, line.a);
  const FlowId f1 = fabric.StartFlow(fwd);
  const FlowId f2 = fabric.StartFlow(rev);
  EXPECT_DOUBLE_EQ(fabric.FlowRate(f1).ToGBps(), 10.0);
  EXPECT_DOUBLE_EQ(fabric.FlowRate(f2).ToGBps(), 10.0);
}

TEST(FabricTest, PcieCapacityFactorApplied) {
  Simulation sim;
  Topology topo;
  const ComponentId rp = topo.AddComponent(ComponentKind::kPcieRootPort, "rp");
  const ComponentId nic = topo.AddComponent(ComponentKind::kNic, "nic");
  const LinkId l = topo.AddLink(rp, nic, topology::DefaultLinkSpec(LinkKind::kPcieRootLink));
  FabricConfig config;
  Fabric fabric(sim, topo, config);
  const double raw = topology::DefaultLinkSpec(LinkKind::kPcieRootLink).capacity.bytes_per_sec();
  const double expect = raw * config.PcieCapacityFactor();
  EXPECT_NEAR(fabric.EffectiveCapacity({l, true}).bytes_per_sec(), expect, 1.0);
  // Shrinking MPS shrinks effective capacity.
  config.max_payload_bytes = 64;
  fabric.SetConfig(config);
  EXPECT_LT(fabric.EffectiveCapacity({l, true}).bytes_per_sec(), expect);
}

TEST(FabricTest, IommuAddsPcieLatency) {
  Simulation sim;
  Topology topo;
  const ComponentId rp = topo.AddComponent(ComponentKind::kPcieRootPort, "rp");
  const ComponentId nic = topo.AddComponent(ComponentKind::kNic, "nic");
  topo.AddLink(rp, nic, topology::DefaultLinkSpec(LinkKind::kPcieRootLink));
  Fabric fabric(sim, topo);
  auto path = fabric.Route(nic, rp);
  ASSERT_TRUE(path.has_value());
  const TimeNs before = fabric.ProbePathLatency(*path);
  FabricConfig config;
  config.iommu_enabled = true;
  fabric.SetConfig(config);
  EXPECT_EQ(fabric.ProbePathLatency(*path), before + kIommuLatency);
}

TEST(FabricTest, InterruptModerationDelaysPackets) {
  Simulation sim;
  const Line line = MakeLine();
  FabricConfig config;
  config.interrupt_moderation = TimeNs::Micros(10);
  Fabric fabric(sim, line.topo, config);
  const topology::Path path = RoutedPath(fabric, line.a, line.c);
  PacketSpec pkt;
  pkt.path = &path;
  pkt.bytes = 0;
  const TimeNs lat = fabric.SendPacket(std::move(pkt));
  EXPECT_EQ(lat, TimeNs::Nanos(150) + TimeNs::Micros(10));
}

TEST(FabricTest, DeterministicAcrossRuns) {
  auto run = [] {
    Simulation sim(42);
    topology::Server server = topology::CommodityTwoSocket();
    Fabric fabric(sim, server.topo);
    FlowSpec spec;
    spec.path = *fabric.Route(server.gpus[0], server.dimms[0]);
    fabric.StartFlow(spec);
    TransferSpec t;
    t.flow.path = *fabric.Route(server.nics[0], server.sockets[0]);
    t.flow.ddio_write = true;
    t.bytes = 1'000'000'000;
    fabric.StartTransfer(std::move(t));
    sim.RunFor(TimeNs::Millis(100));
    double sum = 0;
    for (int32_t d = 0; d < 2 * static_cast<int32_t>(fabric.topo().link_count()); ++d) {
      const LinkSnapshot s = fabric.Snapshot({d / 2, d % 2 == 0});
      sum += s.bytes_total;
    }
    return sum;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(FabricTest, RecomputeCountAdvances) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);
  const uint64_t before = fabric.recompute_count();
  FlowSpec spec;
  spec.path = RoutedPath(fabric, line.a, line.c);
  const FlowId id = fabric.StartFlow(spec);
  // Mutations are coalesced: nothing is solved until a read (or the end of
  // the timestamp) forces it.
  EXPECT_EQ(fabric.recompute_count(), before);
  EXPECT_EQ(fabric.mutation_count(), 1u);
  fabric.FlowRate(id);  // Flush point.
  EXPECT_EQ(fabric.recompute_count(), before + 1);
  // A setter that changes nothing is no mutation and forces no solve: the
  // stored value, or one that clamps to it.
  fabric.SetFlowDemand(id, Bandwidth::BytesPerSec(2 * kUnlimitedDemand));
  fabric.SetFlowLimit(id, Bandwidth::BytesPerSec(2 * kUnlimitedDemand));
  fabric.SetFlowWeight(id, 1.0);
  fabric.FlowRate(id);
  EXPECT_EQ(fabric.mutation_count(), 1u);
  EXPECT_EQ(fabric.recompute_count(), before + 1);
  // A different value still counts one; repeating it counts nothing.
  fabric.SetFlowDemand(id, Bandwidth::GBps(1));
  fabric.SetFlowDemand(id, Bandwidth::GBps(1));
  EXPECT_EQ(fabric.mutation_count(), 2u);
  fabric.SetFlowLimit(id, Bandwidth::Zero());
  fabric.SetFlowLimit(id, Bandwidth::Zero());
  EXPECT_EQ(fabric.mutation_count(), 3u);
  fabric.SetFlowWeight(id, 0.0);
  fabric.SetFlowWeight(id, -1.0);  // Both clamp to the same positive floor.
  EXPECT_EQ(fabric.mutation_count(), 4u);
  fabric.FlowRate(id);
  EXPECT_EQ(fabric.recompute_count(), before + 2);
  fabric.StopFlow(id);
  fabric.FlowRate(id);
  EXPECT_EQ(fabric.recompute_count(), before + 3);
  EXPECT_EQ(fabric.mutation_count(), 5u);
}

// RateIf answers what SetFlowLimit would give, bit for bit, and changes
// nothing: no solve or mutation is counted, no rate moves, and the next
// FlowId is the one a fabric that was never asked hands out.
TEST(FabricTest, RateIfAnswersWithoutMutating) {
  const topology::Server server = topology::CommodityTwoSocket();
  struct Host {
    explicit Host(const topology::Server& server) : fabric(sim, server.topo) {
      for (const ComponentId src : {server.ssds[0], server.nics[0], server.gpus[0]}) {
        for (const double gbps : {20.0, 60.0, kUnlimitedDemand / 1.25e8}) {
          FlowSpec spec;
          spec.path = *fabric.Route(src, server.dimms[0]);
          spec.demand = Bandwidth::Gbps(gbps);
          ids.push_back(fabric.StartFlow(spec));
        }
      }
      fabric.SetFlowLimit(ids[2], Bandwidth::Gbps(5));
    }
    Simulation sim{3};
    Fabric fabric;
    std::vector<FlowId> ids;
  };
  Host asked(server);
  MaxMinSolver scratch;
  std::vector<double> rates;
  for (const FlowId id : asked.ids) {
    rates.push_back(asked.fabric.FlowRate(id).bytes_per_sec());
  }
  const uint64_t solves = asked.fabric.recompute_count();
  const uint64_t mutations = asked.fabric.mutation_count();
  for (size_t i = 0; i < asked.ids.size(); ++i) {
    for (const double gbps : {0.0, 1.0, 30.0, 1e4, kUnlimitedDemand / 1.25e8}) {
      const Bandwidth limit = Bandwidth::Gbps(gbps);
      const double got = asked.fabric.RateIf(asked.ids[i], limit, scratch).bytes_per_sec();
      Host limited(server);
      limited.fabric.SetFlowLimit(limited.ids[i], limit);
      EXPECT_EQ(got, limited.fabric.FlowRate(limited.ids[i]).bytes_per_sec())
          << "flow " << i << " at " << gbps << " Gbps";
    }
  }
  EXPECT_EQ(asked.fabric.RateIf(kInvalidFlow, Bandwidth::Gbps(1), scratch), Bandwidth::Zero());
  EXPECT_EQ(asked.fabric.recompute_count(), solves);
  EXPECT_EQ(asked.fabric.mutation_count(), mutations);
  for (size_t i = 0; i < asked.ids.size(); ++i) {
    EXPECT_EQ(asked.fabric.FlowRate(asked.ids[i]).bytes_per_sec(), rates[i]) << "flow " << i;
  }
  Host never_asked(server);
  FlowSpec next;
  next.path = *asked.fabric.Route(server.ssds[0], server.dimms[0]);
  EXPECT_EQ(asked.fabric.StartFlow(next), never_asked.fabric.StartFlow(next));
}

// The lean read of the link table is Snapshot() of every directed link,
// in DirectedIndex order, minus the tenant maps: same totals, and the
// live-flow count.
TEST(FabricTest, LinkLoadsMatchSnapshotAll) {
  Simulation sim(7);
  topology::Server server = topology::CommodityTwoSocket();
  Fabric fabric(sim, server.topo);
  FlowSpec spec;
  spec.path = *fabric.Route(server.gpus[0], server.dimms[0]);
  spec.tenant = 3;
  fabric.StartFlow(spec);
  TransferSpec transfer;
  transfer.flow.path = *fabric.Route(server.nics[0], server.sockets[1]);
  transfer.flow.ddio_write = true;
  transfer.bytes = 1'000'000'000;
  fabric.StartTransfer(std::move(transfer));
  const topology::Path packet_path = *fabric.Route(server.nics[1], server.sockets[0]);
  PacketSpec packet;
  packet.path = &packet_path;
  packet.bytes = 4096;
  fabric.SendPacket(std::move(packet));
  fabric.InjectLinkFault(server.topo.links().front().id, LinkFault{0.5, TimeNs::Zero()});
  sim.RunFor(TimeNs::Millis(3));

  std::vector<LinkLoad> loads = {LinkLoad{}};  // Stale contents are replaced.
  const size_t live = fabric.ReadLinkLoads(loads);
  EXPECT_EQ(live, fabric.ActiveFlows().size());
  ASSERT_EQ(loads.size(), 2 * server.topo.link_count());
  for (size_t i = 0; i < loads.size(); ++i) {
    const LinkSnapshot snap =
        fabric.Snapshot({static_cast<topology::LinkId>(i / 2), i % 2 == 0});
    EXPECT_EQ(loads[i].capacity_bps, snap.capacity_bps) << i;
    EXPECT_EQ(loads[i].rate_bps, snap.rate_bps) << i;
    EXPECT_EQ(loads[i].bytes_total, snap.bytes_total) << i;
  }
}

}  // namespace
}  // namespace mihn::fabric
