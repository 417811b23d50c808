// Recompute-coalescing semantics: same-timestamp mutation bursts settle in
// one max-min solve, rates remain identical to eager recomputation, and
// byte accounting stays exact because the pre-advance hook flushes before
// virtual time moves on.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/fabric/fabric.h"
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

// a --(100 GB/s)-- b --(10 GB/s)-- c, non-PCIe so effective == raw.
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

TEST(CoalescingTest, SameTimestampBurstPaysForOneSolve) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);

  std::vector<FlowId> ids;
  for (int i = 0; i < 16; ++i) {
    FlowSpec spec;
    spec.path = RoutedPath(fabric, line.a, line.c);
    ids.push_back(fabric.StartFlow(spec));
  }
  for (const FlowId id : ids) {
    fabric.SetFlowWeight(id, 2.0);
    fabric.SetFlowLimit(id, Bandwidth::GBps(5));
  }
  // 16 starts + 32 limit/weight changes, zero solves so far.
  EXPECT_EQ(fabric.mutation_count(), 48u);
  EXPECT_EQ(fabric.recompute_count(), 0u);

  // First read settles everything in one pass.
  const double rate = fabric.FlowRate(ids[0]).ToGBps();
  EXPECT_EQ(fabric.recompute_count(), 1u);
  EXPECT_DOUBLE_EQ(rate, 10.0 / 16.0);  // Equal weights, shared bottleneck.

  // Reads while clean do not re-solve.
  fabric.FlowRate(ids[1]);
  fabric.Utilization({line.bc, true});
  EXPECT_EQ(fabric.recompute_count(), 1u);
}

TEST(CoalescingTest, LazyRatesMatchEagerRecomputation) {
  // Twin fabrics: one mutated as a burst (one deferred solve), one forced
  // eager by interleaved reads. Final rates must be identical.
  Simulation sim_lazy, sim_eager;
  const Line line_lazy = MakeLine();
  const Line line_eager = MakeLine();
  Fabric lazy(sim_lazy, line_lazy.topo);
  Fabric eager(sim_eager, line_eager.topo);

  auto mutate = [](Fabric& fabric, const Line& line, bool force_eager) {
    std::vector<FlowId> ids;
    for (int i = 0; i < 8; ++i) {
      FlowSpec spec;
      spec.path = RoutedPath(fabric, i % 2 == 0 ? line.a : line.b, line.c);
      spec.weight = 1.0 + i;
      spec.demand = Bandwidth::GBps(1.0 + 0.5 * i);
      ids.push_back(fabric.StartFlow(spec));
      if (force_eager) {
        fabric.FlowRate(ids.back());
      }
    }
    fabric.SetFlowLimit(ids[0], Bandwidth::GBps(0.25));
    fabric.SetFlowLimit(ids[3], Bandwidth::GBps(0.5));
    fabric.SetFlowWeight(ids[5], 0.1);
    fabric.SetFlowDemand(ids[6], Bandwidth::GBps(20));
    if (force_eager) {
      fabric.FlowRate(ids[0]);
    }
    return ids;
  };

  const auto ids_lazy = mutate(lazy, line_lazy, /*force_eager=*/false);
  const auto ids_eager = mutate(eager, line_eager, /*force_eager=*/true);
  EXPECT_LT(lazy.recompute_count(), eager.recompute_count());
  for (size_t i = 0; i < ids_lazy.size(); ++i) {
    EXPECT_DOUBLE_EQ(lazy.FlowRate(ids_lazy[i]).bytes_per_sec(),
                     eager.FlowRate(ids_eager[i]).bytes_per_sec())
        << "flow " << i;
  }
  EXPECT_DOUBLE_EQ(lazy.Utilization({line_lazy.bc, true}),
                   eager.Utilization({line_eager.bc, true}));
}

TEST(CoalescingTest, PreAdvanceHookSettlesRatesBeforeTimeMoves) {
  // A mutation mid-simulation must take effect at its own timestamp even if
  // nothing reads rates until much later: byte accounting would otherwise
  // accrue at stale rates.
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);

  FlowSpec spec;
  spec.path = RoutedPath(fabric, line.a, line.c);
  const FlowId id = fabric.StartFlow(spec);  // Elastic: 10 GB/s bottleneck.

  sim.ScheduleAt(TimeNs::Millis(100), [&] { fabric.SetFlowLimit(id, Bandwidth::GBps(2)); });
  sim.RunUntil(TimeNs::Millis(300));

  // 100ms at 10 GB/s + 200ms at 2 GB/s = 1.0 GB + 0.4 GB.
  const auto info = fabric.GetFlowInfo(id);
  ASSERT_TRUE(info.has_value());
  EXPECT_NEAR(static_cast<double>(info->bytes_moved), 1.4e9, 1e3);
}

TEST(CoalescingTest, TransferCompletesWithoutAnyExplicitRead) {
  // StartTransfer schedules nothing eagerly; the pre-advance hook must
  // settle rates and arm the completion event when Run() drains the queue.
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);

  TransferSpec t;
  t.flow.path = RoutedPath(fabric, line.a, line.c);
  t.bytes = 1'000'000'000;  // 1 GB at 10 GB/s -> 100 ms.
  bool completed = false;
  TransferResult result;
  t.on_complete = [&](const TransferResult& r) {
    completed = true;
    result = r;
  };
  ASSERT_NE(fabric.StartTransfer(std::move(t)), kInvalidFlow);
  sim.Run();
  ASSERT_TRUE(completed);
  EXPECT_EQ(result.bytes, 1'000'000'000);
  EXPECT_NEAR(result.Duration().ToSecondsF(), 0.1, 1e-3);
}

TEST(CoalescingTest, FaultAndConfigChangesAreCoalescedToo) {
  Simulation sim;
  const Line line = MakeLine();
  Fabric fabric(sim, line.topo);

  FlowSpec spec;
  spec.path = RoutedPath(fabric, line.a, line.c);
  const FlowId id = fabric.StartFlow(spec);
  fabric.FlowRate(id);
  const uint64_t solves = fabric.recompute_count();

  fabric.InjectLinkFault(line.bc, LinkFault{0.5, TimeNs::Zero()});
  FabricConfig config = fabric.config();
  fabric.SetConfig(config);
  EXPECT_EQ(fabric.recompute_count(), solves);  // Still pending.
  EXPECT_DOUBLE_EQ(fabric.FlowRate(id).ToGBps(), 5.0);  // Faulted capacity.
  EXPECT_EQ(fabric.recompute_count(), solves + 1);
}

}  // namespace
}  // namespace mihn::fabric
