#include "src/host/host_network.h"

#include <gtest/gtest.h>

#include <memory>

namespace mihn {
namespace {

using sim::TimeNs;

TEST(HostNetworkTest, DefaultBuildIsWired) {
  sim::Simulation sim;
  HostNetwork host(sim);
  EXPECT_EQ(host.topo().Validate(), "");
  EXPECT_EQ(host.Now(), TimeNs::Zero());
  EXPECT_GT(host.topo().component_count(), 10u);
  // Collector and manager auto-started.
  host.RunFor(TimeNs::Millis(2));
  EXPECT_GT(host.collector().samples_taken(), 0u);
  EXPECT_GT(host.manager().arbitrations(), 0u);
}

TEST(HostNetworkTest, PresetsSelectTopology) {
  HostNetwork::Options options;
  options.preset = HostNetwork::Preset::kEdgeNode;
  options.autostart = HostNetwork::Autostart::kNone;
  sim::Simulation sim;
  HostNetwork edge(sim, options);
  EXPECT_EQ(edge.server().gpus.size(), 0u);
  options.preset = HostNetwork::Preset::kDgxClass;
  HostNetwork dgx(sim, options);
  EXPECT_EQ(dgx.server().gpus.size(), 8u);
}

TEST(HostNetworkTest, RunForAdvancesClock) {
  sim::Simulation sim;
  HostNetwork host(sim);
  host.RunFor(TimeNs::Millis(3));
  EXPECT_EQ(host.Now(), TimeNs::Millis(3));
  host.RunFor(TimeNs::Millis(2));
  EXPECT_EQ(host.Now(), TimeNs::Millis(5));
}

TEST(HostNetworkTest, AutoStartedCollectorReportsToMonitorStore) {
  sim::Simulation sim;
  HostNetwork host(sim);
  host.RunFor(TimeNs::Millis(10));
  EXPECT_GT(host.collector().samples_taken(), 0u);
  EXPECT_GT(host.collector().bytes_reported(), 0);
}

TEST(HostNetworkTest, ReportingCanBeDisabled) {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kAllUnreported;
  sim::Simulation sim;
  HostNetwork host(sim, options);
  host.RunFor(TimeNs::Millis(10));
  EXPECT_EQ(host.collector().bytes_reported(), 0);
}

TEST(HostNetworkTest, DevicesListCoversEndpoints) {
  sim::Simulation sim;
  HostNetwork host(sim);
  const auto devices = host.Devices();
  const auto& server = host.server();
  EXPECT_EQ(devices.size(),
            server.sockets.size() + server.nics.size() + server.gpus.size() + server.ssds.size());
}

// The default endpoints are Devices() plus the DIMMs and CXL memories, and
// memory is a probe destination only.
TEST(HostNetworkTest, MakeHeartbeatMeshDefaultsToDevices) {
  topology::ServerSpec spec;
  spec.cxl_memory_per_socket = 1;
  sim::Simulation sim;
  HostNetwork host(sim, topology::BuildServer(spec), HostNetwork::Options{});
  const topology::Server& server = host.server();
  auto mesh = host.MakeHeartbeatMesh();

  anomaly::HeartbeatMesh::Config config;
  config.participants = host.Devices();
  config.participants.insert(config.participants.end(), server.dimms.begin(), server.dimms.end());
  config.participants.insert(config.participants.end(), server.cxl_memories.begin(),
                             server.cxl_memories.end());
  auto explicit_mesh = host.MakeHeartbeatMesh(config);

  const auto pairs = mesh->Pairs();
  const auto explicit_pairs = explicit_mesh->Pairs();
  ASSERT_EQ(pairs.size(), explicit_pairs.size());
  bool to_dimm = false;
  bool to_cxl = false;
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i].src, explicit_pairs[i].src);
    EXPECT_EQ(pairs[i].dst, explicit_pairs[i].dst);
    const topology::ComponentKind src_kind = host.topo().component(pairs[i].src).kind;
    EXPECT_NE(src_kind, topology::ComponentKind::kDimm);
    EXPECT_NE(src_kind, topology::ComponentKind::kCxlMemory);
    const topology::ComponentKind dst_kind = host.topo().component(pairs[i].dst).kind;
    to_dimm = to_dimm || dst_kind == topology::ComponentKind::kDimm;
    to_cxl = to_cxl || dst_kind == topology::ComponentKind::kCxlMemory;
  }
  EXPECT_TRUE(to_dimm);
  EXPECT_TRUE(to_cxl);
}

TEST(HostNetworkTest, CustomServerConstructor) {
  topology::ServerSpec spec;
  spec.sockets = 1;
  spec.gpus_per_leaf = 3;
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  sim::Simulation sim;
  HostNetwork host(sim, topology::BuildServer(spec), options);
  EXPECT_EQ(host.server().gpus.size(), 6u);  // 2 root ports x 1 switch x 3.
  EXPECT_EQ(host.topo().Validate(), "");
}

// -- Clock injection ----------------------------------------------------------

HostNetwork::Options Quiet() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

TEST(HostNetworkTest, TwoHostsShareOneClockWithInterleavedEvents) {
  sim::Simulation sim;
  HostNetwork a(sim, Quiet());
  HostNetwork b(sim, Quiet());

  // A continuous flow on a, a finite transfer on b: b's completion event
  // interleaves with a's accrual on the same queue.
  fabric::FlowSpec on_a;
  on_a.path = *a.fabric().Route(a.server().ssds[0], a.server().dimms[0]);
  const fabric::FlowId flow_a = a.fabric().StartFlow(on_a);

  bool b_completed = false;
  fabric::TransferSpec on_b;
  on_b.flow.path = *b.fabric().Route(b.server().ssds[0], b.server().dimms[0]);
  on_b.bytes = 1 << 20;
  on_b.on_complete = [&](const fabric::TransferResult&) { b_completed = true; };
  b.fabric().StartTransfer(on_b);

  sim.RunFor(TimeNs::Millis(5));
  EXPECT_TRUE(b_completed);
  EXPECT_GT(a.fabric().GetFlowInfo(flow_a)->bytes_moved, 0);
  // One clock: both hosts observe the same virtual now.
  EXPECT_EQ(a.Now(), sim.Now());
  EXPECT_EQ(b.Now(), sim.Now());
}

TEST(HostNetworkTest, SharedClockResultsIndependentOfConstructionOrder) {
  // Two hosts with distinct workloads on one clock: each host's telemetry
  // must not depend on which host was constructed (= registered its
  // pre-advance hook) first.
  struct PerHost {
    double busy_bytes;
    double idle_bytes;
  };
  const auto run = [](bool busy_first) {
    sim::Simulation sim(3);
    auto busy = std::make_unique<HostNetwork>(sim, Quiet());
    std::unique_ptr<HostNetwork> idle;
    if (!busy_first) {
      idle = std::make_unique<HostNetwork>(sim, Quiet());
      busy = std::make_unique<HostNetwork>(sim, Quiet());
    } else {
      idle = std::make_unique<HostNetwork>(sim, Quiet());
    }
    fabric::FlowSpec load;
    load.path = *busy->fabric().Route(busy->server().gpus[0], busy->server().dimms[0]);
    busy->fabric().StartFlow(load);
    fabric::FlowSpec trickle;
    trickle.path = *idle->fabric().Route(idle->server().ssds[0], idle->server().dimms[0]);
    trickle.demand = sim::Bandwidth::Mbps(10);
    idle->fabric().StartFlow(trickle);
    sim.RunFor(TimeNs::Millis(3));
    PerHost out;
    out.busy_bytes = 0.0;
    out.idle_bytes = 0.0;
    for (int32_t d = 0; d < 2 * static_cast<int32_t>(busy->topo().link_count()); ++d) {
      out.busy_bytes += busy->fabric().Snapshot({d / 2, d % 2 == 0}).bytes_total;
    }
    for (int32_t d = 0; d < 2 * static_cast<int32_t>(idle->topo().link_count()); ++d) {
      out.idle_bytes += idle->fabric().Snapshot({d / 2, d % 2 == 0}).bytes_total;
    }
    return out;
  };
  const PerHost forward = run(true);
  const PerHost reversed = run(false);
  EXPECT_EQ(forward.busy_bytes, reversed.busy_bytes);
  EXPECT_EQ(forward.idle_bytes, reversed.idle_bytes);
}

TEST(HostNetworkTest, DestructorReleasesObserverSlot) {
  sim::Simulation sim;
  {
    HostNetwork::Options options = Quiet();
    options.trace.enabled = true;
    HostNetwork traced(sim, options);
    traced.RunFor(TimeNs::Micros(10));
  }
  // The traced host uninstalled its observer on destruction; a second
  // traced host on the same clock takes the freed slot.
  HostNetwork::Options options = Quiet();
  options.trace.enabled = true;
  HostNetwork next(sim, options);
  next.RunFor(TimeNs::Micros(10));
  EXPECT_GE(sim.Now(), TimeNs::Micros(20));
}

}  // namespace
}  // namespace mihn
