#include "src/diagnose/session.h"

#include <gtest/gtest.h>

#include "src/host/host_network.h"
#include "src/workload/sources.h"

namespace mihn::diagnose {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

HostNetwork::Options Quiet() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

TEST(HostPingTest, UnloadedPingMatchesPathLatency) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  const auto result = host.diagnose().Ping(server.nics[0], server.sockets[0]);
  ASSERT_TRUE(result.probe.reachable);
  const auto path = *host.fabric().Route(server.nics[0], server.sockets[0]);
  EXPECT_GE(result.latency, path.BaseLatency(host.topo()));
  EXPECT_LT(result.latency, path.BaseLatency(host.topo()) + TimeNs::Micros(1));
}

// Ping quotes the price SendPacket charges, interrupt moderation included,
// on a loaded path (where congestion and serialization both count).
TEST(HostPingTest, PingChargesWhatSendPacketCharges) {
  sim::Simulation sim;
  HostNetwork::Options options = Quiet();
  options.fabric.interrupt_moderation = TimeNs::Micros(10);
  HostNetwork host(sim, options);
  const auto& server = host.server();
  workload::StreamSource::Config bulk;
  bulk.src = server.gpus[0];
  bulk.dst = server.sockets[0];
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();

  const auto ping = host.diagnose().Ping(server.nics[0], server.sockets[0], 64);
  ASSERT_TRUE(ping.probe.reachable);
  fabric::PacketSpec packet;
  packet.path = &ping.probe.path;
  packet.bytes = 64;
  EXPECT_EQ(ping.latency, host.fabric().SendPacket(std::move(packet)));
}

TEST(HostPingTest, ProbeHeaderRecordsEndpointsAndTime) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  host.RunFor(TimeNs::Micros(5));
  const auto result = host.diagnose().Ping(server.nics[0], server.sockets[0]);
  EXPECT_EQ(result.probe.src, server.nics[0]);
  EXPECT_EQ(result.probe.dst, server.sockets[0]);
  EXPECT_EQ(result.probe.issued_at, host.Now());
  EXPECT_FALSE(result.probe.path.empty());
}

TEST(HostPingTest, UnreachableReported) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto result = host.diagnose().Ping(host.server().nics[0], host.server().nics[0]);
  EXPECT_FALSE(result.probe.reachable);
}

TEST(HostPingTest, PingSeesCongestion) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  const auto before = host.diagnose().Ping(server.nics[0], server.sockets[0]);
  workload::StreamSource::Config bulk;
  bulk.src = server.gpus[0];
  bulk.dst = server.sockets[0];
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  const auto after = host.diagnose().Ping(server.nics[0], server.sockets[0]);
  EXPECT_GT(after.latency, Scale(before.latency, 2.0));
}

TEST(HostTraceTest, BreaksDownPerHop) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  const auto trace = host.diagnose().Trace(server.external_hosts[0], server.dimms[0]);
  ASSERT_TRUE(trace.probe.reachable);
  EXPECT_GE(trace.hops.size(), 5u);
  EXPECT_EQ(trace.hops.front().from, "remote0");
  sim::TimeNs sum = sim::TimeNs::Zero();
  for (const auto& hop : trace.hops) {
    sum += hop.current_latency;
    EXPECT_FALSE(hop.faulted);
  }
  EXPECT_EQ(sum, trace.total_current);
  EXPECT_EQ(trace.total_base, trace.total_current);  // Unloaded.
}

TEST(HostTraceTest, PinpointsFaultedHop) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  const auto path = *host.fabric().Route(server.nics[0], server.sockets[0]);
  host.fabric().InjectLinkFault(path.hops[1].link, fabric::LinkFault{1.0, TimeNs::Micros(3)});
  const auto trace = host.diagnose().Trace(server.nics[0], server.sockets[0]);
  ASSERT_TRUE(trace.probe.reachable);
  EXPECT_FALSE(trace.hops[0].faulted);
  EXPECT_TRUE(trace.hops[1].faulted);
  EXPECT_GT(trace.hops[1].current_latency, trace.hops[1].base_latency + TimeNs::Micros(2));
  const std::string rendered = host.diagnose().Render(trace);
  EXPECT_NE(rendered.find("FAULT"), std::string::npos);
}

TEST(HostTraceTest, ShowsCongestedHopUtilization) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  workload::StreamSource::Config bulk;
  bulk.src = server.gpus[0];
  bulk.dst = server.sockets[0];
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  const auto trace = host.diagnose().Trace(server.gpus[0], server.sockets[0]);
  bool congested_hop = false;
  for (const auto& hop : trace.hops) {
    if (hop.utilization > 0.9) {
      congested_hop = true;
      EXPECT_GT(hop.current_latency, hop.base_latency);
    }
  }
  EXPECT_TRUE(congested_hop);
}

TEST(HostPerfTest, MeasuresBottleneckWhenIdle) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  const auto result = host.diagnose().Perf(server.ssds[0], server.dimms[0]);
  ASSERT_TRUE(result.probe.reachable);
  // PCIe-bound: ~32 GB/s raw less transaction-layer efficiency.
  EXPECT_GT(result.initial_rate.ToGBps(), 25.0);
  EXPECT_LT(result.initial_rate.ToGBps(), 33.0);
  // Probe cleaned up.
  EXPECT_TRUE(host.fabric().ActiveFlows().empty());
}

TEST(HostPerfTest, SeesContention) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  const double idle =
      host.diagnose().Perf(server.ssds[0], server.dimms[0]).initial_rate.ToGBps();
  workload::StreamSource::Config bulk;
  bulk.src = server.gpus[0];  // Shares the switch uplink with ssd0.
  bulk.dst = server.dimms[0];
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  const double loaded =
      host.diagnose().Perf(server.ssds[0], server.dimms[0]).initial_rate.ToGBps();
  EXPECT_NEAR(loaded, idle / 2, idle * 0.1);
}

TEST(HostSharkTest, CapturesAndFilters) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  workload::StreamSource::Config a;
  a.src = server.ssds[0];
  a.dst = server.dimms[0];
  a.tenant = 1;
  workload::StreamSource sa(host.fabric(), a);
  sa.Start();
  workload::StreamSource::Config b;
  b.src = server.gpus[1];
  b.dst = server.dimms[2];
  b.tenant = 2;
  workload::StreamSource sb(host.fabric(), b);
  sb.Start();

  const auto all = host.diagnose().Capture();
  EXPECT_EQ(all.flows.size(), 2u);
  // Sorted by descending rate.
  EXPECT_GE(all.flows[0].rate, all.flows[1].rate);

  FlowFilter tenant_filter;
  tenant_filter.tenant = 2;
  const auto only_b = host.diagnose().Capture(tenant_filter);
  ASSERT_EQ(only_b.flows.size(), 1u);
  EXPECT_EQ(only_b.flows[0].tenant, 2);

  FlowFilter link_filter;
  const auto path_a = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  link_filter.link = path_a.hops[0].link;
  const auto on_link = host.diagnose().Capture(link_filter);
  ASSERT_EQ(on_link.flows.size(), 1u);
  EXPECT_EQ(on_link.flows[0].tenant, 1);

  FlowFilter rate_filter;
  rate_filter.min_rate = Bandwidth::GBps(1000);
  EXPECT_TRUE(host.diagnose().Capture(rate_filter).flows.empty());

  const std::string rendered = host.diagnose().Render(all);
  EXPECT_NE(rendered.find("tenant=1"), std::string::npos);
  EXPECT_NE(rendered.find("path="), std::string::npos);
}

TEST(HostSharkTest, CapturesSpillCompanions) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  fabric::FabricConfig config;
  config.way_bytes = 50 * 1024;
  config.ddio_ways = 1;
  host.fabric().SetConfig(config);
  fabric::FlowSpec write;
  write.path = *host.fabric().Route(server.nics[0], server.sockets[0]);
  write.ddio_write = true;
  write.tenant = 3;
  host.fabric().StartFlow(write);

  FlowFilter spill_filter;
  spill_filter.klass = fabric::TrafficClass::kSpill;
  const auto spills = host.diagnose().Capture(spill_filter);
  ASSERT_EQ(spills.flows.size(), 1u);
  EXPECT_EQ(spills.flows[0].tenant, 3);  // Attribution preserved.
}

}  // namespace
}  // namespace mihn::diagnose
