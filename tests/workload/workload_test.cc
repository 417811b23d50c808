#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/host/host_network.h"
#include "src/workload/kv_client.h"
#include "src/workload/ml_trainer.h"
#include "src/workload/sources.h"

namespace mihn::workload {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

HostNetwork::Options QuietOptions() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  options.manager.mode = manager::ManagerConfig::Mode::kOff;
  return options;
}

TEST(KvClientTest, CompletesOpsAtExpectedUnloadedLatency) {
  sim::Simulation sim;
  HostNetwork host(sim, QuietOptions());
  KvClient::Config config;
  config.client = host.server().external_hosts[0];
  config.server = host.server().sockets[0];
  config.concurrency = 1;
  KvClient kv(host.fabric(), config);
  kv.Start();
  host.RunFor(TimeNs::Millis(10));
  EXPECT_GT(kv.completed_ops(), 100);
  // Unloaded: ~2x path latency (couple of us) + 1 us service; well under 20 us.
  EXPECT_GT(kv.latency_us().mean(), 1.0);
  EXPECT_LT(kv.latency_us().Percentile(0.99), 20.0);
}

TEST(KvClientTest, ConcurrencyScalesThroughput) {
  sim::Simulation sim;
  HostNetwork host(sim, QuietOptions());
  KvClient::Config config;
  config.client = host.server().external_hosts[0];
  config.server = host.server().sockets[0];
  config.concurrency = 1;
  KvClient one(host.fabric(), config);
  config.concurrency = 8;
  KvClient eight(host.fabric(), config);
  one.Start();
  eight.Start();
  host.RunFor(TimeNs::Millis(10));
  EXPECT_GT(eight.completed_ops(), one.completed_ops() * 4);
}

TEST(KvClientTest, CongestionInflatesLatency) {
  sim::Simulation sim;
  HostNetwork host(sim, QuietOptions());
  const auto& server = host.server();
  KvClient::Config config;
  config.client = server.external_hosts[0];
  config.server = server.sockets[0];
  config.concurrency = 2;
  KvClient kv(host.fabric(), config);
  kv.Start();
  host.RunFor(TimeNs::Millis(5));
  const double before_p50 = kv.latency_us().Percentile(0.5);

  // Saturate the PCIe path the KV traffic shares (nic0's switch uplink) in
  // both directions — requests and responses both queue.
  StreamSource::Config up;
  up.src = server.gpus[0];  // Same switch as nic0.
  up.dst = server.sockets[0];
  StreamSource up_stream(host.fabric(), up);
  up_stream.Start();
  StreamSource::Config down;
  down.src = server.sockets[0];
  down.dst = server.gpus[0];
  StreamSource down_stream(host.fabric(), down);
  down_stream.Start();
  host.RunFor(TimeNs::Millis(5));
  // Each direction gains one saturated PCIe switch hop: ~1.4 us of queueing
  // per direction at the 20x inflation cap.
  const double after_p99 = kv.latency_us().Percentile(0.99);
  EXPECT_GT(after_p99, before_p50 + 2.0);
}

TEST(MlTrainerTest, IterationsCompleteWithExpectedTiming) {
  sim::Simulation sim;
  HostNetwork host(sim, QuietOptions());
  const auto& server = host.server();
  MlTrainer::Config config;
  config.data_source = server.dimms[0];
  config.gpu = server.gpus[0];
  config.batch_bytes = 64LL * 1024 * 1024;  // 64 MiB.
  config.compute_time = TimeNs::Millis(5);
  MlTrainer trainer(host.fabric(), config);
  trainer.Start();
  host.RunFor(TimeNs::Millis(200));
  // Load at PCIe-ish speed (~29 GB/s effective): ~2.2ms; +5ms compute. An
  // iteration of 5 to 15 ms fits 13 to 40 of them in 200 ms.
  EXPECT_GT(trainer.iterations(), 200 / 15);
  EXPECT_LE(trainer.iterations(), 200 / 5);
  EXPECT_GT(trainer.load_bandwidth_gbps().mean(), 5.0);
}

TEST(StreamSourceTest, AchievesDemandAndStops) {
  sim::Simulation sim;
  HostNetwork host(sim, QuietOptions());
  const auto& server = host.server();
  StreamSource::Config config;
  config.src = server.ssds[0];
  config.dst = server.dimms[0];
  config.demand = Bandwidth::GBps(5);
  StreamSource stream(host.fabric(), config);
  stream.Start();
  EXPECT_DOUBLE_EQ(stream.AchievedRate().ToGBps(), 5.0);
  stream.Stop();
  EXPECT_TRUE(stream.AchievedRate().IsZero());
}

TEST(StreamSourceTest, ElasticStreamSaturatesPath) {
  sim::Simulation sim;
  HostNetwork host(sim, QuietOptions());
  const auto& server = host.server();
  StreamSource::Config config;
  config.src = server.ssds[0];
  config.dst = server.dimms[0];
  StreamSource stream(host.fabric(), config);
  stream.Start();
  // Bottleneck is PCIe-class (~32 GB/s raw, ~29 effective).
  EXPECT_GT(stream.AchievedRate().ToGBps(), 20.0);
}

TEST(LoopbackRdmaTest, LoadsPcieBothDirections) {
  sim::Simulation sim;
  HostNetwork host(sim, QuietOptions());
  const auto& server = host.server();
  LoopbackRdma::Config config;
  config.nic = server.nics[0];
  config.socket = server.sockets[0];
  LoopbackRdma loopback(host.fabric(), config);
  loopback.Start();
  EXPECT_GT(loopback.WriteRate().ToGBps(), 10.0);
  // Both directions of the NIC's switch downlink are loaded.
  const auto path = *host.fabric().Route(server.nics[0], server.sockets[0]);
  const topology::DirectedLink first_hop = path.hops[0];
  EXPECT_GT(host.fabric().Utilization(first_hop), 0.9);
  EXPECT_GT(host.fabric().Utilization({first_hop.link, !first_hop.forward}), 0.9);
}

TEST(PoissonSourceTest, ArrivalCountMatchesRate) {
  sim::Simulation sim;
  HostNetwork host(sim, QuietOptions());
  const auto& server = host.server();
  PoissonSource::Config config;
  config.src = server.external_hosts[0];
  config.dst = server.sockets[0];
  config.arrivals_per_sec = 10'000.0;
  config.mean_bytes = 4096;
  PoissonSource source(host.fabric(), config);
  source.Start();
  host.RunFor(TimeNs::Millis(100));
  // Expect ~1000 arrivals, Poisson sigma ~32; a 4 KiB transfer takes tens
  // of microseconds, so all but the last few complete within the run.
  EXPECT_NEAR(static_cast<double>(source.completed_transfers()), 1000.0, 150.0);
}

TEST(PoissonSourceTest, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    sim::Simulation sim;
    HostNetwork host(sim, QuietOptions());
    PoissonSource::Config config;
    config.src = host.server().external_hosts[0];
    config.dst = host.server().sockets[0];
    config.arrivals_per_sec = 5'000.0;
    PoissonSource source(host.fabric(), config);
    source.Start();
    host.RunFor(TimeNs::Millis(50));
    return source.completed_transfers();
  };
  EXPECT_EQ(run(), run());
}

TEST(PoissonSourceTest, ParetoSizesVary) {
  sim::Simulation sim;
  HostNetwork host(sim, QuietOptions());
  PoissonSource::Config config;
  config.src = host.server().external_hosts[0];
  config.dst = host.server().sockets[0];
  // Low arrival rate and sizes of at least 100 KiB: every transfer is in
  // flight for longer than the sampling period below, so the fabric shows
  // each one's size (bytes moved + bytes remaining) at least once.
  config.arrivals_per_sec = 500.0;
  config.pareto_alpha = 1.2;
  config.mean_bytes = 1024 * 1024;
  PoissonSource source(host.fabric(), config);
  std::map<fabric::FlowId, int64_t> sizes;
  sim.SchedulePeriodic(TimeNs::Micros(2), [&] {
    for (const fabric::FlowId id : host.fabric().ActiveFlows()) {
      const auto flow = host.fabric().GetFlowInfo(id);
      sizes[id] = flow->bytes_moved + flow->bytes_remaining;
    }
  });
  source.Start();
  host.RunFor(TimeNs::Millis(400));
  EXPECT_GT(source.completed_transfers(), 100);
  ASSERT_GE(sizes.size(), static_cast<size_t>(source.completed_transfers()));
  std::vector<int64_t> sorted;
  for (const auto& [id, bytes] : sizes) {
    sorted.push_back(bytes);
  }
  std::sort(sorted.begin(), sorted.end());
  // Heavy tail: p99 size well above the median.
  EXPECT_GT(sorted[sorted.size() * 99 / 100], sorted[sorted.size() / 2] * 2);
}

TEST(BurstySourceTest, TogglesOnAndOff) {
  sim::Simulation sim;
  HostNetwork host(sim, QuietOptions());
  BurstySource::Config config;
  config.src = host.server().ssds[0];
  config.dst = host.server().dimms[0];
  config.mean_on = TimeNs::Millis(2);
  config.mean_off = TimeNs::Millis(2);
  BurstySource bursty(host.fabric(), config);
  bursty.Start();
  host.RunFor(TimeNs::Millis(100));
  EXPECT_GT(bursty.bursts(), 5);
  // Each off phase stops the burst's flow: at most one is ever live.
  EXPECT_LE(host.fabric().ActiveFlows().size(), 1u);
}

TEST(WorkloadBaseTest, StartIsIdempotent) {
  sim::Simulation sim;
  HostNetwork host(sim, QuietOptions());
  StreamSource::Config config;
  config.src = host.server().ssds[0];
  config.dst = host.server().dimms[0];
  config.demand = Bandwidth::GBps(1);
  StreamSource stream(host.fabric(), config);
  stream.Start();
  stream.Start();
  EXPECT_EQ(host.fabric().ActiveFlows().size(), 1u);
}

}  // namespace
}  // namespace mihn::workload
