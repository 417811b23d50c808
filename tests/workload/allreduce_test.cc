#include "src/workload/allreduce.h"

#include <gtest/gtest.h>

#include "src/host/host_network.h"
#include "src/workload/sources.h"

namespace mihn::workload {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

HostNetwork::Options DgxQuiet() {
  HostNetwork::Options options;
  options.preset = HostNetwork::Preset::kDgxClass;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

TEST(AllReduceTest, CompletesIterations) {
  sim::Simulation sim;
  HostNetwork host(sim, DgxQuiet());
  RingAllReduce::Config config;
  config.gpus = host.server().gpus;
  config.tensor_bytes = 64LL * 1024 * 1024;
  config.compute_time = TimeNs::Millis(1);
  RingAllReduce ar(host.fabric(), config);
  ar.Start();
  host.RunFor(TimeNs::Millis(500));
  ar.Stop();
  EXPECT_GT(ar.comm_ms().count(), 3);
  EXPECT_GT(ar.comm_ms().mean(), 0.0);
  EXPECT_GT(ar.LastBusBandwidthGBps(), 1.0);
  EXPECT_TRUE(host.fabric().ActiveFlows().empty());
}

TEST(AllReduceTest, RequiresAtLeastTwoGpus) {
  sim::Simulation sim;
  HostNetwork host(sim, DgxQuiet());
  RingAllReduce::Config config;
  config.gpus = {host.server().gpus[0]};
  RingAllReduce ar(host.fabric(), config);
  ar.Start();
  host.RunFor(TimeNs::Millis(10));
  EXPECT_EQ(ar.comm_ms().count(), 0);
  EXPECT_TRUE(host.fabric().ActiveFlows().empty());
}

TEST(AllReduceTest, TwoGpuRingOnSameSwitchIsFast) {
  // gpu0 and gpu1 share one PCIe switch: the ring is 2 hops each way
  // through the switch, at PCIe speed.
  sim::Simulation sim;
  HostNetwork host(sim, DgxQuiet());
  RingAllReduce::Config config;
  config.gpus = {host.server().gpus[0], host.server().gpus[1]};
  config.tensor_bytes = 64LL * 1024 * 1024;
  config.compute_time = TimeNs::Millis(1);
  RingAllReduce ar(host.fabric(), config);
  ar.Start();
  host.RunFor(TimeNs::Millis(200));
  ar.Stop();
  ASSERT_GT(ar.comm_ms().count(), 1);
  // N=2: 2 steps of chunk=32MiB; each step is two opposing transfers over
  // the switch (~29 GB/s effective each): ~1.2ms per step, ~2.3ms comm.
  EXPECT_GT(ar.comm_ms().mean(), 1.0);
  EXPECT_LT(ar.comm_ms().mean(), 6.0);
}

TEST(AllReduceTest, CrossSocketRingIsSlowerThanLocal) {
  sim::Simulation sim;
  HostNetwork host(sim, DgxQuiet());
  const auto& gpus = host.server().gpus;
  RingAllReduce::Config local;
  local.gpus = {gpus[0], gpus[1]};  // Same switch.
  local.tensor_bytes = 64LL * 1024 * 1024;
  local.compute_time = TimeNs::Millis(1);
  RingAllReduce local_ring(host.fabric(), local);
  local_ring.Start();
  host.RunFor(TimeNs::Millis(200));
  local_ring.Stop();

  RingAllReduce::Config cross = local;
  cross.gpus = {gpus[0], gpus.back()};  // Crosses the inter-socket fabric.
  RingAllReduce cross_ring(host.fabric(), cross);
  cross_ring.Start();
  host.RunFor(TimeNs::Millis(200));
  cross_ring.Stop();

  ASSERT_GT(local_ring.comm_ms().count(), 0);
  ASSERT_GT(cross_ring.comm_ms().count(), 0);
  // The cross-socket path has more hops and higher latency but the
  // inter-socket links are wide (46 GB/s); comm should be same-or-slower,
  // never faster.
  EXPECT_GE(cross_ring.comm_ms().mean(), local_ring.comm_ms().mean() * 0.99);
}

TEST(AllReduceTest, ContentionSlowsTheRing) {
  sim::Simulation sim;
  HostNetwork host(sim, DgxQuiet());
  RingAllReduce::Config config;
  config.gpus = host.server().gpus;
  config.tensor_bytes = 32LL * 1024 * 1024;
  config.compute_time = TimeNs::Millis(1);
  RingAllReduce ar(host.fabric(), config);
  ar.Start();
  host.RunFor(TimeNs::Millis(300));
  const double before = ar.comm_ms().mean();

  // Saturate one ring edge's PCIe switch.
  StreamSource::Config bulk;
  bulk.src = host.server().gpus[0];
  bulk.dst = host.server().sockets[0];
  StreamSource stream(host.fabric(), bulk);
  stream.Start();
  host.RunFor(TimeNs::Millis(300));
  ar.Stop();
  const double after = ar.comm_ms().max();
  EXPECT_GT(after, before * 1.3);
}

TEST(AllReduceTest, StopMidIterationCleansUp) {
  sim::Simulation sim;
  HostNetwork host(sim, DgxQuiet());
  RingAllReduce::Config config;
  config.gpus = host.server().gpus;
  config.tensor_bytes = 1LL * 1024 * 1024 * 1024;  // Long steps.
  RingAllReduce ar(host.fabric(), config);
  ar.Start();
  host.RunFor(TimeNs::Millis(1));  // Mid-step.
  EXPECT_FALSE(host.fabric().ActiveFlows().empty());
  ar.Stop();
  EXPECT_TRUE(host.fabric().ActiveFlows().empty());
  host.RunFor(TimeNs::Millis(100));
  EXPECT_EQ(ar.comm_ms().count(), 0);
}

}  // namespace
}  // namespace mihn::workload
