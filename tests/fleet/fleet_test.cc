#include "src/fleet/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/fabric/max_min.h"
#include "src/fleet/inter_host.h"
#include "src/obs/export.h"
#include "src/sim/random.h"

namespace mihn::fleet {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

// -- InterHostNetwork ---------------------------------------------------------

TEST(InterHostNetworkTest, HostUplinkIsSharedMaxMin) {
  InterHostNetwork::Config config;
  config.hosts = 4;
  config.hosts_per_rack = 4;  // One rack: no rack hops involved.
  InterHostNetwork net(config);
  // Two flows out of host 0 compete for its 100G uplink.
  const int32_t a = net.AddFlow(0, 1, Bandwidth::Gbps(100));
  const int32_t b = net.AddFlow(0, 2, Bandwidth::Gbps(100));
  net.Solve();
  EXPECT_DOUBLE_EQ(net.FlowRate(a).ToGbps(), 50.0);
  EXPECT_DOUBLE_EQ(net.FlowRate(b).ToGbps(), 50.0);
}

TEST(InterHostNetworkTest, RackUplinkBindsCrossRackFlows) {
  InterHostNetwork::Config config;
  config.hosts = 4;
  config.hosts_per_rack = 2;  // Hosts {0,1} in rack 0, {2,3} in rack 1.
  config.rack_up = Bandwidth::Gbps(100);
  config.rack_down = Bandwidth::Gbps(100);
  InterHostNetwork net(config);
  EXPECT_EQ(net.racks(), 2);
  // Distinct source hosts (100G uplink each) but one shared 100G rack uplink.
  const int32_t a = net.AddFlow(0, 2, Bandwidth::Gbps(100));
  const int32_t b = net.AddFlow(1, 3, Bandwidth::Gbps(100));
  net.Solve();
  EXPECT_DOUBLE_EQ(net.FlowRate(a).ToGbps(), 50.0);
  EXPECT_DOUBLE_EQ(net.FlowRate(b).ToGbps(), 50.0);
  // Intra-rack traffic skips the rack hop, but host 2's downlink is shared
  // with flow a: max-min grants each 50.
  const int32_t c = net.AddFlow(3, 2, Bandwidth::Gbps(100));
  net.Solve();
  EXPECT_DOUBLE_EQ(net.FlowRate(c).ToGbps(), 50.0);
  EXPECT_DOUBLE_EQ(net.FlowRate(a).ToGbps(), 50.0);
}

TEST(InterHostNetworkTest, SnapshotOrderIsFixed) {
  InterHostNetwork::Config config;
  config.hosts = 3;
  config.hosts_per_rack = 2;
  InterHostNetwork net(config);
  const auto links = net.SnapshotLinks();
  ASSERT_EQ(links.size(), 2u * 3 + 2u * 2);
  EXPECT_EQ(links[0].host, 0);
  EXPECT_TRUE(links[0].up);
  EXPECT_EQ(links[1].host, 0);
  EXPECT_FALSE(links[1].up);
  EXPECT_EQ(links[6].host, -1);  // First rack link after 3 host pairs.
  EXPECT_EQ(links[6].rack, 0);
}

// A random add/demand trace: after every Solve(), whether it replayed
// demand changes or re-primed after an add, each slot's rate equals
// SolveMaxMinReference over all slots bit for bit. The links follow the SnapshotLinks() order: host h up/down at
// 2h and 2h + 1, then rack r up/down at 2·hosts + 2r and 2·hosts + 2r + 1.
TEST(InterHostNetworkTest, MutationTraceMatchesReference) {
  InterHostNetwork::Config config;
  config.hosts = 12;
  config.hosts_per_rack = 4;
  // Narrower than the four 100G host links behind each: racks bind too.
  config.rack_up = Bandwidth::Gbps(250);
  config.rack_down = Bandwidth::Gbps(180);
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    InterHostNetwork net(config);
    ASSERT_EQ(net.racks(), 3);
    std::vector<double> caps;
    for (const InterHostLinkUse& use : net.SnapshotLinks()) {
      caps.push_back(use.capacity_bps);
    }
    sim::Rng rng(seed);
    const auto random_demand = [&rng] {
      if (rng.Bernoulli(0.1)) {
        return 0.0;
      }
      if (rng.Bernoulli(0.2)) {
        return fabric::kUnlimitedDemand;
      }
      return Bandwidth::Gbps(rng.Uniform(1.0, 150.0)).bytes_per_sec();
    };
    std::vector<fabric::MaxMinFlow> shadow;  // Slot-indexed.
    for (int batch = 0; batch < 60; ++batch) {
      std::vector<int32_t> added;
      const int64_t ops = rng.UniformInt(1, 4);
      for (int64_t op = 0; op < ops; ++op) {
        const int64_t kind = shadow.empty() ? 0 : rng.UniformInt(0, 3);
        if (kind <= 1) {
          const int src = static_cast<int>(rng.UniformInt(0, config.hosts - 1));
          int dst = static_cast<int>(rng.UniformInt(0, config.hosts - 2));
          dst += dst >= src ? 1 : 0;
          fabric::MaxMinFlow f;
          f.weight = rng.Uniform(0.5, 4.0);
          f.demand = random_demand();
          f.links.push_back(2 * src);
          if (net.RackOf(src) != net.RackOf(dst)) {
            f.links.push_back(2 * config.hosts + 2 * net.RackOf(src));
            f.links.push_back(2 * config.hosts + 2 * net.RackOf(dst) + 1);
          }
          f.links.push_back(2 * dst + 1);
          const int32_t slot =
              net.AddFlow(src, dst, Bandwidth::BytesPerSec(f.demand), f.weight);
          ASSERT_EQ(static_cast<size_t>(slot), shadow.size());
          shadow.push_back(std::move(f));
          added.push_back(slot);
          continue;
        }
        const auto slot = static_cast<int32_t>(
            rng.UniformInt(0, static_cast<int64_t>(shadow.size()) - 1));
        const double demand = random_demand();
        net.SetFlowDemand(slot, Bandwidth::BytesPerSec(demand));
        shadow[static_cast<size_t>(slot)].demand = demand;
      }
      for (const int32_t slot : added) {
        EXPECT_EQ(net.FlowRate(slot).bytes_per_sec(), 0.0) << "seed " << seed;
      }
      net.Solve();
      const std::vector<double> want = fabric::SolveMaxMinReference(shadow, caps);
      for (size_t at = 0; at < shadow.size(); ++at) {
        const double got = net.FlowRate(static_cast<int32_t>(at)).bytes_per_sec();
        ASSERT_EQ(got, want[at]) << "seed " << seed << " batch " << batch << " slot " << at;
      }
    }
  }
}

// -- Fleet --------------------------------------------------------------------

// The standard workload for the determinism gates: a mix of intra-rack and
// cross-rack flows over disjoint host pairs, two tenants.
std::vector<CrossHostFlowSpec> GateWorkload(int hosts) {
  std::vector<CrossHostFlowSpec> specs;
  for (int src = 0; src + 40 < hosts; src += 48) {
    CrossHostFlowSpec near;
    near.tenant = 7;
    near.src_host = src;
    near.dst_host = src + 5;  // Same rack at the default width of 32.
    specs.push_back(near);
    CrossHostFlowSpec far;
    far.tenant = 9;
    far.src_host = src + 2;
    far.dst_host = src + 40;  // Crosses into the next rack.
    far.demand = Bandwidth::Gbps(80);
    specs.push_back(far);
  }
  return specs;
}

// Runs the gate workload; returns the telemetry digest and, if |encoded| is
// set, appends every sample's canonical encoding to it.
uint64_t RunGate(int hosts, int ticks, Fleet::Options options, bool reverse_placement,
                 std::string* encoded = nullptr) {
  Fleet fleet(hosts, options);
  std::vector<CrossHostFlowSpec> specs = GateWorkload(hosts);
  if (reverse_placement) {
    std::reverse(specs.begin(), specs.end());
  }
  for (const CrossHostFlowSpec& spec : specs) {
    fleet.StartCrossHostFlow(spec);
  }
  fleet.Run(ticks);
  if (encoded != nullptr) {
    for (const FleetSample& sample : fleet.samples()) {
      *encoded += EncodeSample(sample) + "\n";
    }
  }
  return fleet.TelemetryDigest();
}

// The ISSUE's acceptance gate: a 256-host fleet, multi-tick, byte-identical
// telemetry across two independent runs.
TEST(FleetTest, DeterminismGate256Hosts) {
  std::string encoded_a;
  std::string encoded_b;
  const uint64_t a = RunGate(256, 3, Fleet::Options{}, false, &encoded_a);
  const uint64_t b = RunGate(256, 3, Fleet::Options{}, false, &encoded_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(encoded_a, encoded_b);
  EXPECT_NE(a, 0xcbf29ce484222325ull);  // Not the empty-history digest.
}

TEST(FleetTest, DigestIndependentOfPlacementOrder) {
  const uint64_t forward = RunGate(128, 3, Fleet::Options{}, false);
  const uint64_t reversed = RunGate(128, 3, Fleet::Options{}, true);
  EXPECT_EQ(forward, reversed);
}

// The tentpole gate: the parallel settle + reduction must be invisible in
// the telemetry. Byte-identical digests across worker counts, including
// 0/1 (serial: a width-1 pool, no helper threads) and widths beyond the
// machine's core count.
TEST(FleetTest, DigestIndependentOfWorkerCount256Hosts) {
  std::string baseline_encoded;
  Fleet::Options serial;
  serial.worker_threads = 0;
  const uint64_t baseline = RunGate(256, 3, serial, false, &baseline_encoded);
  EXPECT_NE(baseline, 0xcbf29ce484222325ull);  // Not the empty-history digest.
  for (const int workers : {1, 2, 8}) {
    Fleet::Options options;
    options.worker_threads = workers;
    options.clamp_workers_to_hardware = false;  // Real threads even on 1 core.
    std::string encoded;
    EXPECT_EQ(RunGate(256, 3, options, false, &encoded), baseline) << workers << " workers";
    EXPECT_EQ(encoded, baseline_encoded) << workers << " workers";
  }
}

TEST(FleetTest, WorkerParallelismReflectsOptionsAndClamp) {
  Fleet serial(2, {});
  EXPECT_EQ(serial.worker_parallelism(), 1);

  Fleet::Options unclamped;
  unclamped.worker_threads = 8;
  unclamped.clamp_workers_to_hardware = false;
  Fleet wide(2, unclamped);
  EXPECT_EQ(wide.worker_parallelism(), 8);

  Fleet::Options clamped;
  clamped.worker_threads = 1 << 20;  // Absurd: must clamp to the machine.
  Fleet sane(2, clamped);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_LE(sane.worker_parallelism(), static_cast<int>(hw == 0 ? 1u : hw));
  EXPECT_GE(sane.worker_parallelism(), 1);
}

// Finite transfers on every host, sized to finish mid-run and re-solved
// every tick by the coupling churn on the same host, plus one cross-host
// flow per host pair. |completions| gets one list of completion times per
// host; only that host's callbacks write its list.
void PlaceTransfersAndPairs(Fleet& fleet, std::vector<std::vector<int64_t>>& completions) {
  completions.assign(static_cast<size_t>(fleet.host_count()), {});
  for (int h = 0; h < fleet.host_count(); ++h) {
    fabric::TransferSpec transfer;
    transfer.flow.path = *fleet.host(h).fabric().Route(fleet.host(h).server().ssds[0],
                                                       fleet.host(h).server().dimms[0]);
    transfer.flow.tenant = 2;
    transfer.flow.demand = Bandwidth::Gbps(50);
    transfer.bytes = 4 * 1000 * 1000 * (h + 1);  // Staggered completions.
    transfer.on_complete = [&completions, h](const fabric::TransferResult& result) {
      completions[static_cast<size_t>(h)].push_back(result.end.nanos());
    };
    fleet.host(h).fabric().StartTransfer(std::move(transfer));
  }
  for (int h = 0; h + 1 < fleet.host_count(); h += 2) {
    CrossHostFlowSpec cross;
    cross.tenant = 5;
    cross.src_host = h;
    cross.dst_host = h + 1;
    fleet.StartCrossHostFlow(cross);
  }
}

// Completion events are the settle output that lands on a host's clock.
// Each host's completions, and the digest, must not depend on which worker
// ran the host.
TEST(FleetTest, ParallelSettleWithFiniteTransfersMatchesSerial) {
  struct Outcome {
    uint64_t digest = 0;
    std::vector<std::vector<int64_t>> completions;  // Per host: end ns.
  };
  const auto run = [](int workers) {
    Fleet::Options options;
    options.worker_threads = workers;
    options.clamp_workers_to_hardware = false;
    Fleet fleet(8, options);
    Outcome out;
    PlaceTransfersAndPairs(fleet, out.completions);
    fleet.Run(4);
    out.digest = fleet.TelemetryDigest();
    return out;
  };
  const Outcome serial = run(0);
  ASSERT_FALSE(serial.completions.front().empty());  // The gate must exercise completions.
  for (const int workers : {2, 8}) {
    const Outcome pooled = run(workers);
    EXPECT_EQ(pooled.digest, serial.digest) << workers << " workers";
    EXPECT_EQ(pooled.completions, serial.completions) << workers << " workers";
  }
}

// A traced host template gives every host its own tracer on its own clock.
// Each host's trace export must not depend on which worker ran the host.
TEST(FleetTest, TracedFleetExportsAreByteStable) {
  const auto run = [](int workers) {
    Fleet::Options options;
    options.host.trace.enabled = true;
    options.worker_threads = workers;
    options.clamp_workers_to_hardware = false;
    Fleet fleet(8, options);
    std::vector<std::vector<int64_t>> completions;
    PlaceTransfersAndPairs(fleet, completions);
    anomaly::HeartbeatMesh::Config mesh;
    mesh.period = TimeNs::Micros(100);
    fleet.EnableHeartbeats(mesh);
    fleet.Run(4);
    std::vector<std::string> exports;
    for (int h = 0; h < fleet.host_count(); ++h) {
      exports.push_back(obs::ChromeTraceJson(fleet.host(h).tracer()));
    }
    return exports;
  };
  const std::vector<std::string> serial = run(0);
  for (const std::string& json : serial) {
    EXPECT_NE(json.find("fabric.solve"), std::string::npos);
  }
  EXPECT_NE(serial.front().find("fabric.completion"), std::string::npos);
  for (const int workers : {2, 8}) {
    EXPECT_EQ(run(workers), serial) << workers << " workers";
  }
}

// At the 1024-host scale the pooled tick must reproduce the serial one
// byte for byte. (Its speedup is bench_fleet's --gate business: ctest makes
// no wall-clock assertions.) The pool is unclamped so helper threads really
// run even on small machines.
TEST(FleetTest, PooledTickMatchesSerial1024Hosts) {
  constexpr int kHosts = 1024;
  constexpr int kTicks = 6;
  Fleet::Options serial;
  serial.worker_threads = 0;
  Fleet::Options pooled;
  pooled.worker_threads = 4;
  pooled.clamp_workers_to_hardware = false;
  const uint64_t serial_digest = RunGate(kHosts, kTicks, serial, /*reverse_placement=*/false);
  EXPECT_EQ(RunGate(kHosts, kTicks, pooled, /*reverse_placement=*/false), serial_digest);
}

TEST(FleetTest, TickAdvancesSharedClockAndSamples) {
  Fleet fleet(2, {});
  EXPECT_EQ(fleet.Now(), TimeNs::Zero());
  const FleetSample& first = fleet.Tick();
  EXPECT_EQ(first.at, Fleet::Options{}.tick_period);
  EXPECT_EQ(fleet.host(0).Now(), fleet.Now());
  EXPECT_EQ(fleet.host(1).Now(), fleet.Now());
  fleet.Run(2);
  EXPECT_EQ(fleet.samples().size(), 3u);
  EXPECT_EQ(fleet.samples().back().at.nanos(), 3 * Fleet::Options{}.tick_period.nanos());
}

TEST(FleetTest, CrossHostFlowCouplesToMinOfStages) {
  Fleet fleet(2, {});
  CrossHostFlowSpec spec;
  spec.tenant = 3;
  spec.src_host = 0;
  spec.dst_host = 1;
  spec.demand = Bandwidth::Gbps(4000);  // Far above any stage's capacity.
  const CrossFlowId id = fleet.StartCrossHostFlow(spec);
  EXPECT_EQ(fleet.CrossHostRate(id).bytes_per_sec(), 0.0);  // Before first tick.
  fleet.Run(3);
  const double settled = fleet.CrossHostRate(id).bytes_per_sec();
  EXPECT_GT(settled, 0.0);
  // Bounded by the inter-host access link and by both intra-host stages.
  EXPECT_LE(settled, kHostLinkCapacity.bytes_per_sec());
  // After coupling, the source intra-host stage is capped at exactly the
  // end-to-end rate.
  const auto src_flows = fleet.host(0).fabric().ActiveFlows();
  ASSERT_EQ(src_flows.size(), 1u);
  EXPECT_DOUBLE_EQ(fleet.host(0).fabric().FlowRate(src_flows.front()).bytes_per_sec(), settled);
  // A fixed point: further ticks do not move it.
  fleet.Tick();
  EXPECT_DOUBLE_EQ(fleet.CrossHostRate(id).bytes_per_sec(), settled);
  EXPECT_GT(fleet.samples().back().inter_rate_bps, 0.0);
  EXPECT_EQ(fleet.samples().back().cross_host_flows, 1);
}

TEST(FleetDeathTest, OutOfRangeDeviceDiesOnTheRouteCheck) {
  // A device id that names no component of the host has no route: the
  // placement dies on its route check instead of reading past the router's
  // search arrays.
  Fleet fleet(2, {});
  const auto bad = static_cast<topology::ComponentId>(fleet.host(0).topo().component_count()) +
                   1000;
  CrossHostFlowSpec spec;
  spec.src_host = 0;
  spec.dst_host = 1;
  spec.src_device = bad;
  EXPECT_DEATH(fleet.StartCrossHostFlow(spec), "src_path.has_value");
  spec.src_device = topology::kInvalidComponent;
  spec.dst_device = bad;
  EXPECT_DEATH(fleet.StartCrossHostFlow(spec), "dst_path.has_value");
}

TEST(FleetTest, RootCauseViewRanksFleetWideSuspects) {
  Fleet fleet(3, {});
  // Tenant 7 saturates a link on hosts 0 and 2; tenant 4 rides along small
  // on host 0 only.
  for (const int h : {0, 2}) {
    fabric::FlowSpec hog;
    hog.path = *fleet.host(h).fabric().Route(fleet.host(h).server().gpus[0],
                                             fleet.host(h).server().dimms[0]);
    hog.tenant = 7;
    fleet.host(h).fabric().StartFlow(hog);
  }
  fabric::FlowSpec minor;
  minor.path = *fleet.host(0).fabric().Route(fleet.host(0).server().ssds[0],
                                             fleet.host(0).server().dimms[0]);
  minor.tenant = 4;
  minor.demand = Bandwidth::Gbps(1);
  fleet.host(0).fabric().StartFlow(minor);
  fleet.Run(2);

  FleetRootCause view = fleet.RootCauseView();
  ASSERT_FALSE(view.hosts.empty());
  EXPECT_EQ(view.hosts.front().host, 0);
  ASSERT_FALSE(view.suspects.empty());
  EXPECT_EQ(view.suspects.front().tenant, 7);
  EXPECT_EQ(view.suspects.front().hosts_implicated, 2);
  EXPECT_GT(fleet.samples().back().max_host_utilization, 0.9);
}

// Every host's mesh probes on its own clock; pooled, those event windows
// run on helper threads. The alarms, bit for bit, and the digest must match
// the serial run.
TEST(FleetTest, HeartbeatAlarmsSurfacePerHost) {
  struct Outcome {
    uint64_t digest = 0;
    // (host, first alarm ns, top suspect, score bits).
    std::vector<std::tuple<int, int64_t, topology::LinkId, uint64_t>> alarms;
  };
  const auto run = [](int workers) {
    Fleet::Options options;
    options.tick_period = TimeNs::Millis(2);
    options.worker_threads = workers;
    options.clamp_workers_to_hardware = false;
    Fleet fleet(4, options);
    anomaly::HeartbeatMesh::Config mesh;
    mesh.period = TimeNs::Micros(100);
    mesh.baseline_samples = 4;
    fleet.EnableHeartbeats(mesh);
    fleet.Run(2);  // Establish baselines on a healthy fleet.

    // Silent +5us degradation on host 1, on a link its probes traverse.
    HostNetwork& faulty = fleet.host(1);
    const auto path = *faulty.fabric().Route(faulty.server().nics[0], faulty.server().sockets[0]);
    fabric::LinkFault fault;
    fault.extra_latency = TimeNs::Micros(5);
    faulty.fabric().InjectLinkFault(path.hops[0].link, fault);
    fleet.Run(3);

    Outcome out;
    for (const HostAlarm& alarm : fleet.RootCauseView().alarms) {
      out.alarms.emplace_back(alarm.host, alarm.first_alarm_at.nanos(), alarm.top_suspect,
                              std::bit_cast<uint64_t>(alarm.score));
    }
    out.digest = fleet.TelemetryDigest();
    return out;
  };
  const Outcome serial = run(0);
  ASSERT_EQ(serial.alarms.size(), 1u);
  EXPECT_EQ(std::get<0>(serial.alarms.front()), 1);
  EXPECT_GT(std::get<1>(serial.alarms.front()), 0);
  for (const int workers : {2, 8}) {
    const Outcome pooled = run(workers);
    EXPECT_EQ(pooled.alarms, serial.alarms) << workers << " workers";
    EXPECT_EQ(pooled.digest, serial.digest) << workers << " workers";
  }
}

TEST(FleetTest, HostTemplateOptionsApply) {
  Fleet::Options options;
  options.host.preset = HostNetwork::Preset::kEdgeNode;
  Fleet fleet(2, options);
  EXPECT_EQ(fleet.host(0).server().gpus.size(), 0u);
  // Every host runs on its own clock, apart from the coordinator clock.
  EXPECT_NE(&fleet.host(0).simulation(), &fleet.host(1).simulation());
  EXPECT_NE(&fleet.host(0).simulation(), &fleet.simulation());
  EXPECT_NE(&fleet.host(1).simulation(), &fleet.simulation());
  fleet.Tick();
  for (int h = 0; h < fleet.host_count(); ++h) {
    EXPECT_EQ(fleet.host(h).Now(), fleet.Now()) << "host " << h;
  }
}

}  // namespace
}  // namespace mihn::fleet
