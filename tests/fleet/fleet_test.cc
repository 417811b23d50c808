#include "src/fleet/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/fabric/max_min.h"
#include "src/obs/export.h"
#include "src/sim/random.h"

namespace mihn::fleet {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

// -- RackTopology -------------------------------------------------------------

// A fabric over RackTopology(hosts) on its own clock: the inter-host
// network as the fleet builds it.
struct InterHostNet {
  explicit InterHostNet(int hosts) : topo(RackTopology(hosts)), fabric(sim, topo) {}

  fabric::FlowId Start(int src, int dst, double demand_bps, double weight = 1.0) {
    fabric::FlowSpec spec;
    spec.path = *fabric.Route(src, dst);
    spec.demand = Bandwidth::BytesPerSec(demand_bps);
    spec.weight = weight;
    return fabric.StartFlow(std::move(spec));
  }

  sim::Simulation sim{1};
  topology::Topology topo;
  fabric::Fabric fabric;
};

TEST(RackTopologyTest, HostUplinkIsSharedMaxMin) {
  InterHostNet net(4);  // One rack: no rack hops involved.
  // Two flows out of host 0 compete for its 100G uplink.
  const fabric::FlowId a = net.Start(0, 1, Bandwidth::Gbps(100).bytes_per_sec());
  const fabric::FlowId b = net.Start(0, 2, Bandwidth::Gbps(100).bytes_per_sec());
  EXPECT_DOUBLE_EQ(net.fabric.FlowRate(a).ToGbps(), 50.0);
  EXPECT_DOUBLE_EQ(net.fabric.FlowRate(b).ToGbps(), 50.0);
}

TEST(RackTopologyTest, RackUplinkBindsCrossRackFlows) {
  InterHostNet net(64);  // Hosts 0-31 in rack 0, 32-63 in rack 1.
  // Ten flows from distinct hosts (100G uplink each) share rack 0's 800G
  // uplink.
  std::vector<fabric::FlowId> out;
  for (int h = 0; h < 10; ++h) {
    out.push_back(net.Start(h, 32 + h, Bandwidth::Gbps(100).bytes_per_sec()));
  }
  for (const fabric::FlowId id : out) {
    EXPECT_DOUBLE_EQ(net.fabric.FlowRate(id).ToGbps(), 80.0);
  }
  // Intra-rack traffic skips the rack hop, but host 32's downlink is shared
  // with the first flow: max-min grants each 50, and the other nine split
  // the rest of the rack uplink.
  const fabric::FlowId c = net.Start(60, 32, Bandwidth::Gbps(100).bytes_per_sec());
  EXPECT_DOUBLE_EQ(net.fabric.FlowRate(c).ToGbps(), 50.0);
  EXPECT_DOUBLE_EQ(net.fabric.FlowRate(out[0]).ToGbps(), 50.0);
  EXPECT_DOUBLE_EQ(net.fabric.FlowRate(out[1]).ToGbps(), 750.0 / 9);
}

// Host h's access link is link h and rack r's uplink link hosts + r, each
// forward toward the spine, so topology::DirectedIndex lays the directed
// links out as host h up/down at 2h and 2h + 1, then rack r up/down at
// 2·(hosts + r) and 2·(hosts + r) + 1.
TEST(RackTopologyTest, DirectedIndexLayoutIsFixed) {
  constexpr int kHosts = 70;  // Three racks, the last one partial.
  const topology::Topology topo = RackTopology(kHosts);
  ASSERT_EQ(topo.component_count(), static_cast<size_t>(kHosts + 3 + 1));
  ASSERT_EQ(topo.link_count(), static_cast<size_t>(kHosts + 3));
  EXPECT_TRUE(topo.Validate().empty());
  for (int h = 0; h < kHosts; ++h) {
    const topology::Link& link = topo.link(h);
    EXPECT_EQ(link.a, h);
    EXPECT_EQ(link.b, kHosts + h / kHostsPerRack);
    EXPECT_EQ(link.spec.kind, topology::LinkKind::kInterHost);
    EXPECT_EQ(link.spec.capacity, kHostLinkCapacity);
  }
  for (int r = 0; r < 3; ++r) {
    const topology::Link& link = topo.link(kHosts + r);
    EXPECT_EQ(link.a, kHosts + r);
    EXPECT_EQ(link.b, kHosts + 3);  // The spine.
    EXPECT_EQ(link.spec.kind, topology::LinkKind::kInterHost);
    EXPECT_EQ(link.spec.capacity, kRackLinkCapacity);
  }
  const topology::Router router(topo);
  const auto indices = [&router](int src, int dst) {
    const std::optional<topology::Path> path = router.ShortestPath(src, dst);
    std::vector<int32_t> out;
    for (const topology::DirectedLink& hop : path->hops) {
      out.push_back(topology::DirectedIndex(hop));
    }
    return out;
  };
  EXPECT_EQ(indices(3, 5), (std::vector<int32_t>{6, 11}));
  EXPECT_EQ(indices(1, 69), (std::vector<int32_t>{2, 2 * kHosts, 2 * (kHosts + 2) + 1, 139}));
  EXPECT_EQ(indices(69, 1), (std::vector<int32_t>{138, 2 * (kHosts + 2), 2 * kHosts + 1, 3}));
}

// The fleet builds each inter-host route from the rack layout instead of
// searching for it: every ordered host pair must get the router's path,
// nodes and hops alike, in a fleet with a one-host rack and in one of
// three full racks.
TEST(RackTopologyTest, RackRouteIsTheRoutersPath) {
  for (const int hosts : {33, 96}) {
    const topology::Topology topo = RackTopology(hosts);
    const topology::Router router(topo);
    for (int src = 0; src < hosts; ++src) {
      for (int dst = 0; dst < hosts; ++dst) {
        if (src != dst) {
          ASSERT_EQ(RackRoute(hosts, src, dst), *router.ShortestPath(src, dst))
              << hosts << " hosts, " << src << " -> " << dst;
        }
      }
    }
  }
}

// A random start/demand/stop trace over three racks: after every batch,
// whether the fabric re-primed after a start or stop, replayed demand
// changes, or already solved on its clock's pre-advance hook, each live
// flow's rate equals SolveMaxMinReference over the live flows in id order,
// bit for bit. The reference's links follow the layout above.
TEST(RackTopologyTest, MutationTraceMatchesReference) {
  constexpr int kHosts = 96;
  std::vector<double> caps;
  for (int h = 0; h < kHosts; ++h) {
    caps.insert(caps.end(), 2, kHostLinkCapacity.bytes_per_sec());
  }
  for (int r = 0; r < 3; ++r) {
    caps.insert(caps.end(), 2, kRackLinkCapacity.bytes_per_sec());
  }
  int rack_bound_batches = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    InterHostNet net(kHosts);
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
    std::map<fabric::FlowId, fabric::MaxMinFlow> live;  // Id order.
    for (int batch = 0; batch < 60; ++batch) {
      const int64_t ops = rng.UniformInt(1, 6);
      for (int64_t op = 0; op < ops; ++op) {
        const int64_t kind = live.empty() ? 0 : rng.UniformInt(0, 4);
        if (kind <= 1) {
          // Half the sources crowd into rack 0, so its uplink binds too.
          const int src = static_cast<int>(
              rng.Bernoulli(0.5) ? rng.UniformInt(0, 15) : rng.UniformInt(0, kHosts - 1));
          int dst = static_cast<int>(rng.UniformInt(0, kHosts - 2));
          dst += dst >= src ? 1 : 0;
          fabric::MaxMinFlow f;
          f.weight = rng.Uniform(0.5, 4.0);
          f.demand = random_demand();
          f.links.push_back(2 * src);
          if (src / kHostsPerRack != dst / kHostsPerRack) {
            f.links.push_back(2 * (kHosts + src / kHostsPerRack));
            f.links.push_back(2 * (kHosts + dst / kHostsPerRack) + 1);
          }
          f.links.push_back(2 * dst + 1);
          live.emplace(net.Start(src, dst, f.demand, f.weight), std::move(f));
          continue;
        }
        auto it = std::next(live.begin(), rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        if (kind == 4) {
          net.fabric.StopFlow(it->first);
          live.erase(it);
          continue;
        }
        it->second.demand = random_demand();
        net.fabric.SetFlowDemand(it->first, Bandwidth::BytesPerSec(it->second.demand));
      }
      if (batch % 2 == 1) {
        net.sim.RunFor(TimeNs::Micros(1));  // The pre-advance hook solves.
      }
      std::vector<fabric::MaxMinFlow> flows;
      for (const auto& [id, f] : live) {
        flows.push_back(f);
      }
      const std::vector<double> want = fabric::SolveMaxMinReference(flows, caps);
      size_t at = 0;
      for (const auto& [id, f] : live) {
        ASSERT_EQ(net.fabric.FlowRate(id).bytes_per_sec(), want[at++])
            << "seed " << seed << " batch " << batch << " flow " << id;
      }
      for (int r = 0; r < 3; ++r) {
        if (net.fabric.Utilization({kHosts + r, true}) > 0.999) {
          ++rack_bound_batches;
          break;
        }
      }
    }
  }
  // About a sixth of the 2400 batches (411) end with a rack uplink bound.
  EXPECT_GE(rack_bound_batches, 240);
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
// byte for byte. (Its speed is gated by bench_fleet's full grid: ctest
// makes no wall-clock assertions.) The pool is unclamped so helper threads
// really run even on small machines.
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

// FNV-1a 64 over the exact ("%a") end-to-end rates of |ids|, in order.
uint64_t RateDigest(const Fleet& fleet, const std::vector<CrossFlowId>& ids) {
  uint64_t digest = 0xcbf29ce484222325ull;
  for (const CrossFlowId id : ids) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a,", fleet.CrossHostRate(id).bytes_per_sec());
    for (const char* c = buf; *c != '\0'; ++c) {
      digest = (digest ^ static_cast<unsigned char>(*c)) * 0x100000001b3ull;
    }
  }
  return digest;
}

// The inter-host links RootCauseView() reports congested, as ascending
// "<directed index>:<utilization>" pairs (the layout is in
// RackTopologyTest.DirectedIndexLayoutIsFixed).
std::string CongestedInterLinks(Fleet& fleet) {
  std::vector<std::pair<int, double>> links;
  for (const anomaly::CongestionReport& report : fleet.RootCauseView().inter_links) {
    links.emplace_back(topology::DirectedIndex(report.link), report.utilization);
  }
  std::sort(links.begin(), links.end());
  std::string out;
  for (const auto& [index, utilization] : links) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s%d:%.9g", out.empty() ? "" : " ", index, utilization);
    out += buf;
  }
  return out;
}

// The fleet's bytes, pinned across commits. (a) is the determinism gate's
// fleet. In (b), twelve DIMM-sourced cross-rack flows of weights 1 and 2
// leave rack 0 (host 0 sources two of them and sinks a third flow, from
// rack 2) and saturate its uplink, while intra-host churn moves demands on
// a third of the hosts every tick. A change that moves any fleet output,
// such as a rack capacity or a rack link's direction, fails here.
TEST(FleetTest, DigestsMatchPinnedGoldens) {
  EXPECT_EQ(RunGate(256, 20, Fleet::Options{}, false), 0x80d10488c8b9f63full);

  Fleet fleet(96, {});
  std::vector<CrossFlowId> ids;
  for (int i = 0; i < 12; ++i) {
    CrossHostFlowSpec spec;
    spec.tenant = 21 + i % 2;
    spec.src_host = i == 0 ? 0 : i - 1;
    spec.dst_host = 32 + 5 * i;
    spec.src_device = fleet.host(spec.src_host).server().dimms.front();
    spec.demand = Bandwidth::Gbps(120);
    spec.weight = 1.0 + i % 2;
    ids.push_back(fleet.StartCrossHostFlow(spec));
  }
  CrossHostFlowSpec inbound;
  inbound.tenant = 23;
  inbound.src_host = 70;
  inbound.dst_host = 0;
  inbound.demand = Bandwidth::Gbps(60);
  ids.push_back(fleet.StartCrossHostFlow(inbound));

  sim::Rng rng(25);
  std::vector<std::vector<fabric::FlowId>> churn(static_cast<size_t>(fleet.host_count()));
  for (int h = 0; h < fleet.host_count(); h += 3) {
    fabric::Fabric& fabric = fleet.host(h).fabric();
    const topology::Server& server = fleet.host(h).server();
    const auto from_ssd = *fabric.Route(server.ssds[0], server.dimms[0]);
    const auto from_nic = *fabric.Route(server.nics[0], server.dimms[0]);
    for (int f = 0; f < 8; ++f) {
      fabric::FlowSpec spec;
      spec.path = f % 2 == 0 ? from_ssd : from_nic;
      spec.tenant = 11 + f % 3;
      spec.demand = Bandwidth::Gbps(static_cast<double>(rng.UniformInt(1, 40)));
      churn[static_cast<size_t>(h)].push_back(fabric.StartFlow(spec));
    }
  }
  for (int tick = 0; tick < 20; ++tick) {
    for (int h = 0; h < fleet.host_count(); h += 3) {
      const auto& flows = churn[static_cast<size_t>(h)];
      const auto pick = static_cast<size_t>(rng.UniformInt(0, 7));
      fleet.host(h).fabric().SetFlowDemand(
          flows[pick], Bandwidth::Gbps(static_cast<double>(rng.UniformInt(2, 40))));
    }
    fleet.Tick();
  }
  EXPECT_EQ(fleet.TelemetryDigest(), 0x361e756c65131aa7ull);
  // Rack 0's rates split 46.67/93.33 Gbps by weight; host 0's two split its
  // 100G uplink 33.33/66.67.
  EXPECT_EQ(RateDigest(fleet, ids), 0x3bff760c0e4ccfd5ull);
  EXPECT_EQ(CongestedInterLinks(fleet),
            "0:1 4:0.933333333 8:0.933333333 12:0.933333333 16:0.933333333 20:0.933333333 "
            "95:0.933333333 115:0.933333333 135:0.933333333 155:0.933333333 175:0.933333333 "
            "192:1");
}

TEST(FleetTest, TickAdvancesSharedClockAndSamples) {
  Fleet fleet(2, {});
  EXPECT_EQ(fleet.Now(), TimeNs::Zero());
  const FleetSample& first = fleet.Tick();
  EXPECT_EQ(first.at, kTickPeriod);
  EXPECT_EQ(fleet.host(0).Now(), fleet.Now());
  EXPECT_EQ(fleet.host(1).Now(), fleet.Now());
  fleet.Run(2);
  EXPECT_EQ(fleet.samples().size(), 3u);
  EXPECT_EQ(fleet.samples().back().at.nanos(), 3 * kTickPeriod.nanos());
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

// The inter-host route comes from the rack layout, which has one route per
// host pair: a dead link on it leaves the pair unreachable, and placing a
// flow there dies. A degraded link still carries it.
TEST(FleetDeathTest, RouteAcrossADeadInterHostLinkDies) {
  Fleet fleet(40, {});  // Hosts 32-39 sit in rack 1.
  CrossHostFlowSpec spec;
  spec.src_host = 1;
  spec.dst_host = 34;
  fleet.inter_fabric().InjectLinkFault(40 + 1, fabric::LinkFault{0.5, TimeNs::Zero()});
  fleet.StartCrossHostFlow(spec);
  fleet.inter_fabric().InjectLinkFault(34, fabric::LinkFault{0.0, TimeNs::Zero()});
  EXPECT_DEATH(fleet.StartCrossHostFlow(spec), "capacity_factor > 0.0");
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

// Ten cross-rack flows of weights 1 and 2 leave rack 0 from distinct hosts
// and bind its uplink: the weight-2 flows fill their hosts' 100G access
// links, and the weight-1 flows split the remaining 300G. The root-cause
// view names the uplink with each tenant's share of it.
TEST(FleetTest, RootCauseViewNamesACongestedRackUplink) {
  Fleet fleet(64, {});
  for (int h = 0; h < 10; ++h) {
    CrossHostFlowSpec spec;
    spec.tenant = 21 + h % 2;
    spec.src_host = h;
    spec.dst_host = 32 + h;
    spec.src_device = fleet.host(h).server().dimms.front();
    spec.demand = Bandwidth::Gbps(120);
    spec.weight = 1.0 + h % 2;
    fleet.StartCrossHostFlow(spec);
  }
  fleet.Run(3);
  const FleetRootCause view = fleet.RootCauseView();
  const auto uplink = std::find_if(
      view.inter_links.begin(), view.inter_links.end(),
      [](const anomaly::CongestionReport& report) { return report.link.link == 64; });
  ASSERT_NE(uplink, view.inter_links.end());
  EXPECT_TRUE(uplink->link.forward);
  EXPECT_DOUBLE_EQ(uplink->utilization, 1.0);
  ASSERT_EQ(uplink->tenants.size(), 2u);
  EXPECT_EQ(uplink->tenants[0].tenant, 22);
  EXPECT_DOUBLE_EQ(uplink->tenants[0].share, 0.625);
  EXPECT_EQ(uplink->tenants[1].tenant, 21);
  EXPECT_DOUBLE_EQ(uplink->tenants[1].share, 0.375);
  EXPECT_DOUBLE_EQ(fleet.samples().back().inter_max_utilization, 1.0);
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
    options.worker_threads = workers;
    options.clamp_workers_to_hardware = false;
    Fleet fleet(4, options);
    anomaly::HeartbeatMesh::Config mesh;
    mesh.period = TimeNs::Micros(100);
    fleet.EnableHeartbeats(mesh);
    fleet.Run(4);  // Establish baselines on a healthy fleet.

    // Silent +5us degradation on host 1, on a link its probes traverse.
    HostNetwork& faulty = fleet.host(1);
    const auto path = *faulty.fabric().Route(faulty.server().nics[0], faulty.server().sockets[0]);
    fabric::LinkFault fault;
    fault.extra_latency = TimeNs::Micros(5);
    faulty.fabric().InjectLinkFault(path.hops[0].link, fault);
    fleet.Run(6);

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
