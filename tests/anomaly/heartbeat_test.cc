#include "src/anomaly/heartbeat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/host/host_network.h"
#include "src/sim/random.h"

namespace mihn::anomaly {
namespace {

using sim::TimeNs;

HostNetwork::Options Quiet() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

// The probe endpoints MakeHeartbeatMesh defaults to.
std::vector<topology::ComponentId> Endpoints(const HostNetwork& host) {
  std::vector<topology::ComponentId> endpoints = host.Devices();
  endpoints.insert(endpoints.end(), host.server().dimms.begin(), host.server().dimms.end());
  endpoints.insert(endpoints.end(), host.server().cxl_memories.begin(),
                   host.server().cxl_memories.end());
  return endpoints;
}

bool IsMemory(const topology::Topology& topo, topology::ComponentId id) {
  const topology::ComponentKind kind = topo.component(id).kind;
  return kind == topology::ComponentKind::kDimm || kind == topology::ComponentKind::kCxlMemory;
}

std::vector<std::pair<topology::ComponentId, topology::ComponentId>> PairKeys(
    const HeartbeatMesh& mesh) {
  std::vector<std::pair<topology::ComponentId, topology::ComponentId>> keys;
  for (const HeartbeatMesh::PairReport& pair : mesh.Pairs()) {
    keys.emplace_back(pair.src, pair.dst);
  }
  return keys;
}

// The default mesh probes a planned subset of the ordered endpoint pairs
// (50 of the 182 device pairs and 112 device-to-DIMM pairs): distinct, in
// (src, dst) order, each from a device to another endpoint. Memory is a
// destination and never a source.
TEST(HeartbeatTest, BuildsAllOrderedPairs) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  auto mesh = host.MakeHeartbeatMesh();
  EXPECT_EQ(mesh->pair_count(), 50u);
  const auto keys = PairKeys(*mesh);
  ASSERT_EQ(keys.size(), mesh->pair_count());
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
  const std::vector<topology::ComponentId> devices = host.Devices();
  const std::vector<topology::ComponentId> endpoints = Endpoints(host);
  int to_memory = 0;
  for (const auto& [src, dst] : keys) {
    EXPECT_NE(std::find(devices.begin(), devices.end(), src), devices.end()) << src;
    EXPECT_NE(std::find(endpoints.begin(), endpoints.end(), dst), endpoints.end()) << dst;
    EXPECT_NE(src, dst);
    to_memory += IsMemory(host.topo(), dst) ? 1 : 0;
  }
  EXPECT_GT(to_memory, 0);
}

// A probe path as the plan sees it: the directed links it crosses, one
// flag per DirectedIndex, and its base latency.
struct Probe {
  std::vector<bool> links;
  int64_t latency_ns = 0;
};

Probe ProbeOf(const topology::Path& path, const topology::Topology& topo) {
  Probe probe{std::vector<bool>(2 * topo.link_count(), false), path.BaseLatency(topo).nanos()};
  for (const topology::DirectedLink& hop : path.hops) {
    probe.links[static_cast<size_t>(topology::DirectedIndex(hop))] = true;
  }
  return probe;
}

// True if one of |probes| crosses |m| and not |l|.
bool SomeSeparates(const std::vector<Probe>& probes, size_t m, size_t l) {
  return std::any_of(probes.begin(), probes.end(),
                     [&](const Probe& p) { return p.links[m] && !p.links[l]; });
}

// The least latency among |probes| crossing |m|; -1 when none does.
int64_t LeastLatency(const std::vector<Probe>& probes, size_t m) {
  int64_t least = -1;
  for (const Probe& p : probes) {
    if (p.links[m] && (least < 0 || p.latency_ns < least)) {
      least = p.latency_ns;
    }
  }
  return least;
}

// The plan's contract on every preset, checked against candidates this
// test routes itself with Router::ShortestPaths: every ordered pair of
// distinct endpoints whose source is not memory. Every directed link some
// candidate crosses is probed, by a pair as short as its shortest
// candidate (coverage, at the most sensitive latency); for every ordered
// pair of directed links (m, l), if a candidate crosses m but not l, a
// planned pair does too (separation); and every planned pair probes
// Fabric::Route.
TEST(HeartbeatPlanTest, CoversAndSeparatesEveryProbeableLink) {
  struct Case {
    const char* name;
    HostNetwork::Preset preset;
    size_t pairs;      // All ordered device pairs: 182, 306 and 6.
    size_t coverable;  // Of 78, 110 and 14 directed links.
  };
  const Case cases[] = {
      {"commodity_two_socket", HostNetwork::Preset::kCommodityTwoSocket, 50, 54},
      {"dgx_class", HostNetwork::Preset::kDgxClass, 74, 74},
      {"edge_node", HostNetwork::Preset::kEdgeNode, 7, 8},
  };
  for (const Case& c : cases) {
    sim::Simulation sim;
    HostNetwork::Options options = Quiet();
    options.preset = c.preset;
    HostNetwork host(sim, options);
    const topology::Topology& topo = host.topo();
    const std::vector<topology::ComponentId> endpoints = Endpoints(host);
    std::vector<Probe> candidates;
    for (const topology::ComponentId src : endpoints) {
      if (IsMemory(topo, src)) {
        continue;
      }
      for (const auto& path : host.fabric().router().ShortestPaths(src, endpoints)) {
        if (path) {
          candidates.push_back(ProbeOf(*path, topo));
        }
      }
    }

    auto mesh = host.MakeHeartbeatMesh();
    std::vector<Probe> planned;
    for (const HeartbeatMesh::PairReport& pair : mesh->Pairs()) {
      ASSERT_EQ(*pair.path, *host.fabric().Route(pair.src, pair.dst))
          << c.name << ": " << pair.src << "->" << pair.dst;
      planned.push_back(ProbeOf(*pair.path, topo));
    }
    const size_t directed = 2 * topo.link_count();
    size_t coverable = 0;
    for (size_t m = 0; m < directed; ++m) {
      const int64_t least = LeastLatency(candidates, m);
      coverable += least >= 0 ? 1 : 0;
      EXPECT_EQ(LeastLatency(planned, m), least) << c.name << " link " << m;
      for (size_t l = 0; l < directed; ++l) {
        if (l != m && SomeSeparates(candidates, m, l)) {
          EXPECT_TRUE(SomeSeparates(planned, m, l)) << c.name << ": " << m << " from " << l;
        }
      }
    }
    EXPECT_EQ(mesh->pair_count(), c.pairs) << c.name;
    EXPECT_EQ(coverable, c.coverable) << c.name;
  }
}

// The plan is a function of the topology and the endpoint set alone: the
// order or repetition of the participants does not move it, nor does
// another host of the same preset on another clock.
TEST(HeartbeatPlanTest, PlanIgnoresParticipantOrderAndHost) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto reference = PairKeys(*host.MakeHeartbeatMesh());

  HeartbeatMesh::Config shuffled;
  shuffled.participants = Endpoints(host);
  shuffled.participants.push_back(shuffled.participants.front());
  sim::Rng rng(31);
  for (size_t i = shuffled.participants.size() - 1; i > 0; --i) {
    const auto j = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i)));
    std::swap(shuffled.participants[i], shuffled.participants[j]);
  }
  EXPECT_EQ(PairKeys(*host.MakeHeartbeatMesh(shuffled)), reference);

  sim::Simulation other_sim(99);
  HostNetwork other(other_sim, HostNetwork::Options{});
  EXPECT_EQ(PairKeys(*other.MakeHeartbeatMesh()), reference);
}

TEST(HeartbeatTest, NoAlarmsOnHealthyFabric) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(50));
  EXPECT_TRUE(mesh->Alarms().empty());
  EXPECT_FALSE(mesh->first_alarm_at().has_value());
  EXPECT_GT(mesh->probes_sent(), 0u);
}

TEST(HeartbeatTest, DetectsSilentLatencyFault) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(20));  // Learn baselines.

  // Silent degradation on nic0's switch downlink: +5us latency, no error
  // counter anywhere.
  const auto path = *host.fabric().Route(host.server().nics[0], host.server().sockets[0]);
  const topology::LinkId bad_link = path.hops[0].link;
  host.fabric().InjectLinkFault(bad_link, fabric::LinkFault{1.0, TimeNs::Micros(5)});

  host.RunFor(TimeNs::Millis(20));
  ASSERT_FALSE(mesh->Alarms().empty());
  ASSERT_TRUE(mesh->first_alarm_at().has_value());
  EXPECT_GT(*mesh->first_alarm_at(), TimeNs::Millis(20));
  EXPECT_LT(*mesh->first_alarm_at(), TimeNs::Millis(30));
}

TEST(HeartbeatTest, LocalizesFaultedLinkFirst) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(20));

  const auto path = *host.fabric().Route(host.server().nics[0], host.server().sockets[0]);
  const topology::LinkId bad_link = path.hops[0].link;
  host.fabric().InjectLinkFault(bad_link, fabric::LinkFault{1.0, TimeNs::Micros(5)});
  host.RunFor(TimeNs::Millis(30));

  const auto suspects = mesh->LocalizeFaults();
  ASSERT_FALSE(suspects.empty());
  EXPECT_EQ(suspects.front().link, bad_link);
  EXPECT_DOUBLE_EQ(suspects.front().score, 1.0);
  // Other suspects (links sharing degraded paths) score strictly less.
  for (size_t i = 1; i < suspects.size(); ++i) {
    EXPECT_LT(suspects[i].score, 1.0) << "link " << suspects[i].link;
  }
}

TEST(HeartbeatTest, CapacityFaultAlsoDetected) {
  // A capacity-degraded switch link congests under load; the resulting
  // queueing latency trips the mesh even though the fault itself only
  // touches bandwidth.
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  config.degradation_factor = 1.5;
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();

  // Background load through nic0's switch uplink.
  fabric::FlowSpec bulk;
  bulk.path = *host.fabric().Route(host.server().gpus[0], host.server().sockets[0]);
  bulk.demand = sim::Bandwidth::GBps(10);
  host.fabric().StartFlow(bulk);

  host.RunFor(TimeNs::Millis(20));
  ASSERT_TRUE(mesh->Alarms().empty());

  // Degrade the shared uplink to 40%: the same 10 GB/s now congests it.
  const topology::LinkId uplink = bulk.path.hops[1].link;
  host.fabric().InjectLinkFault(uplink, fabric::LinkFault{0.4, TimeNs::Zero()});
  host.RunFor(TimeNs::Millis(30));
  EXPECT_FALSE(mesh->Alarms().empty());
}

TEST(HeartbeatTest, RecoversWhenFaultCleared) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(20));
  const auto path = *host.fabric().Route(host.server().nics[0], host.server().sockets[0]);
  host.fabric().InjectLinkFault(path.hops[0].link, fabric::LinkFault{1.0, TimeNs::Micros(5)});
  host.RunFor(TimeNs::Millis(20));
  EXPECT_FALSE(mesh->Alarms().empty());
  host.fabric().ClearLinkFault(path.hops[0].link);
  host.RunFor(TimeNs::Millis(30));
  EXPECT_TRUE(mesh->Alarms().empty());
}

TEST(HeartbeatTest, DestroyedMeshCancelsItsTimer) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const size_t before = sim.pending_events();
  {
    auto mesh = host.MakeHeartbeatMesh({});
    mesh->Start();
    EXPECT_EQ(sim.pending_events(), before + 1);
  }
  // No probe tick is left bound to the dead mesh.
  EXPECT_EQ(sim.pending_events(), before);
}

TEST(HeartbeatTest, ProbeTrafficIsVisibleInTelemetry) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(10));
  // Probe bytes appear under TrafficClass::kProbe somewhere.
  double probe_bytes = 0.0;
  for (int32_t d = 0; d < 2 * static_cast<int32_t>(host.topo().link_count()); ++d) {
    const auto snap = host.fabric().Snapshot({d / 2, d % 2 == 0});
    probe_bytes += snap.bytes_by_class[static_cast<size_t>(fabric::TrafficClass::kProbe)];
  }
  EXPECT_GT(probe_bytes, 0.0);
}

// A dual-ported NIC with asymmetric port latencies: port 0 is fast (the
// initial route), port 1 is ~50us slower. Killing port 0's uplink forces
// a re-route whose path latency is wildly above the learned baseline.
struct DualPorted {
  topology::Topology topo;
  topology::ComponentId socket, nic;
  topology::LinkId up0, up1;
};

DualPorted MakeDualPorted() {
  using topology::ComponentKind;
  using topology::LinkKind;
  using topology::LinkSpec;
  DualPorted d;
  d.socket = d.topo.AddComponent(ComponentKind::kCpuSocket, "s0");
  const auto rp0 = d.topo.AddComponent(ComponentKind::kPcieRootPort, "s0.rp0", d.socket);
  const auto sw0 = d.topo.AddComponent(ComponentKind::kPcieSwitch, "s0.rp0.sw0", d.socket);
  const auto rp1 = d.topo.AddComponent(ComponentKind::kPcieRootPort, "s0.rp1", d.socket);
  const auto sw1 = d.topo.AddComponent(ComponentKind::kPcieSwitch, "s0.rp1.sw0", d.socket);
  d.nic = d.topo.AddComponent(ComponentKind::kNic, "nic0", d.socket);
  d.topo.AddLink(d.socket, rp0, topology::DefaultLinkSpec(LinkKind::kIntraSocket));
  d.up0 = d.topo.AddLink(rp0, sw0, topology::DefaultLinkSpec(LinkKind::kPcieSwitchUp));
  d.topo.AddLink(sw0, d.nic, topology::DefaultLinkSpec(LinkKind::kPcieSwitchDown));
  d.topo.AddLink(d.socket, rp1, topology::DefaultLinkSpec(LinkKind::kIntraSocket));
  d.up1 = d.topo.AddLink(
      rp1, sw1,
      LinkSpec{LinkKind::kPcieSwitchUp, sim::Bandwidth::Gbps(256), TimeNs::Micros(50)});
  d.topo.AddLink(sw1, d.nic, topology::DefaultLinkSpec(LinkKind::kPcieSwitchDown));
  return d;
}

// The PR-5 heartbeat fix: when a fault moves the fabric's route epoch, the
// mesh must re-resolve pair paths (instead of probing the frozen dead
// path forever) and restart each re-routed pair's baseline (instead of
// judging the new path against the old path's learned latency).
TEST(HeartbeatTest, ReroutedPairRestartsBaselineInsteadOfAlarming) {
  sim::Simulation sim;
  const DualPorted d = MakeDualPorted();
  fabric::Fabric fabric(sim, d.topo);

  HeartbeatMesh::Config config;
  config.participants = {d.socket, d.nic};
  config.period = TimeNs::Millis(1);
  HeartbeatMesh mesh(fabric, config);
  mesh.Start();
  sim.RunFor(TimeNs::Millis(20));  // Learn the fast-port baseline.
  EXPECT_TRUE(mesh.Alarms().empty());

  // Kill the fast uplink. The re-routed path is ~50us slower than the
  // learned baseline — hugely past the 2x alarm threshold — but a fresh
  // baseline must absorb it. A frozen path would instead probe the dead
  // link (20x latency inflation) and alarm.
  fabric.InjectLinkFault(d.up0, fabric::LinkFault{0.0, TimeNs::Zero()});
  sim.RunFor(TimeNs::Millis(30));
  EXPECT_TRUE(mesh.Alarms().empty());
  EXPECT_TRUE(mesh.alarm_log().empty());
  EXPECT_GT(mesh.probes_sent(), 0u);
}

TEST(HeartbeatTest, AlarmLogRecordsRaiseAndClearEpisodes) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(20));
  EXPECT_TRUE(mesh->alarm_log().empty());

  const auto path = *host.fabric().Route(host.server().nics[0], host.server().sockets[0]);
  host.fabric().InjectLinkFault(path.hops[0].link, fabric::LinkFault{1.0, TimeNs::Micros(5)});
  host.RunFor(TimeNs::Millis(20));
  ASSERT_FALSE(mesh->alarm_log().empty());
  const size_t raised = mesh->alarm_log().size();
  for (const auto& event : mesh->alarm_log()) {
    EXPECT_FALSE(event.cleared);
    EXPECT_GE(event.raised_at, TimeNs::Millis(20));
  }

  host.fabric().ClearLinkFault(path.hops[0].link);
  host.RunFor(TimeNs::Millis(30));
  EXPECT_TRUE(mesh->Alarms().empty());
  // Recovery closes every episode in place; no new episodes appear.
  EXPECT_EQ(mesh->alarm_log().size(), raised);
  for (const auto& event : mesh->alarm_log()) {
    EXPECT_TRUE(event.cleared);
    EXPECT_GT(event.cleared_at, event.raised_at);
  }
}

// One step of a random fault walk: a dead, capacity-degraded or
// latency-degraded link, or a clear. Clears are likelier, so a few links
// stay faulted at a time.
void RandomFaultStep(fabric::Fabric& fabric, sim::Rng& rng) {
  const auto link = static_cast<topology::LinkId>(
      rng.UniformInt(0, static_cast<int64_t>(fabric.topo().link_count()) - 1));
  const double op = rng.NextDouble();
  if (op < 0.15) {
    fabric.InjectLinkFault(link, fabric::LinkFault{0.0, TimeNs::Zero()});
  } else if (op < 0.3) {
    fabric.InjectLinkFault(link, fabric::LinkFault{0.5, TimeNs::Zero()});
  } else if (op < 0.45) {
    fabric.InjectLinkFault(link, fabric::LinkFault{1.0, TimeNs::Micros(2)});
  } else {
    fabric.ClearLinkFault(link);
  }
}

// The mesh re-resolves its pairs one source at a time from shortest-path
// trees; after every tick each pair must probe exactly the path
// Fabric::Route gives it, or, cut off by a dead link, its previous path,
// and the planned pair set itself must not move.
TEST(HeartbeatTest, ReresolvedPathsMatchFabricRoutes) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  fabric::Fabric& fabric = host.fabric();
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();

  std::map<std::pair<topology::ComponentId, topology::ComponentId>, topology::Path> previous;
  for (const HeartbeatMesh::PairReport& pair : mesh->Pairs()) {
    ASSERT_EQ(*pair.path, *fabric.Route(pair.src, pair.dst));
    previous[{pair.src, pair.dst}] = *pair.path;
  }
  // A route epoch re-resolves the planned pairs and never re-plans.
  const auto planned = PairKeys(*mesh);
  const size_t pair_count = mesh->pair_count();
  sim::Rng rng(2024);
  int epoch_changes = 0;
  int reroutes = 0;
  int cut_off = 0;
  for (int step = 0; step < 400; ++step) {
    const uint64_t epoch = fabric.route_epoch();
    RandomFaultStep(fabric, rng);
    epoch_changes += fabric.route_epoch() != epoch ? 1 : 0;
    host.RunFor(config.period);  // Exactly one mesh tick.
    ASSERT_EQ(mesh->pair_count(), pair_count) << "step " << step;
    ASSERT_EQ(PairKeys(*mesh), planned) << "step " << step;
    for (const HeartbeatMesh::PairReport& pair : mesh->Pairs()) {
      topology::Path& before = previous[{pair.src, pair.dst}];
      if (const auto route = fabric.Route(pair.src, pair.dst)) {
        ASSERT_EQ(*pair.path, *route) << "step " << step << ": " << pair.src << "->" << pair.dst;
        reroutes += *pair.path == before ? 0 : 1;
      } else {
        ASSERT_EQ(*pair.path, before) << "step " << step << ": " << pair.src << "->" << pair.dst;
        ++cut_off;
      }
      before = *pair.path;
    }
  }
  // The walk moved the routes often, re-routed pairs and cut some off.
  EXPECT_GT(epoch_changes, 100);
  EXPECT_GT(reroutes, 0);
  EXPECT_GT(cut_off, 0);
}

// The chaos campaign counts alarmed pairs as the alarm log's uncleared
// events; that count must equal Alarms() after every tick, through raises,
// recoveries and re-routes.
TEST(HeartbeatTest, UnclearedAlarmEventsCountTheAlarmedPairs) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  HeartbeatMesh::Config config;
  config.period = TimeNs::Millis(1);
  auto mesh = host.MakeHeartbeatMesh(config);
  mesh->Start();
  host.RunFor(TimeNs::Millis(10));  // Learn baselines.

  sim::Rng rng(77);
  size_t most_alarmed = 0;
  for (int step = 0; step < 400; ++step) {
    if (step % 4 == 0) {
      RandomFaultStep(host.fabric(), rng);
    }
    host.RunFor(config.period);
    const auto& log = mesh->alarm_log();
    const size_t uncleared = static_cast<size_t>(
        std::count_if(log.begin(), log.end(), [](const auto& e) { return !e.cleared; }));
    ASSERT_EQ(uncleared, mesh->Alarms().size()) << "step " << step;
    most_alarmed = std::max(most_alarmed, uncleared);
  }
  const auto& log = mesh->alarm_log();
  EXPECT_GT(most_alarmed, 0u);
  EXPECT_GT(std::count_if(log.begin(), log.end(), [](const auto& e) { return e.cleared; }), 0);
}

}  // namespace
}  // namespace mihn::anomaly
