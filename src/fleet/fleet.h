// Fleet: many HostNetworks, each on its own virtual clock, coupled by an
// inter-host network and aggregated into fleet-wide telemetry.
//
// The paper argues the intra-host network needs the same manageability as
// the inter-host network; a data-center operator runs thousands of such
// hosts at once. Fleet is that operator's view in this repo: it owns one
// sim::Simulation per host (each HostNetwork borrows its own), plus a
// coordinator clock that marks the fleet's time and carries the inter-host
// network, and advances all of them in lock-step ticks:
//
//   fleet::Fleet fleet(256);
//   auto flow = fleet.StartCrossHostFlow({.tenant = 7, .src_host = 0,
//                                         .dst_host = 9});
//   fleet.Run(20);                         // 20 ticks, every clock in step.
//   uint64_t digest = fleet.TelemetryDigest();
//   auto view = fleet.RootCauseView();
//
// The inter-host network is modelled the way a host's own network is: a
// fabric::Fabric over RackTopology(), whose flows share links by the same
// weighted max-min fairness. The paper scopes itself to the intra-host
// network, but its motivating observation (host resources shared without
// attribution or arbitration) repeats one level up: many hosts share a
// ToR, many ToRs share a spine. The topology is deliberately coarse (host
// access links and rack uplinks, one path per host pair) because its job is
// to couple the host fabrics into one fleet, not to reproduce a data-center
// fabric.
//
// Hosts are share-nothing partitions. They interact only through the
// cross-host coupling, which runs at the tick barrier, so the tick period
// is a safe lookahead: within a tick every host settles its fabric and runs
// its own event window up to the tick's end, on one worker of a persistent
// core::WorkerPool (Options::worker_threads), in contiguous host-order
// chunks. Every clock is seeded with the fleet seed, not a per-host seed:
// ForkRng is a pure function of (seed, stream), so every host forks the
// same stream for the same stream id, as hosts sharing one clock would.
//
// Determinism contract: a fleet run is a pure function of (host count,
// options, placement calls). Each host's events fire in the same order at
// any worker count, and every merge (telemetry samples, root-cause inputs)
// is in strict host order, so digests are byte-identical across runs,
// worker counts (including 0/1 = serial), and cross-host placement order.
// Callbacks of different hosts run on different workers: inside a tick
// there is no global order across hosts' callbacks, and in a pooled fleet a
// callback that writes state shared by several hosts is a data race.

#ifndef MIHN_SRC_FLEET_FLEET_H_
#define MIHN_SRC_FLEET_FLEET_H_

#include <map>
#include <memory>
#include <vector>

#include "src/anomaly/heartbeat.h"
#include "src/anomaly/root_cause.h"
#include "src/core/worker_pool.h"
#include "src/fabric/fabric.h"
#include "src/fleet/report.h"
#include "src/host/host_network.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"

namespace mihn::fleet {

// One fleet tick: the virtual time every clock advances per Tick().
inline constexpr sim::TimeNs kTickPeriod = sim::TimeNs::Millis(1);

// The inter-host network's shape: racks of kHostsPerRack hosts, each host
// on a 100GbE access link into its rack's ToR, each ToR on an uplink into
// one spine that is 4:1 oversubscribed at a full rack. Capacities are per
// direction.
inline constexpr int kHostsPerRack = 32;
inline constexpr sim::Bandwidth kHostLinkCapacity = sim::Bandwidth::Gbps(100);
inline constexpr sim::Bandwidth kRackLinkCapacity = sim::Bandwidth::Gbps(800);

// The inter-host topology of |hosts| hosts. Host h is component h and its
// access link is link h; rack r's ToR-to-spine uplink is link hosts + r.
// Every link runs forward toward the spine, so topology::DirectedIndex puts
// host h's up and down directions at 2h and 2h + 1 and rack r's at
// 2·(hosts + r) and 2·(hosts + r) + 1. A cross-host flow crosses
//
//   src host up -> [src rack up -> dst rack down] -> dst host down
//
// with the bracketed rack hops only when the hosts sit in different racks.
topology::Topology RackTopology(int hosts);

// The one route of RackTopology(hosts) from host |src| to host |dst|
// (distinct), built from the host and rack indices: the path
// topology::Router::ShortestPath finds over it while no link on it is dead.
topology::Path RackRoute(int hosts, int src, int dst);

// The per-host options template the fleet defaults to: telemetry and
// management services off (Autostart::kNone). The fleet aggregates
// telemetry centrally; 256 per-host collectors each ticking their host's
// clock would dominate every run. Opt back in via Options::host.
HostNetwork::Options DefaultHostOptions();

// One tenant flow spanning two hosts: an intra-host stage on the source
// (device -> NIC), an inter-host stage (its RackTopology() route), and an
// intra-host stage on the destination (NIC -> device). The fleet couples
// the three each tick: every stage's allocation caps the others.
struct CrossHostFlowSpec {
  fabric::TenantId tenant = fabric::kNoTenant;
  int src_host = 0;
  int dst_host = 0;
  // kInvalidComponent picks the host's first SSD (source) / first DIMM
  // (destination) — a storage-read-into-memory shape.
  topology::ComponentId src_device = topology::kInvalidComponent;
  topology::ComponentId dst_device = topology::kInvalidComponent;
  sim::Bandwidth demand = sim::Bandwidth::Gbps(40);
  double weight = 1.0;
};

using CrossFlowId = int64_t;
inline constexpr CrossFlowId kInvalidCrossFlow = -1;

// Directed-link utilization at/above this counts as congested, in both
// per-host rollups and RootCauseView().
inline constexpr double kCongestionThreshold = 0.9;

// Fleet-level root-cause view: per-host congestion reports (host order),
// congested inter-host links, per-host heartbeat alarms (when meshes are
// enabled), and the fleet-wide tenant suspect ranking.
struct FleetSuspect {
  fabric::TenantId tenant = fabric::kNoTenant;
  double share_sum = 0.0;  // Summed congested-link shares across the fleet.
  int hosts_implicated = 0;
};

struct HostCongestion {
  int host = 0;
  std::vector<anomaly::CongestionReport> reports;
};

struct HostAlarm {
  int host = 0;
  sim::TimeNs first_alarm_at;
  topology::LinkId top_suspect = topology::kInvalidLink;
  double score = 0.0;
};

struct FleetRootCause {
  std::vector<HostCongestion> hosts;  // Only hosts with congested links.
  // The inter-host network's congested links, by the same analyzer.
  std::vector<anomaly::CongestionReport> inter_links;
  std::vector<HostAlarm> alarms;       // Only hosts whose mesh alarmed.
  std::vector<FleetSuspect> suspects;  // Descending share_sum.
};

class Fleet {
 public:
  struct Options {
    uint64_t seed = 1;
    // Template applied to every host. A traced template gives every host
    // its own tracer, observing that host's clock.
    HostNetwork::Options host = DefaultHostOptions();
    // Worker parallelism for the whole tick: per-host settle and event
    // window, the coupling's per-host what-ifs, per-host telemetry
    // reduction, and the root-cause scan all share one persistent
    // core::WorkerPool. <= 1 runs serially; digests are byte-identical
    // across any value (per-host results merge in strict host order).
    int worker_threads = 0;
    // Cap the pool at std::thread::hardware_concurrency(). Oversubscribing
    // the tick's compute-bound chunks only adds context switches; tests
    // disable the clamp to force real cross-thread execution even on small
    // machines. Never affects results, only scheduling.
    bool clamp_workers_to_hardware = true;
  };

  Fleet(int num_hosts, Options options);

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet();

  // -- Topology ----------------------------------------------------------------
  int host_count() const { return static_cast<int>(hosts_.size()); }
  // Host i, on its own clock. Advance time through Tick()/Run() only: a
  // host clock run directly leaves the fleet's lock-step.
  HostNetwork& host(int i) { return *hosts_[static_cast<size_t>(i)]; }
  int racks() const { return (host_count() + kHostsPerRack - 1) / kHostsPerRack; }
  // The coordinator clock: it marks the fleet's time and carries the
  // inter-host network; it holds no host events. Host i's events are on
  // host(i).simulation().
  sim::Simulation& simulation() { return sim_; }
  sim::TimeNs Now() const { return sim_.Now(); }
  // Actual pool width after the hardware clamp; 1 means serial.
  int worker_parallelism() const { return pool_.parallelism(); }

  // -- Cross-host placement ----------------------------------------------------
  // Starts the three coupled stages. The end-to-end rate settles over the
  // following ticks (one coupling pass per tick). Each pass asks every
  // intra-host stage what it would get at full demand, the others held at
  // their caps (Fabric::RateIf), and caps it at the end-to-end rate with
  // SetFlowLimit, which counts nothing when the cap did not move. The
  // inter-host route comes from RackRoute. A device with no route to its
  // host's NIC, an id outside the host's topology included, and an
  // inter-host route across a dead link are fatal MIHN_CHECKs.
  CrossFlowId StartCrossHostFlow(const CrossHostFlowSpec& spec);
  // Last coupled end-to-end rate (zero before the first tick after start).
  sim::Bandwidth CrossHostRate(CrossFlowId id) const;
  // The inter-host network, on the coordinator clock. Its flows are the
  // inter-host stages, in placement order.
  fabric::Fabric& inter_fabric() { return inter_; }

  // -- Time --------------------------------------------------------------------
  // One fleet tick of kTickPeriod: every host settles pending mutations
  // and runs its event window to the tick's end (in parallel, one host per
  // worker at a time); then, at the barrier, the coordinator clock
  // advances, cross-host flows re-couple, and one FleetSample aggregates.
  // Returns the new sample.
  const FleetSample& Tick();
  void Run(int ticks);

  // -- Telemetry ---------------------------------------------------------------
  const std::vector<FleetSample>& samples() const { return samples_; }
  // FNV-1a 64 digest of the full sample history (see report.h).
  uint64_t TelemetryDigest() const { return DigestSamples(samples_); }

  // -- Anomaly -----------------------------------------------------------------
  // Builds and starts one heartbeat mesh per host (config.participants is
  // replaced per host with MakeHeartbeatMesh's default endpoints: that
  // host's devices plus its DIMMs and CXL memories). Idempotent.
  void EnableHeartbeats(anomaly::HeartbeatMesh::Config config = {});

  // Fleet-level root cause: every host's congested links and suspects,
  // merged in host order, plus the inter-host network's congested links and
  // heartbeat alarms.
  FleetRootCause RootCauseView();

 private:
  // An intra-host stage, in its host's stage list: its flow and the rate
  // it would get at full demand, as of the last coupling pass.
  struct Stage {
    fabric::FlowId flow = fabric::kInvalidFlow;
    sim::Bandwidth demand;
    double rate_if_bps = 0.0;
  };

  struct CrossFlow {
    CrossHostFlowSpec spec;
    fabric::FlowId src_flow = fabric::kInvalidFlow;
    fabric::FlowId dst_flow = fabric::kInvalidFlow;
    fabric::FlowId inter_flow = fabric::kInvalidFlow;
    // Positions of the two intra-host stages in their hosts' stage lists.
    size_t src_stage = 0;
    size_t dst_stage = 0;
    double coupled_rate_bps = 0.0;
  };

  void CoupleCrossHostFlows();
  FleetSample AggregateSample();
  // Reduces host |i| through Fabric::ReadLinkLoads; |loads| is the
  // caller's reusable buffer.
  HostSample ReduceHost(int i, std::vector<fabric::LinkLoad>& loads);

  Options options_;
  // The coordinator clock; no host schedules on it. The inter-host fabric
  // below runs on it, over its own topology.
  sim::Simulation sim_;
  topology::Topology inter_topo_;
  fabric::Fabric inter_;
  std::vector<fabric::LinkLoad> inter_loads_;  // AggregateSample()'s buffer.
  // One clock per host. Declaration order is destruction-safety: each
  // clock outlives its host (hosts_ destructs first), per HostNetwork's
  // borrowed-clock lifetime rule.
  std::vector<std::unique_ptr<sim::Simulation>> clocks_;
  std::vector<std::unique_ptr<HostNetwork>> hosts_;
  std::vector<std::unique_ptr<anomaly::HeartbeatMesh>> meshes_;  // Empty unless enabled.
  std::map<CrossFlowId, CrossFlow> cross_flows_;  // Ordered: deterministic coupling.
  // Per host, the intra-host stages it carries, in placement order. Only
  // that host's worker writes its list during a tick.
  std::vector<std::vector<Stage>> stages_;
  CrossFlowId next_cross_id_ = 1;
  std::vector<FleetSample> samples_;
  // Width 1 (no helper threads) when the fleet is serial. Worker threads
  // only ever run inside ParallelFor rounds, so the pool needs no
  // particular destruction order relative to the clocks and hosts.
  core::WorkerPool pool_;
};

}  // namespace mihn::fleet

#endif  // MIHN_SRC_FLEET_FLEET_H_
