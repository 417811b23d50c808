// Fleet: many HostNetworks, each on its own virtual clock, coupled by the
// inter-host rack/ToR model and aggregated into fleet-wide telemetry.
//
// The paper argues the intra-host network needs the same manageability as
// the inter-host network; a data-center operator runs thousands of such
// hosts at once. Fleet is that operator's view in this repo: it owns one
// sim::Simulation per host (each HostNetwork borrows its own), plus a
// coordinator clock that marks the fleet's time, and advances all of them
// in lock-step ticks:
//
//   fleet::Fleet fleet(256);
//   auto flow = fleet.StartCrossHostFlow({.tenant = 7, .src_host = 0,
//                                         .dst_host = 9});
//   fleet.Run(20);                         // 20 ticks, every clock in step.
//   uint64_t digest = fleet.TelemetryDigest();
//   auto view = fleet.RootCauseView();
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
#include "src/fleet/inter_host.h"
#include "src/fleet/report.h"
#include "src/host/host_network.h"

namespace mihn::fleet {

// The per-host options template the fleet defaults to: telemetry and
// management services off (Autostart::kNone). The fleet aggregates
// telemetry centrally; 256 per-host collectors each ticking their host's
// clock would dominate every run. Opt back in via Options::host.
HostNetwork::Options DefaultHostOptions();

// One tenant flow spanning two hosts: an intra-host stage on the source
// (device -> NIC), an inter-host stage (uplink/rack/downlink), and an
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

// Fleet-level root-cause view: per-host congestion reports (host order),
// saturated inter-host links, per-host heartbeat alarms (when meshes are
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
  std::vector<HostCongestion> hosts;          // Only hosts with congested links.
  std::vector<InterHostLinkUse> inter_links;  // Inter-host links at/over threshold.
  std::vector<HostAlarm> alarms;              // Only hosts whose mesh alarmed.
  std::vector<FleetSuspect> suspects;         // Descending share_sum.
};

class Fleet {
 public:
  struct Options {
    uint64_t seed = 1;
    sim::TimeNs tick_period = sim::TimeNs::Millis(1);
    // Inter-host capacities and rack width; Config::hosts is overwritten
    // with the fleet's host count.
    InterHostNetwork::Config inter;
    // Template applied to every host. A traced template gives every host
    // its own tracer, observing that host's clock.
    HostNetwork::Options host = DefaultHostOptions();
    // Worker parallelism for the whole tick: per-host settle and event
    // window, the coupling's settle, per-host telemetry reduction, and the
    // root-cause scan all share one persistent core::WorkerPool. <= 1 runs
    // serially; digests are byte-identical across any value (per-host
    // results merge in strict host order).
    int worker_threads = 0;
    // Cap the pool at std::thread::hardware_concurrency(). Oversubscribing
    // the tick's compute-bound chunks only adds context switches; tests
    // disable the clamp to force real cross-thread execution even on small
    // machines. Never affects results, only scheduling.
    bool clamp_workers_to_hardware = true;
    // Directed-link utilization at/above this counts as congested, in both
    // per-host rollups and RootCauseView().
    double congestion_threshold = 0.9;
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
  InterHostNetwork& inter_host() { return inter_; }
  // The coordinator clock: it marks the fleet's time and holds no host
  // events. Host i's events are on host(i).simulation().
  sim::Simulation& simulation() { return sim_; }
  sim::TimeNs Now() const { return sim_.Now(); }
  const Options& options() const { return options_; }
  // Actual pool width after the hardware clamp; 1 means serial.
  int worker_parallelism() const { return pool_.parallelism(); }

  // -- Cross-host placement ----------------------------------------------------
  // Starts the three coupled stages. The end-to-end rate settles over the
  // following ticks (one coupling pass per tick).
  CrossFlowId StartCrossHostFlow(const CrossHostFlowSpec& spec);
  // Last coupled end-to-end rate (zero before the first tick after start).
  sim::Bandwidth CrossHostRate(CrossFlowId id) const;
  int cross_host_flow_count() const { return static_cast<int>(cross_flows_.size()); }

  // -- Time --------------------------------------------------------------------
  // One fleet tick: every host settles pending mutations and runs its
  // event window to the tick's end (in parallel, one host per worker at a
  // time); then, at the barrier, the coordinator clock advances, cross-host
  // flows re-couple, and one FleetSample aggregates. Returns the new
  // sample.
  const FleetSample& Tick();
  void Run(int ticks);

  // -- Telemetry ---------------------------------------------------------------
  const std::vector<FleetSample>& samples() const { return samples_; }
  // FNV-1a 64 digest of the full sample history (see report.h).
  uint64_t TelemetryDigest() const { return DigestSamples(samples_); }

  // -- Anomaly -----------------------------------------------------------------
  // Builds and starts one heartbeat mesh per host (config.participants is
  // replaced per host with that host's Devices()). Idempotent.
  void EnableHeartbeats(anomaly::HeartbeatMesh::Config config = {});
  bool heartbeats_enabled() const { return !meshes_.empty(); }

  // Fleet-level root cause: every host's congested links and suspects,
  // merged in host order, plus saturated inter-host links and heartbeat
  // alarms.
  FleetRootCause RootCauseView();

 private:
  struct CrossFlow {
    CrossHostFlowSpec spec;
    fabric::FlowId src_flow = fabric::kInvalidFlow;
    fabric::FlowId dst_flow = fabric::kInvalidFlow;
    int32_t inter_slot = -1;
    double coupled_rate_bps = 0.0;
  };

  void CoupleCrossHostFlows();
  // Hands each host its limit_batches_ entry in one SetFlowLimitsBatch.
  void ApplyLimitBatches();
  FleetSample AggregateSample();
  // Reduces host |i| through Fabric::ReadLinkLoads; |loads| is the
  // caller's reusable buffer.
  HostSample ReduceHost(int i, std::vector<fabric::LinkLoad>& loads);

  Options options_;
  // The coordinator clock; no host schedules on it.
  sim::Simulation sim_;
  // One clock per host. Declaration order is destruction-safety: each
  // clock outlives its host (hosts_ destructs first), per HostNetwork's
  // borrowed-clock lifetime rule.
  std::vector<std::unique_ptr<sim::Simulation>> clocks_;
  std::vector<std::unique_ptr<HostNetwork>> hosts_;
  InterHostNetwork inter_;
  std::vector<std::unique_ptr<anomaly::HeartbeatMesh>> meshes_;  // Empty unless enabled.
  std::map<CrossFlowId, CrossFlow> cross_flows_;  // Ordered: deterministic coupling.
  CrossFlowId next_cross_id_ = 1;
  std::vector<FleetSample> samples_;
  // Width 1 (no helper threads) when the fleet is serial. Worker threads
  // only ever run inside ParallelFor rounds, so the pool needs no
  // particular destruction order relative to the clocks and hosts.
  core::WorkerPool pool_;
  // Per-host (flow, limit) batches of the cross-host coupling, reused
  // every tick.
  std::vector<std::vector<std::pair<fabric::FlowId, sim::Bandwidth>>> limit_batches_;
};

}  // namespace mihn::fleet

#endif  // MIHN_SRC_FLEET_FLEET_H_
