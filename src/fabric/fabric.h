// The fluid flow-level simulator of the intra-host network.
//
// Fabric animates a Topology inside a Simulation:
//
//  * Continuous/finite *flows* share every directed link by weighted
//    max-min fairness (recomputed on each arrival, departure, limit change,
//    fault, or config change — the fluid equivalent of PCIe/memory-bus
//    arbitration).
//  * Per-hop latency inflates with utilization (M/M/1 shape), reproducing
//    "congestion in the intra-host network causes application-level
//    performance anomalies" (paper §2).
//  * Inbound I/O writes to a CPU socket pass through the DDIO/LLC model;
//    misses spawn companion TrafficClass::kSpill flows onto the memory bus
//    and throttle the parent to its miss-drain rate.
//  * Small *packets* (RPCs, heartbeats, probes) ride on top without
//    claiming fluid bandwidth; they observe congestion latency.
//  * Every byte is attributed to a (tenant, traffic class) per directed
//    link — the observability substrate the telemetry module samples.
//
// This class is the hardware-substitution boundary (see DESIGN.md §1): the
// manageability layers above talk only to this interface.

#ifndef MIHN_SRC_FABRIC_FABRIC_H_
#define MIHN_SRC_FABRIC_FABRIC_H_

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/fabric/cache_model.h"
#include "src/fabric/config.h"
#include "src/fabric/types.h"
#include "src/obs/tracer.h"
#include "src/sim/simulation.h"
#include "src/topology/routing.h"
#include "src/topology/topology.h"

namespace mihn::fabric {

// Telemetry view of one direction of one link.
struct LinkSnapshot {
  topology::LinkId link = topology::kInvalidLink;
  bool forward = true;
  double capacity_bps = 0.0;  // Effective (after config + faults).
  double rate_bps = 0.0;      // Currently allocated fluid rate.
  double utilization = 0.0;   // rate / capacity in [0, 1].
  double bytes_total = 0.0;   // Accrued since start (fluid + packets).
  uint64_t packets = 0;
  // Deterministically ordered per-tenant attribution.
  std::map<TenantId, double> rate_by_tenant_bps;
  std::map<TenantId, double> bytes_by_tenant;
  std::array<double, kNumTrafficClasses> rate_by_class_bps{};
  std::array<double, kNumTrafficClasses> bytes_by_class{};
};

// The load totals of one directed link: the part of a LinkSnapshot that
// fleet-scale rollups read every tick, without the per-tenant maps.
struct LinkLoad {
  double capacity_bps = 0.0;  // Effective (after config + faults).
  double rate_bps = 0.0;
  double bytes_total = 0.0;   // Accrued since start (fluid + packets).
};

class Fabric {
 public:
  // |topo| must outlive the Fabric and pass Validate().
  Fabric(sim::Simulation& sim, const topology::Topology& topo, FabricConfig config = {});
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // -- Routing convenience ----------------------------------------------------
  // Shortest (base-latency) path, fault-aware: dead links (capacity factor
  // 0) are never routed through, degraded links only when no fully healthy
  // alternative exists. nullopt if every route crosses a dead link.
  std::optional<topology::Path> Route(topology::ComponentId src,
                                      topology::ComponentId dst) const;

  // Bumps whenever a fault injection/clear changes which paths Route()
  // prefers. Path-caching consumers (heartbeat mesh, workloads) compare it
  // to re-resolve; it never moves on no-op fault churn.
  uint64_t route_epoch() const { return route_epoch_; }

  // -- Flows -------------------------------------------------------------------
  // Starts a continuous flow. Returns kInvalidFlow for an empty path.
  FlowId StartFlow(FlowSpec spec);

  // Starts a finite transfer; spec.on_complete fires at delivery. Returns
  // the id of the underlying flow. Zero-byte transfers complete immediately.
  FlowId StartTransfer(TransferSpec spec);

  // Stops and removes a flow (its spill companion too). Finite transfers
  // stopped early never fire on_complete. No-op for unknown ids.
  void StopFlow(FlowId id);

  // Arbiter hooks: rate cap and fair-share weight.
  void SetFlowLimit(FlowId id, sim::Bandwidth limit);
  // Applies many limits with a single rate recomputation — what a real
  // arbiter's batched enforcement write-back would do. Unknown ids are
  // skipped.
  void SetFlowLimitsBatch(const std::vector<std::pair<FlowId, sim::Bandwidth>>& limits);
  void SetFlowWeight(FlowId id, double weight);
  // Application hook: change a continuous flow's offered demand.
  void SetFlowDemand(FlowId id, sim::Bandwidth demand);

  // Accrues pending fluid bytes before reporting.
  std::optional<FlowInfo> GetFlowInfo(FlowId id);
  sim::Bandwidth FlowRate(FlowId id) const;
  std::vector<FlowId> ActiveFlows() const;

  // -- Packets -----------------------------------------------------------------
  // Sends a packetized message; on_delivered fires after per-hop congestion
  // latency + serialization (+ interrupt moderation). Returns the latency
  // it will experience (known immediately — the model is deterministic).
  sim::TimeNs SendPacket(PacketSpec spec);

  // Current end-to-end latency along |path| for a minimal probe (no
  // serialization): what a zero-byte ping would see right now.
  sim::TimeNs ProbePathLatency(const topology::Path& path) const;

  // Current one-hop latency (with congestion inflation and faults).
  sim::TimeNs HopLatency(topology::DirectedLink hop) const;

  // -- Faults ------------------------------------------------------------------
  // Injects/overwrites a silent fault on |link| (both directions).
  void InjectLinkFault(topology::LinkId link, LinkFault fault);
  void ClearLinkFault(topology::LinkId link);
  std::optional<LinkFault> GetLinkFault(topology::LinkId link) const;

  // The live fault table (deterministic key order). Routing-adjacent
  // consumers (the scheduler's private router) mirror this into their own
  // health sets.
  const std::map<topology::LinkId, LinkFault>& link_faults() const { return faults_; }

  // -- Configuration -------------------------------------------------------------
  const FabricConfig& config() const { return config_; }
  void SetConfig(FabricConfig config);

  // -- Telemetry access ----------------------------------------------------------
  // Both accrue pending fluid bytes before reporting, so counters are
  // exact as of Now().
  LinkSnapshot Snapshot(topology::DirectedLink dlink);
  std::vector<LinkSnapshot> SnapshotAll();

  // The lean rollup read: settles and accrues like SnapshotAll(), then
  // replaces |out| with one LinkLoad per directed link in SnapshotAll()
  // order. Returns the live flow count (== ActiveFlows().size()).
  size_t ReadLinkLoads(std::vector<LinkLoad>& out);

  // Effective capacity of one direction (after config + faults).
  sim::Bandwidth EffectiveCapacity(topology::DirectedLink dlink) const;
  double Utilization(topology::DirectedLink dlink) const;

  // DDIO/LLC stats for a socket (zero-value stats if none tracked yet).
  SocketCacheStats CacheStats(topology::ComponentId socket) const;

  const topology::Topology& topo() const { return topo_; }
  sim::Simulation& simulation() { return sim_; }

  // -- Settle -------------------------------------------------------------------
  // Runs any pending deferred solve now, like the flush a read accessor
  // triggers, rescheduling the completion event on this fabric's clock.
  // No-op when nothing is dirty. The fleet settles every host this way on
  // that host's worker, ahead of its event window and before the coupling
  // reads stage rates.
  void Settle() { FlushIfDirty(); }

  // -- Tracing -------------------------------------------------------------------
  // Installs the tracer that receives "fabric.solve" spans (flow/link
  // counts, solver rounds, coalesced mutations, DDIO spill) and fabric
  // counters. |tracer| must not be null — pass obs::Tracer::Disabled() to
  // turn tracing off — and must outlive the fabric.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  // Rate mutations are *coalesced*: a mutator (StartFlow, StopFlow,
  // SetFlowLimit/Weight/Demand, faults, SetConfig) only marks the fabric
  // dirty, and the max-min solve runs lazily — on the first rate/latency/
  // snapshot read, or at the end of the current simulation timestamp (a
  // pre-advance hook fires before virtual time moves on, so rates are always
  // settled before any later-time event or byte accrual observes them). A
  // same-timestamp burst of N mutations therefore pays for one solve.
  //
  // Number of max-min recomputations performed (engine health metric).
  // Reading it does NOT force a pending solve.
  uint64_t recompute_count() const { return recompute_count_; }

  // Number of rate-affecting mutations accepted. mutation_count() /
  // recompute_count() is the observable coalescing ratio.
  uint64_t mutation_count() const { return mutation_count_; }

  // Debug invariant pass over the solved state: per-link conservation
  // (Σ flow rates on a link equals the link's aggregate and stays within
  // effective capacity, modulo float tolerance), per-tenant sums and
  // membership counts, non-negative rates and counters, spill parent/child
  // symmetry, dirty-flag/recompute-count consistency, and the bookkeeping
  // behind them: ids ascend, no dead row outlives a solve, every row matches
  // its solver slot, the completion heap's top is the earliest finish over
  // live finite rows, and effective capacities equal a fresh computation
  // from config and faults.
  // Aborts via MIHN_CHECK on the first violation. A no-op unless built with
  // -DMIHN_ENABLE_INVARIANT_CHECKS=ON, in which case Recompute() runs it
  // after every solve, so the existing fabric/sim test suites exercise it
  // end to end.
  void CheckInvariants() const;

 private:
  // The flow table is a set of columns over *rows*, kept in ascending id
  // order. A row's index is its slot in the retained solver: rows are
  // appended in id order (ids are monotonic) and compacted, still in id
  // order, at the solver re-prime that follows any add or remove, so solver
  // output maps onto rows without translation and every walk stays in id
  // order. A removed row lingers as a dead row (rate 0) only until that
  // re-prime. FlowId -> row is a binary search over the id column.
  //
  // The densely walked fields are the columns ids_, rates_, tenants_ and
  // classes_; the rest of a row lives in FlowRow, its path and completion
  // callback behind a pointer (stable while the flow lives: FlowInfo::path
  // points into it).
  struct ColdRow {
    topology::Path path;
    std::function<void(const TransferResult&)> on_complete;
    sim::TimeNs start_time;
  };

  struct FlowRow {
    bool alive = true;
    bool ddio_write = false;
    // Solver inputs; the effective demand is min(demand, limit, cache_cap).
    double demand = 0.0;
    double limit = kUnlimitedDemand;
    double cache_cap = kUnlimitedDemand;  // Miss-drain throttle from the LLC model.
    double weight = 1.0;
    // The effective demand last pushed to the solver slot: the retained diff
    // compares against it, so an untouched flow costs nothing per solve.
    double pushed_demand = -1.0;
    double miss_fraction = 0.0;  // 1 - hit rate of this flow's socket.
    FlowId spill_child = kInvalidFlow;
    FlowId spill_parent = kInvalidFlow;
    // DirectedIndex per hop (sorted, deduped) in hop_pool_.
    uint32_t hop_begin = 0;
    uint32_t hop_count = 0;
    // Lazy byte state: bytes moved and (finite transfers) bytes left as of
    // |since|; the row has moved at its committed rate ever since. Settled
    // when the rate changes and at completion.
    sim::TimeNs since;
    double moved = 0.0;
    double remaining = -1.0;  // < 0: continuous.
    // Finite transfers only: when |remaining| drains at the committed rate
    // (TimeNs::Max() at rate 0), and the row's position in heap_.
    sim::TimeNs finish = sim::TimeNs::Max();
    int32_t heap_pos = -1;
    std::unique_ptr<ColdRow> cold;
  };

  struct DirectedLinkState {
    double raw_capacity = 0.0;
    double effective_capacity = 0.0;
    double rate = 0.0;
    double bytes_total = 0.0;
    uint64_t packets = 0;
    std::array<double, kNumTrafficClasses> rate_by_class{};
    std::array<double, kNumTrafficClasses> bytes_by_class{};
    // Rows crossing this link as of the last re-prime, ascending (== id
    // order). The rate sums are re-summed over it in this order, so they
    // stay bit-identical to a full rebuild.
    std::vector<int32_t> members;
    bool stale = false;        // A member's rate moved since the last re-sum.
    int32_t active_pos = -1;   // Index in active_links_ while rate > 0.
  };

  // -- Flow table ---------------------------------------------------------------
  // Appends a live row (next id) and counts it in its links' tenant
  // membership. Returns the row.
  int32_t AppendRow(topology::Path path, int32_t tenant, TrafficClass klass, double weight,
                    double demand, bool ddio_write);
  // Row of a live flow, or -1.
  int32_t FindRow(FlowId id) const;
  // Dense index of |tenant|, registering it on first sight.
  int32_t TenantIndex(TenantId tenant);
  const int32_t* Hops(int32_t row) const {
    return hop_pool_.data() + rows_[static_cast<size_t>(row)].hop_begin;
  }
  static double EffectiveDemand(const FlowRow& r) {
    return std::min({r.demand, r.limit, r.cache_cap});
  }
  // Drops dead rows, renumbering the survivors in id order, and empties
  // every link's member list for the re-prime to refill.
  void CompactRows();
  // Appends |row| to its links' member lists; done as the row is pushed to
  // the solver, so set-up pays nothing per link.
  void JoinLinks(int32_t row);
  void RemoveFlowInternal(int32_t row);

  // -- Accrual ------------------------------------------------------------------
  // Moves fluid bytes for the interval since the last accrual into the
  // per-link counters, from the per-link aggregate rates. Must be called
  // before any rate change.
  void AccrueCounters();
  // Finite transfers that drained inside (last, now] moved only what they
  // had left: takes back what the aggregate-rate accrual credited beyond.
  void TakeBackOvershoot(sim::TimeNs last, sim::TimeNs now, double dt);
  // Bytes |row| moved since its settled state (capped for transfers).
  double PendingBytes(int32_t row, sim::TimeNs now) const;
  // Folds PendingBytes into the row's settled state as of |now|.
  void SettleBytes(int32_t row, sim::TimeNs now);

  // -- Solve --------------------------------------------------------------------
  // Records a rate-affecting mutation (|count| of them) and defers the solve
  // to the next FlushIfDirty() point.
  void MarkDirty(uint64_t count = 1);

  // MarkDirty(1) plus an entry in dirty_ids_, so the retained diff in
  // SolveRates() visits only this flow instead of scanning all of them.
  void MarkFlowDirty(FlowId id);

  // Runs the deferred Recompute() if any mutation is pending. const because
  // every read accessor is a flush point; the solve only touches state that
  // is logically derived (rates, cache coupling, completion schedule).
  void FlushIfDirty() const;

  // Re-solves max-min rates (with the cache fixed point) and reschedules
  // the next completion event.
  void Recompute();

  // One max-min pass; leaves the result in *solved_, indexed by row.
  // After an add, a remove, a weight change or a capacity refresh it
  // re-primes the solver from the compacted table; otherwise it pushes only
  // the dirty rows' changed demands and lets SolveDelta() replay the
  // previous solve's trace.
  void SolveRates();

  // Commits *solved_: rows whose rate moved settle their bytes, re-key
  // their completion and mark their links stale; stale links re-sum.
  void CommitRates();
  void ResumLink(int32_t li);

  // Applies config + faults to every directed link's effective capacity.
  void RefreshCapacities();
  // The config and fault scaling of |link|'s raw capacity.
  double CapacityFactor(const topology::Link& link) const;

  // Ensures/updates spill companions for DDIO flows, reading each parent's
  // round-1 potential rate from *solved_. Part of Recompute.
  void UpdateCacheCoupling();

  // -- Completion -----------------------------------------------------------------
  // Min-heap of live finite rows keyed on (finish, row); rows ascend with
  // ids, so ties break by FlowId.
  bool HeapLess(int32_t a, int32_t b) const;
  void HeapPlace(int32_t row, size_t pos);
  void HeapSiftUp(size_t pos);
  void HeapSiftDown(size_t pos);
  void HeapPush(int32_t row);
  void HeapRemove(int32_t row);
  void HeapUpdate(int32_t row);
  // Recomputes a settled finite row's finish time from its rate.
  void UpdateFinish(int32_t row, sim::TimeNs now);

  void RescheduleCompletion();
  void OnCompletionEvent();

  bool IsPcieKind(topology::LinkKind kind) const;
  sim::TimeNs HopBaseLatency(topology::DirectedLink hop) const;
  void FillSnapshot(topology::DirectedLink dlink, LinkSnapshot& snap) const;

  // Mirrors faults_ into the router's health sets (dead vs degraded) after
  // every inject/clear; bumps route_epoch_ when routing preferences moved.
  void SyncRouterHealth();

  // Chooses the spill destination DIMM for a socket (round-robin).
  topology::ComponentId PickSpillDimm(topology::ComponentId socket, FlowId flow);

  sim::Simulation& sim_;
  const topology::Topology& topo_;
  topology::Router router_;
  FabricConfig config_;

  std::vector<DirectedLinkState> links_;  // Indexed by DirectedIndex.
  std::vector<int32_t> active_links_;     // Links with rate > 0, any order.
  std::vector<int32_t> stale_links_;

  // Flow table columns (see above), one entry per row.
  std::vector<FlowId> ids_;
  std::vector<double> rates_;       // Committed rate; 0 for dead rows.
  std::vector<int32_t> tenants_;    // Dense tenant index.
  std::vector<TrafficClass> classes_;
  std::vector<FlowRow> rows_;
  std::vector<int32_t> hop_pool_;
  size_t live_flows_ = 0;
  FlowId next_flow_id_ = 1;

  // Per-tenant link aggregates over the dense tenant index, tenant-major
  // ([tenant * links + link]) so a new tenant appends a block. A tenant's
  // rate key is in a snapshot while it has live members on the link; its
  // bytes key once it ever moved bytes there.
  std::vector<TenantId> tenant_ids_;                      // Index -> id.
  std::vector<std::pair<TenantId, int32_t>> tenant_lookup_;  // Sorted by id.
  std::vector<double> tenant_rate_;
  std::vector<double> tenant_bytes_;
  std::vector<int32_t> tenant_members_;
  std::vector<uint8_t> tenant_seen_;

  sim::TimeNs last_accrual_;
  sim::EventHandle completion_event_;
  bool completion_armed_ = false;  // completion_event_ may still fire.
  std::vector<int32_t> heap_;
  std::vector<int32_t> done_rows_;
  // Ordered maps: fault and DIMM state feed snapshots, telemetry, and spill
  // placement, so iteration order must be the key order, never hash order.
  std::map<topology::LinkId, LinkFault> faults_;
  std::map<topology::ComponentId, SocketCacheStats> cache_stats_;
  std::map<topology::ComponentId, std::vector<topology::ComponentId>> socket_dimms_;
  MaxMinSolver solver_;  // Persistent workspace: no allocation at steady state.
  const std::vector<double>* solved_ = nullptr;  // The last SolveRates() output.
  // Retained-solver bookkeeping. dirty_ids_ is the worklist of flows whose
  // effective demand may have moved since the last solve, new flows
  // included (duplicates fine — the diff skips unmoved demands). reprime_
  // makes the next SolveRates() load the whole table into the solver
  // instead: set by any add, remove, weight change or capacity refresh, and
  // before the first solve.
  std::vector<FlowId> dirty_ids_;
  bool reprime_ = true;
  // Capacities move only with faults and config: RefreshCapacities() runs
  // only after one of those mutators, in the next Recompute().
  bool capacities_stale_ = false;
  sim::EventHandle pre_advance_hook_;
  obs::Tracer* tracer_ = obs::Tracer::Disabled();
  uint64_t route_epoch_ = 0;
  uint64_t recompute_count_ = 0;
  uint64_t mutation_count_ = 0;
  uint64_t mutations_at_last_solve_ = 0;  // For the per-solve coalescing arg.
  size_t ddio_flow_count_ = 0;  // Active flows with ddio_write.
  bool dirty_ = false;
  bool in_recompute_ = false;
};

}  // namespace mihn::fabric

#endif  // MIHN_SRC_FABRIC_FABRIC_H_
