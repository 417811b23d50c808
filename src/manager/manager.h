// Holistic resource manager (paper §3.2, building block 2).
//
// Manager glues the compile-schedule-arbitrate scheme together:
//
//   SubmitIntent = interpret (intent -> per-link requirements under the
//   tenant's resource model) + schedule (topology-aware path choice) +
//   admit (ledger check against capacity headroom).
//
//   The dynamic arbiter wakes every quantum: allocations with attached
//   flows are enforced via per-flow rate limits; in work-conserving mode,
//   idle headroom on each link is redistributed to active allocations and
//   best-effort ("scavenger") flows in proportion to tenant weight, so
//   reservations never strand bandwidth. A quantum in which nothing the
//   pass reads has moved since a pass that changed no limit is skipped: it
//   would set the same limits again.
//
//   TenantView() provides the virtualized intra-host network abstraction:
//   each allocation appears to its tenant as a dedicated point-to-point
//   link of exactly the allocated capacity.

#ifndef MIHN_SRC_MANAGER_MANAGER_H_
#define MIHN_SRC_MANAGER_MANAGER_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/manager/intent.h"
#include "src/manager/scheduler.h"

namespace mihn::manager {

struct ManagerConfig {
  enum class Mode {
    kOff,             // No enforcement: today's unmanaged intra-host network.
    kStatic,          // Hard reservations only; idle headroom is stranded.
    kWorkConserving,  // Reservations + proportional redistribution of slack.
  };
  Mode mode = Mode::kWorkConserving;
  // Enforcement cadence. §3.2 Q3 asks for microsecond-level arbitration;
  // bench_manager_overhead measures what a pass costs.
  sim::TimeNs arbiter_quantum = sim::TimeNs::Micros(100);
  SchedulerConfig scheduler;
};

std::string_view ModeName(ManagerConfig::Mode mode);

// Result of SubmitIntent: an allocation id, or a reason for rejection.
struct SubmitResult {
  AllocationId id = kInvalidAllocation;
  std::string error;

  bool ok() const { return id != kInvalidAllocation; }
};

// Virtualized per-tenant view (§3.2: "each tenant should see a dedicated
// isolated virtual intra-host network").
struct VirtualLink {
  AllocationId allocation = kInvalidAllocation;
  topology::ComponentId src = topology::kInvalidComponent;
  topology::ComponentId dst = topology::kInvalidComponent;
  sim::Bandwidth capacity;      // == allocated bandwidth: the illusion.
  sim::TimeNs base_latency;     // Of the underlying physical path.
  sim::Bandwidth used;          // Tenant's own attached-flow usage.
  double utilization = 0.0;     // used / capacity.
};

struct VirtualView {
  fabric::TenantId tenant = fabric::kNoTenant;
  std::vector<VirtualLink> links;
  sim::Bandwidth total_allocated;
  sim::Bandwidth total_used;
};

class Manager {
 public:
  Manager(fabric::Fabric& fabric, ManagerConfig config = {});
  // Cancels the arbiter timer. The manager must be destroyed before its
  // fabric's clock.
  ~Manager();

  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  // -- Tenants -----------------------------------------------------------------
  fabric::TenantId RegisterTenant(std::string name, double weight = 1.0,
                                  ResourceModel model = ResourceModel::kPipe);
  const Tenant* GetTenant(fabric::TenantId id) const;

  // -- Compile / schedule / admit ------------------------------------------------
  SubmitResult SubmitIntent(fabric::TenantId tenant, PerformanceTarget target);

  void ReleaseAllocation(AllocationId id);

  // Re-places an existing allocation onto new endpoints, keeping its id,
  // tenant, bandwidth, and latency bound (§3.2: the virtualized abstraction
  // "should enable tenants to easily migrate their VMs or containers
  // without reconfiguring their own intra-host networks"). The allocation's
  // own reservation is credited during the feasibility check, so migrating
  // within otherwise-full capacity succeeds. Attached flows are detached
  // (their physical paths belong to the old placement); on failure the
  // allocation is left exactly as it was.
  SubmitResult MigrateAllocation(AllocationId id, topology::ComponentId new_src,
                                 topology::ComponentId new_dst);

  // Re-places every allocation whose path crosses a dead link (effective
  // capacity zero) onto a healthy path, keeping its endpoints — the
  // manager's half of fault recovery (the chaos campaign measures the time
  // from injection to the SLO re-converging after this runs). Attached
  // flows are detached exactly as in MigrateAllocation; callers restart
  // their traffic on the new path. Allocations with no healthy alternative
  // are left in place. Returns the repaired ids in ascending order.
  std::vector<AllocationId> RepairFaultedAllocations();

  const Allocation* GetAllocation(AllocationId id) const;
  std::vector<AllocationId> AllAllocations() const;

  // -- Flow attachment -----------------------------------------------------------
  // Ties an application flow to its allocation so the arbiter enforces the
  // allocation across exactly these flows. A flow belongs to at most one
  // allocation: attaching it to another moves it there, and attaching it
  // where it already is does nothing.
  void AttachFlow(AllocationId id, fabric::FlowId flow);

  // -- Arbitration -----------------------------------------------------------------
  // Starts the periodic arbiter (no-op in Mode::kOff). Idempotent.
  void Start();
  // One enforcement pass right now (also what the timer runs). It returns
  // at once when neither the fabric's mutation_count() nor the manager's own
  // inputs moved since a pass that changed no limit. arbitrations() counts
  // every call, skipped or not.
  void ArbitrateOnce();

  // -- Views / introspection -------------------------------------------------------
  VirtualView TenantView(fabric::TenantId tenant);
  sim::Bandwidth ReservedOn(topology::DirectedLink link) const;

  uint64_t arbitrations() const { return arbitrations_; }

 private:
  // Rebuilds reserved_ from live allocations (resource-model aware).
  void RecomputeLedger();

  // One pass's limits: each attached flow's share of its allocation's
  // budget, then each scavenger's share of the slack. Prunes attached flows
  // the fabric no longer has. Returns the scavenger count (the tail of
  // |limits|).
  size_t ComputeLimits(std::vector<std::pair<fabric::FlowId, sim::Bandwidth>>& limits);

  // Reservation map used for admission of |target| by |tenant|: reserved_
  // with the tenant's hose overlap credited (see SubmitIntent).
  std::map<int32_t, double> AdmissionLedger(fabric::TenantId tenant,
                                            const PerformanceTarget& target) const;

  fabric::Fabric& fabric_;
  ManagerConfig config_;
  Scheduler scheduler_;

  std::map<fabric::TenantId, Tenant> tenants_;
  fabric::TenantId next_tenant_id_ = 1;
  std::map<AllocationId, Allocation> allocations_;
  AllocationId next_allocation_id_ = 1;
  std::map<fabric::FlowId, AllocationId> flow_to_allocation_;

  // Per DirectedIndex reservation totals, bytes/sec.
  std::map<int32_t, double> reserved_;

  sim::EventHandle arbiter_timer_;
  bool running_ = false;
  uint64_t arbitrations_ = 0;
  // Bumped by every change to the arbiter's own inputs: tenants, attached
  // flows and the reservation ledger. Everything else a pass reads moves
  // only through a fabric mutation.
  uint64_t inputs_version_ = 0;
  // The fabric's mutation_count() and inputs_version_ as of the last pass
  // that changed no limit. A pass that changed one records nothing: the
  // rates its split reads move with those limits, so the next pass runs.
  uint64_t quiet_mutations_ = std::numeric_limits<uint64_t>::max();
  uint64_t quiet_inputs_ = 0;
};

}  // namespace mihn::manager

#endif  // MIHN_SRC_MANAGER_MANAGER_H_
