#include "src/manager/manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/core/check.h"
#include "src/obs/tracer.h"

namespace mihn::manager {
namespace {

constexpr double kUnlimited = fabric::kUnlimitedDemand;

// Relative weight of an unallocated best-effort flow vs. tenant weights
// when slack is redistributed.
constexpr double kScavengerWeight = 0.1;

}  // namespace

std::string_view ModeName(ManagerConfig::Mode mode) {
  switch (mode) {
    case ManagerConfig::Mode::kOff:
      return "off";
    case ManagerConfig::Mode::kStatic:
      return "static";
    case ManagerConfig::Mode::kWorkConserving:
      return "work_conserving";
  }
  return "unknown";
}

Manager::Manager(fabric::Fabric& fabric, ManagerConfig config)
    : fabric_(fabric), config_(config), scheduler_(fabric, config.scheduler) {}

Manager::~Manager() { arbiter_timer_.Cancel(); }

fabric::TenantId Manager::RegisterTenant(std::string name, double weight, ResourceModel model) {
  const fabric::TenantId id = next_tenant_id_++;
  Tenant tenant;
  tenant.id = id;
  tenant.name = std::move(name);
  tenant.weight = std::max(weight, 1e-6);
  tenant.model = model;
  tenants_.emplace(id, std::move(tenant));
  ++inputs_version_;
  return id;
}

const Tenant* Manager::GetTenant(fabric::TenantId id) const {
  const auto it = tenants_.find(id);
  return it == tenants_.end() ? nullptr : &it->second;
}

void Manager::RecomputeLedger() {
  std::vector<const Allocation*> allocations;
  allocations.reserve(allocations_.size());
  for (const auto& [id, alloc] : allocations_) {
    allocations.push_back(&alloc);
  }
  std::map<fabric::TenantId, ResourceModel> models;
  for (const auto& [id, tenant] : tenants_) {
    models[id] = tenant.model;
  }
  reserved_ = AggregateReservations(allocations, models);
  ++inputs_version_;
}

SubmitResult Manager::SubmitIntent(fabric::TenantId tenant, PerformanceTarget target) {
  MIHN_TRACE_SPAN(place_span, fabric_.tracer(), "manager", "manager.place");
  SubmitResult result;
  if (!tenants_.contains(tenant)) {
    result.error = "unknown tenant";
    return result;
  }
  if (target.bandwidth.bytes_per_sec() <= 0.0) {
    result.error = "non-positive bandwidth target";
    return result;
  }
  const auto placement = scheduler_.Place(target, AdmissionLedger(tenant, target));
  if (!placement) {
    place_span.Arg("admitted", 0.0);
    result.error = "no feasible path: capacity or latency bound unsatisfiable";
    return result;
  }
  if (place_span.active()) {
    place_span.Arg("admitted", 1.0);
    place_span.Arg("candidates", static_cast<double>(placement->candidates_considered));
    place_span.Arg("path_hops", static_cast<double>(placement->path.hops.size()));
    place_span.Arg("max_utilization", placement->max_utilization);
  }
  const AllocationId id = next_allocation_id_++;
  Allocation alloc;
  alloc.id = id;
  alloc.tenant = tenant;
  alloc.target = target;
  alloc.path = placement->path;
  allocations_.emplace(id, std::move(alloc));
  RecomputeLedger();
  result.id = id;
  return result;
}

std::map<int32_t, double> Manager::AdmissionLedger(fabric::TenantId tenant,
                                                   const PerformanceTarget& target) const {
  // For a hose tenant, a link already carrying this tenant's hose
  // reservation only needs max(existing, new) — credit the overlap so the
  // scheduler's additive "already + bw" test evaluates the true
  // post-admission total.
  std::map<int32_t, double> check = reserved_;
  const auto tit = tenants_.find(tenant);
  if (tit != tenants_.end() && tit->second.model == ResourceModel::kHose) {
    std::map<int32_t, double> tenant_max;
    for (const auto& [aid, alloc] : allocations_) {
      if (alloc.tenant != tenant) {
        continue;
      }
      const double bw = alloc.target.bandwidth.bytes_per_sec();
      for (const topology::DirectedLink& hop : alloc.path.hops) {
        auto& m = tenant_max[topology::DirectedIndex(hop)];
        m = std::max(m, bw);
      }
    }
    const double new_bw = target.bandwidth.bytes_per_sec();
    for (const auto& [index, old_max] : tenant_max) {
      check[index] += std::max(old_max, new_bw) - old_max - new_bw;
    }
  }
  return check;
}

void Manager::ReleaseAllocation(AllocationId id) {
  const auto it = allocations_.find(id);
  if (it == allocations_.end()) {
    return;
  }
  for (const fabric::FlowId flow : it->second.flows) {
    flow_to_allocation_.erase(flow);
    fabric_.SetFlowLimit(flow, sim::Bandwidth::BytesPerSec(kUnlimited));
  }
  allocations_.erase(it);
  RecomputeLedger();
}

SubmitResult Manager::MigrateAllocation(AllocationId id, topology::ComponentId new_src,
                                        topology::ComponentId new_dst) {
  SubmitResult result;
  const auto it = allocations_.find(id);
  if (it == allocations_.end()) {
    result.error = "unknown allocation";
    return result;
  }
  // Credit this allocation's own reservation: take it out of the ledger,
  // place against the remainder, and roll back untouched on failure.
  Allocation moving = it->second;
  allocations_.erase(it);
  RecomputeLedger();

  PerformanceTarget target = moving.target;
  target.src = new_src;
  target.dst = new_dst;
  const auto placement = scheduler_.Place(target, reserved_);
  if (!placement) {
    allocations_.emplace(id, std::move(moving));
    RecomputeLedger();
    result.error = "no feasible path at the migration destination";
    return result;
  }
  for (const fabric::FlowId flow : moving.flows) {
    flow_to_allocation_.erase(flow);
    fabric_.SetFlowLimit(flow, sim::Bandwidth::BytesPerSec(kUnlimited));
  }
  moving.flows.clear();
  moving.target = target;
  moving.path = placement->path;
  allocations_.emplace(id, std::move(moving));
  RecomputeLedger();
  result.id = id;
  return result;
}

std::vector<AllocationId> Manager::RepairFaultedAllocations() {
  std::vector<AllocationId> repaired;
  for (const AllocationId id : AllAllocations()) {
    const Allocation* alloc = GetAllocation(id);
    if (alloc == nullptr) {
      continue;
    }
    const bool crosses_dead_link =
        std::any_of(alloc->path.hops.begin(), alloc->path.hops.end(),
                    [this](const topology::DirectedLink& hop) {
                      return fabric_.EffectiveCapacity(hop).IsZero();
                    });
    if (!crosses_dead_link) {
      continue;
    }
    const topology::ComponentId src = alloc->target.src;
    const topology::ComponentId dst = alloc->target.dst;
    if (MigrateAllocation(id, src, dst).ok()) {
      repaired.push_back(id);
    }
  }
  return repaired;
}

const Allocation* Manager::GetAllocation(AllocationId id) const {
  const auto it = allocations_.find(id);
  return it == allocations_.end() ? nullptr : &it->second;
}

std::vector<AllocationId> Manager::AllAllocations() const {
  std::vector<AllocationId> ids;
  ids.reserve(allocations_.size());
  for (const auto& [id, alloc] : allocations_) {
    ids.push_back(id);
  }
  return ids;
}

void Manager::AttachFlow(AllocationId id, fabric::FlowId flow) {
  const auto it = allocations_.find(id);
  if (it == allocations_.end() || flow == fabric::kInvalidFlow) {
    return;
  }
  const auto [held, attached] = flow_to_allocation_.try_emplace(flow, id);
  if (!attached) {
    if (held->second == id) {
      return;
    }
    // Re-home: the previous allocation stops limiting the flow and
    // counting it in its split.
    std::erase(allocations_.at(held->second).flows, flow);
    held->second = id;
  }
  it->second.flows.push_back(flow);
  ++inputs_version_;
}

void Manager::Start() {
  if (running_ || config_.mode == ManagerConfig::Mode::kOff) {
    return;
  }
  running_ = true;
  arbiter_timer_ = fabric_.simulation().SchedulePeriodic(
      config_.arbiter_quantum, [this] { ArbitrateOnce(); }, "manager.arbiter");
}

void Manager::ArbitrateOnce() {
  ++arbitrations_;
  if (config_.mode == ManagerConfig::Mode::kOff) {
    return;
  }
  // A pass is a pure function of the flow set, classes, paths, rates and
  // effective capacities (which move only through a fabric mutation) and of
  // the allocations, reservations and tenant weights (which move only
  // through the mutators that bump inputs_version_). With neither moved
  // since a pass that changed nothing, this one would change nothing too.
  if (fabric_.mutation_count() == quiet_mutations_ && inputs_version_ == quiet_inputs_) {
#ifdef MIHN_ENABLE_INVARIANT_CHECKS
    // Oracle: run the skipped pass anyway; every limit it computes is
    // already in place (clamped as SetFlowLimit clamps), and computing them
    // mutated nothing.
    std::vector<std::pair<fabric::FlowId, sim::Bandwidth>> limits;
    ComputeLimits(limits);
    for (const auto& [flow, limit] : limits) {
      const auto info = fabric_.GetFlowInfo(flow);
      MIHN_CHECK(info.has_value());
      const double clamped =
          limit.bytes_per_sec() < 0 ? 0.0 : std::min(limit.bytes_per_sec(), kUnlimited);
      // mihn-check: float-eq-ok(a skipped pass must reproduce the stored limit exactly)
      MIHN_CHECK(info->limit.bytes_per_sec() == clamped);
    }
    MIHN_CHECK(fabric_.mutation_count() == quiet_mutations_);
#endif
    return;
  }
  MIHN_TRACE_SPAN(quantum_span, fabric_.tracer(), "manager", "manager.arbitrate");
  std::vector<std::pair<fabric::FlowId, sim::Bandwidth>> limits;
  const size_t scavengers = ComputeLimits(limits);

  if (quantum_span.active()) {
    // Tokens granted this quantum: finite limits only (an "unlimited"
    // scavenger cap is absence of enforcement, not a grant).
    double granted_bps = 0.0;
    for (const auto& [flow, limit] : limits) {
      if (limit.bytes_per_sec() < kUnlimited) {
        granted_bps += limit.bytes_per_sec();
      }
    }
    quantum_span.Arg("flows_limited", static_cast<double>(limits.size()));
    quantum_span.Arg("scavengers", static_cast<double>(scavengers));
    quantum_span.Arg("granted_bps", granted_bps);
    MIHN_TRACE_COUNTER(fabric_.tracer(), "manager", "manager.flows_limited", limits.size());
    MIHN_TRACE_COUNTER(fabric_.tracer(), "manager", "manager.granted_bps", granted_bps);
  }
  // Applied only after every rate read above: the limits coalesce into the
  // fabric's next solve.
  const uint64_t mutations = fabric_.mutation_count();
  for (const auto& [flow, limit] : limits) {
    fabric_.SetFlowLimit(flow, limit);
  }
  if (fabric_.mutation_count() == mutations) {
    quiet_mutations_ = mutations;
    quiet_inputs_ = inputs_version_;
  }
}

size_t Manager::ComputeLimits(std::vector<std::pair<fabric::FlowId, sim::Bandwidth>>& limits) {
  const bool work_conserving = config_.mode == ManagerConfig::Mode::kWorkConserving;

  // Prune flows that no longer exist in the fabric.
  for (auto& [id, alloc] : allocations_) {
    auto& flows = alloc.flows;
    flows.erase(std::remove_if(flows.begin(), flows.end(),
                               [this](fabric::FlowId f) {
                                 if (fabric_.FlowRate(f).IsZero() &&
                                     !fabric_.GetFlowInfo(f).has_value()) {
                                   flow_to_allocation_.erase(f);
                                   return true;
                                 }
                                 return false;
                               }),
                flows.end());
  }

  // Identify scavengers: live kData flows not attached to any allocation.
  struct Scavenger {
    fabric::FlowId id;
    std::vector<int32_t> links;
  };
  std::vector<Scavenger> scavengers;
  for (const fabric::FlowId id : fabric_.ActiveFlows()) {
    if (flow_to_allocation_.contains(id)) {
      continue;
    }
    const auto info = fabric_.GetFlowInfo(id);
    if (!info || info->klass != fabric::TrafficClass::kData || info->path == nullptr) {
      continue;
    }
    Scavenger s;
    s.id = id;
    for (const topology::DirectedLink& hop : info->path->hops) {
      s.links.push_back(topology::DirectedIndex(hop));
    }
    scavengers.push_back(std::move(s));
  }

  // Per-link slack and claim weights over that slack.
  auto leftover_of = [this](int32_t index) {
    const topology::DirectedLink dlink{index / 2, index % 2 == 0};
    const double cap = fabric_.EffectiveCapacity(dlink).bytes_per_sec() * kReservableFraction;
    const auto it = reserved_.find(index);
    const double reserved = it == reserved_.end() ? 0.0 : it->second;
    return std::max(0.0, cap - reserved);
  };

  std::map<int32_t, double> claim;
  if (work_conserving) {
    for (const auto& [id, alloc] : allocations_) {
      if (alloc.flows.empty()) {
        continue;
      }
      const Tenant* tenant = GetTenant(alloc.tenant);
      const double w = tenant ? tenant->weight : 1.0;
      for (const topology::DirectedLink& hop : alloc.path.hops) {
        claim[topology::DirectedIndex(hop)] += w;
      }
    }
  }
  for (const Scavenger& s : scavengers) {
    for (const int32_t index : s.links) {
      claim[index] += kScavengerWeight;
    }
  }

  // Allocation budgets: reservation plus (work-conserving) slack bonus,
  // split across the allocation's flows in proportion to current usage.
  for (const auto& [id, alloc] : allocations_) {
    if (alloc.flows.empty()) {
      continue;
    }
    double budget = alloc.target.bandwidth.bytes_per_sec();
    if (work_conserving) {
      const Tenant* tenant = GetTenant(alloc.tenant);
      const double w = tenant ? tenant->weight : 1.0;
      double bonus = std::numeric_limits<double>::infinity();
      for (const topology::DirectedLink& hop : alloc.path.hops) {
        const int32_t index = topology::DirectedIndex(hop);
        const double c = claim[index];
        bonus = std::min(bonus, c > 0.0 ? leftover_of(index) * w / c : 0.0);
      }
      if (std::isfinite(bonus)) {
        budget += bonus;
      }
    }
    double total_rate = 0.0;
    for (const fabric::FlowId flow : alloc.flows) {
      total_rate += fabric_.FlowRate(flow).bytes_per_sec();
    }
    const double n = static_cast<double>(alloc.flows.size());
    for (const fabric::FlowId flow : alloc.flows) {
      // Demand-proportional split with an equal-share floor so an idle flow
      // can always ramp back up within a quantum.
      const double rate = fabric_.FlowRate(flow).bytes_per_sec();
      const double proportional = total_rate > 0.0 ? budget * (rate / total_rate) : 0.0;
      const double floor = budget / n * 0.25;
      limits.emplace_back(flow,
                          sim::Bandwidth::BytesPerSec(std::max(proportional, floor)));
    }
  }

  // Scavengers: best-effort share of the slack only. Reservations stay
  // protected; in work-conserving mode they compete with allocation
  // bonuses at kScavengerWeight.
  for (const Scavenger& s : scavengers) {
    double limit = std::numeric_limits<double>::infinity();
    for (const int32_t index : s.links) {
      const double c = claim[index];
      limit = std::min(limit, c > 0.0 ? leftover_of(index) * kScavengerWeight / c
                                      : leftover_of(index));
    }
    if (!std::isfinite(limit)) {
      limit = kUnlimited;
    }
    limits.emplace_back(s.id, sim::Bandwidth::BytesPerSec(limit));
  }
  return scavengers.size();
}

VirtualView Manager::TenantView(fabric::TenantId tenant) {
  VirtualView view;
  view.tenant = tenant;
  for (const auto& [id, alloc] : allocations_) {
    if (alloc.tenant != tenant) {
      continue;
    }
    VirtualLink vlink;
    vlink.allocation = id;
    vlink.src = alloc.target.src;
    vlink.dst = alloc.target.dst;
    vlink.capacity = alloc.target.bandwidth;
    vlink.base_latency = alloc.path.BaseLatency(fabric_.topo());
    double used = 0.0;
    for (const fabric::FlowId flow : alloc.flows) {
      used += fabric_.FlowRate(flow).bytes_per_sec();
    }
    vlink.used = sim::Bandwidth::BytesPerSec(used);
    vlink.utilization =
        vlink.capacity.bytes_per_sec() > 0 ? used / vlink.capacity.bytes_per_sec() : 0.0;
    view.links.push_back(vlink);
    view.total_allocated += vlink.capacity;
    view.total_used += vlink.used;
  }
  return view;
}

sim::Bandwidth Manager::ReservedOn(topology::DirectedLink link) const {
  const auto it = reserved_.find(topology::DirectedIndex(link));
  return it == reserved_.end() ? sim::Bandwidth::Zero()
                               : sim::Bandwidth::BytesPerSec(it->second);
}

}  // namespace mihn::manager
