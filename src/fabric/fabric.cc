#include "src/fabric/fabric.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/core/check.h"

namespace mihn::fabric {
namespace {

// A transfer is considered drained when less than half a byte remains
// (floating-point fluid accrual never lands exactly on zero).
constexpr double kDoneBytes = 0.5;
// Spill flows below 1 byte/s of demand are treated as absent.
constexpr double kSpillEpsBps = 1.0;
// Drain times beyond this never complete in simulated time (and would
// overflow the nanosecond clock).
constexpr double kNeverSecs = 9e9;

size_t Idx(int32_t i) { return static_cast<size_t>(i); }

}  // namespace

Fabric::Fabric(sim::Simulation& sim, const topology::Topology& topo, FabricConfig config)
    : sim_(sim), topo_(topo), router_(topo), config_(config), last_accrual_(sim.Now()) {
  links_.resize(topo.link_count() * 2);
  for (const topology::Component& c : topo.components()) {
    if (c.kind == topology::ComponentKind::kDimm && c.socket != topology::kInvalidComponent) {
      socket_dimms_[c.socket].push_back(c.id);
    }
  }
  RefreshCapacities();
  // Coalescing flush point: settle all same-timestamp mutations in one solve
  // before the simulation clock moves on (see fabric.h).
  pre_advance_hook_ = sim_.AddPreAdvanceHook([this] { FlushIfDirty(); });
}

Fabric::~Fabric() {
  pre_advance_hook_.Cancel();
  completion_event_.Cancel();
}

std::optional<topology::Path> Fabric::Route(topology::ComponentId src,
                                            topology::ComponentId dst) const {
  // The router carries the fabric's fault table as health sets (see
  // SyncRouterHealth), so its answer already avoids dead links and prefers
  // non-degraded paths.
  return router_.ShortestPath(src, dst);
}

// -- Flow table -----------------------------------------------------------------

int32_t Fabric::TenantIndex(TenantId tenant) {
  const auto it = std::lower_bound(
      tenant_lookup_.begin(), tenant_lookup_.end(), tenant,
      [](const std::pair<TenantId, int32_t>& entry, TenantId t) { return entry.first < t; });
  if (it != tenant_lookup_.end() && it->first == tenant) {
    return it->second;
  }
  const int32_t index = static_cast<int32_t>(tenant_ids_.size());
  tenant_lookup_.insert(it, {tenant, index});
  tenant_ids_.push_back(tenant);
  const size_t block = tenant_rate_.size() + links_.size();
  tenant_rate_.resize(block, 0.0);
  tenant_members_.resize(block, 0);
  return index;
}

int32_t Fabric::AppendRow(topology::Path path, int32_t tenant, TrafficClass klass,
                          double weight, double demand, bool ddio_write) {
  const int32_t row = static_cast<int32_t>(ids_.size());
  FlowRow& r = rows_.emplace_back();
  r.ddio_write = ddio_write;
  r.demand = demand;
  r.weight = weight;
  r.since = sim_.Now();
  r.hop_begin = static_cast<uint32_t>(hop_pool_.size());
  for (const topology::DirectedLink& hop : path.hops) {
    hop_pool_.push_back(DirectedIndex(hop));
  }
  const auto hops = hop_pool_.begin() + r.hop_begin;
  std::sort(hops, hop_pool_.end());
  hop_pool_.erase(std::unique(hops, hop_pool_.end()), hop_pool_.end());
  r.hop_count = static_cast<uint32_t>(hop_pool_.size() - r.hop_begin);
  r.cold = std::make_unique<ColdRow>(ColdRow{std::move(path), nullptr, sim_.Now()});
  const size_t base = Idx(tenant) * links_.size();
  for (size_t h = r.hop_begin; h < hop_pool_.size(); ++h) {
    ++tenant_members_[base + Idx(hop_pool_[h])];
  }
  if (ddio_write) {
    ++ddio_flow_count_;
  }
  ids_.push_back(next_flow_id_++);
  rates_.push_back(0.0);
  tenants_.push_back(tenant);
  classes_.push_back(klass);
  ++live_flows_;
  reprime_ = true;
  return row;
}

int32_t Fabric::FindRow(FlowId id) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
  if (it == ids_.end() || *it != id) {
    return -1;
  }
  const int32_t row = static_cast<int32_t>(it - ids_.begin());
  return rows_[Idx(row)].alive ? row : -1;
}

void Fabric::JoinLinks(int32_t row) {
  for (uint32_t h = 0; h < rows_[Idx(row)].hop_count; ++h) {
    links_[Idx(Hops(row)[h])].members.push_back(row);
  }
}

void Fabric::CompactRows() {
  // Survivors slide down in order, so ids stay ascending and relative order
  // (hence heap order) is preserved. The hop pool is rewritten in the same
  // pass.
  size_t pool = 0;
  size_t out = 0;
  for (size_t row = 0; row < rows_.size(); ++row) {
    if (!rows_[row].alive) {
      continue;
    }
    FlowRow& r = rows_[row];
    if (pool != r.hop_begin) {  // Slides down: the ranges never overlap forwards.
      std::copy(hop_pool_.begin() + r.hop_begin, hop_pool_.begin() + r.hop_begin + r.hop_count,
                hop_pool_.begin() + static_cast<std::ptrdiff_t>(pool));
      r.hop_begin = static_cast<uint32_t>(pool);
    }
    pool += r.hop_count;
    if (out != row) {
      ids_[out] = ids_[row];
      rates_[out] = rates_[row];
      tenants_[out] = tenants_[row];
      classes_[out] = classes_[row];
      rows_[out] = std::move(r);
    }
    if (rows_[out].heap_pos >= 0) {
      heap_[Idx(rows_[out].heap_pos)] = static_cast<int32_t>(out);
    }
    ++out;
  }
  ids_.resize(out);
  rates_.resize(out);
  tenants_.resize(out);
  classes_.resize(out);
  rows_.resize(out);
  hop_pool_.resize(pool);
  // Rows were renumbered; the re-prime that follows re-joins them all.
  for (DirectedLinkState& state : links_) {
    state.members.clear();
  }
}

// -- Flows ----------------------------------------------------------------------

FlowId Fabric::StartFlow(FlowSpec spec) {
  if (spec.path.empty()) {
    return kInvalidFlow;
  }
  const double demand = std::min(spec.demand.bytes_per_sec(), kUnlimitedDemand);
  const int32_t row = AppendRow(std::move(spec.path), TenantIndex(spec.tenant), spec.klass,
                                spec.weight, demand, spec.ddio_write);
  const FlowId id = ids_[Idx(row)];
  MarkFlowDirty(id);
  return id;
}

FlowId Fabric::StartTransfer(TransferSpec spec) {
  if (spec.bytes <= 0) {
    if (spec.on_complete) {
      TransferResult result{0, sim_.Now(), sim_.Now(), 0};
      sim_.ScheduleAfter(sim::TimeNs::Zero(),
                         [cb = std::move(spec.on_complete), result] { cb(result); });
    }
    return kInvalidFlow;
  }
  const FlowId id = StartFlow(std::move(spec.flow));
  if (id == kInvalidFlow) {
    return kInvalidFlow;
  }
  const int32_t row = static_cast<int32_t>(ids_.size()) - 1;
  rows_[Idx(row)].remaining = static_cast<double>(spec.bytes);
  rows_[Idx(row)].cold->on_complete = std::move(spec.on_complete);
  // Rate 0 until the deferred Recompute() (already pending from StartFlow)
  // solves it; the commit then gives the row a finish time.
  HeapPush(row);
  return id;
}

void Fabric::StopFlow(FlowId id) {
  const int32_t row = FindRow(id);
  if (row < 0) {
    return;
  }
  AccrueCounters();
  RemoveFlowInternal(row);
  MarkDirty();
}

void Fabric::SetFlowLimit(FlowId id, sim::Bandwidth limit) {
  const int32_t row = FindRow(id);
  if (row < 0) {
    return;
  }
  double& current = rows_[Idx(row)].limit;
  const double clamped = ClampLimit(limit);
  if (current == clamped) {  // mihn-check: float-eq-ok(no-op mutation elision)
    return;
  }
  current = clamped;
  MarkFlowDirty(id);
}

void Fabric::SetFlowWeight(FlowId id, double weight) {
  const int32_t row = FindRow(id);
  if (row < 0) {
    return;
  }
  double& current = rows_[Idx(row)].weight;
  const double clamped = std::max(weight, 1e-9);
  if (current == clamped) {  // mihn-check: float-eq-ok(no-op mutation elision)
    return;
  }
  current = clamped;
  reprime_ = true;
  MarkDirty();
}

void Fabric::SetFlowDemand(FlowId id, sim::Bandwidth demand) {
  const int32_t row = FindRow(id);
  if (row < 0) {
    return;
  }
  double& current = rows_[Idx(row)].demand;
  const double clamped = std::clamp(demand.bytes_per_sec(), 0.0, kUnlimitedDemand);
  if (current == clamped) {  // mihn-check: float-eq-ok(no-op mutation elision)
    return;
  }
  current = clamped;
  MarkFlowDirty(id);
}

sim::Bandwidth Fabric::RateIf(FlowId id, sim::Bandwidth limit, MaxMinSolver& scratch) const {
  FlushIfDirty();
  const int32_t row = FindRow(id);
  if (row < 0) {
    return sim::Bandwidth::Zero();
  }
  if (ddio_flow_count_ > 0) {
    return sim::Bandwidth::BytesPerSec(CacheCoupledRateIf(row, ClampLimit(limit), scratch));
  }
  // Settled, so row == solver slot and the solver holds no pending change.
  const FlowRow& r = rows_[Idx(row)];
  return sim::Bandwidth::BytesPerSec(
      solver_.WhatIf(row, std::min({r.demand, ClampLimit(limit), r.cache_cap}), scratch));
}

std::optional<FlowInfo> Fabric::GetFlowInfo(FlowId id) {
  FlushIfDirty();
  const int32_t row = FindRow(id);
  if (row < 0) {
    return std::nullopt;
  }
  const FlowRow& r = rows_[Idx(row)];
  const double pending = PendingBytes(row, sim_.Now());
  FlowInfo info;
  info.id = id;
  info.tenant = tenant_ids_[Idx(tenants_[Idx(row)])];
  info.klass = classes_[Idx(row)];
  info.rate = sim::Bandwidth::BytesPerSec(rates_[Idx(row)]);
  info.demand = sim::Bandwidth::BytesPerSec(r.demand);
  info.limit = sim::Bandwidth::BytesPerSec(r.limit);
  info.weight = r.weight;
  info.bytes_moved = static_cast<int64_t>(r.moved + pending);
  info.bytes_remaining =
      r.remaining < 0 ? -1 : static_cast<int64_t>(std::ceil(r.remaining - pending));
  info.start_time = r.cold->start_time;
  info.path = &r.cold->path;
  return info;
}

sim::Bandwidth Fabric::FlowRate(FlowId id) const {
  FlushIfDirty();
  const int32_t row = FindRow(id);
  return row < 0 ? sim::Bandwidth::Zero() : sim::Bandwidth::BytesPerSec(rates_[Idx(row)]);
}

std::vector<FlowId> Fabric::ActiveFlows() const {
  FlushIfDirty();  // Spill companions materialize at the solve.
  std::vector<FlowId> ids;
  ids.reserve(live_flows_);
  for (size_t row = 0; row < ids_.size(); ++row) {
    if (rows_[row].alive) {
      ids.push_back(ids_[row]);
    }
  }
  return ids;
}

sim::TimeNs Fabric::SendPacket(PacketSpec&& spec) {
  const sim::TimeNs latency = PacketLatency(*spec.path, spec.bytes);
  const double bytes = static_cast<double>(spec.bytes);
  for (const topology::DirectedLink& hop : spec.path->hops) {
    DirectedLinkState& state = links_[static_cast<size_t>(DirectedIndex(hop))];
    state.bytes_total += bytes;
    state.bytes_by_class[static_cast<size_t>(spec.klass)] += bytes;
  }
  if (spec.on_delivered) {
    sim_.ScheduleAfter(latency, std::move(spec.on_delivered));
  }
  return latency;
}

sim::TimeNs Fabric::PacketLatency(const topology::Path& path, int64_t bytes) const {
  FlushIfDirty();
  sim::TimeNs latency = config_.interrupt_moderation;
  for (const topology::DirectedLink& hop : path.hops) {
    const DirectedLinkState& state = links_[static_cast<size_t>(DirectedIndex(hop))];
    latency += state.hop_latency;
    if (state.effective_capacity > 0) {
      latency += sim::TimeNs::FromSecondsF(static_cast<double>(bytes) / state.effective_capacity);
    }
  }
  return latency;
}

sim::TimeNs Fabric::ProbePathLatency(const topology::Path& path) const {
  FlushIfDirty();
  sim::TimeNs total = sim::TimeNs::Zero();
  for (const topology::DirectedLink& hop : path.hops) {
    total += links_[static_cast<size_t>(DirectedIndex(hop))].hop_latency;
  }
  return total;
}

sim::TimeNs Fabric::HopLatency(topology::DirectedLink hop) const {
  FlushIfDirty();
  return links_[static_cast<size_t>(DirectedIndex(hop))].hop_latency;
}

void Fabric::InjectLinkFault(topology::LinkId link, LinkFault fault) {
  faults_[link] = fault;
  SyncRouterHealth();
  capacities_stale_ = true;
  MarkDirty();
}

void Fabric::ClearLinkFault(topology::LinkId link) {
  if (faults_.erase(link) > 0) {
    SyncRouterHealth();
    capacities_stale_ = true;
    MarkDirty();
  }
}

void Fabric::SyncRouterHealth() {
  std::vector<topology::LinkId> dead;
  std::vector<topology::LinkId> degraded;
  for (const auto& [link, fault] : faults_) {
    if (fault.capacity_factor <= 0.0) {
      dead.push_back(link);
    } else if (fault.capacity_factor < 1.0 ||
               fault.extra_latency > sim::TimeNs::Zero()) {
      degraded.push_back(link);
    }
  }
  if (router_.SetLinkHealth(std::move(dead), std::move(degraded))) {
    ++route_epoch_;
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.route_epoch", route_epoch_);
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.active_faults", faults_.size());
  }
}

std::optional<LinkFault> Fabric::GetLinkFault(topology::LinkId link) const {
  const auto it = faults_.find(link);
  if (it == faults_.end()) {
    return std::nullopt;
  }
  return it->second;
}

void Fabric::SetConfig(FabricConfig config) {
  config_ = config;
  capacities_stale_ = true;
  MarkDirty();
}

LinkSnapshot Fabric::Snapshot(topology::DirectedLink dlink) {
  FlushIfDirty();
  AccrueCounters();
  const size_t li = static_cast<size_t>(DirectedIndex(dlink));
  const DirectedLinkState& state = links_[li];
  LinkSnapshot snap;
  snap.link = dlink.link;
  snap.forward = dlink.forward;
  snap.capacity_bps = state.effective_capacity;
  snap.rate_bps = state.rate;
  snap.utilization = state.effective_capacity > 0 ? state.rate / state.effective_capacity : 0.0;
  snap.bytes_total = state.bytes_total;
  for (const auto& [tenant, index] : tenant_lookup_) {
    const size_t at = Idx(index) * links_.size() + li;
    if (tenant_members_[at] > 0) {
      snap.rate_by_tenant_bps.emplace_back(tenant, tenant_rate_[at]);
    }
  }
  snap.rate_by_class_bps = state.rate_by_class;
  snap.bytes_by_class = state.bytes_by_class;
  return snap;
}

size_t Fabric::ReadLinkLoads(std::vector<LinkLoad>& out) {
  FlushIfDirty();
  AccrueCounters();
  out.resize(links_.size());
  for (size_t i = 0; i < links_.size(); ++i) {
    out[i] = {links_[i].effective_capacity, links_[i].rate, links_[i].bytes_total};
  }
  return live_flows_;
}

sim::Bandwidth Fabric::EffectiveCapacity(topology::DirectedLink dlink) const {
  FlushIfDirty();  // Config / fault changes apply at the solve.
  return sim::Bandwidth::BytesPerSec(
      links_[static_cast<size_t>(DirectedIndex(dlink))].effective_capacity);
}

double Fabric::Utilization(topology::DirectedLink dlink) const {
  FlushIfDirty();
  const DirectedLinkState& state = links_[static_cast<size_t>(DirectedIndex(dlink))];
  return state.effective_capacity > 0 ? state.rate / state.effective_capacity : 0.0;
}

SocketCacheStats Fabric::CacheStats(topology::ComponentId socket) const {
  FlushIfDirty();
  const auto it = cache_stats_.find(socket);
  if (it == cache_stats_.end()) {
    SocketCacheStats stats;
    stats.ddio_capacity_bytes = config_.DdioCapacityBytes();
    return stats;
  }
  return it->second;
}

// -- Internals ----------------------------------------------------------------

bool Fabric::IsPcieKind(topology::LinkKind kind) const {
  switch (kind) {
    case topology::LinkKind::kPcieSwitchUp:
    case topology::LinkKind::kPcieSwitchDown:
    case topology::LinkKind::kPcieRootLink:
      return true;
    default:
      return false;
  }
}

sim::TimeNs Fabric::HopBaseLatency(topology::LinkId link_id) const {
  const topology::Link& link = topo_.link(link_id);
  sim::TimeNs base = link.spec.base_latency;
  const auto fault = faults_.find(link_id);
  if (fault != faults_.end()) {
    base += fault->second.extra_latency;
  }
  if (config_.iommu_enabled && IsPcieKind(link.spec.kind)) {
    base += kIommuLatency;
  }
  return base;
}

sim::TimeNs Fabric::CongestedHopLatency(size_t li) const {
  const DirectedLinkState& state = links_[li];
  const double rho =
      state.effective_capacity > 0 ? state.rate / state.effective_capacity : 1.0;
  // DirectedIndex puts both directions of link l at 2l and 2l + 1.
  return Scale(HopBaseLatency(static_cast<topology::LinkId>(li / 2)), LatencyInflation(rho));
}

double Fabric::CapacityFactor(const topology::Link& link) const {
  double factor = IsPcieKind(link.spec.kind) ? config_.PcieCapacityFactor() : 1.0;
  const auto fault = faults_.find(link.id);
  if (fault != faults_.end()) {
    factor *= std::clamp(fault->second.capacity_factor, 0.0, 1.0);
  }
  return factor;
}

void Fabric::RefreshCapacities() {
  for (const topology::Link& link : topo_.links()) {
    const double factor = CapacityFactor(link);
    for (const bool forward : {true, false}) {
      const size_t li =
          static_cast<size_t>(DirectedIndex(topology::DirectedLink{link.id, forward}));
      links_[li].effective_capacity = link.spec.capacity.bytes_per_sec() * factor;
      links_[li].hop_latency = CongestedHopLatency(li);
    }
  }
}

// -- Accrual ----------------------------------------------------------------------

double Fabric::PendingBytes(int32_t row, sim::TimeNs now) const {
  const FlowRow& r = rows_[Idx(row)];
  const double bytes = rates_[Idx(row)] * (now - r.since).ToSecondsF();
  // Finite transfers never move more than they have left (the completion
  // event carries +1ns of slack).
  return r.remaining >= 0.0 ? std::min(bytes, r.remaining) : bytes;
}

void Fabric::SettleBytes(int32_t row, sim::TimeNs now) {
  const double bytes = PendingBytes(row, now);
  FlowRow& r = rows_[Idx(row)];
  r.since = now;
  if (bytes <= 0.0) {
    return;
  }
  r.moved += bytes;
  if (r.remaining >= 0.0) {
    r.remaining -= bytes;
  }
}

void Fabric::AccrueCounters() {
  const sim::TimeNs now = sim_.Now();
  const sim::TimeNs last = last_accrual_;
  const double dt = (now - last).ToSecondsF();
  last_accrual_ = now;
  if (dt <= 0.0) {
    return;
  }
  // Per-flow byte counters are lazy (FlowRow::since); links accrue from
  // their aggregate rates, so the cost is O(active links), not
  // O(flows x hops).
  for (const int32_t link : active_links_) {
    DirectedLinkState& state = links_[Idx(link)];
    state.bytes_total += state.rate * dt;
    for (size_t k = 0; k < state.bytes_by_class.size(); ++k) {
      state.bytes_by_class[k] += state.rate_by_class[k] * dt;
    }
  }
  if (!heap_.empty() && rows_[Idx(heap_[0])].finish <= now) {
    TakeBackOvershoot(last, now, dt);
  }
}

void Fabric::TakeBackOvershoot(sim::TimeNs last, sim::TimeNs now, double dt) {
  // Only transfers whose finish time has passed can have drained. Each
  // takes back what the aggregate rate credited its links beyond the bytes
  // it had left at |last|. The heap holds exactly the live transfers, so
  // this pass costs what the completion scan that follows costs.
  for (const int32_t row : heap_) {
    const FlowRow& r = rows_[Idx(row)];
    if (r.finish > now) {
      continue;
    }
    const double rate = rates_[Idx(row)];
    if (rate * (now - r.since).ToSecondsF() <= r.remaining) {
      continue;  // Still draining at |now|: the aggregate accrual is exact.
    }
    const double left = std::max(r.remaining - rate * (last - r.since).ToSecondsF(), 0.0);
    const double over = rate * dt - left;
    if (over <= 0.0) {
      continue;
    }
    const size_t klass = static_cast<size_t>(classes_[Idx(row)]);
    for (uint32_t h = 0; h < r.hop_count; ++h) {
      DirectedLinkState& state = links_[Idx(Hops(row)[h])];
      state.bytes_total -= over;
      state.bytes_by_class[klass] -= over;
    }
  }
}

topology::ComponentId Fabric::PickSpillDimm(topology::ComponentId socket, FlowId flow) const {
  const auto it = socket_dimms_.find(socket);
  if (it == socket_dimms_.end() || it->second.empty()) {
    return topology::kInvalidComponent;
  }
  return it->second[static_cast<size_t>(flow) % it->second.size()];
}

std::map<topology::ComponentId, std::vector<int32_t>> Fabric::DdioParentsBySocket() const {
  std::map<topology::ComponentId, std::vector<int32_t>> by_socket;
  for (size_t row = 0; row < rows_.size(); ++row) {
    const FlowRow& f = rows_[row];
    if (!f.alive || !f.ddio_write || f.spill_parent != kInvalidFlow) {
      continue;
    }
    const topology::ComponentId dst = f.cold->path.destination();
    if (topo_.component(dst).kind != topology::ComponentKind::kCpuSocket) {
      continue;
    }
    by_socket[dst].push_back(static_cast<int32_t>(row));
  }
  return by_socket;
}

double Fabric::DdioHit(double io_rate) const {
  return config_.ddio_enabled ? DdioHitRate(sim::Bandwidth::BytesPerSec(io_rate), kLlcDrainTime,
                                            config_.DdioCapacityBytes())
                              : 0.0;
}

void Fabric::UpdateCacheCoupling() {
  const std::vector<double>& solved = *solved_;
  cache_stats_.clear();
  for (const auto& [socket, parents] : DdioParentsBySocket()) {
    double io_rate = 0.0;
    for (const int32_t row : parents) {
      io_rate += solved[Idx(row)];
    }
    const double hit = DdioHit(io_rate);
    const double miss = 1.0 - hit;

    SocketCacheStats stats;
    stats.io_write_rate_bps = io_rate;
    stats.hit_rate = hit;
    stats.working_set_bytes = io_rate * kLlcDrainTime.ToSecondsF();
    stats.ddio_capacity_bytes = config_.DdioCapacityBytes();
    cache_stats_[socket] = stats;

    for (const int32_t row : parents) {
      const FlowId id = ids_[Idx(row)];
      rows_[Idx(row)].miss_fraction = miss;
      const double desired_spill = solved[Idx(row)] * miss;
      const FlowId spill_child = rows_[Idx(row)].spill_child;
      if (desired_spill > kSpillEpsBps) {
        if (spill_child == kInvalidFlow) {
          const topology::ComponentId dimm = PickSpillDimm(socket, id);
          if (dimm == topology::kInvalidComponent) {
            continue;  // No memory behind this socket; spill unmodelled.
          }
          auto spill_path = router_.ShortestPath(socket, dimm);
          if (!spill_path) {
            continue;
          }
          // Attribution: the parent's tenant "causes" the spill.
          const int32_t child = AppendRow(std::move(*spill_path), tenants_[Idx(row)],
                                          TrafficClass::kSpill, rows_[Idx(row)].weight,
                                          desired_spill, /*ddio_write=*/false);
          const FlowId child_id = ids_[Idx(child)];
          rows_[Idx(child)].spill_parent = id;
          rows_[Idx(row)].spill_child = child_id;
          dirty_ids_.push_back(child_id);
        } else {
          FlowRow& spill = rows_[Idx(FindRow(spill_child))];
          if (spill.demand != desired_spill) {  // mihn-check: float-eq-ok(pushed-state diff)
            spill.demand = desired_spill;
            dirty_ids_.push_back(spill_child);
          }
        }
      } else if (spill_child != kInvalidFlow) {
        FlowRow& spill = rows_[Idx(FindRow(spill_child))];
        if (spill.demand != 0.0) {  // mihn-check: float-eq-ok(pushed-state diff)
          spill.demand = 0.0;
          dirty_ids_.push_back(spill_child);
        }
      }
    }
  }
}

double Fabric::CacheCoupledRateIf(int32_t target, double limit, MaxMinSolver& scratch) const {
  // Solver inputs per row, then per spill flow the solve would add (in the
  // order UpdateCacheCoupling() appends them): demand capped by the limit,
  // and the cache cap, lifted until round 3.
  const size_t rows = rows_.size();
  std::vector<double> demand(rows);
  for (size_t row = 0; row < rows; ++row) {
    const FlowRow& f = rows_[row];
    demand[row] = std::min(f.demand, static_cast<int32_t>(row) == target ? limit : f.limit);
  }
  std::vector<double> cache_cap(rows, kUnlimitedDemand);
  std::vector<int32_t> added_parent;
  std::vector<std::vector<int32_t>> added_hops;
  const auto solve = [&]() -> const std::vector<double>& {
    scratch.Begin(links_.size());
    for (size_t i = 0; i < links_.size(); ++i) {
      scratch.SetCapacity(static_cast<int32_t>(i), links_[i].effective_capacity);
    }
    for (size_t row = 0; row < rows; ++row) {
      scratch.AddFlow(rows_[row].weight, std::min(demand[row], cache_cap[row]),
                      Hops(static_cast<int32_t>(row)), rows_[row].hop_count);
    }
    for (size_t k = 0; k < added_parent.size(); ++k) {
      scratch.AddFlow(rows_[Idx(added_parent[k])].weight, demand[rows + k], added_hops[k].data(),
                      added_hops[k].size());
    }
    return scratch.Commit();
  };

  // Round 1, then the spill each parent would push (UpdateCacheCoupling()).
  const std::vector<double> potential = solve();
  std::vector<int32_t> child(rows, -1);  // Solver index of a parent's spill flow.
  std::vector<double> spill(rows, 0.0);  // The spill flow's demand from here on.
  std::vector<double> miss(rows, 0.0);
  for (const auto& [socket, parents] : DdioParentsBySocket()) {
    double io_rate = 0.0;
    for (const int32_t row : parents) {
      io_rate += potential[Idx(row)];
    }
    const double socket_miss = 1.0 - DdioHit(io_rate);
    for (const int32_t row : parents) {
      miss[Idx(row)] = socket_miss;
      const double desired = potential[Idx(row)] * socket_miss;
      const FlowId spill_child = rows_[Idx(row)].spill_child;
      if (spill_child != kInvalidFlow) {
        const int32_t c = FindRow(spill_child);
        child[Idx(row)] = c;
        spill[Idx(row)] = desired > kSpillEpsBps ? desired : 0.0;
        demand[Idx(c)] = std::min(spill[Idx(row)], rows_[Idx(c)].limit);
      } else if (desired > kSpillEpsBps) {
        const topology::ComponentId dimm = PickSpillDimm(socket, ids_[Idx(row)]);
        const auto path = dimm == topology::kInvalidComponent
                              ? std::nullopt
                              : router_.ShortestPath(socket, dimm);
        if (!path) {
          continue;
        }
        std::vector<int32_t>& hops = added_hops.emplace_back();
        for (const topology::DirectedLink& hop : path->hops) {
          hops.push_back(DirectedIndex(hop));
        }
        std::sort(hops.begin(), hops.end());
        hops.erase(std::unique(hops.begin(), hops.end()), hops.end());
        child[Idx(row)] = static_cast<int32_t>(demand.size());
        spill[Idx(row)] = desired;
        demand.push_back(desired);
        added_parent.push_back(row);
      }
    }
  }

  // Round 2 with the spill flows; round 3 caps the parents whose spill
  // memory cannot absorb.
  const std::vector<double> solved = solve();
  bool any_cap = false;
  for (size_t row = 0; row < rows; ++row) {
    if (child[row] < 0 || miss[row] <= 1e-9) {
      continue;
    }
    const double achieved = solved[Idx(child[row])];
    if (achieved < spill[row] * (1.0 - 1e-6)) {
      cache_cap[row] = achieved / miss[row];
      any_cap = true;
    }
  }
  return any_cap ? solve()[Idx(target)] : solved[Idx(target)];
}

void Fabric::MarkDirty(uint64_t count) {
  mutation_count_ += count;
  dirty_ = true;
}

void Fabric::MarkFlowDirty(FlowId id) {
  dirty_ids_.push_back(id);
  MarkDirty();
}

void Fabric::FlushIfDirty() const {
  if (dirty_ && !in_recompute_) {
    // Logically const: the solve only materializes state that mutators
    // already committed to (rates, spill coupling, the completion schedule).
    const_cast<Fabric*>(this)->Recompute();
  }
}

void Fabric::SolveRates() {
  if (reprime_) {
    // A new problem: compaction renumbers rows densely in id order, and the
    // solver is loaded from the whole table. Hop lists are pre-sorted and
    // deduped, so the solver copies them without re-sorting; no allocation
    // at steady state.
    CompactRows();
    solver_.Begin(links_.size());
    for (size_t i = 0; i < links_.size(); ++i) {
      solver_.SetCapacity(static_cast<int32_t>(i), links_[i].effective_capacity);
    }
    for (size_t row = 0; row < rows_.size(); ++row) {
      FlowRow& f = rows_[row];
      f.pushed_demand = EffectiveDemand(f);
      solver_.AddFlow(f.weight, f.pushed_demand, Hops(static_cast<int32_t>(row)), f.hop_count);
      JoinLinks(static_cast<int32_t>(row));
    }
    reprime_ = false;
  } else {
    // Only demands moved: push the dirty rows' changes for the solver to
    // replay against its retained trace.
    for (const FlowId id : dirty_ids_) {
      const int32_t row = FindRow(id);
      MIHN_CHECK(row >= 0);  // A removal re-primes, so every dirty flow is live.
      FlowRow& f = rows_[Idx(row)];
      const double eff = EffectiveDemand(f);
      if (f.pushed_demand != eff) {  // mihn-check: float-eq-ok(pushed-state diff)
        solver_.UpdateFlowDemand(row, eff);
        f.pushed_demand = eff;
      }
    }
  }
  dirty_ids_.clear();
  solved_ = &solver_.SolveDelta();
}

void Fabric::CommitRates() {
  // Dense old-vs-new compare: only rows whose rate moved settle bytes,
  // re-key their completion and touch their links.
  const std::vector<double>& solved = *solved_;
  const sim::TimeNs now = sim_.Now();
  for (size_t row = 0; row < rates_.size(); ++row) {
    const double rate = solved[row];
    if (rate == rates_[row]) {  // mihn-check: float-eq-ok(exact change detection)
      continue;
    }
    const int32_t r = static_cast<int32_t>(row);
    SettleBytes(r, now);
    rates_[row] = rate;
    for (uint32_t h = 0; h < rows_[row].hop_count; ++h) {
      DirectedLinkState& state = links_[Idx(Hops(r)[h])];
      if (!state.stale) {
        state.stale = true;
        stale_links_.push_back(Hops(r)[h]);
      }
    }
    if (rows_[row].remaining >= 0.0) {
      UpdateFinish(r, now);
    }
  }
  for (const int32_t li : stale_links_) {
    ResumLink(li);
  }
  stale_links_.clear();
}

void Fabric::ResumLink(int32_t link) {
  // Id-order summation over the link's members, exactly as a from-scratch
  // rebuild would add them.
  const size_t li = Idx(link);
  const size_t num_links = links_.size();
  DirectedLinkState& state = links_[li];
  const double old_rate = state.rate;
  state.stale = false;
  state.rate = 0.0;
  state.rate_by_class.fill(0.0);
  for (size_t at = li; at < tenant_rate_.size(); at += num_links) {
    tenant_rate_[at] = 0.0;
  }
  for (const int32_t row : state.members) {
    const double rate = rates_[Idx(row)];
    state.rate += rate;
    tenant_rate_[Idx(tenants_[Idx(row)]) * num_links + li] += rate;
    state.rate_by_class[static_cast<size_t>(classes_[Idx(row)])] += rate;
  }
  if (state.rate != old_rate) {  // mihn-check: float-eq-ok(exact change detection)
    state.hop_latency = CongestedHopLatency(li);
  }
  if (state.rate > 0.0 && state.active_pos < 0) {
    state.active_pos = static_cast<int32_t>(active_links_.size());
    active_links_.push_back(link);
  } else if (state.rate <= 0.0 && state.active_pos >= 0) {
    const int32_t moved = active_links_.back();
    active_links_[Idx(state.active_pos)] = moved;
    links_[Idx(moved)].active_pos = state.active_pos;
    active_links_.pop_back();
    state.active_pos = -1;
  }
}

void Fabric::Recompute() {
  if (in_recompute_) {
    return;
  }
  MIHN_TRACE_SPAN(solve_span, tracer_, "fabric", "fabric.solve");
  in_recompute_ = true;
  dirty_ = false;
  AccrueCounters();
  if (capacities_stale_) {
    RefreshCapacities();
    capacities_stale_ = false;
    reprime_ = true;
  }

  // Round 1 only matters for DDIO-eligible flows (it sets desired spills):
  // skip it — and the cache-cap bookkeeping — when none are active, the
  // common case for pure fabric workloads.
  const bool ddio_active = ddio_flow_count_ > 0;
  if (ddio_active) {
    // Round 1: potential rates with the cache throttle lifted. These set
    // each DDIO flow's desired spill (what it *would* push to memory). Only
    // flows actually capped last round change — and only they get dirtied.
    for (size_t row = 0; row < rows_.size(); ++row) {
      FlowRow& f = rows_[row];
      if (f.alive && f.cache_cap != kUnlimitedDemand) {  // The unlimited sentinel is exact.
        f.cache_cap = kUnlimitedDemand;
        dirty_ids_.push_back(ids_[row]);
      }
    }
    SolveRates();
    UpdateCacheCoupling();
  } else if (!cache_stats_.empty()) {
    cache_stats_.clear();  // The last DDIO flow just left.
  }

  // Round 2: spill companions active at their desired demand.
  SolveRates();

  if (ddio_active) {
    // If memory cannot absorb a flow's spill, the flow itself is throttled
    // to its miss-drain rate (writes stall behind evictions). One more solve
    // with those caps; computing caps from round-2 child rates (not a full
    // fixed point) keeps the result stable and deterministic. Skipped when
    // no spill child was capped.
    bool any_cap = false;
    for (size_t row = 0; row < rows_.size(); ++row) {
      FlowRow& f = rows_[row];
      if (!f.alive || f.spill_child == kInvalidFlow || f.miss_fraction <= 1e-9) {
        continue;
      }
      const int32_t child = FindRow(f.spill_child);
      const double achieved = (*solved_)[Idx(child)];
      if (achieved < rows_[Idx(child)].demand * (1.0 - 1e-6)) {
        f.cache_cap = achieved / f.miss_fraction;
        dirty_ids_.push_back(ids_[row]);
        any_cap = true;
      }
    }
    if (any_cap) {
      SolveRates();
    }
  }

  CommitRates();
  if (!cache_stats_.empty()) {
    // Record achieved spill in the socket stats, in id order.
    for (size_t row = 0; row < rows_.size(); ++row) {
      const FlowRow& f = rows_[row];
      if (!f.alive || f.spill_parent == kInvalidFlow) {
        continue;
      }
      const FlowRow& parent = rows_[Idx(FindRow(f.spill_parent))];
      const auto sit = cache_stats_.find(parent.cold->path.destination());
      if (sit != cache_stats_.end()) {
        sit->second.spill_rate_bps += rates_[row];
      }
    }
  }
  ++recompute_count_;
  in_recompute_ = false;
  if (solve_span.active()) {
    double spill_bps = 0.0;
    for (const auto& [socket, stats] : cache_stats_) {
      spill_bps += stats.spill_rate_bps;
    }
    solve_span.Arg("flows", static_cast<double>(live_flows_));
    solve_span.Arg("links", static_cast<double>(links_.size()));
    solve_span.Arg("rounds", static_cast<double>(solver_.last_rounds()));
    solve_span.Arg("coalesced_mutations",
                   static_cast<double>(mutation_count_ - mutations_at_last_solve_));
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.delta_solves", solver_.delta_solves());
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.delta_fallbacks", solver_.delta_fallbacks());
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.delta_noop_splices",
                       solver_.delta_noop_splices());
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.flows", live_flows_);
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.recomputes", recompute_count_);
    MIHN_TRACE_COUNTER(tracer_, "fabric", "fabric.ddio_spill_bps", spill_bps);
  }
  mutations_at_last_solve_ = mutation_count_;
#ifdef MIHN_ENABLE_INVARIANT_CHECKS
  CheckInvariants();
#endif
  RescheduleCompletion();
}

void Fabric::CheckInvariants() const {
#ifdef MIHN_ENABLE_INVARIANT_CHECKS
  // Float tolerance: the solver distributes capacity through repeated
  // divisions, so allow a relative 1e-6 plus one byte/s of absolute slack.
  constexpr double kRelTol = 1e-6;
  constexpr double kAbsTolBps = 1.0;

  // A solve never runs without a preceding mutation (dirty_ is only raised
  // by MarkDirty, which counts), and this pass runs post-solve.
  MIHN_CHECK(recompute_count_ <= mutation_count_);
  MIHN_CHECK(!dirty_);
  MIHN_CHECK(!in_recompute_);
  MIHN_CHECK(!capacities_stale_);
  // After a solve the table is exactly the solver's problem: no dead row
  // outlives the re-prime, and each row is its solver slot. A fabric that
  // has never solved has no rows either, but still owes its first re-prime.
  MIHN_CHECK(!reprime_ || recompute_count_ == 0);
  MIHN_CHECK(solver_.rates().size() == rows_.size());
  MIHN_CHECK(rows_.size() == live_flows_);

  // Per-link conservation and tenant membership, recomputed independently
  // from the rows.
  const size_t num_links = links_.size();
  std::vector<double> link_sums(num_links, 0.0);
  std::vector<int32_t> members(tenant_members_.size(), 0);
  size_t finite = 0;
  sim::TimeNs earliest = sim::TimeNs::Max();
  for (size_t row = 0; row < rows_.size(); ++row) {
    const FlowRow& f = rows_[row];
    MIHN_CHECK(row == 0 || ids_[row - 1] < ids_[row]);
    MIHN_CHECK(f.alive);
    // The retained mirror must be exact: a drifted pushed value means a
    // mutation bypassed MarkFlowDirty and the solver solved stale inputs.
    MIHN_CHECK(solver_.rates()[row] == rates_[row]);  // mihn-check: float-eq-ok(mirror exactness)
    MIHN_CHECK(f.pushed_demand == EffectiveDemand(f));  // mihn-check: float-eq-ok(mirror exactness)
    MIHN_CHECK(rates_[row] >= 0.0);
    MIHN_CHECK(f.moved >= 0.0);
    if (f.spill_child != kInvalidFlow) {
      const int32_t child = FindRow(f.spill_child);
      MIHN_CHECK(child >= 0);
      MIHN_CHECK(rows_[Idx(child)].spill_parent == ids_[row]);
    }
    if (f.remaining >= 0.0) {
      ++finite;
      MIHN_CHECK(f.heap_pos >= 0 && Idx(heap_[Idx(f.heap_pos)]) == row);
      earliest = std::min(earliest, f.finish);
    } else {
      MIHN_CHECK(f.heap_pos < 0);
    }
    for (uint32_t h = 0; h < f.hop_count; ++h) {
      const size_t li = Idx(Hops(static_cast<int32_t>(row))[h]);
      link_sums[li] += rates_[row];
      ++members[Idx(tenants_[row]) * num_links + li];
    }
  }
  MIHN_CHECK(members == tenant_members_);
  MIHN_CHECK(heap_.size() == finite);
  MIHN_CHECK(heap_.empty() || rows_[Idx(heap_[0])].finish == earliest);

  // Capacities refresh only after faults and config changes: a missed
  // refresh shows as a drift from the configured factor.
  for (const topology::Link& link : topo_.links()) {
    const double factor = CapacityFactor(link);
    for (const bool forward : {true, false}) {
      const size_t li =
          static_cast<size_t>(DirectedIndex(topology::DirectedLink{link.id, forward}));
      MIHN_CHECK(links_[li].effective_capacity ==  // mihn-check: float-eq-ok(same computation)
                 link.spec.capacity.bytes_per_sec() * factor);
    }
  }
  for (size_t i = 0; i < num_links; ++i) {
    const DirectedLinkState& state = links_[i];
    MIHN_CHECK(!state.stale);
    // Hop latencies refresh with the capacities and with each moved link
    // rate: a missed refresh shows as a drift from a fresh computation.
    MIHN_CHECK(state.hop_latency == CongestedHopLatency(i));
    MIHN_CHECK(state.rate >= 0.0);
    MIHN_CHECK(state.effective_capacity >= 0.0);
    MIHN_CHECK(state.bytes_total >= 0.0);
    MIHN_CHECK((state.active_pos >= 0) == (state.rate > 0.0));
    const double slack = state.rate * kRelTol + kAbsTolBps;
    MIHN_CHECK(std::abs(link_sums[i] - state.rate) <= slack);
    MIHN_CHECK(state.rate <= state.effective_capacity * (1.0 + kRelTol) + kAbsTolBps);
    double tenant_sum = 0.0;
    for (size_t at = i; at < tenant_rate_.size(); at += num_links) {
      MIHN_CHECK(tenant_rate_[at] >= 0.0);
      // An absent tenant carries no rate.
      MIHN_CHECK(tenant_members_[at] > 0 ||
                 tenant_rate_[at] == 0.0);  // mihn-check: float-eq-ok(exact zero)
      tenant_sum += tenant_rate_[at];
    }
    MIHN_CHECK(std::abs(tenant_sum - state.rate) <= slack);
  }
#endif
}

// -- Completion -------------------------------------------------------------------

bool Fabric::HeapLess(int32_t a, int32_t b) const {
  const sim::TimeNs fa = rows_[Idx(a)].finish;
  const sim::TimeNs fb = rows_[Idx(b)].finish;
  return fa < fb || (fa == fb && a < b);
}

void Fabric::HeapPlace(int32_t row, size_t pos) {
  heap_[pos] = row;
  rows_[Idx(row)].heap_pos = static_cast<int32_t>(pos);
}

void Fabric::HeapSiftUp(size_t pos) {
  const int32_t row = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!HeapLess(row, heap_[parent])) {
      break;
    }
    HeapPlace(heap_[parent], pos);
    pos = parent;
  }
  HeapPlace(row, pos);
}

void Fabric::HeapSiftDown(size_t pos) {
  const int32_t row = heap_[pos];
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= heap_.size()) {
      break;
    }
    if (child + 1 < heap_.size() && HeapLess(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!HeapLess(heap_[child], row)) {
      break;
    }
    HeapPlace(heap_[child], pos);
    pos = child;
  }
  HeapPlace(row, pos);
}

void Fabric::HeapPush(int32_t row) {
  heap_.push_back(row);
  HeapSiftUp(heap_.size() - 1);
}

void Fabric::HeapRemove(int32_t row) {
  const size_t pos = Idx(rows_[Idx(row)].heap_pos);
  rows_[Idx(row)].heap_pos = -1;
  const int32_t last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    HeapPlace(last, pos);
    HeapUpdate(last);
  }
}

void Fabric::HeapUpdate(int32_t row) {
  const size_t pos = Idx(rows_[Idx(row)].heap_pos);
  HeapSiftUp(pos);
  HeapSiftDown(Idx(rows_[Idx(row)].heap_pos));
}

void Fabric::UpdateFinish(int32_t row, sim::TimeNs now) {
  FlowRow& f = rows_[Idx(row)];
  const double rate = rates_[Idx(row)];
  const double secs = rate > 0.0 ? f.remaining / rate : kNeverSecs;
  f.finish = secs < kNeverSecs ? now + sim::TimeNs::FromSecondsF(secs) : sim::TimeNs::Max();
  HeapUpdate(row);
}

void Fabric::RescheduleCompletion() {
  const bool due = !heap_.empty() && rows_[Idx(heap_[0])].finish != sim::TimeNs::Max();
  if (!due && !completion_armed_) {
    return;  // No live transfer drains: nothing to cancel or arm.
  }
  completion_event_.Cancel();
  completion_armed_ = false;
  if (!due) {
    return;
  }
  // +1ns so float accrual definitively crosses the completion threshold.
  const sim::TimeNs now = sim_.Now();
  const sim::TimeNs delay =
      std::max(rows_[Idx(heap_[0])].finish - now, sim::TimeNs::Zero()) + sim::TimeNs::Nanos(1);
  completion_event_ =
      sim_.ScheduleAfter(delay, [this] { OnCompletionEvent(); }, "fabric.completion");
  completion_armed_ = true;
}

void Fabric::OnCompletionEvent() {
  completion_armed_ = false;
  // Mutations from earlier events at this same timestamp may still be
  // pending (hooks only fire between timestamps): settle them so the done
  // check and delivery latencies see current rates.
  FlushIfDirty();
  AccrueCounters();
  const sim::TimeNs now = sim_.Now();
  // Every live finite row sits in the heap: the done scan is proportional
  // to the transfers in flight, and delivers in id order.
  std::vector<int32_t>& done = done_rows_;
  done.clear();
  for (const int32_t row : heap_) {
    if (rows_[Idx(row)].remaining - PendingBytes(row, now) <= kDoneBytes) {
      done.push_back(row);
    }
  }
  std::sort(done.begin(), done.end());
  for (const int32_t row : done) {
    SettleBytes(row, now);
    FlowRow& f = rows_[Idx(row)];
    if (f.cold->on_complete) {
      TransferResult result;
      result.id = ids_[Idx(row)];
      result.start = f.cold->start_time;
      // Delivery: fluid drain time plus the price of a zero-byte packet
      // over the path.
      result.end = now + PacketLatency(f.cold->path, 0);
      result.bytes = static_cast<int64_t>(std::llround(f.moved));
      sim_.ScheduleAt(result.end, [cb = std::move(f.cold->on_complete), result] { cb(result); });
    }
    RemoveFlowInternal(row);
  }
  if (!done.empty()) {
    MarkDirty(done.size());
    return;
  }
  // Spurious wake (float rounding left a sliver above the done threshold):
  // re-key overdue rows from their settled state and re-arm.
  for (size_t pos = 0; pos < heap_.size(); ++pos) {
    if (rows_[Idx(heap_[pos])].finish <= now) {
      done.push_back(heap_[pos]);
    }
  }
  for (const int32_t row : done) {
    SettleBytes(row, now);
    UpdateFinish(row, now);
  }
  RescheduleCompletion();
}

void Fabric::RemoveFlowInternal(int32_t row) {
  FlowRow& f = rows_[Idx(row)];
  const FlowId child = f.spill_child;
  const FlowId parent = f.spill_parent;
  if (f.ddio_write && ddio_flow_count_ > 0) {
    --ddio_flow_count_;
  }
  f.alive = false;
  --live_flows_;
  reprime_ = true;
  if (f.heap_pos >= 0) {
    HeapRemove(row);
  }
  const size_t tenant_base = Idx(tenants_[Idx(row)]) * links_.size();
  for (uint32_t h = 0; h < f.hop_count; ++h) {
    const int32_t li = Hops(row)[h];
    --tenant_members_[tenant_base + Idx(li)];
    DirectedLinkState& state = links_[Idx(li)];
    if (rates_[Idx(row)] != 0.0 && !state.stale) {  // mihn-check: float-eq-ok(zero adds nothing)
      state.stale = true;
      stale_links_.push_back(li);
    }
  }
  rates_[Idx(row)] = 0.0;
  f.cold.reset();
  if (child != kInvalidFlow) {
    const int32_t child_row = FindRow(child);
    if (child_row >= 0) {
      RemoveFlowInternal(child_row);
    }
  }
  if (parent != kInvalidFlow) {
    const int32_t parent_row = FindRow(parent);
    if (parent_row >= 0) {
      rows_[Idx(parent_row)].spill_child = kInvalidFlow;
      rows_[Idx(parent_row)].cache_cap = kUnlimitedDemand;
      dirty_ids_.push_back(parent);  // Effective demand just changed.
    }
  }
}

}  // namespace mihn::fabric
