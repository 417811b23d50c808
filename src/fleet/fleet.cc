#include "src/fleet/fleet.h"

#include <algorithm>

#include "src/core/check.h"

namespace mihn::fleet {

HostNetwork::Options DefaultHostOptions() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

Fleet::Fleet(int num_hosts, Options options)
    : options_(std::move(options)),
      sim_(options_.seed),
      inter_([&] {
        InterHostNetwork::Config config = options_.inter;
        config.hosts = num_hosts;
        return config;
      }()),
      pool_(options_.worker_threads, options_.clamp_workers_to_hardware) {
  MIHN_CHECK(num_hosts >= 1);
  clocks_.reserve(static_cast<size_t>(num_hosts));
  hosts_.reserve(static_cast<size_t>(num_hosts));
  for (int i = 0; i < num_hosts; ++i) {
    // The fleet seed, not a per-host one: see the header comment.
    clocks_.push_back(std::make_unique<sim::Simulation>(options_.seed));
    hosts_.push_back(std::make_unique<HostNetwork>(*clocks_.back(), options_.host));
  }
  limit_batches_.resize(hosts_.size());
}

Fleet::~Fleet() = default;

CrossFlowId Fleet::StartCrossHostFlow(const CrossHostFlowSpec& spec) {
  MIHN_CHECK(spec.src_host >= 0 && spec.src_host < host_count());
  MIHN_CHECK(spec.dst_host >= 0 && spec.dst_host < host_count());
  MIHN_CHECK(spec.src_host != spec.dst_host);
  HostNetwork& src = host(spec.src_host);
  HostNetwork& dst = host(spec.dst_host);

  CrossFlow flow;
  flow.spec = spec;
  if (flow.spec.src_device == topology::kInvalidComponent) {
    MIHN_CHECK(!src.server().ssds.empty());
    flow.spec.src_device = src.server().ssds.front();
  }
  if (flow.spec.dst_device == topology::kInvalidComponent) {
    MIHN_CHECK(!dst.server().dimms.empty());
    flow.spec.dst_device = dst.server().dimms.front();
  }
  // Spread flows across each host's NICs deterministically by host pair —
  // not by flow id, which would make the chosen NIC (and hence telemetry)
  // depend on placement order.
  const auto pick_nic = [&flow](const topology::Server& server) {
    MIHN_CHECK(!server.nics.empty());
    const size_t mix = static_cast<size_t>(flow.spec.src_host) * 131u +
                       static_cast<size_t>(flow.spec.dst_host);
    return server.nics[mix % server.nics.size()];
  };

  fabric::FlowSpec src_stage;
  const auto src_path = src.fabric().Route(flow.spec.src_device, pick_nic(src.server()));
  MIHN_CHECK(src_path.has_value());
  src_stage.path = *src_path;
  src_stage.tenant = flow.spec.tenant;
  src_stage.demand = flow.spec.demand;
  src_stage.weight = flow.spec.weight;
  flow.src_flow = src.fabric().StartFlow(src_stage);

  fabric::FlowSpec dst_stage;
  const auto dst_path = dst.fabric().Route(pick_nic(dst.server()), flow.spec.dst_device);
  MIHN_CHECK(dst_path.has_value());
  dst_stage.path = *dst_path;
  dst_stage.tenant = flow.spec.tenant;
  dst_stage.demand = flow.spec.demand;
  dst_stage.weight = flow.spec.weight;
  flow.dst_flow = dst.fabric().StartFlow(dst_stage);

  flow.inter_slot = inter_.AddFlow(flow.spec.src_host, flow.spec.dst_host, flow.spec.demand,
                                   flow.spec.weight);

  const CrossFlowId id = next_cross_id_++;
  cross_flows_.emplace(id, std::move(flow));
  return id;
}

sim::Bandwidth Fleet::CrossHostRate(CrossFlowId id) const {
  const auto it = cross_flows_.find(id);
  if (it == cross_flows_.end()) {
    return sim::Bandwidth::Zero();
  }
  return sim::Bandwidth::BytesPerSec(it->second.coupled_rate_bps);
}

void Fleet::CoupleCrossHostFlows() {
  if (cross_flows_.empty()) {
    return;
  }
  // Lift the previous tick's caps so each intra-host stage re-competes at
  // its full demand; batched per host so every host pays one recompute.
  for (auto& batch : limit_batches_) {
    batch.clear();
  }
  for (const auto& [id, flow] : cross_flows_) {
    limit_batches_[static_cast<size_t>(flow.spec.src_host)].emplace_back(flow.src_flow,
                                                                         flow.spec.demand);
    limit_batches_[static_cast<size_t>(flow.spec.dst_host)].emplace_back(flow.dst_flow,
                                                                         flow.spec.demand);
  }
  ApplyLimitBatches();
  // Settle the lifted fabrics across the pool before reading rates — a
  // FlowRate() read on a dirty fabric would otherwise solve serially on
  // this thread, one host at a time.
  pool_.ParallelFor(hosts_.size(), [this](size_t begin, size_t end) {
    for (size_t h = begin; h < end; ++h) {
      hosts_[h]->fabric().Settle();
    }
  });
  // Each stage's achievable intra-host rate bounds the inter-host demand;
  // the shared inter-host solve then yields the end-to-end rate.
  for (auto& [id, flow] : cross_flows_) {
    const double src_rate =
        host(flow.spec.src_host).fabric().FlowRate(flow.src_flow).bytes_per_sec();
    const double dst_rate =
        host(flow.spec.dst_host).fabric().FlowRate(flow.dst_flow).bytes_per_sec();
    const double bound = std::min({flow.spec.demand.bytes_per_sec(), src_rate, dst_rate});
    inter_.SetFlowDemand(flow.inter_slot, sim::Bandwidth::BytesPerSec(bound));
  }
  inter_.Solve();
  // Cap both intra-host stages at the end-to-end rate.
  for (auto& batch : limit_batches_) {
    batch.clear();
  }
  for (auto& [id, flow] : cross_flows_) {
    flow.coupled_rate_bps = inter_.FlowRate(flow.inter_slot).bytes_per_sec();
    const sim::Bandwidth cap = sim::Bandwidth::BytesPerSec(flow.coupled_rate_bps);
    limit_batches_[static_cast<size_t>(flow.spec.src_host)].emplace_back(flow.src_flow, cap);
    limit_batches_[static_cast<size_t>(flow.spec.dst_host)].emplace_back(flow.dst_flow, cap);
  }
  ApplyLimitBatches();
}

void Fleet::ApplyLimitBatches() {
  for (size_t h = 0; h < hosts_.size(); ++h) {
    if (!limit_batches_[h].empty()) {
      hosts_[h]->fabric().SetFlowLimitsBatch(limit_batches_[h]);
    }
  }
}

HostSample Fleet::ReduceHost(int i, std::vector<fabric::LinkLoad>& loads) {
  HostSample sample;
  sample.host = i;
  // The lean accessor: per-link totals in SnapshotAll() order, so the sums
  // below add in the same order a snapshot walk would.
  sample.active_flows =
      static_cast<int>(hosts_[static_cast<size_t>(i)]->fabric().ReadLinkLoads(loads));
  double util_sum = 0.0;
  int util_count = 0;
  for (const fabric::LinkLoad& link : loads) {
    sample.bytes_total += link.bytes_total;
    sample.rate_total_bps += link.rate_bps;
    if (link.capacity_bps <= 0.0) {
      continue;
    }
    const double utilization = link.rate_bps / link.capacity_bps;
    util_sum += utilization;
    ++util_count;
    sample.max_utilization = std::max(sample.max_utilization, utilization);
    if (utilization >= options_.congestion_threshold) {
      ++sample.congested_links;
    }
  }
  sample.mean_utilization = util_count > 0 ? util_sum / util_count : 0.0;
  return sample;
}

FleetSample Fleet::AggregateSample() {
  FleetSample sample;
  sample.at = sim_.Now();
  sample.hosts.resize(hosts_.size());
  // The per-host reduction settles the coupling's caps and accrues
  // counters, all host-local: embarrassingly parallel on the persistent
  // pool, with each worker writing a disjoint slice of sample.hosts.
  pool_.ParallelFor(hosts_.size(), [this, &sample](size_t begin, size_t end) {
    std::vector<fabric::LinkLoad> loads;  // Reused across the chunk's hosts.
    for (size_t i = begin; i < end; ++i) {
      sample.hosts[i] = ReduceHost(static_cast<int>(i), loads);
    }
  });
  // Merge strictly in host order: the fleet totals (and the digest built
  // over them) never depend on which worker finished first.
  for (const HostSample& h : sample.hosts) {
    sample.total_bytes += h.bytes_total;
    sample.total_rate_bps += h.rate_total_bps;
    sample.total_active_flows += h.active_flows;
    sample.max_host_utilization = std::max(sample.max_host_utilization, h.max_utilization);
  }
  double inter_rate = 0.0;
  for (const InterHostLinkUse& use : inter_.SnapshotLinks()) {
    if (use.host >= 0 && use.up) {
      inter_rate += use.rate_bps;  // Count each flow once, at its uplink.
    }
    sample.inter_max_utilization = std::max(sample.inter_max_utilization, use.utilization);
  }
  sample.inter_rate_bps = inter_rate;
  sample.cross_host_flows = static_cast<int>(cross_flows_.size());
  return sample;
}

const FleetSample& Fleet::Tick() {
  const sim::TimeNs end = sim_.Now() + options_.tick_period;
  // Hosts meet only at the barrier below, so each runs its whole tick on
  // one worker: settle the mutations made since the last tick (placements,
  // demand changes), then the event window. The settle stays ahead of the
  // window, so an event already due at Now() sees settled rates.
  pool_.ParallelFor(hosts_.size(), [this, end](size_t begin, size_t stop) {
    for (size_t h = begin; h < stop; ++h) {
      hosts_[h]->fabric().Settle();
      clocks_[h]->RunUntil(end);
    }
  });
  sim_.RunUntil(end);
  CoupleCrossHostFlows();
  samples_.push_back(AggregateSample());
  return samples_.back();
}

void Fleet::Run(int ticks) {
  for (int i = 0; i < ticks; ++i) {
    Tick();
  }
}

void Fleet::EnableHeartbeats(anomaly::HeartbeatMesh::Config config) {
  if (!meshes_.empty()) {
    return;
  }
  meshes_.reserve(hosts_.size());
  for (const std::unique_ptr<HostNetwork>& h : hosts_) {
    anomaly::HeartbeatMesh::Config per_host = config;
    per_host.participants.clear();  // MakeHeartbeatMesh fills in Devices().
    meshes_.push_back(h->MakeHeartbeatMesh(std::move(per_host)));
    meshes_.back()->Start();
  }
}

FleetRootCause Fleet::RootCauseView() {
  // Each analyzer settles its own fabric, on its own worker.
  std::vector<std::vector<anomaly::CongestionReport>> per_host =
      pool_.ParallelMap(hosts_.size(), [this](size_t h) {
        anomaly::RootCauseAnalyzer analyzer(hosts_[h]->fabric(), options_.congestion_threshold);
        return analyzer.FindCongestedLinks();
      });
  // Merge the root-cause inputs strictly in host order.
  FleetRootCause view;
  std::map<fabric::TenantId, FleetSuspect> suspects;
  for (int i = 0; i < host_count(); ++i) {
    std::vector<anomaly::CongestionReport>& reports = per_host[static_cast<size_t>(i)];
    if (reports.empty()) {
      continue;
    }
    for (const anomaly::CongestionReport& report : reports) {
      for (const anomaly::TenantShare& share : report.tenants) {
        FleetSuspect& suspect = suspects[share.tenant];
        suspect.tenant = share.tenant;
        suspect.share_sum += share.share;
      }
    }
    // Count each host once per implicated tenant.
    std::map<fabric::TenantId, bool> seen;
    for (const anomaly::CongestionReport& report : reports) {
      for (const anomaly::TenantShare& share : report.tenants) {
        if (!seen[share.tenant]) {
          seen[share.tenant] = true;
          ++suspects[share.tenant].hosts_implicated;
        }
      }
    }
    view.hosts.push_back({i, std::move(reports)});
  }
  for (const InterHostLinkUse& use : inter_.SnapshotLinks()) {
    if (use.utilization >= options_.congestion_threshold) {
      view.inter_links.push_back(use);
    }
  }
  for (size_t i = 0; i < meshes_.size(); ++i) {
    const auto alarm_at = meshes_[i]->first_alarm_at();
    if (!alarm_at.has_value()) {
      continue;
    }
    HostAlarm alarm;
    alarm.host = static_cast<int>(i);
    alarm.first_alarm_at = *alarm_at;
    const auto localized = meshes_[i]->LocalizeFaults();
    if (!localized.empty()) {
      alarm.top_suspect = localized.front().link;
      alarm.score = localized.front().score;
    }
    view.alarms.push_back(alarm);
  }
  view.suspects.reserve(suspects.size());
  for (const auto& [tenant, suspect] : suspects) {
    view.suspects.push_back(suspect);
  }
  std::sort(view.suspects.begin(), view.suspects.end(),
            [](const FleetSuspect& a, const FleetSuspect& b) {
              if (a.share_sum != b.share_sum) {
                return a.share_sum > b.share_sum;
              }
              return a.tenant < b.tenant;
            });
  return view;
}

}  // namespace mihn::fleet
