#include "src/fleet/fleet.h"

#include <algorithm>
#include <optional>
#include <string>

#include "src/core/check.h"
#include "src/fabric/max_min.h"

namespace mihn::fleet {

HostNetwork::Options DefaultHostOptions() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

topology::Topology RackTopology(int hosts) {
  MIHN_CHECK(hosts >= 1);
  const int racks = (hosts + kHostsPerRack - 1) / kHostsPerRack;
  topology::Topology topo;
  for (int h = 0; h < hosts; ++h) {
    topo.AddComponent(topology::ComponentKind::kExternalHost, "host" + std::to_string(h));
  }
  // The ToRs and the spine are switches: interior nodes that only forward.
  for (int r = 0; r < racks; ++r) {
    topo.AddComponent(topology::ComponentKind::kPcieSwitch, "tor" + std::to_string(r));
  }
  const topology::ComponentId spine =
      topo.AddComponent(topology::ComponentKind::kPcieSwitch, "spine");
  topology::LinkSpec spec = topology::DefaultLinkSpec(topology::LinkKind::kInterHost);
  spec.capacity = kHostLinkCapacity;
  for (int h = 0; h < hosts; ++h) {
    topo.AddLink(h, hosts + h / kHostsPerRack, spec);
  }
  spec.capacity = kRackLinkCapacity;
  for (int r = 0; r < racks; ++r) {
    topo.AddLink(hosts + r, spine, spec);
  }
  return topo;
}

topology::Path RackRoute(int hosts, int src, int dst) {
  MIHN_CHECK(src >= 0 && src < hosts && dst >= 0 && dst < hosts && src != dst);
  const int src_rack = src / kHostsPerRack;
  const int dst_rack = dst / kHostsPerRack;
  topology::Path path;
  path.nodes.push_back(src);
  path.hops.push_back({src, true});
  path.nodes.push_back(hosts + src_rack);
  if (src_rack != dst_rack) {
    const int racks = (hosts + kHostsPerRack - 1) / kHostsPerRack;
    path.hops.push_back({hosts + src_rack, true});
    path.nodes.push_back(hosts + racks);  // The spine.
    path.hops.push_back({hosts + dst_rack, false});
    path.nodes.push_back(hosts + dst_rack);
  }
  path.hops.push_back({dst, false});
  path.nodes.push_back(dst);
  return path;
}

Fleet::Fleet(int num_hosts, Options options)
    : options_(std::move(options)),
      sim_(options_.seed),
      inter_topo_(RackTopology(num_hosts)),
      inter_(sim_, inter_topo_),
      pool_(options_.worker_threads, options_.clamp_workers_to_hardware) {
  clocks_.reserve(static_cast<size_t>(num_hosts));
  hosts_.reserve(static_cast<size_t>(num_hosts));
  for (int i = 0; i < num_hosts; ++i) {
    // The fleet seed, not a per-host one: see the header comment.
    clocks_.push_back(std::make_unique<sim::Simulation>(options_.seed));
    hosts_.push_back(std::make_unique<HostNetwork>(*clocks_.back(), options_.host));
  }
  stages_.resize(static_cast<size_t>(num_hosts));
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

  const auto start_stage = [&flow](fabric::Fabric& fabric, topology::Path path) {
    fabric::FlowSpec stage;
    stage.path = std::move(path);
    stage.tenant = flow.spec.tenant;
    stage.demand = flow.spec.demand;
    stage.weight = flow.spec.weight;
    return fabric.StartFlow(std::move(stage));
  };
  auto src_path = src.fabric().Route(flow.spec.src_device, pick_nic(src.server()));
  MIHN_CHECK(src_path.has_value());
  flow.src_flow = start_stage(src.fabric(), std::move(*src_path));
  auto dst_path = dst.fabric().Route(pick_nic(dst.server()), flow.spec.dst_device);
  MIHN_CHECK(dst_path.has_value());
  flow.dst_flow = start_stage(dst.fabric(), std::move(*dst_path));
  // The rack layout has one route per host pair; a dead link on it leaves
  // the pair unreachable.
  topology::Path inter_path = RackRoute(host_count(), flow.spec.src_host, flow.spec.dst_host);
  for (const topology::DirectedLink& hop : inter_path.hops) {
    const std::optional<fabric::LinkFault> fault = inter_.GetLinkFault(hop.link);
    MIHN_CHECK(!fault.has_value() || fault->capacity_factor > 0.0);
  }
  flow.inter_flow = start_stage(inter_, std::move(inter_path));

  std::vector<Stage>& src_stages = stages_[static_cast<size_t>(flow.spec.src_host)];
  flow.src_stage = src_stages.size();
  src_stages.push_back({flow.src_flow, flow.spec.demand});
  std::vector<Stage>& dst_stages = stages_[static_cast<size_t>(flow.spec.dst_host)];
  flow.dst_stage = dst_stages.size();
  dst_stages.push_back({flow.dst_flow, flow.spec.demand});

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
  // Each intra-host stage's achievable rate: what it would get at its full
  // demand with every other flow of its host, other stages included, held
  // where it is. A what-if changes nothing, so each host answers for its
  // own stages on its own worker, settling its fabric first.
  pool_.ParallelFor(hosts_.size(), [this](size_t begin, size_t end) {
    fabric::MaxMinSolver scratch;  // Where a what-if that needs filling rounds runs.
    for (size_t h = begin; h < end; ++h) {
      for (Stage& stage : stages_[h]) {
        stage.rate_if_bps =
            hosts_[h]->fabric().RateIf(stage.flow, stage.demand, scratch).bytes_per_sec();
      }
    }
  });
  // Each stage's achievable intra-host rate bounds the inter-host demand;
  // the shared inter-host allocation then yields the end-to-end rate.
  for (auto& [id, flow] : cross_flows_) {
    const double src_rate =
        stages_[static_cast<size_t>(flow.spec.src_host)][flow.src_stage].rate_if_bps;
    const double dst_rate =
        stages_[static_cast<size_t>(flow.spec.dst_host)][flow.dst_stage].rate_if_bps;
    const double bound = std::min({flow.spec.demand.bytes_per_sec(), src_rate, dst_rate});
    inter_.SetFlowDemand(flow.inter_flow, sim::Bandwidth::BytesPerSec(bound));
  }
  // Cap both intra-host stages at the end-to-end rate; a cap that did not
  // move is no mutation. The first read solves the inter-host network.
  for (auto& [id, flow] : cross_flows_) {
    flow.coupled_rate_bps = inter_.FlowRate(flow.inter_flow).bytes_per_sec();
    const sim::Bandwidth cap = sim::Bandwidth::BytesPerSec(flow.coupled_rate_bps);
    host(flow.spec.src_host).fabric().SetFlowLimit(flow.src_flow, cap);
    host(flow.spec.dst_host).fabric().SetFlowLimit(flow.dst_flow, cap);
  }
}

HostSample Fleet::ReduceHost(int i, std::vector<fabric::LinkLoad>& loads) {
  HostSample sample;
  sample.host = i;
  // The lean accessor: per-link totals in DirectedIndex order, so the sums
  // below add in the same order a walk of the links, forward first, would.
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
    if (utilization >= kCongestionThreshold) {
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
  // Count each cross-host flow once, at its source host's uplink: the even
  // directed indices below 2 * hosts (see RackTopology()).
  inter_.ReadLinkLoads(inter_loads_);
  for (size_t i = 0; i < inter_loads_.size(); ++i) {
    const fabric::LinkLoad& link = inter_loads_[i];
    if (i < 2 * hosts_.size() && i % 2 == 0) {
      sample.inter_rate_bps += link.rate_bps;
    }
    sample.inter_max_utilization =
        std::max(sample.inter_max_utilization, link.rate_bps / link.capacity_bps);
  }
  sample.cross_host_flows = static_cast<int>(cross_flows_.size());
  return sample;
}

const FleetSample& Fleet::Tick() {
  const sim::TimeNs end = sim_.Now() + kTickPeriod;
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
    per_host.participants.clear();  // MakeHeartbeatMesh fills in its default endpoints.
    meshes_.push_back(h->MakeHeartbeatMesh(std::move(per_host)));
    meshes_.back()->Start();
  }
}

FleetRootCause Fleet::RootCauseView() {
  // Each analyzer settles its own fabric, on its own worker.
  std::vector<std::vector<anomaly::CongestionReport>> per_host =
      pool_.ParallelMap(hosts_.size(), [this](size_t h) {
        anomaly::RootCauseAnalyzer analyzer(hosts_[h]->fabric(), kCongestionThreshold);
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
  view.inter_links = anomaly::RootCauseAnalyzer(inter_, kCongestionThreshold).FindCongestedLinks();
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
