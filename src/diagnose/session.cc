#include "src/diagnose/session.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/obs/tracer.h"

namespace mihn::diagnose {

ProbeReport Session::MakeProbe(topology::ComponentId src, topology::ComponentId dst) {
  ProbeReport probe;
  probe.src = src;
  probe.dst = dst;
  probe.issued_at = fabric_.simulation().Now();
  if (auto path = fabric_.Route(src, dst)) {
    probe.reachable = true;
    probe.path = std::move(*path);
  }
  return probe;
}

// -- Ping ---------------------------------------------------------------------

PingReport Session::Ping(topology::ComponentId src, topology::ComponentId dst,
                         int64_t probe_bytes) {
  MIHN_TRACE_SCOPE(fabric_.tracer(), "diagnose", "diagnose.ping");
  PingReport report;
  report.probe = MakeProbe(src, dst);
  if (!report.probe.reachable) {
    return report;
  }
  // Latency + serialization, identical to what SendPacket would charge, but
  // without injecting the probe into the counters.
  sim::TimeNs latency = fabric_.ProbePathLatency(report.probe.path);
  for (const topology::DirectedLink& hop : report.probe.path.hops) {
    const sim::Bandwidth cap = fabric_.EffectiveCapacity(hop);
    if (!cap.IsZero()) {
      latency += cap.TransferTime(probe_bytes);
    }
  }
  report.latency = latency;
  return report;
}

// -- Trace --------------------------------------------------------------------

TraceReport Session::Trace(topology::ComponentId src, topology::ComponentId dst) {
  MIHN_TRACE_SCOPE(fabric_.tracer(), "diagnose", "diagnose.trace");
  TraceReport report;
  report.probe = MakeProbe(src, dst);
  if (!report.probe.reachable) {
    return report;
  }
  const topology::Topology& topo = fabric_.topo();
  report.total_base = sim::TimeNs::Zero();
  report.total_current = sim::TimeNs::Zero();
  const topology::Path& path = report.probe.path;
  for (size_t i = 0; i < path.hops.size(); ++i) {
    const topology::DirectedLink hop = path.hops[i];
    const topology::Link& link = topo.link(hop.link);
    HopReport hop_report;
    hop_report.from = topo.component(path.nodes[i]).name;
    hop_report.to = topo.component(path.nodes[i + 1]).name;
    hop_report.kind = link.spec.kind;
    hop_report.base_latency = link.spec.base_latency;
    hop_report.current_latency = fabric_.HopLatency(hop);
    hop_report.utilization = fabric_.Utilization(hop);
    hop_report.capacity = fabric_.EffectiveCapacity(hop);
    hop_report.faulted = fabric_.GetLinkFault(hop.link).has_value();
    report.total_base += hop_report.base_latency;
    report.total_current += hop_report.current_latency;
    report.hops.push_back(std::move(hop_report));
  }
  return report;
}

// -- Perf ---------------------------------------------------------------------

PerfReport Session::Perf(topology::ComponentId src, topology::ComponentId dst) {
  MIHN_TRACE_SCOPE(fabric_.tracer(), "diagnose", "diagnose.perf");
  PerfReport report;
  report.probe = MakeProbe(src, dst);
  if (!report.probe.reachable) {
    return report;
  }
  fabric::FlowSpec probe;
  probe.path = report.probe.path;
  probe.klass = fabric::TrafficClass::kProbe;
  const fabric::FlowId id = fabric_.StartFlow(std::move(probe));
  if (id == fabric::kInvalidFlow) {
    report.probe.reachable = false;
    return report;
  }
  report.initial_rate = fabric_.FlowRate(id);
  fabric_.StopFlow(id);
  return report;
}

// -- Capture ------------------------------------------------------------------

CaptureReport Session::Capture(const FlowFilter& filter) {
  MIHN_TRACE_SCOPE(fabric_.tracer(), "diagnose", "diagnose.capture");
  CaptureReport report;
  report.probe.issued_at = fabric_.simulation().Now();
  report.probe.reachable = true;  // A table capture always "succeeds".
  for (const fabric::FlowId id : fabric_.ActiveFlows()) {
    const auto info = fabric_.GetFlowInfo(id);
    if (!info) {
      continue;
    }
    if (filter.tenant && info->tenant != *filter.tenant) {
      continue;
    }
    if (filter.klass && info->klass != *filter.klass) {
      continue;
    }
    if (filter.link && (info->path == nullptr || !info->path->Uses(*filter.link))) {
      continue;
    }
    if (info->rate < filter.min_rate) {
      continue;
    }
    report.flows.push_back(*info);
  }
  std::sort(report.flows.begin(), report.flows.end(),
            [](const fabric::FlowInfo& a, const fabric::FlowInfo& b) {
              if (a.rate != b.rate) {
                return b.rate < a.rate;
              }
              return a.id < b.id;
            });
  return report;
}

// -- Rendering ----------------------------------------------------------------

std::string Session::RenderTraceReport(const TraceReport& trace) {
  std::ostringstream out;
  if (!trace.probe.reachable) {
    return "unreachable\n";
  }
  int hop_index = 1;
  for (const HopReport& hop : trace.hops) {
    out << hop_index++ << ". " << hop.from << " -> " << hop.to << " ["
        << topology::LinkKindName(hop.kind) << "] base=" << hop.base_latency.ToString()
        << " now=" << hop.current_latency.ToString() << " util="
        << static_cast<int>(hop.utilization * 100) << "% cap=" << hop.capacity.ToString();
    if (hop.faulted) {
      out << " FAULT";
    }
    out << "\n";
  }
  out << "total: base=" << trace.total_base.ToString()
      << " now=" << trace.total_current.ToString() << "\n";
  return out.str();
}

std::string Session::RenderFlowTable(const topology::Topology& topo,
                                     const std::vector<fabric::FlowInfo>& flows) {
  std::ostringstream out;
  for (const fabric::FlowInfo& flow : flows) {
    out << "flow " << flow.id << " tenant=" << flow.tenant << " class="
        << fabric::TrafficClassName(flow.klass) << " rate=" << flow.rate.ToString();
    if (flow.path != nullptr) {
      out << " path=" << flow.path->ToString(topo);
    }
    out << "\n";
  }
  return out.str();
}

std::string Session::Render(const CaptureReport& capture) const {
  return RenderFlowTable(fabric_.topo(), capture.flows);
}

}  // namespace mihn::diagnose
