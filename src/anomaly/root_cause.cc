#include "src/anomaly/root_cause.h"

#include <algorithm>
#include <sstream>

namespace mihn::anomaly {

RootCauseAnalyzer::RootCauseAnalyzer(fabric::Fabric& fabric, double utilization_threshold)
    : fabric_(fabric), threshold_(utilization_threshold) {}

CongestionReport RootCauseAnalyzer::BuildReport(topology::DirectedLink dlink,
                                                const fabric::LinkSnapshot& snap) const {
  CongestionReport report;
  report.link = dlink;
  report.utilization = snap.utilization;
  if (snap.rate_bps > 0.0) {
    for (const auto& [tenant, rate] : snap.rate_by_tenant_bps) {
      if (rate > 0.0) {
        report.tenants.push_back(TenantShare{tenant, rate / snap.rate_bps});
      }
    }
    std::sort(report.tenants.begin(), report.tenants.end(),
              [](const TenantShare& a, const TenantShare& b) {
                if (a.share != b.share) {
                  return a.share > b.share;
                }
                return a.tenant < b.tenant;
              });
    double best = -1.0;
    for (int k = 0; k < fabric::kNumTrafficClasses; ++k) {
      const double rate = snap.rate_by_class_bps[static_cast<size_t>(k)];
      if (rate > best) {
        best = rate;
        report.dominant_class = static_cast<fabric::TrafficClass>(k);
      }
    }
    report.spill_fraction =
        snap.rate_by_class_bps[static_cast<size_t>(fabric::TrafficClass::kSpill)] / snap.rate_bps;
    report.monitor_fraction =
        snap.rate_by_class_bps[static_cast<size_t>(fabric::TrafficClass::kMonitor)] /
        snap.rate_bps;
  }
  return report;
}

std::vector<CongestionReport> RootCauseAnalyzer::FindCongestedLinks() {
  std::vector<CongestionReport> reports;
  for (const topology::Link& link : fabric_.topo().links()) {
    for (const bool forward : {true, false}) {
      const topology::DirectedLink dlink{link.id, forward};
      const fabric::LinkSnapshot snap = fabric_.Snapshot(dlink);
      if (snap.utilization >= threshold_) {
        reports.push_back(BuildReport(dlink, snap));
      }
    }
  }
  std::sort(reports.begin(), reports.end(),
            [](const CongestionReport& a, const CongestionReport& b) {
              if (a.utilization != b.utilization) {
                return a.utilization > b.utilization;
              }
              if (a.link.link != b.link.link) {
                return a.link.link < b.link.link;
              }
              return a.link.forward && !b.link.forward;
            });
  return reports;
}

std::string RootCauseAnalyzer::Render(const CongestionReport& report) const {
  const topology::Link& link = fabric_.topo().link(report.link.link);
  const topology::ComponentId from = report.link.forward ? link.a : link.b;
  const topology::ComponentId to = report.link.forward ? link.b : link.a;
  std::ostringstream out;
  out << "congested: " << fabric_.topo().component(from).name << " -> "
      << fabric_.topo().component(to).name << " ("
      << topology::LinkKindName(link.spec.kind) << ") util="
      << static_cast<int>(report.utilization * 100) << "%\n";
  for (const TenantShare& t : report.tenants) {
    out << "  tenant " << t.tenant << ": " << static_cast<int>(t.share * 100) << "%\n";
  }
  out << "  dominant class: " << fabric::TrafficClassName(report.dominant_class);
  if (report.spill_fraction > 0.01) {
    out << " (spill " << static_cast<int>(report.spill_fraction * 100) << "% — DDIO thrashing)";
  }
  if (report.monitor_fraction > 0.01) {
    out << " (monitoring " << static_cast<int>(report.monitor_fraction * 100) << "%)";
  }
  out << "\n";
  return out.str();
}

}  // namespace mihn::anomaly
