#include "src/anomaly/misconfig.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace mihn::anomaly {

std::string_view SeverityName(Finding::Severity severity) {
  switch (severity) {
    case Finding::Severity::kInfo:
      return "info";
    case Finding::Severity::kWarning:
      return "warning";
    case Finding::Severity::kCritical:
      return "critical";
  }
  return "unknown";
}

std::vector<Finding> MisconfigChecker::Check() const {
  std::vector<Finding> findings;
  const fabric::FabricConfig& config = fabric_.config();
  char buf[256];

  // PCIe payload size: the silent bandwidth tax.
  if (config.max_payload_bytes < 256) {
    const double eff = static_cast<double>(config.max_payload_bytes) /
                       (config.max_payload_bytes + fabric::kPcieHeaderOverheadBytes);
    std::snprintf(buf, sizeof(buf),
                  "PCIe max payload size is %d B; transaction-layer efficiency is %.0f%% "
                  "(vs %.0f%% at 256 B). Raise MPS in firmware.",
                  config.max_payload_bytes, eff * 100.0,
                  256.0 / (256.0 + fabric::kPcieHeaderOverheadBytes) * 100.0);
    findings.push_back({config.max_payload_bytes <= 64 ? Finding::Severity::kCritical
                                                       : Finding::Severity::kWarning,
                        "max_payload_bytes", buf});
  }

  if (!config.relaxed_ordering) {
    std::snprintf(buf, sizeof(buf),
                  "Relaxed ordering disabled: PCIe writes serialize at the root complex "
                  "(~%.0f%% capacity).",
                  fabric::kStrictOrderingCapacityFactor * 100.0);
    findings.push_back({Finding::Severity::kWarning, "relaxed_ordering", buf});
  }

  if (config.iommu_enabled) {
    std::snprintf(buf, sizeof(buf),
                  "IOMMU enabled: +%lld ns translation latency per PCIe hop and ~%.0f%% "
                  "throughput on small payloads. Expected in multi-tenant hosts; verify it "
                  "is intentional.",
                  static_cast<long long>(fabric::kIommuLatency.nanos()),
                  fabric::kIommuCapacityFactor * 100.0);
    findings.push_back({Finding::Severity::kInfo, "iommu_enabled", buf});
  }

  // DDIO: disabled entirely, or configured ways too small for the observed
  // I/O write intensity.
  const auto sockets = fabric_.topo().ComponentsOfKind(topology::ComponentKind::kCpuSocket);
  if (!config.ddio_enabled) {
    bool any_io = false;
    for (const topology::ComponentId s : sockets) {
      if (fabric_.CacheStats(s).io_write_rate_bps > 0.0) {
        any_io = true;
      }
    }
    if (any_io) {
      findings.push_back(
          {Finding::Severity::kWarning, "ddio_enabled",
           "DDIO disabled while inbound I/O writes are active: every write crosses the "
           "memory bus in full."});
    }
  } else {
    for (const topology::ComponentId s : sockets) {
      const fabric::SocketCacheStats stats = fabric_.CacheStats(s);
      if (stats.AmplificationFactor() > 0.25) {
        std::snprintf(buf, sizeof(buf),
                      "DDIO thrashing on %s: hit rate %.0f%%, %.1f GB/s spilling to the "
                      "memory bus. Working set %.1f MiB exceeds %d-way DDIO capacity "
                      "(%.1f MiB); consider more DDIO ways or pacing writers.",
                      fabric_.topo().component(s).name.c_str(), stats.hit_rate * 100.0,
                      stats.spill_rate_bps / 1e9, stats.working_set_bytes / (1024.0 * 1024.0),
                      config.ddio_ways,
                      static_cast<double>(stats.ddio_capacity_bytes) / (1024.0 * 1024.0));
        findings.push_back({Finding::Severity::kWarning, "ddio_ways", buf});
      }
    }
  }

  if (config.interrupt_moderation > sim::TimeNs::Zero()) {
    std::snprintf(buf, sizeof(buf),
                  "Interrupt moderation adds %lld ns to every packet completion; a poor fit "
                  "for latency-sensitive tenants.",
                  static_cast<long long>(config.interrupt_moderation.nanos()));
    findings.push_back({Finding::Severity::kInfo, "interrupt_moderation", buf});
  }

  std::stable_sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return static_cast<int>(a.severity) > static_cast<int>(b.severity);
  });
  return findings;
}

std::string MisconfigChecker::Render() const {
  std::ostringstream out;
  for (const Finding& f : Check()) {
    out << "[" << SeverityName(f.severity) << "] " << f.knob << ": " << f.message << "\n";
  }
  return out.str();
}

}  // namespace mihn::anomaly
