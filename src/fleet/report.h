// Fleet telemetry aggregation: per-tick per-host rollups and the
// deterministic digest the fleet's byte-identity gates hash.
//
// The digest is the fleet's determinism contract made testable: every
// sampled number is formatted with the repo-wide fixed "%.9g" convention
// (obs/export.cc, chaos/report.cc) and folded into an FNV-1a 64 hash in
// (tick, host) order. Two runs of the same fleet configuration must
// produce equal digests — regardless of aggregation thread count, flow
// placement order, or wall-clock conditions — or the fleet has leaked
// nondeterminism.

#ifndef MIHN_SRC_FLEET_REPORT_H_
#define MIHN_SRC_FLEET_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace mihn::fleet {

// One host's rollup of one fleet tick, reduced from its fabric's per-link
// loads (Fabric::ReadLinkLoads) — small enough that 256 hosts × thousands
// of ticks stay resident, unlike retaining every per-link series on every
// host.
struct HostSample {
  int host = 0;
  double bytes_total = 0.0;       // Accrued bytes across all directed links.
  double rate_total_bps = 0.0;    // Currently allocated fluid rate, summed.
  double max_utilization = 0.0;   // Across directed links with capacity.
  double mean_utilization = 0.0;
  int active_flows = 0;
  int congested_links = 0;        // Directed links at >= 90% utilization.
};

// One fleet tick: per-host rollups in host order plus fleet-wide and
// inter-host aggregates.
struct FleetSample {
  sim::TimeNs at;
  std::vector<HostSample> hosts;
  double total_bytes = 0.0;
  double total_rate_bps = 0.0;
  int total_active_flows = 0;
  double max_host_utilization = 0.0;
  // Inter-host model aggregates.
  double inter_rate_bps = 0.0;
  double inter_max_utilization = 0.0;
  int cross_host_flows = 0;
};

// Canonical one-line encoding of one sample (every number through "%.9g"
// / integer formatting): what the digest hashes.
std::string EncodeSample(const FleetSample& sample);

// FNV-1a 64 over EncodeSample() of every sample in order. 0xcbf29ce484222325
// for an empty history.
uint64_t DigestSamples(const std::vector<FleetSample>& samples);

}  // namespace mihn::fleet

#endif  // MIHN_SRC_FLEET_REPORT_H_
