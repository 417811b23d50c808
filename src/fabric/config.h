// Fabric configuration knobs.
//
// Figure 1's dashed box lists host configuration that "heavily impacts the
// performance of intra-host connections": NUMA, IOMMU, DDIO, request/
// payload sizes, ordering restrictions, interrupt moderation. FabricConfig
// holds each setting an operator changes; the named constants beside it
// calibrate the quantitative effect each setting has on capacity or
// latency, so the anomaly module's misconfiguration checker has real
// signals to detect. A calibration that no caller sets is a constant, not
// a field.

#ifndef MIHN_SRC_FABRIC_CONFIG_H_
#define MIHN_SRC_FABRIC_CONFIG_H_

#include <cstdint>

#include "src/sim/time.h"
#include "src/sim/units.h"

namespace mihn::fabric {

// How long written data lingers in the LLC before the application consumes
// it; the DDIO working set of a flow is rate * drain time (paper §2: data
// evicted "before being consumed by the applications" is the thrashing
// case).
inline constexpr sim::TimeNs kLlcDrainTime = sim::TimeNs::Micros(20);

// IOMMU address translation adds latency on every PCIe hop and costs a
// little throughput on small payloads (IOTLB pressure); cf. Agarwal et
// al. [2].
inline constexpr sim::TimeNs kIommuLatency = sim::TimeNs::Nanos(60);
inline constexpr double kIommuCapacityFactor = 0.95;

// Transaction-layer header bytes per PCIe payload: effective bandwidth =
// raw * MPS / (MPS + header); cf. Neugebauer et al.'s PCIe model [43].
inline constexpr int kPcieHeaderOverheadBytes = 26;

// Capacity haircut on PCIe links with relaxed ordering disabled.
inline constexpr double kStrictOrderingCapacityFactor = 0.8;

// Congestion latency model: per-hop latency = base * (1 + kCongestionAlpha
// * rho / (1 - rho)), with rho capped so the multiplier never exceeds
// kMaxLatencyInflation. This is the M/M/1-shaped "congestion causes
// latency jitter" effect.
inline constexpr double kCongestionAlpha = 1.0;
inline constexpr double kMaxLatencyInflation = 20.0;

struct FabricConfig {
  // --- DDIO / LLC (Intel Data Direct I/O) ---
  // When enabled, inbound I/O writes destined to a CPU socket land in the
  // LLC's DDIO ways; only misses/evictions spill onto the memory bus. When
  // disabled, all I/O writes traverse the memory path in full.
  bool ddio_enabled = true;
  int ddio_ways = 2;
  int64_t way_bytes = 1536 * 1024;  // 1.5 MiB per way (Skylake-SP class).

  // --- IOMMU ---
  // Adds kIommuLatency per PCIe hop and scales PCIe capacity by
  // kIommuCapacityFactor.
  bool iommu_enabled = false;

  // --- PCIe transaction-layer efficiency ---
  // 256 B is the common default; a misconfigured 64 B MPS costs ~25% of
  // bandwidth.
  int max_payload_bytes = 256;

  // --- Ordering restrictions ---
  // With relaxed ordering disabled, same-direction writes serialize at the
  // root complex; modeled as a capacity haircut on PCIe links.
  bool relaxed_ordering = true;

  // --- Interrupt moderation ---
  // Added to the delivery latency of packetized messages (not fluid flows):
  // completions wait for the moderation timer.
  sim::TimeNs interrupt_moderation = sim::TimeNs::Zero();

  // Effective multiplier on PCIe-class link capacity from the transaction-
  // layer knobs (payload efficiency, ordering, IOMMU).
  double PcieCapacityFactor() const {
    double f = static_cast<double>(max_payload_bytes) /
               static_cast<double>(max_payload_bytes + kPcieHeaderOverheadBytes);
    if (!relaxed_ordering) {
      f *= kStrictOrderingCapacityFactor;
    }
    if (iommu_enabled) {
      f *= kIommuCapacityFactor;
    }
    return f;
  }

  // Bytes of LLC available to inbound I/O.
  int64_t DdioCapacityBytes() const { return static_cast<int64_t>(ddio_ways) * way_bytes; }
};

// Latency inflation multiplier for utilization |rho| in [0, 1].
double LatencyInflation(double rho);

}  // namespace mihn::fabric

#endif  // MIHN_SRC_FABRIC_CONFIG_H_
