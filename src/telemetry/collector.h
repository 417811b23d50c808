// Fine-grained monitoring system (paper §3.1, building block 1).
//
// The Collector periodically samples the fabric — per-link utilization and
// rate, per-tenant rates, per-class rates, and per-socket cache stats —
// into bounded time series that the anomaly platform and diagnostic tools
// consume.
//
// The store is one string-keyed map of series, the boundary index behind
// Series(key), Keys() and total_dropped_points(). The sampler itself keeps
// one slot per directed link and per socket holding the handle of each of
// that slot's series: a key is built, and the map searched, only the first
// time a series appears. Map nodes never move, so handles — and the
// pointers Series() returns — stay valid for the Collector's lifetime.
//
// Two of the paper's §3.1 open questions are modelled explicitly:
//
//  Q1 (granularity): Granularity::kFine samples everything per tenant and
//  per class at arbitrary frequency; Granularity::kCoarse emulates today's
//  PCM/RDT-style hardware counters — aggregate-only, no tenant attribution,
//  and a floor on the sampling period. bench_anomaly_detection contrasts
//  what each can detect.
//
//  Q2 (storage/processing dilemma): when |report_to| names a component,
//  every sampling tick ships the encoded samples to it across the fabric
//  itself as TrafficClass::kMonitor traffic — monitoring consumes the very
//  resource it observes. bench_monitoring_overhead sweeps this trade-off.

#ifndef MIHN_SRC_TELEMETRY_COLLECTOR_H_
#define MIHN_SRC_TELEMETRY_COLLECTOR_H_

#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/sim/time_series.h"

namespace mihn::telemetry {

enum class Granularity {
  kFine,    // Per-link, per-tenant, per-class, per-socket cache.
  kCoarse,  // Aggregate per link only; period floored at kCoarseMinPeriod.
};

inline constexpr sim::TimeNs kCoarseMinPeriod = sim::TimeNs::Millis(100);

// Encoded size of one metric sample on the wire.
inline constexpr int64_t kBytesPerSample = 16;

class Collector {
 public:
  struct Config {
    sim::TimeNs period = sim::TimeNs::Millis(1);
    Granularity granularity = Granularity::kFine;
    // Retained points per series (the storage half of Q2).
    size_t series_capacity = 4096;
    // Where encoded samples are shipped (kInvalidComponent = processed
    // in-place, no fabric cost). Reports travel from the first CPU socket
    // to it, kBytesPerSample bytes per metric.
    topology::ComponentId report_to = topology::kInvalidComponent;
  };

  Collector(fabric::Fabric& fabric, Config config);
  // Cancels the sampling timer. The collector must be destroyed before its
  // fabric's clock.
  ~Collector();
  // Slots hold handles into this collector's own store.
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  // Begins periodic sampling. Idempotent.
  void Start();

  // Takes one sample immediately (also used internally by the timer).
  void SampleOnce();

  // -- Series access ----------------------------------------------------------
  // nullptr if the key has never been sampled. A non-null result stays
  // valid, and keeps receiving points, for the Collector's lifetime.
  const sim::TimeSeries* Series(const std::string& key) const;
  std::vector<std::string> Keys() const;
  size_t series_count() const { return series_.size(); }

  // Key builders (the schema of the metric store).
  static std::string LinkUtilKey(topology::LinkId link, bool forward);
  static std::string LinkRateKey(topology::LinkId link, bool forward);
  static std::string LinkBytesKey(topology::LinkId link, bool forward);
  // Observed throughput (bytes moved / period, bytes/s): unlike the fluid
  // rate, this includes packetized traffic — heartbeats, RPCs, and the
  // monitoring stream itself show up here. First sample of a run is 0.
  static std::string LinkThroughputKey(topology::LinkId link, bool forward);
  static std::string TenantRateKey(topology::LinkId link, bool forward, fabric::TenantId tenant);
  static std::string ClassRateKey(topology::LinkId link, bool forward, fabric::TrafficClass k);
  static std::string CacheHitKey(topology::ComponentId socket);
  static std::string CacheSpillKey(topology::ComponentId socket);

  // -- Introspection / Q2 accounting -------------------------------------------
  uint64_t samples_taken() const { return samples_taken_; }
  // Total bytes of monitoring traffic injected into the fabric so far.
  int64_t bytes_reported() const { return bytes_reported_; }
  // Metrics recorded on the most recent tick.
  size_t last_tick_metrics() const { return last_tick_metrics_; }
  // Points dropped across all series due to capacity (storage pressure).
  uint64_t total_dropped_points() const;


 private:
  // The series of one directed link. A null handle is a series that has
  // not appeared yet.
  struct LinkSlot {
    sim::TimeSeries* util = nullptr;
    sim::TimeSeries* rate = nullptr;
    sim::TimeSeries* bytes = nullptr;
    sim::TimeSeries* thpt = nullptr;
    std::array<sim::TimeSeries*, fabric::kNumTrafficClasses> class_rate{};
    std::vector<std::pair<fabric::TenantId, sim::TimeSeries*>> tenant_rate;  // Sorted by id.
    double prev_bytes = 0.0;  // bytes_total at the previous sample.
  };
  struct SocketSlot {
    topology::ComponentId socket = topology::kInvalidComponent;
    sim::TimeSeries* hit = nullptr;
    sim::TimeSeries* spill = nullptr;
  };

  // The store's series under |key|, created empty if absent.
  sim::TimeSeries& Resolve(std::string key);

  fabric::Fabric& fabric_;
  Config config_;
  std::map<std::string, sim::TimeSeries> series_;
  std::vector<LinkSlot> link_slots_;      // By topology::DirectedIndex.
  // SnapshotAll()'s buffer, kept between samples so a sample reuses it.
  std::vector<fabric::LinkSnapshot> snapshots_;
  std::vector<SocketSlot> socket_slots_;  // Every CPU socket, once fine sampling starts.
  sim::EventHandle timer_;
  bool running_ = false;
  sim::TimeNs last_sample_time_;
  uint64_t samples_taken_ = 0;
  int64_t bytes_reported_ = 0;
  size_t last_tick_metrics_ = 0;
  topology::Path report_path_;
  bool report_path_resolved_ = false;
};

}  // namespace mihn::telemetry

#endif  // MIHN_SRC_TELEMETRY_COLLECTOR_H_
