// Fine-grained monitoring system (paper §3.1, building block 1).
//
// The Collector periodically samples the fabric — per-link utilization and
// rate, per-tenant rates, per-class rates, and per-socket cache stats —
// into bounded time series that the anomaly platform and diagnostic tools
// consume.
//
// The store has two parts. The dense metrics, which every sample carries
// (util, rate, bytes and byte-delta throughput of every directed link, and
// in fine mode the cache hit and spill rates of every socket), form one
// frame: a sim::TimeSeries whose row is one whole sample under one
// timestamp, written in one pass over the fabric's link table. Its schema
// is positional: link metric m of directed link d is column
// kLinkMetrics * DirectedIndex(d) + m, and the socket columns follow. The
// per-tenant and per-class rates exist only while their tenant or class is
// on the link, so each is a width-1 series of its own in a string-keyed
// map; the sampler keeps their handles by (tenant, link) and (link, class),
// and builds a key and searches the map only when a series first appears.
// Series(key) resolves any key to a view of one column of either part. The
// frame and every series appear at the first sample: a collector that never
// samples (a fleet host's) costs nothing.
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

#include <map>
#include <optional>
#include <string>
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
  // Handles and views point into this collector's own store.
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  // Begins periodic sampling. Idempotent.
  void Start();

  // Takes one sample immediately (also used internally by the timer).
  void SampleOnce();

  // -- Series access ----------------------------------------------------------
  // One metric's series: a column of a sim::TimeSeries (the frame, or a
  // sparse series' only column). It holds the series, not its rows, so it
  // stays valid while rows grow, and keeps receiving points, for the
  // Collector's lifetime.
  struct SeriesView {
    const sim::TimeSeries* series;
    size_t column;

    size_t size() const { return series->size(); }
    size_t FirstAfter(sim::TimeNs t) const { return series->FirstAfter(t); }
    sim::TimePoint At(size_t i) const { return series->At(i, column); }
  };

  // nullopt if the key has never been sampled.
  std::optional<SeriesView> Series(const std::string& key) const;
  // Every sampled key, sorted.
  std::vector<std::string> Keys() const;
  size_t series_count() const {
    return (frame_ ? frame_->width() : 0) + sparse_.size();
  }

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
  // Frame columns per directed link (util, rate, bytes, thpt) and per
  // socket (cache hit, spill).
  static constexpr size_t kLinkMetrics = 4;
  static constexpr size_t kSocketMetrics = 2;

  // The key of frame column |column|, spelled by the key builders.
  std::string DenseKey(size_t column) const;
  // The frame column |key| names: the key must be exactly what DenseKey()
  // spells for that column.
  std::optional<size_t> DenseColumn(const std::string& key) const;
  // The sparse series under |key|, created empty if absent.
  sim::TimeSeries& Resolve(std::string key);

  fabric::Fabric& fabric_;
  Config config_;
  // The dense metrics, one row per sample; absent until the first sample.
  std::optional<sim::TimeSeries> frame_;
  // The frame's sockets, in column order (fine mode only).
  std::vector<topology::ComponentId> sockets_;
  // ReadLinkLoads()'s buffer, kept between samples so a sample reuses it.
  std::vector<fabric::LinkLoad> loads_;
  // Each directed link's bytes_total at the previous sample.
  std::vector<double> prev_bytes_;
  // The tenant and class rates. Map nodes never move, so the handles below
  // and the views Series() returns stay valid.
  std::map<std::string, sim::TimeSeries> sparse_;
  // Handles into sparse_, null until the series appears: per tenant and
  // directed link, tenant-major by the fabric's dense tenant index
  // ([index * directed links + link]), and per directed link and class
  // ([link * kNumTrafficClasses + class]).
  std::vector<sim::TimeSeries*> tenant_series_;
  std::vector<sim::TimeSeries*> class_series_;
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
