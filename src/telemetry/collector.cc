#include "src/telemetry/collector.h"

#include <algorithm>
#include <utility>

#include "src/obs/tracer.h"

namespace mihn::telemetry {
namespace {

std::string DirName(bool forward) { return forward ? "fwd" : "rev"; }

}  // namespace

Collector::Collector(fabric::Fabric& fabric, Config config)
    : fabric_(fabric), config_(std::move(config)) {
  if (config_.granularity == Granularity::kCoarse && config_.period < kCoarseMinPeriod) {
    // Hardware counters cannot be read faster than their access frequency
    // allows (paper §3.1 Q1: "the access frequency ... is usually limited").
    config_.period = kCoarseMinPeriod;
  }
}

void Collector::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  timer_ = fabric_.simulation().SchedulePeriodic(
      config_.period, [this] { SampleOnce(); }, "telemetry.tick");
}

void Collector::Stop() {
  running_ = false;
  timer_.Cancel();
}

sim::TimeSeries& Collector::Resolve(std::string key) {
  return series_.try_emplace(std::move(key), config_.series_capacity).first->second;
}

void Collector::SampleOnce() {
  MIHN_TRACE_SPAN(tick_span, fabric_.tracer(), "telemetry", "telemetry.sample");
  ++samples_taken_;
  last_tick_metrics_ = 0;
  const bool fine = config_.granularity == Granularity::kFine;

  const sim::TimeNs now = fabric_.simulation().Now();
  const double dt = (now - last_sample_time_).ToSecondsF();
  // Appends to the series behind |handle|, resolving it from |key()| the
  // first time the series appears.
  auto put = [&](sim::TimeSeries*& handle, const auto& key, double value) {
    if (handle == nullptr) {
      handle = &Resolve(key());
    }
    handle->Append(now, value);
    ++last_tick_metrics_;
  };
  // Slots, like series, appear at the first sample: a collector that never
  // samples (a fleet host's) costs nothing.
  const std::vector<fabric::LinkSnapshot> snapshots = fabric_.SnapshotAll();
  link_slots_.resize(snapshots.size());
  if (fine && socket_slots_.empty()) {
    for (const topology::ComponentId socket :
         fabric_.topo().ComponentsOfKind(topology::ComponentKind::kCpuSocket)) {
      socket_slots_.push_back(SocketSlot{socket});
    }
  }
  for (const fabric::LinkSnapshot& snap : snapshots) {
    const topology::LinkId link = snap.link;
    const bool forward = snap.forward;
    LinkSlot& slot = link_slots_[static_cast<size_t>(topology::DirectedIndex({link, forward}))];
    put(slot.util, [&] { return LinkUtilKey(link, forward); }, snap.utilization);
    put(slot.rate, [&] { return LinkRateKey(link, forward); }, snap.rate_bps);
    put(slot.bytes, [&] { return LinkBytesKey(link, forward); }, snap.bytes_total);
    // Byte-delta throughput: covers fluid AND packet traffic.
    const double thpt =
        (dt > 0.0 && samples_taken_ > 1) ? (snap.bytes_total - slot.prev_bytes) / dt : 0.0;
    slot.prev_bytes = snap.bytes_total;
    put(slot.thpt, [&] { return LinkThroughputKey(link, forward); }, thpt);
    if (fine) {
      // Both sides are sorted by tenant id, so one forward walk pairs them.
      auto entry = slot.tenant_rate.begin();
      for (const auto& [tenant, rate] : snap.rate_by_tenant_bps) {
        entry = std::lower_bound(entry, slot.tenant_rate.end(), tenant,
                                 [](const auto& e, fabric::TenantId t) { return e.first < t; });
        if (entry == slot.tenant_rate.end() || entry->first != tenant) {
          entry = slot.tenant_rate.insert(entry, {tenant, nullptr});
        }
        put(entry->second, [&] { return TenantRateKey(link, forward, tenant); }, rate);
        ++entry;
      }
      for (int k = 0; k < fabric::kNumTrafficClasses; ++k) {
        const double rate = snap.rate_by_class_bps[static_cast<size_t>(k)];
        if (rate > 0.0) {
          const auto klass = static_cast<fabric::TrafficClass>(k);
          put(slot.class_rate[static_cast<size_t>(k)],
              [&] { return ClassRateKey(link, forward, klass); }, rate);
        }
      }
    }
  }
  for (SocketSlot& slot : socket_slots_) {
    const topology::ComponentId socket = slot.socket;
    const fabric::SocketCacheStats stats = fabric_.CacheStats(socket);
    put(slot.hit, [&] { return CacheHitKey(socket); }, stats.hit_rate);
    put(slot.spill, [&] { return CacheSpillKey(socket); }, stats.spill_rate_bps);
  }

  last_sample_time_ = now;

  // Q2: ship the encoded samples across the fabric to the collection point.
  if (config_.report_to != topology::kInvalidComponent) {
    if (!report_path_resolved_) {
      topology::ComponentId from = config_.report_from;
      if (from == topology::kInvalidComponent) {
        const auto sockets =
            fabric_.topo().ComponentsOfKind(topology::ComponentKind::kCpuSocket);
        if (!sockets.empty()) {
          from = sockets.front();
        }
      }
      if (from != topology::kInvalidComponent && from != config_.report_to) {
        if (auto p = fabric_.Route(from, config_.report_to)) {
          report_path_ = std::move(*p);
        }
      }
      report_path_resolved_ = true;
    }
    if (!report_path_.empty()) {
      const int64_t bytes =
          static_cast<int64_t>(last_tick_metrics_) * config_.bytes_per_sample;
      fabric::PacketSpec pkt;
      pkt.path = report_path_;
      pkt.bytes = bytes;
      pkt.klass = fabric::TrafficClass::kMonitor;
      fabric_.SendPacket(std::move(pkt));
      bytes_reported_ += bytes;
    }
  }
  if (tick_span.active()) {
    tick_span.Arg("metrics", static_cast<double>(last_tick_metrics_));
    tick_span.Arg("bytes_reported_total", static_cast<double>(bytes_reported_));
    MIHN_TRACE_COUNTER(fabric_.tracer(), "telemetry", "telemetry.metrics_per_tick",
                       last_tick_metrics_);
  }
}

const sim::TimeSeries* Collector::Series(const std::string& key) const {
  const auto it = series_.find(key);
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<std::string> Collector::Keys() const {
  std::vector<std::string> keys;
  keys.reserve(series_.size());
  for (const auto& [key, unused] : series_) {
    keys.push_back(key);
  }
  return keys;
}

uint64_t Collector::total_dropped_points() const {
  uint64_t dropped = 0;
  for (const auto& [key, ts] : series_) {
    dropped += ts.dropped();
  }
  return dropped;
}

std::string Collector::LinkUtilKey(topology::LinkId link, bool forward) {
  return "link/" + std::to_string(link) + "/" + DirName(forward) + "/util";
}
std::string Collector::LinkRateKey(topology::LinkId link, bool forward) {
  return "link/" + std::to_string(link) + "/" + DirName(forward) + "/rate";
}
std::string Collector::LinkBytesKey(topology::LinkId link, bool forward) {
  return "link/" + std::to_string(link) + "/" + DirName(forward) + "/bytes";
}
std::string Collector::LinkThroughputKey(topology::LinkId link, bool forward) {
  return "link/" + std::to_string(link) + "/" + DirName(forward) + "/thpt";
}
std::string Collector::TenantRateKey(topology::LinkId link, bool forward,
                                     fabric::TenantId tenant) {
  return "link/" + std::to_string(link) + "/" + DirName(forward) + "/tenant/" +
         std::to_string(tenant) + "/rate";
}
std::string Collector::ClassRateKey(topology::LinkId link, bool forward,
                                    fabric::TrafficClass k) {
  return "link/" + std::to_string(link) + "/" + DirName(forward) + "/class/" +
         std::string(fabric::TrafficClassName(k)) + "/rate";
}
std::string Collector::CacheHitKey(topology::ComponentId socket) {
  return "socket/" + std::to_string(socket) + "/cache_hit";
}
std::string Collector::CacheSpillKey(topology::ComponentId socket) {
  return "socket/" + std::to_string(socket) + "/cache_spill";
}

}  // namespace mihn::telemetry
