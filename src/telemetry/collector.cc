#include "src/telemetry/collector.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>
#include <utility>

#include "src/obs/tracer.h"

namespace mihn::telemetry {
namespace {

std::string DirName(bool forward) { return forward ? "fwd" : "rev"; }

topology::DirectedLink LinkOf(size_t li) {
  return {static_cast<topology::LinkId>(li / 2), li % 2 == 0};
}

// The id that follows |prefix| in |key|, read leniently (leading zeros
// pass): the caller holds the key to the builders' spelling.
std::optional<uint64_t> IdAfter(std::string_view key, std::string_view prefix) {
  if (!key.starts_with(prefix)) {
    return std::nullopt;
  }
  uint64_t id = 0;
  const char* const end = key.data() + key.size();
  if (std::from_chars(key.data() + prefix.size(), end, id).ec != std::errc()) {
    return std::nullopt;
  }
  return id;
}

// The frame's metrics in column order, each spelled by its key builder.
using LinkKeyFn = std::string (*)(topology::LinkId, bool);
using SocketKeyFn = std::string (*)(topology::ComponentId);
constexpr std::array<LinkKeyFn, 4> kLinkKeys = {
    &Collector::LinkUtilKey, &Collector::LinkRateKey, &Collector::LinkBytesKey,
    &Collector::LinkThroughputKey};
constexpr std::array<SocketKeyFn, 2> kSocketKeys = {&Collector::CacheHitKey,
                                                    &Collector::CacheSpillKey};

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

Collector::~Collector() { timer_.Cancel(); }

sim::TimeSeries& Collector::Resolve(std::string key) {
  return sparse_.try_emplace(std::move(key), config_.series_capacity).first->second;
}

void Collector::SampleOnce() {
  MIHN_TRACE_SPAN(tick_span, fabric_.tracer(), "telemetry", "telemetry.sample");
  ++samples_taken_;
  const bool fine = config_.granularity == Granularity::kFine;

  const sim::TimeNs now = fabric_.simulation().Now();
  const double dt = (now - last_sample_time_).ToSecondsF();
  fabric_.ReadLinkLoads(loads_);
  const size_t links = loads_.size();
  if (!frame_) {
    if (fine) {
      sockets_ = fabric_.topo().ComponentsOfKind(topology::ComponentKind::kCpuSocket);
    }
    prev_bytes_.assign(links, 0.0);
    frame_.emplace(config_.series_capacity,
                   kLinkMetrics * links + kSocketMetrics * sockets_.size());
  }
  double* cell = frame_->AppendRow(now);
  for (size_t li = 0; li < links; ++li) {
    const fabric::LinkLoad& load = loads_[li];
    *cell++ = load.capacity_bps > 0 ? load.rate_bps / load.capacity_bps : 0.0;
    *cell++ = load.rate_bps;
    *cell++ = load.bytes_total;
    // Byte-delta throughput: covers fluid AND packet traffic.
    *cell++ = (dt > 0.0 && samples_taken_ > 1) ? (load.bytes_total - prev_bytes_[li]) / dt : 0.0;
    prev_bytes_[li] = load.bytes_total;
  }
  for (const topology::ComponentId socket : sockets_) {
    const fabric::SocketCacheStats stats = fabric_.CacheStats(socket);
    *cell++ = stats.hit_rate;
    *cell++ = stats.spill_rate_bps;
  }
  last_tick_metrics_ = frame_->width();

  if (fine) {
    // Appends to the sparse series behind |handle|, resolving it from
    // |key()| the first time the series appears.
    auto put = [&](sim::TimeSeries*& handle, const auto& key, double value) {
      if (handle == nullptr) {
        handle = &Resolve(key());
      }
      handle->Append(now, value);
      ++last_tick_metrics_;
    };
    fabric_.ReadTenantAndClassRates(
        [&](size_t index, fabric::TenantId tenant, size_t li, double rate) {
          if (tenant_series_.size() <= index * links) {
            tenant_series_.resize((index + 1) * links, nullptr);
          }
          const topology::DirectedLink d = LinkOf(li);
          put(tenant_series_[index * links + li],
              [&] { return TenantRateKey(d.link, d.forward, tenant); }, rate);
        },
        [&](size_t li, fabric::TrafficClass klass, double rate) {
          if (class_series_.empty()) {
            class_series_.resize(links * fabric::kNumTrafficClasses, nullptr);
          }
          const topology::DirectedLink d = LinkOf(li);
          put(class_series_[li * fabric::kNumTrafficClasses + static_cast<size_t>(klass)],
              [&] { return ClassRateKey(d.link, d.forward, klass); }, rate);
        });
  }

  last_sample_time_ = now;

  // Q2: ship the encoded samples across the fabric to the collection point.
  if (config_.report_to != topology::kInvalidComponent) {
    if (!report_path_resolved_) {
      // Reports originate at the first CPU socket.
      const auto sockets = fabric_.topo().ComponentsOfKind(topology::ComponentKind::kCpuSocket);
      if (!sockets.empty() && sockets.front() != config_.report_to) {
        if (auto p = fabric_.Route(sockets.front(), config_.report_to)) {
          report_path_ = std::move(*p);
        }
      }
      report_path_resolved_ = true;
    }
    if (!report_path_.empty()) {
      const int64_t bytes = static_cast<int64_t>(last_tick_metrics_) * kBytesPerSample;
      fabric::PacketSpec pkt;
      pkt.path = &report_path_;
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

std::string Collector::DenseKey(size_t column) const {
  static_assert(kLinkKeys.size() == kLinkMetrics && kSocketKeys.size() == kSocketMetrics);
  const size_t link_columns = kLinkMetrics * loads_.size();
  if (column < link_columns) {
    const topology::DirectedLink d = LinkOf(column / kLinkMetrics);
    return kLinkKeys[column % kLinkMetrics](d.link, d.forward);
  }
  const size_t socket_column = column - link_columns;
  return kSocketKeys[socket_column % kSocketMetrics](sockets_[socket_column / kSocketMetrics]);
}

std::optional<size_t> Collector::DenseColumn(const std::string& key) const {
  // Narrow the search to one link's or one socket's columns by the id in
  // the key, then accept only the exact spelling of one of them.
  size_t first = 0;
  size_t count = 0;
  if (const auto link = IdAfter(key, "link/")) {
    if (*link < loads_.size() / 2) {
      first = kLinkMetrics * 2 * static_cast<size_t>(*link);
      count = kLinkMetrics * 2;
    }
  } else if (const auto socket = IdAfter(key, "socket/")) {
    const auto it = std::find_if(sockets_.begin(), sockets_.end(), [&](topology::ComponentId s) {
      return static_cast<uint64_t>(s) == *socket;
    });
    if (it != sockets_.end()) {
      first = kLinkMetrics * loads_.size() +
              kSocketMetrics * static_cast<size_t>(it - sockets_.begin());
      count = kSocketMetrics;
    }
  }
  for (size_t column = first; column < first + count; ++column) {
    if (DenseKey(column) == key) {
      return column;
    }
  }
  return std::nullopt;
}

std::optional<Collector::SeriesView> Collector::Series(const std::string& key) const {
  if (!frame_) {
    return std::nullopt;
  }
  if (const auto column = DenseColumn(key)) {
    return SeriesView{&*frame_, *column};
  }
  const auto it = sparse_.find(key);
  if (it == sparse_.end()) {
    return std::nullopt;
  }
  return SeriesView{&it->second, 0};
}

std::vector<std::string> Collector::Keys() const {
  const size_t dense = frame_ ? frame_->width() : 0;
  std::vector<std::string> keys;
  keys.reserve(dense + sparse_.size());
  for (size_t column = 0; column < dense; ++column) {
    keys.push_back(DenseKey(column));
  }
  for (const auto& [key, unused] : sparse_) {
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

uint64_t Collector::total_dropped_points() const {
  uint64_t dropped = frame_ ? frame_->width() * frame_->dropped() : 0;
  for (const auto& [key, series] : sparse_) {
    dropped += series.dropped();
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
