#include "src/anomaly/heartbeat.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace mihn::anomaly {
namespace {

constexpr int64_t kProbeBytes = 64;
// EWMA weight for the smoothed latency.
constexpr double kSmoothingAlpha = 0.3;
// Probes used to learn the per-pair baseline before arming.
constexpr int kBaselineSamples = 8;

}  // namespace

HeartbeatMesh::HeartbeatMesh(fabric::Fabric& fabric, Config config)
    : fabric_(fabric), config_(std::move(config)),
      last_route_epoch_(fabric.route_epoch()) {
  // Every routable ordered pair of distinct participants, resolved with one
  // shortest-path tree per source.
  std::vector<topology::ComponentId> ids = config_.participants;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<topology::ComponentId> dsts;
  for (const topology::ComponentId src : ids) {
    dsts.clear();
    std::copy_if(ids.begin(), ids.end(), std::back_inserter(dsts),
                 [src](topology::ComponentId id) { return id != src; });
    std::vector<std::optional<topology::Path>> paths = fabric_.router().ShortestPaths(src, dsts);
    for (size_t i = 0; i < dsts.size(); ++i) {
      if (paths[i]) {
        PairState state;
        state.path = std::move(*paths[i]);
        pairs_.emplace_hint(pairs_.end(), std::make_pair(src, dsts[i]), std::move(state));
      }
    }
  }
}

void HeartbeatMesh::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  timer_ = fabric_.simulation().SchedulePeriodic(config_.period, [this] { Tick(); });
}

HeartbeatMesh::~HeartbeatMesh() { timer_.Cancel(); }

void HeartbeatMesh::Tick() {
  const sim::TimeNs now = fabric_.simulation().Now();
  if (fabric_.route_epoch() != last_route_epoch_) {
    ReresolvePaths(now);
  }
  for (auto& [key, state] : pairs_) {
    fabric::PacketSpec probe;
    probe.path = &state.path;
    probe.bytes = kProbeBytes;
    probe.klass = fabric::TrafficClass::kProbe;
    const sim::TimeNs latency = fabric_.SendPacket(std::move(probe));
    ++probes_sent_;

    const double lat_ns = static_cast<double>(latency.nanos());
    ++state.samples;
    if (state.samples <= kBaselineSamples) {
      // Running mean during the learning phase.
      state.baseline_ns += (lat_ns - state.baseline_ns) / state.samples;
      state.smoothed_ns = state.baseline_ns;
      continue;
    }
    state.smoothed_ns += kSmoothingAlpha * (lat_ns - state.smoothed_ns);
    const bool degraded =
        state.baseline_ns > 0.0 &&
        state.smoothed_ns > config_.degradation_factor * state.baseline_ns;
    if (degraded && !state.alarmed) {
      state.alarmed = true;
      state.alarmed_at = now;
      state.open_alarm = static_cast<int>(alarm_log_.size());
      AlarmEvent event;
      event.src = key.first;
      event.dst = key.second;
      event.raised_at = now;
      alarm_log_.push_back(event);
      if (!first_alarm_at_) {
        first_alarm_at_ = now;
      }
    } else if (!degraded && state.alarmed) {
      CloseAlarm(state, now);  // Recovered.
    }
  }
}

void HeartbeatMesh::ReresolvePaths(sim::TimeNs now) {
  last_route_epoch_ = fabric_.route_epoch();
  std::vector<topology::ComponentId> dsts;
  // pairs_ is ordered by source: each pass takes one source's run of pairs.
  for (auto first = pairs_.begin(); first != pairs_.end();) {
    const topology::ComponentId src = first->first.first;
    auto last = first;
    dsts.clear();
    for (; last != pairs_.end() && last->first.first == src; ++last) {
      dsts.push_back(last->first.second);
    }
    std::vector<std::optional<topology::Path>> paths = fabric_.router().ShortestPaths(src, dsts);
    for (size_t i = 0; first != last; ++first, ++i) {
      PairState& state = first->second;
      std::optional<topology::Path>& path = paths[i];
      // An unreachable pair (every route crosses a dead link) keeps probing
      // its old path: the dead hop's latency inflation is exactly the
      // signal the mesh exists to raise.
      if (!path || *path == state.path) {
        continue;
      }
      // Baselines are keyed to the path, so a re-route restarts learning
      // and closes any alarm raised against the abandoned path.
      CloseAlarm(state, now);
      state.path = std::move(*path);
      state.samples = 0;
      state.baseline_ns = 0.0;
      state.smoothed_ns = 0.0;
    }
  }
}

void HeartbeatMesh::CloseAlarm(PairState& state, sim::TimeNs now) {
  if (!state.alarmed) {
    return;
  }
  state.alarmed = false;
  if (state.open_alarm >= 0) {
    AlarmEvent& event = alarm_log_[static_cast<size_t>(state.open_alarm)];
    event.cleared = true;
    event.cleared_at = now;
    state.open_alarm = -1;
  }
}

std::vector<HeartbeatMesh::PairReport> HeartbeatMesh::Pairs() const {
  std::vector<PairReport> reports;
  reports.reserve(pairs_.size());
  for (const auto& [key, state] : pairs_) {
    PairReport r;
    r.src = key.first;
    r.dst = key.second;
    r.path = &state.path;
    r.baseline = sim::TimeNs::Nanos(static_cast<int64_t>(state.baseline_ns));
    r.smoothed = sim::TimeNs::Nanos(static_cast<int64_t>(state.smoothed_ns));
    r.alarmed = state.alarmed;
    r.alarmed_at = state.alarmed_at;
    reports.push_back(r);
  }
  return reports;
}

std::vector<HeartbeatMesh::PairReport> HeartbeatMesh::Alarms() const {
  std::vector<PairReport> alarms;
  for (PairReport& r : Pairs()) {
    if (r.alarmed) {
      alarms.push_back(r);
    }
  }
  return alarms;
}

std::vector<HeartbeatMesh::SuspectLink> HeartbeatMesh::LocalizeFaults() const {
  // Binary tomography: each link is scored by the alarmed fraction of the
  // probe paths crossing it. A silently-degraded link is crossed only by
  // degraded paths (score 1.0); links shared with healthy paths score less.
  std::map<topology::LinkId, SuspectLink> by_link;
  for (const auto& [key, state] : pairs_) {
    for (const topology::DirectedLink& hop : state.path.hops) {
      SuspectLink& s = by_link[hop.link];
      s.link = hop.link;
      ++s.total_pairs;
      if (state.alarmed) {
        ++s.alarmed_pairs;
      }
    }
  }
  std::vector<SuspectLink> suspects;
  for (auto& [link, s] : by_link) {
    if (s.alarmed_pairs == 0) {
      continue;
    }
    s.score = static_cast<double>(s.alarmed_pairs) / static_cast<double>(s.total_pairs);
    suspects.push_back(s);
  }
  std::sort(suspects.begin(), suspects.end(), [](const SuspectLink& a, const SuspectLink& b) {
    if (a.score != b.score) {
      return a.score > b.score;
    }
    return a.link < b.link;
  });
  return suspects;
}

}  // namespace mihn::anomaly
