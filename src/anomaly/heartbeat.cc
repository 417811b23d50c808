#include "src/anomaly/heartbeat.h"

#include <algorithm>
#include <bit>
#include <map>
#include <span>
#include <utility>

namespace mihn::anomaly {
namespace {

using topology::ComponentId;

constexpr int64_t kProbeBytes = 64;
// EWMA weight for the smoothed latency.
constexpr double kSmoothingAlpha = 0.3;
// Probes used to learn the per-pair baseline before arming.
constexpr int kBaselineSamples = 8;

// Rows of bits: directed links in DirectedIndex order, or candidates in
// (src, dst) order.
bool TestBit(const uint64_t* row, size_t i) { return ((row[i / 64] >> (i % 64)) & 1) != 0; }
void SetBit(uint64_t* row, size_t i) { row[i / 64] |= uint64_t{1} << (i % 64); }

// One routable ordered pair the plan may pick.
struct Candidate {
  ComponentId src = topology::kInvalidComponent;
  ComponentId dst = topology::kInvalidComponent;
  int64_t latency_ns = 0;
  size_t first_hop = 0;  // Into Candidates::hops.
};

// Every candidate pair over some participants, in (src, dst) order, with
// its path's hops, and per directed link the candidates crossing it as a
// row of |pair_words| words in |crossing|.
struct Candidates {
  std::vector<Candidate> pairs;
  std::vector<topology::DirectedLink> hops;
  size_t links = 0;  // Directed links.
  size_t pair_words = 0;
  std::vector<uint64_t> crossing;

  // Candidate |i|'s hops, last hop first.
  std::span<const topology::DirectedLink> HopsOf(size_t i) const {
    const size_t last = i + 1 < pairs.size() ? pairs[i + 1].first_hop : hops.size();
    return std::span(hops).subspan(pairs[i].first_hop, last - pairs[i].first_hop);
  }
  const uint64_t* crossers(size_t m) const { return &crossing[m * pair_words]; }
};

bool IsMemory(topology::ComponentKind kind) {
  return kind == topology::ComponentKind::kDimm || kind == topology::ComponentKind::kCxlMemory;
}

// The candidates over |ids| (sorted, distinct components): memory is never
// a source, and each pair takes the path Fabric::Route gives it.
Candidates FindCandidates(const fabric::Fabric& fabric, const std::vector<ComponentId>& ids) {
  // Room for this many hops per candidate is reserved up front; intra-host
  // paths average about 5 on the presets.
  constexpr size_t kHopsPerPath = 6;
  const topology::Topology& topo = fabric.topo();
  const auto is_source = [&topo](ComponentId id) { return !IsMemory(topo.component(id).kind); };
  const auto most = static_cast<size_t>(std::count_if(ids.begin(), ids.end(), is_source)) *
                    ids.size();
  Candidates c;
  c.links = 2 * topo.link_count();
  c.pair_words = (most + 63) / 64;
  c.pairs.reserve(most);
  c.hops.reserve(most * kHopsPerPath);
  c.crossing.assign(c.links * c.pair_words, 0);
  topology::PathTree tree;
  for (const ComponentId src : ids) {
    if (!is_source(src)) {
      continue;
    }
    fabric.router().FillPathTree(src, ids, tree);
    for (const ComponentId dst : ids) {
      const size_t i = c.pairs.size();
      const size_t first_hop = c.hops.size();
      const int64_t latency_ns = tree.ForEachHopBackward(dst, [&](topology::DirectedLink hop) {
        SetBit(&c.crossing[static_cast<size_t>(topology::DirectedIndex(hop)) * c.pair_words], i);
        c.hops.push_back(hop);
      });
      if (latency_ns >= 0) {
        c.pairs.push_back(Candidate{src, dst, latency_ns, first_hop});
      }
    }
  }
  return c;
}

// The path candidate |i| probes, rebuilt from its hops.
topology::Path CandidatePath(const topology::Topology& topo, const Candidates& c, size_t i) {
  const std::span<const topology::DirectedLink> hops = c.HopsOf(i);
  topology::Path path;
  path.nodes.reserve(hops.size() + 1);
  path.hops.assign(hops.rbegin(), hops.rend());
  path.nodes.push_back(c.pairs[i].src);
  for (const topology::DirectedLink hop : path.hops) {
    const topology::Link& link = topo.link(hop.link);
    path.nodes.push_back(hop.forward ? link.b : link.a);
  }
  return path;
}

// The plan over |c| (heartbeat.h), as a row of candidate bits.
std::vector<uint64_t> PlanPairs(const Candidates& c) {
  constexpr size_t kNone = ~size_t{0};
  // The least-latency candidate among the set bits of the row word(w)
  // gives; ties go to the lowest (src, dst), as everywhere in the plan.
  // kNone for an empty row.
  const auto least_latency = [&c](auto word) {
    size_t best = kNone;
    for (size_t w = 0; w < c.pair_words; ++w) {
      for (uint64_t bits = word(w); bits != 0; bits &= bits - 1) {
        const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        if (best == kNone || c.pairs[i].latency_ns < c.pairs[best].latency_ns) {
          best = i;
        }
      }
    }
    return best;
  };
  const size_t link_words = (c.links + 63) / 64;
  // Coverage: each coverable link's least-latency crossing candidate.
  std::vector<size_t> seed(c.links, kNone);
  for (size_t i = 0; i < c.pairs.size(); ++i) {
    for (const topology::DirectedLink hop : c.HopsOf(i)) {
      size_t& best = seed[static_cast<size_t>(topology::DirectedIndex(hop))];
      if (best == kNone || c.pairs[i].latency_ns < c.pairs[best].latency_ns) {
        best = i;
      }
    }
  }
  std::vector<uint64_t> planned(c.pair_words, 0);
  std::vector<uint64_t> coverable(link_words, 0);
  for (size_t m = 0; m < c.links; ++m) {
    if (seed[m] != kNone) {
      SetBit(coverable.data(), m);
      SetBit(planned.data(), seed[m]);
    }
  }
  // Separation, pair by pair in index order. have: the links that some
  // planned pair crossing m does not cross.
  std::vector<uint64_t> have(link_words);
  std::vector<uint64_t> mask(link_words);
  const auto add_complement = [&](size_t i) {
    std::fill(mask.begin(), mask.end(), 0);
    for (const topology::DirectedLink hop : c.HopsOf(i)) {
      SetBit(mask.data(), static_cast<size_t>(topology::DirectedIndex(hop)));
    }
    for (size_t w = 0; w < link_words; ++w) {
      have[w] |= ~mask[w];
    }
  };
  for (size_t m = 0; m < c.links; ++m) {
    if (!TestBit(coverable.data(), m)) {
      continue;
    }
    const uint64_t* cross_m = c.crossers(m);
    std::fill(have.begin(), have.end(), 0);
    for (size_t w = 0; w < c.pair_words; ++w) {
      for (uint64_t bits = cross_m[w] & planned[w]; bits != 0; bits &= bits - 1) {
        add_complement(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      }
    }
    for (size_t w = 0; w < link_words; ++w) {
      for (uint64_t open = coverable[w] & ~have[w]; open != 0; open &= open - 1) {
        const size_t l = w * 64 + static_cast<size_t>(std::countr_zero(open));
        if (TestBit(have.data(), l)) {
          continue;  // A separator added for a lower link covers this one.
        }
        const uint64_t* cross_l = c.crossers(l);
        const size_t i = least_latency([&](size_t v) { return cross_m[v] & ~cross_l[v]; });
        if (i != kNone) {
          SetBit(planned.data(), i);
          add_complement(i);
        }
      }
    }
  }
  return planned;
}

}  // namespace

HeartbeatMesh::HeartbeatMesh(fabric::Fabric& fabric, Config config)
    : fabric_(fabric), config_(std::move(config)),
      last_route_epoch_(fabric.route_epoch()) {
  std::vector<ComponentId> ids = config_.participants;
  std::erase_if(ids, [&](ComponentId id) {
    return id < 0 || static_cast<size_t>(id) >= fabric_.topo().component_count();
  });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const Candidates candidates = FindCandidates(fabric_, ids);
  const std::vector<uint64_t> planned = PlanPairs(candidates);
  size_t planned_count = 0;
  for (const uint64_t word : planned) {
    planned_count += static_cast<size_t>(std::popcount(word));
  }
  pairs_.reserve(planned_count);
  for (size_t i = 0; i < candidates.pairs.size(); ++i) {
    if (TestBit(planned.data(), i)) {
      PairState& state = pairs_.emplace_back();
      state.src = candidates.pairs[i].src;
      state.dst = candidates.pairs[i].dst;
      state.path = CandidatePath(fabric_.topo(), candidates, i);
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
  for (PairState& state : pairs_) {
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
      event.src = state.src;
      event.dst = state.dst;
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
    const topology::ComponentId src = first->src;
    auto last = first;
    dsts.clear();
    for (; last != pairs_.end() && last->src == src; ++last) {
      dsts.push_back(last->dst);
    }
    std::vector<std::optional<topology::Path>> paths = fabric_.router().ShortestPaths(src, dsts);
    for (size_t i = 0; first != last; ++first, ++i) {
      PairState& state = *first;
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
  for (const PairState& state : pairs_) {
    PairReport r;
    r.src = state.src;
    r.dst = state.dst;
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
  for (const PairState& state : pairs_) {
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
