// Heartbeat mesh: active probing between intra-host devices.
//
// Paper §3.1: "a hardware failure occurring on the PCIe switch may silently
// cause the connected PCIe device to suffer performance degradation ...
// This can be addressed by having devices on the intra-host network
// periodically send 'heartbeats' to each other, similar to works like
// Pingmesh." The mesh probes a planned set of participant pairs each
// period; a pair alarms when its latency rises above degradation_factor x
// its learned baseline. LocalizeFaults() then runs binary tomography over
// the alarmed/healthy pair paths to rank suspect links.
//
// The plan is made once, when the mesh is built, in the manner of
// deTector's probe matrix (Peng et al., ATC '17). A candidate is any
// ordered pair of distinct participants whose source is not memory (a
// DIMM or CXL memory cannot start a probe; a device probes it by DMA, as
// Hostping's RNIC-to-memory probes do), routed as Fabric::Route routes it.
// The plan
//   - covers every directed link some candidate crosses, with that link's
//     least-latency crossing candidate, and
//   - separates links: for every ordered pair of coverable directed links
//     (m, l), in index order, that some candidate crosses m but not l, a
//     planned pair does too, the least-latency such candidate.
// Least latency is the sensitive choice: a fixed extra latency is the
// largest relative rise on the shortest path, and the alarm threshold sees
// relative rises. A route epoch re-resolves the planned pairs' paths but
// never re-plans.

#ifndef MIHN_SRC_ANOMALY_HEARTBEAT_H_
#define MIHN_SRC_ANOMALY_HEARTBEAT_H_

#include <optional>
#include <string>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/sim/simulation.h"

namespace mihn::anomaly {

class HeartbeatMesh {
 public:
  struct Config {
    // The candidate endpoints the plan picks its pairs from (see above).
    std::vector<topology::ComponentId> participants;
    sim::TimeNs period = sim::TimeNs::Millis(1);
    // A pair alarms when its smoothed latency exceeds this multiple of its
    // baseline.
    double degradation_factor = 2.0;
  };

  struct PairReport {
    topology::ComponentId src = topology::kInvalidComponent;
    topology::ComponentId dst = topology::kInvalidComponent;
    // The path the pair probes, owned by the mesh: a re-route at a later
    // tick rewrites it in place.
    const topology::Path* path = nullptr;
    sim::TimeNs baseline;
    sim::TimeNs smoothed;
    bool alarmed = false;
    sim::TimeNs alarmed_at;  // Valid when alarmed.
  };

  struct SuspectLink {
    topology::LinkId link = topology::kInvalidLink;
    // Fraction of the pairs crossing this link that are alarmed (1.0 = every
    // path over the link is degraded).
    double score = 0.0;
    int alarmed_pairs = 0;
    int total_pairs = 0;
  };

  // One raise→clear episode of a pair alarm. Recovery (latency back under
  // the threshold) and a fault-driven re-route (baseline restarts on the
  // new path) both close an open episode; cleared stays false while the
  // alarm is still raised. The scorer joins these against injected ground
  // truth.
  struct AlarmEvent {
    topology::ComponentId src = topology::kInvalidComponent;
    topology::ComponentId dst = topology::kInvalidComponent;
    sim::TimeNs raised_at;
    sim::TimeNs cleared_at;  // Valid when cleared.
    bool cleared = false;
  };

  HeartbeatMesh(fabric::Fabric& fabric, Config config);
  // Cancels the probe timer. The mesh must be destroyed before its
  // fabric's clock.
  ~HeartbeatMesh();

  HeartbeatMesh(const HeartbeatMesh&) = delete;
  HeartbeatMesh& operator=(const HeartbeatMesh&) = delete;

  // Starts periodic probing. Idempotent.
  void Start();

  size_t pair_count() const { return pairs_.size(); }
  uint64_t probes_sent() const { return probes_sent_; }

  // All planned pairs, in (src, dst) order.
  std::vector<PairReport> Pairs() const;
  // Only the alarmed pairs.
  std::vector<PairReport> Alarms() const;
  // Virtual time of the first alarm, if any (detection-latency metric).
  std::optional<sim::TimeNs> first_alarm_at() const { return first_alarm_at_; }

  // Append-only raise/clear history, in raise order (chaos campaigns score
  // detection and recovery from this). A pair is alarmed exactly while its
  // latest event is uncleared, so the uncleared events count the alarmed
  // pairs.
  const std::vector<AlarmEvent>& alarm_log() const { return alarm_log_; }

  // Ranks links by the fraction of their crossing pairs that alarm (score
  // descending, then link id). Links never crossed by an alarmed pair are
  // omitted.
  std::vector<SuspectLink> LocalizeFaults() const;

 private:
  struct PairState {
    topology::ComponentId src = topology::kInvalidComponent;
    topology::ComponentId dst = topology::kInvalidComponent;
    topology::Path path;
    int samples = 0;
    double baseline_ns = 0.0;
    double smoothed_ns = 0.0;
    bool alarmed = false;
    sim::TimeNs alarmed_at;
    int open_alarm = -1;  // Index into alarm_log_ while alarmed.
  };

  void Tick();

  // Re-resolves every pair's path after the fabric's route epoch moved,
  // with one shortest-path tree per source. A changed path restarts that
  // pair's baseline learning (baselines are keyed to the path); an
  // unreachable pair keeps probing its old path so the dead hop's latency
  // inflation still raises the alarm.
  void ReresolvePaths(sim::TimeNs now);

  // Closes |state|'s open alarm episode, if any, at |now|.
  void CloseAlarm(PairState& state, sim::TimeNs now);

  fabric::Fabric& fabric_;
  Config config_;
  // The planned pairs in (src, dst) order, fixed once built: their paths'
  // addresses stay valid for probes and reports.
  std::vector<PairState> pairs_;
  sim::EventHandle timer_;
  bool running_ = false;
  uint64_t probes_sent_ = 0;
  uint64_t last_route_epoch_ = 0;
  std::optional<sim::TimeNs> first_alarm_at_;
  std::vector<AlarmEvent> alarm_log_;
};

}  // namespace mihn::anomaly

#endif  // MIHN_SRC_ANOMALY_HEARTBEAT_H_
