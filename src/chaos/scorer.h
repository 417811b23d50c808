// Scoring: joining injected ground truth against what the detectors said.
//
// A campaign trial produces three observation streams — detector signals
// (heartbeat alarms, SLO violations, detector-bank anomalies, misconfig
// findings), the injected ground-truth fault windows, and a periodic
// health sample ("is the platform currently quiet?"). The Scorer turns
// them into the numbers the paper's §3.1 pitch needs defending:
//
//   detection    a fault counts as detected if any signal lands inside its
//                active window (plus a grace tail for pipeline delay);
//                detection latency = first such signal - injection time.
//   precision    fraction of signals that land inside some fault window —
//                signals outside every window are false positives.
//   recall       fraction of faults detected.
//   recovery     time from injection until the platform is quiet again for
//                |convergence_ticks| consecutive health samples at or
//                after the detection point (re-route + SLO re-convergence).
//
// Everything here is pure arithmetic over recorded values: scoring the
// same trial twice yields identical results, bit for bit.

#ifndef MIHN_SRC_CHAOS_SCORER_H_
#define MIHN_SRC_CHAOS_SCORER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/chaos/fault_schedule.h"
#include "src/sim/time.h"

namespace mihn::chaos {

// One detection event from any layer of the anomaly stack.
struct Signal {
  enum class Source { kHeartbeat, kSlo, kDetector, kMisconfig };
  sim::TimeNs at;
  Source source = Source::kHeartbeat;
  std::string detail;  // e.g. "pair nic0->gpu1", "alloc 3 bandwidth".
};

std::string_view SignalSourceName(Signal::Source source);

// One campaign-tick health poll: |healthy| means no raised heartbeat
// alarm, no new SLO violation, and no new anomaly during that tick.
struct HealthSample {
  sim::TimeNs at;
  bool healthy = true;
};

// Per-fault verdict.
struct FaultOutcome {
  GroundTruth fault;
  bool detected = false;
  sim::TimeNs detected_at;
  Signal::Source detected_by = Signal::Source::kHeartbeat;
  sim::TimeNs detection_latency;  // detected_at - fault.start.
  bool recovered = false;
  sim::TimeNs recovered_at;
  sim::TimeNs recovery_latency;  // recovered_at - fault.start.
};

// Per-trial aggregate.
struct TrialScore {
  std::vector<FaultOutcome> outcomes;
  int faults = 0;
  int detected = 0;
  int hard_faults = 0;
  int hard_detected = 0;
  int recovered = 0;
  int true_positive_signals = 0;
  int false_positive_signals = 0;
  double recall = 1.0;       // detected / faults (1.0 when no faults).
  double hard_recall = 1.0;  // Over hard (capacity-zero) faults only.
  double precision = 1.0;    // TP / (TP + FP) (1.0 when no signals).
  double mean_detection_latency_ms = 0.0;  // Over detected faults.
  double max_detection_latency_ms = 0.0;
  double mean_recovery_ms = 0.0;  // Over recovered faults.
};

// Counts, ratios and mean latencies over |outcomes| and the signals
// classified against them, summed in outcome order: one trial's score, or
// a campaign's aggregate over every trial's outcomes in trial order.
TrialScore Summarize(std::vector<FaultOutcome> outcomes, int true_positives,
                     int false_positives);

class Scorer {
 public:
  struct Config {
    // A signal up to this long after a fault window still attributes to it
    // (detector pipelines lag the fault by sampling + smoothing delay).
    sim::TimeNs grace = sim::TimeNs::Millis(5);
    // Consecutive healthy samples required to declare re-convergence.
    int convergence_ticks = 3;
  };

  explicit Scorer(Config config) : config_(config) {}

  TrialScore Score(const std::vector<GroundTruth>& faults,
                   const std::vector<Signal>& signals,
                   const std::vector<HealthSample>& health) const;

 private:
  Config config_;
};

}  // namespace mihn::chaos

#endif  // MIHN_SRC_CHAOS_SCORER_H_
