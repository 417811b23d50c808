#include "src/chaos/scorer.h"

#include <algorithm>
#include <utility>

namespace mihn::chaos {

std::string_view SignalSourceName(Signal::Source source) {
  switch (source) {
    case Signal::Source::kHeartbeat:
      return "heartbeat";
    case Signal::Source::kSlo:
      return "slo";
    case Signal::Source::kDetector:
      return "detector";
    case Signal::Source::kMisconfig:
      return "misconfig";
  }
  return "unknown";
}

TrialScore Summarize(std::vector<FaultOutcome> outcomes, int true_positives,
                     int false_positives) {
  TrialScore score;
  score.outcomes = std::move(outcomes);
  score.faults = static_cast<int>(score.outcomes.size());
  score.true_positive_signals = true_positives;
  score.false_positive_signals = false_positives;
  double detect_sum_ms = 0.0;
  double recover_sum_ms = 0.0;
  for (const FaultOutcome& outcome : score.outcomes) {
    score.hard_faults += outcome.fault.hard ? 1 : 0;
    if (outcome.detected) {
      const double ms = static_cast<double>(outcome.detection_latency.nanos()) / 1e6;
      ++score.detected;
      score.hard_detected += outcome.fault.hard ? 1 : 0;
      detect_sum_ms += ms;
      score.max_detection_latency_ms = std::max(score.max_detection_latency_ms, ms);
    }
    if (outcome.recovered) {
      recover_sum_ms += static_cast<double>(outcome.recovery_latency.nanos()) / 1e6;
      ++score.recovered;
    }
  }
  if (score.faults > 0) {
    score.recall = static_cast<double>(score.detected) / score.faults;
  }
  if (score.hard_faults > 0) {
    score.hard_recall = static_cast<double>(score.hard_detected) / score.hard_faults;
  }
  const int total_signals = true_positives + false_positives;
  if (total_signals > 0) {
    score.precision = static_cast<double>(true_positives) / total_signals;
  }
  if (score.detected > 0) {
    score.mean_detection_latency_ms = detect_sum_ms / score.detected;
  }
  if (score.recovered > 0) {
    score.mean_recovery_ms = recover_sum_ms / score.recovered;
  }
  return score;
}

TrialScore Scorer::Score(const std::vector<GroundTruth>& faults,
                         const std::vector<Signal>& signals,
                         const std::vector<HealthSample>& health) const {
  auto in_window = [this](const GroundTruth& fault, sim::TimeNs at) {
    return at >= fault.start && at <= fault.end + config_.grace;
  };

  // Detection: earliest signal inside each fault's window.
  std::vector<FaultOutcome> outcomes;
  for (const GroundTruth& fault : faults) {
    FaultOutcome outcome;
    outcome.fault = fault;
    for (const Signal& signal : signals) {
      if (!in_window(fault, signal.at)) {
        continue;
      }
      if (!outcome.detected || signal.at < outcome.detected_at) {
        outcome.detected = true;
        outcome.detected_at = signal.at;
        outcome.detected_by = signal.source;
      }
    }
    if (outcome.detected) {
      outcome.detection_latency = outcome.detected_at - fault.start;
    }
    outcomes.push_back(outcome);
  }

  // Precision: a signal inside any fault window is a true positive.
  int true_positives = 0;
  for (const Signal& signal : signals) {
    const bool matched = std::any_of(
        faults.begin(), faults.end(),
        [&](const GroundTruth& fault) { return in_window(fault, signal.at); });
    true_positives += matched ? 1 : 0;
  }

  // Recovery: first run of convergence_ticks consecutive healthy samples
  // starting at or after the detection point.
  const int needed = std::max(config_.convergence_ticks, 1);
  for (FaultOutcome& outcome : outcomes) {
    if (!outcome.detected) {
      continue;
    }
    int streak = 0;
    for (const HealthSample& sample : health) {
      if (sample.at < outcome.detected_at) {
        continue;
      }
      streak = sample.healthy ? streak + 1 : 0;
      if (streak >= needed) {
        outcome.recovered = true;
        // The platform was already quiet at the start of the streak.
        outcome.recovered_at = sample.at;
        outcome.recovery_latency = outcome.recovered_at - outcome.fault.start;
        break;
      }
    }
  }
  return Summarize(std::move(outcomes), true_positives,
                   static_cast<int>(signals.size()) - true_positives);
}

}  // namespace mihn::chaos
