#include "src/chaos/report.h"

#include <fstream>
#include <sstream>

#include "src/core/json.h"
#include "src/topology/link.h"

namespace mihn::chaos {
namespace {

using core::json::Int;
using core::json::Num;
using core::json::Str;

void EmitOutcome(std::ostringstream& out, const FaultOutcome& o, const char* indent) {
  out << indent << "{\"fault_index\": " << o.fault.index
      << ", \"kind\": " << Str(FaultKindName(o.fault.kind))
      << ", \"link\": " << Int(o.fault.link)
      << ", \"hard\": " << (o.fault.hard ? "true" : "false")
      << ", \"window_ns\": [" << Int(o.fault.start.nanos()) << ", "
      << Int(o.fault.end.nanos()) << "]"
      << ", \"detected\": " << (o.detected ? "true" : "false");
  if (o.detected) {
    out << ", \"detected_at_ns\": " << Int(o.detected_at.nanos())
        << ", \"detected_by\": " << Str(SignalSourceName(o.detected_by))
        << ", \"detection_latency_ns\": " << Int(o.detection_latency.nanos());
  }
  out << ", \"recovered\": " << (o.recovered ? "true" : "false");
  if (o.recovered) {
    out << ", \"recovered_at_ns\": " << Int(o.recovered_at.nanos())
        << ", \"recovery_latency_ns\": " << Int(o.recovery_latency.nanos());
  }
  out << "}";
}

void EmitTrial(std::ostringstream& out, const TrialResult& tr) {
  out << "    {\n";
  out << "      \"trial\": " << tr.trial << ",\n";
  out << "      \"seed\": " << Int(static_cast<int64_t>(tr.seed)) << ",\n";
  out << "      \"probes_sent\": " << Int(static_cast<int64_t>(tr.probes_sent)) << ",\n";
  out << "      \"violations_total\": " << Int(static_cast<int64_t>(tr.violations_total))
      << ",\n";
  out << "      \"violations_dropped\": "
      << Int(static_cast<int64_t>(tr.violations_dropped)) << ",\n";
  out << "      \"anomalies\": " << Int(static_cast<int64_t>(tr.anomalies)) << ",\n";
  out << "      \"repairs\": " << Int(static_cast<int64_t>(tr.repairs)) << ",\n";
  out << "      \"stream_restarts\": " << Int(static_cast<int64_t>(tr.stream_restarts))
      << ",\n";
  out << "      \"injector_operations\": "
      << Int(static_cast<int64_t>(tr.injector_operations)) << ",\n";

  out << "      \"signals\": [";
  for (size_t i = 0; i < tr.signals.size(); ++i) {
    const Signal& s = tr.signals[i];
    out << (i == 0 ? "\n" : ",\n") << "        {\"at_ns\": " << Int(s.at.nanos())
        << ", \"source\": " << Str(SignalSourceName(s.source))
        << ", \"detail\": " << Str(s.detail) << "}";
  }
  out << (tr.signals.empty() ? "]" : "\n      ]") << ",\n";

  out << "      \"outcomes\": [";
  for (size_t i = 0; i < tr.score.outcomes.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    EmitOutcome(out, tr.score.outcomes[i], "        ");
  }
  out << (tr.score.outcomes.empty() ? "]" : "\n      ]") << ",\n";

  const TrialScore& s = tr.score;
  out << "      \"score\": {\n";
  out << "        \"faults\": " << s.faults << ",\n";
  out << "        \"detected\": " << s.detected << ",\n";
  out << "        \"hard_faults\": " << s.hard_faults << ",\n";
  out << "        \"hard_detected\": " << s.hard_detected << ",\n";
  out << "        \"true_positive_signals\": " << s.true_positive_signals << ",\n";
  out << "        \"false_positive_signals\": " << s.false_positive_signals << ",\n";
  out << "        \"recall\": " << Num(s.recall) << ",\n";
  out << "        \"hard_recall\": " << Num(s.hard_recall) << ",\n";
  out << "        \"precision\": " << Num(s.precision) << ",\n";
  out << "        \"mean_detection_latency_ms\": " << Num(s.mean_detection_latency_ms)
      << ",\n";
  out << "        \"max_detection_latency_ms\": " << Num(s.max_detection_latency_ms)
      << ",\n";
  out << "        \"mean_recovery_ms\": " << Num(s.mean_recovery_ms) << "\n";
  out << "      }\n";
  out << "    }";
}

}  // namespace

std::string CampaignReportJson(const CampaignResult& result) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"preset\": " << Str(result.preset_name) << ",\n";
  out << "  \"recovery\": " << Str(result.recovery_name) << ",\n";
  out << "  \"trials\": " << result.trials << ",\n";
  out << "  \"trials_completed\": " << result.trials_completed << ",\n";
  out << "  \"base_seed\": " << Int(static_cast<int64_t>(result.base_seed)) << ",\n";
  out << "  \"duration_ns\": " << Int(result.duration.nanos()) << ",\n";
  out << "  \"ok\": " << (result.ok() ? "true" : "false") << ",\n";
  if (!result.ok()) {
    out << "  \"error\": " << Str(result.error) << ",\n";
  }

  out << "  \"results\": [";
  for (size_t i = 0; i < result.results.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    EmitTrial(out, result.results[i]);
  }
  out << (result.results.empty() ? "]" : "\n  ]") << ",\n";

  out << "  \"aggregate\": {\n";
  out << "    \"faults\": " << result.faults_total << ",\n";
  out << "    \"detected\": " << result.detected_total << ",\n";
  out << "    \"hard_faults\": " << result.hard_faults_total << ",\n";
  out << "    \"hard_detected\": " << result.hard_detected_total << ",\n";
  out << "    \"true_positives\": " << result.true_positives_total << ",\n";
  out << "    \"false_positives\": " << result.false_positives_total << ",\n";
  out << "    \"recovered\": " << result.recovered_total << ",\n";
  out << "    \"recall\": " << Num(result.recall) << ",\n";
  out << "    \"hard_recall\": " << Num(result.hard_recall) << ",\n";
  out << "    \"precision\": " << Num(result.precision) << ",\n";
  out << "    \"mean_detection_latency_ms\": " << Num(result.mean_detection_latency_ms)
      << ",\n";
  out << "    \"mean_recovery_ms\": " << Num(result.mean_recovery_ms) << "\n";
  out << "  }\n";
  out << "}\n";
  return out.str();
}

bool WriteCampaignReport(const CampaignResult& result, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return false;
  }
  file << CampaignReportJson(result);
  return static_cast<bool>(file);
}

}  // namespace mihn::chaos
