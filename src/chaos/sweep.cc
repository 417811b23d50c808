#include "src/chaos/sweep.h"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>
#include <utility>

#include "src/chaos/campaign_file.h"
#include "src/core/json.h"

namespace mihn::chaos {
namespace {

using core::json::Int;
using core::json::Num;
using core::json::Str;

// Recovery rate for ranking: recovered / faults, neutral (1.0) when the
// cell injected no faults at all.
double RecoveryRate(const CampaignResult& r) {
  if (r.faults_total <= 0) {
    return 1.0;
  }
  return static_cast<double>(r.recovered_total) / r.faults_total;
}

// Three-way key comparison without float equality tests (mihn-check D4):
// returns +1 when a ranks strictly better, -1 when strictly worse, 0 to
// fall through to the next key.
int BetterByDesc(double a, double b) { return a > b ? 1 : (a < b ? -1 : 0); }
int BetterByAsc(double a, double b) { return a < b ? 1 : (a > b ? -1 : 0); }

}  // namespace

bool SweepResult::all_cells_ok() const {
  return std::all_of(cells.begin(), cells.end(),
                     [](const SweepCellResult& cell) { return cell.result.ok(); });
}

FaultSchedule ScaleSchedule(const FaultSchedule& schedule, double scale) {
  FaultSchedule scaled;
  for (FaultSpec spec : schedule.specs()) {
    switch (spec.kind) {
      case FaultKind::kDegrade:
        // Scale the capacity *cut*: factor 0.5 at scale 2 cuts everything
        // (factor 0), at scale 0.5 cuts a quarter (factor 0.75).
        spec.capacity_factor = std::clamp(1.0 - scale * (1.0 - spec.capacity_factor), 0.0, 1.0);
        break;
      case FaultKind::kLatency: {
        // Clamp to the campaign ceiling before sim::Scale converts to
        // integer nanoseconds: an out-of-range conversion is undefined.
        const sim::TimeNs ceiling = sim::TimeNs::Millis(kMaxCampaignMs);
        const bool fits = static_cast<double>(spec.extra_latency.nanos()) * scale <
                          static_cast<double>(ceiling.nanos());
        spec.extra_latency = fits ? sim::Scale(spec.extra_latency, scale) : ceiling;
        break;
      }
      case FaultKind::kFlap:
        spec.flap_duty = std::clamp(spec.flap_duty * scale, 0.0, 1.0);
        break;
      case FaultKind::kKill:
      case FaultKind::kDdioOff:
        break;  // Binary faults have no intensity to scale.
    }
    scaled.Add(spec);
  }
  return scaled;
}

std::vector<SweepCell> ExpandGrid(const SweepConfig& config) {
  const std::vector<double> scales =
      config.fault_scales.empty() ? std::vector<double>{1.0} : config.fault_scales;
  std::vector<SweepCell> cells;
  for (const SweepConfig::CampaignAxis& campaign : config.campaigns) {
    // An empty preset axis keeps each campaign's own preset; model that as
    // a one-element axis so the loop structure stays uniform.
    const std::vector<HostNetwork::Preset> presets =
        config.presets.empty() ? std::vector<HostNetwork::Preset>{campaign.config.preset}
                               : config.presets;
    const std::vector<RecoveryPolicy> policies =
        config.policies.empty() ? std::vector<RecoveryPolicy>{campaign.config.recovery}
                                : config.policies;
    for (const HostNetwork::Preset preset : presets) {
      for (const double scale : scales) {
        for (const RecoveryPolicy policy : policies) {
          SweepCell cell;
          cell.index = static_cast<int>(cells.size());
          cell.campaign = campaign.name;
          cell.preset = std::string(PresetName(preset));
          cell.fault_scale = scale;
          cell.policy = policy;
          cell.config = campaign.config;
          cell.config.preset = preset;
          cell.config.recovery = policy;
          cell.config.schedule = ScaleSchedule(campaign.config.schedule, scale);
          if (config.trials > 0) {
            cell.config.trials = config.trials;
          }
          if (config.has_seed) {
            cell.config.base_seed = config.seed;
          }
          if (config.duration > sim::TimeNs::Zero()) {
            cell.config.duration = config.duration;
          }
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

std::vector<int> RankCells(const std::vector<SweepCellResult>& cells) {
  std::vector<int> order(cells.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&cells](int ia, int ib) {
    const CampaignResult& a = cells[static_cast<size_t>(ia)].result;
    const CampaignResult& b = cells[static_cast<size_t>(ib)].result;
    // Failed cells always rank after successful ones.
    if (a.ok() != b.ok()) {
      return a.ok();
    }
    if (a.ok()) {
      if (const int c = BetterByDesc(a.hard_recall, b.hard_recall)) {
        return c > 0;
      }
      if (const int c = BetterByDesc(RecoveryRate(a), RecoveryRate(b))) {
        return c > 0;
      }
      if (const int c = BetterByAsc(a.mean_recovery_ms, b.mean_recovery_ms)) {
        return c > 0;
      }
      if (const int c = BetterByDesc(a.recall, b.recall)) {
        return c > 0;
      }
      if (const int c = BetterByDesc(a.precision, b.precision)) {
        return c > 0;
      }
      if (const int c = BetterByAsc(a.mean_detection_latency_ms, b.mean_detection_latency_ms)) {
        return c > 0;
      }
    }
    return ia < ib;  // Grid order as the final (total-order) tie-break.
  });
  return order;
}

Sweep::Sweep(SweepConfig config) : config_(std::move(config)) {}

SweepResult Sweep::Run(core::WorkerPool& pool) {
  SweepResult out;
  const std::vector<SweepCell> cells = ExpandGrid(config_);
  if (cells.empty()) {
    out.error = "empty sweep grid: no campaigns configured";
    return out;
  }

  // One Campaign per cell, alive across the whole fan-out.
  std::vector<Campaign> campaigns;
  campaigns.reserve(cells.size());
  for (const SweepCell& cell : cells) {
    campaigns.emplace_back(cell.config);
  }

  // Flatten every (cell, trial) pair into one work list so the pool sees
  // maximum parallelism even when cells have few trials. Pair order is
  // cell-major, which is exactly the order results are consumed below.
  struct Pair {
    size_t cell = 0;
    int trial = 0;
  };
  std::vector<Pair> pairs;
  for (size_t c = 0; c < cells.size(); ++c) {
    const int trials = cells[c].config.trials < 0 ? 0 : cells[c].config.trials;
    for (int t = 0; t < trials; ++t) {
      pairs.push_back(Pair{c, t});
    }
  }

  std::vector<TrialRun> runs = pool.ParallelMap(pairs.size(), [&](size_t i) {
    return campaigns[pairs[i].cell].RunTrial(pairs[i].trial);
  });

  // Strict (cell, trial)-order merge: regroup the flat run list per cell
  // and assemble each group exactly as Campaign::Run does.
  std::vector<std::vector<TrialRun>> cell_runs(cells.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    cell_runs[pairs[i].cell].push_back(std::move(runs[i]));
  }
  out.cells.reserve(cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    SweepCellResult cell_result;
    cell_result.index = cells[c].index;
    cell_result.campaign = cells[c].campaign;
    cell_result.preset = cells[c].preset;
    cell_result.fault_scale = cells[c].fault_scale;
    cell_result.policy = cells[c].policy;
    cell_result.result = campaigns[c].Assemble(std::move(cell_runs[c]));
    out.cells.push_back(std::move(cell_result));
  }
  out.ranking = RankCells(out.cells);
  return out;
}

std::string SweepReportJson(const SweepResult& result) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"cells\": " << result.cells.size() << ",\n";
  out << "  \"ok\": " << (result.ok() ? "true" : "false") << ",\n";
  if (!result.ok()) {
    out << "  \"error\": " << Str(result.error) << ",\n";
  }
  out << "  \"all_cells_ok\": " << (result.all_cells_ok() ? "true" : "false") << ",\n";

  out << "  \"results\": [";
  for (size_t i = 0; i < result.cells.size(); ++i) {
    const SweepCellResult& cell = result.cells[i];
    const CampaignResult& r = cell.result;
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\n";
    out << "      \"cell\": " << cell.index << ",\n";
    out << "      \"campaign\": " << Str(cell.campaign) << ",\n";
    out << "      \"preset\": " << Str(cell.preset) << ",\n";
    out << "      \"fault_scale\": " << Num(cell.fault_scale) << ",\n";
    out << "      \"policy\": " << Str(RecoveryPolicyName(cell.policy)) << ",\n";
    out << "      \"ok\": " << (r.ok() ? "true" : "false") << ",\n";
    if (!r.ok()) {
      out << "      \"error\": " << Str(r.error) << ",\n";
    }
    out << "      \"trials\": " << r.trials << ",\n";
    out << "      \"trials_completed\": " << r.trials_completed << ",\n";
    out << "      \"base_seed\": " << Int(static_cast<int64_t>(r.base_seed)) << ",\n";
    out << "      \"duration_ns\": " << Int(r.duration.nanos()) << ",\n";
    out << "      \"aggregate\": {\n";
    out << "        \"faults\": " << r.faults_total << ",\n";
    out << "        \"detected\": " << r.detected_total << ",\n";
    out << "        \"hard_faults\": " << r.hard_faults_total << ",\n";
    out << "        \"hard_detected\": " << r.hard_detected_total << ",\n";
    out << "        \"true_positives\": " << r.true_positives_total << ",\n";
    out << "        \"false_positives\": " << r.false_positives_total << ",\n";
    out << "        \"recovered\": " << r.recovered_total << ",\n";
    out << "        \"recall\": " << Num(r.recall) << ",\n";
    out << "        \"hard_recall\": " << Num(r.hard_recall) << ",\n";
    out << "        \"precision\": " << Num(r.precision) << ",\n";
    out << "        \"recovery_rate\": " << Num(RecoveryRate(r)) << ",\n";
    out << "        \"mean_detection_latency_ms\": " << Num(r.mean_detection_latency_ms)
        << ",\n";
    out << "        \"mean_recovery_ms\": " << Num(r.mean_recovery_ms) << "\n";
    out << "      }\n";
    out << "    }";
  }
  out << (result.cells.empty() ? "]" : "\n  ]") << ",\n";

  out << "  \"ranking\": [";
  for (size_t rank = 0; rank < result.ranking.size(); ++rank) {
    const SweepCellResult& cell =
        result.cells[static_cast<size_t>(result.ranking[rank])];
    const CampaignResult& r = cell.result;
    out << (rank == 0 ? "\n" : ",\n");
    out << "    {\"rank\": " << (rank + 1) << ", \"cell\": " << cell.index
        << ", \"campaign\": " << Str(cell.campaign)
        << ", \"preset\": " << Str(cell.preset)
        << ", \"fault_scale\": " << Num(cell.fault_scale)
        << ", \"policy\": " << Str(RecoveryPolicyName(cell.policy))
        << ", \"ok\": " << (r.ok() ? "true" : "false")
        << ", \"hard_recall\": " << Num(r.hard_recall)
        << ", \"recall\": " << Num(r.recall)
        << ", \"precision\": " << Num(r.precision)
        << ", \"recovery_rate\": " << Num(RecoveryRate(r))
        << ", \"mean_recovery_ms\": " << Num(r.mean_recovery_ms)
        << ", \"mean_detection_latency_ms\": " << Num(r.mean_detection_latency_ms)
        << "}";
  }
  out << (result.ranking.empty() ? "]" : "\n  ]") << "\n";
  out << "}\n";
  return out.str();
}

bool WriteSweepReport(const SweepResult& result, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    return false;
  }
  file << SweepReportJson(result);
  return static_cast<bool>(file);
}

}  // namespace mihn::chaos
