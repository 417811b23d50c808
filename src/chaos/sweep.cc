#include "src/chaos/sweep.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/chaos/campaign_file.h"
#include "src/chaos/json_util.h"
#include "src/core/read_number.h"

namespace mihn::chaos {
namespace {

using core::ReadNumber;

using json::Int;
using json::Num;
using json::Str;

bool Fail(std::string* error, int line, const std::string& what) {
  *error = "line " + std::to_string(line) + ": " + what;
  return false;
}

double Clamp01(double v) { return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v); }

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
  for (const SweepCellResult& cell : cells) {
    if (!cell.result.ok()) {
      return false;
    }
  }
  return true;
}

FaultSchedule ScaleSchedule(const FaultSchedule& schedule, double scale) {
  FaultSchedule scaled;
  for (FaultSpec spec : schedule.specs()) {
    switch (spec.kind) {
      case FaultKind::kDegrade:
        // Scale the capacity *cut*: factor 0.5 at scale 2 cuts everything
        // (factor 0), at scale 0.5 cuts a quarter (factor 0.75).
        spec.capacity_factor = Clamp01(1.0 - scale * (1.0 - spec.capacity_factor));
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
        spec.flap_duty = Clamp01(spec.flap_duty * scale);
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
  for (size_t i = 0; i < cells.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
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

SweepResult Sweep::Run(TrialExecutor& executor) {
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

  std::vector<TrialRun> runs = executor.Map(pairs.size(), [&](size_t i) {
    return campaigns[pairs[i].cell].RunTrial(pairs[i].trial);
  });

  // Strict (cell, trial)-order merge: slice the flat run list back into
  // per-cell groups and assemble each exactly like a serial campaign.
  size_t next = 0;
  out.cells.reserve(cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    const int trials = cells[c].config.trials < 0 ? 0 : cells[c].config.trials;
    std::vector<TrialRun> cell_runs;
    cell_runs.reserve(static_cast<size_t>(trials));
    for (int t = 0; t < trials; ++t) {
      cell_runs.push_back(std::move(runs[next++]));
    }
    SweepCellResult cell_result;
    cell_result.index = cells[c].index;
    cell_result.campaign = cells[c].campaign;
    cell_result.preset = cells[c].preset;
    cell_result.fault_scale = cells[c].fault_scale;
    cell_result.policy = cells[c].policy;
    cell_result.result = campaigns[c].Assemble(std::move(cell_runs));
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

bool ParseSweepText(std::string_view text, const std::string& base_dir,
                    SweepConfig* config, std::string* error) {
  std::istringstream lines{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream in(line);
    std::string directive;
    if (!(in >> directive)) {
      continue;  // Blank or comment-only line.
    }
    if (directive == "campaign") {
      SweepConfig::CampaignAxis axis;
      std::string path;
      if (!(in >> axis.name >> path)) {
        return Fail(error, line_no, "campaign: want <name> <path>");
      }
      const std::string resolved =
          (path.front() == '/' || base_dir.empty()) ? path : base_dir + "/" + path;
      std::string load_error;
      if (!LoadCampaignFile(resolved, &axis.config, &load_error)) {
        return Fail(error, line_no, "campaign " + axis.name + ": " + load_error);
      }
      config->campaigns.push_back(std::move(axis));
    } else if (directive == "preset") {
      std::string name;
      if (!(in >> name)) {
        return Fail(error, line_no, "preset: missing name");
      }
      const std::optional<HostNetwork::Preset> preset = ParsePresetName(name);
      if (!preset) {
        return Fail(error, line_no, "unknown preset '" + name + "'");
      }
      config->presets.push_back(*preset);
    } else if (directive == "scale") {
      double scale = 0.0;
      if (!ReadNumber(in, &scale) || !(scale > 0.0)) {
        return Fail(error, line_no, "scale: want a positive multiplier");
      }
      config->fault_scales.push_back(scale);
    } else if (directive == "policy") {
      std::string name;
      if (!(in >> name)) {
        return Fail(error, line_no, "policy: missing name");
      }
      const std::optional<RecoveryPolicy> policy = ParseRecoveryPolicy(name);
      if (!policy) {
        return Fail(error, line_no,
                    "unknown policy '" + name +
                        "' (want repair, reroute_only, restart_only, or none)");
      }
      config->policies.push_back(*policy);
    } else if (directive == "trials") {
      if (!ReadNumber(in, &config->trials) || config->trials < 1) {
        return Fail(error, line_no, "trials: want a positive count");
      }
    } else if (directive == "seed") {
      if (!ReadNumber(in, &config->seed)) {
        return Fail(error, line_no, "seed: want a non-negative integer");
      }
      config->has_seed = true;
    } else if (directive == "duration_ms") {
      // The campaign reader's ceiling: this override must not undo it.
      int64_t ms = 0;
      if (!ReadNumber(in, &ms) || ms < 1 || ms > kMaxCampaignMs) {
        return Fail(error, line_no, "duration_ms: want an integer in [1, " +
                                        std::to_string(kMaxCampaignMs) + "]");
      }
      config->duration = sim::TimeNs::Millis(ms);
    } else {
      return Fail(error, line_no, "unknown directive '" + directive + "'");
    }
    // As in campaign files, a directive ends at its last argument.
    std::string extra;
    if (in >> extra) {
      return Fail(error, line_no, directive + ": unexpected trailing '" + extra + "'");
    }
  }
  if (config->campaigns.empty()) {
    *error = "sweep defines no campaigns (want at least one 'campaign <name> <path>')";
    return false;
  }
  return true;
}

bool LoadSweepFile(const std::string& path, SweepConfig* config, std::string* error) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream text;
  text << file.rdbuf();
  const size_t slash = path.find_last_of('/');
  const std::string base_dir = slash == std::string::npos ? "" : path.substr(0, slash);
  return ParseSweepText(text.str(), base_dir, config, error);
}

}  // namespace mihn::chaos
