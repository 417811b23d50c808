// Sweeps: crossed grids of chaos campaigns, ranked into one report.
//
// A single campaign answers "does the anomaly stack catch this fault
// schedule?". The questions the paper actually raises are comparative —
// which recovery policy wins under which faults, how does detection hold
// up as faults intensify, does a policy that works on one topology work
// on another. A SweepConfig crosses campaign files × preset overrides ×
// fault-scale multipliers × recovery policies into a grid of cells; every
// (cell, trial) pair is an isolated simulation on its own clock, so the whole
// grid flattens into one work list for a core::WorkerPool.
//
// Determinism contract (same bar as the campaign and fleet layers): cell
// expansion order is the pure cross product (campaign, preset, scale,
// policy — innermost last), trial results merge per cell in strict trial
// order, and the ranking is a total order (exact-value key comparisons
// with the cell index as final tie-break). Two runs of the same sweep at
// any worker count emit byte-identical reports.

#ifndef MIHN_SRC_CHAOS_SWEEP_H_
#define MIHN_SRC_CHAOS_SWEEP_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/chaos/campaign.h"
#include "src/core/worker_pool.h"

namespace mihn::chaos {

struct SweepConfig {
  struct CampaignAxis {
    std::string name;       // Report label (e.g. the campaign file's stem).
    CampaignConfig config;  // Fully parsed campaign.
  };
  std::vector<CampaignAxis> campaigns;  // Required: at least one.
  // Optional axes; an empty axis means "each campaign's own value".
  std::vector<HostNetwork::Preset> presets;
  std::vector<double> fault_scales;      // Empty -> {1.0}.
  std::vector<RecoveryPolicy> policies;  // Empty -> campaign's policy.
  // Cross-cell overrides (applied to every cell when set).
  int trials = 0;                              // > 0 overrides.
  uint64_t seed = 0;                           // Used when has_seed.
  bool has_seed = false;
  sim::TimeNs duration = sim::TimeNs::Zero();  // > Zero overrides.
};

// One grid cell: a campaign config with every axis applied.
struct SweepCell {
  int index = 0;
  std::string campaign;
  std::string preset;
  double fault_scale = 1.0;
  RecoveryPolicy policy = RecoveryPolicy::kRepair;
  CampaignConfig config;
};

struct SweepCellResult {
  int index = 0;
  std::string campaign;
  std::string preset;
  double fault_scale = 1.0;
  RecoveryPolicy policy = RecoveryPolicy::kRepair;
  CampaignResult result;
};

struct SweepResult {
  std::vector<SweepCellResult> cells;  // Grid (expansion) order.
  // Cell indices, best first: hard_recall desc, recovery rate desc,
  // mean_recovery_ms asc, recall desc, precision desc,
  // mean_detection_latency_ms asc, index asc. Cells whose campaign failed
  // rank after every successful cell, ordered by index.
  std::vector<int> ranking;
  std::string error;  // Non-empty: the sweep itself could not run.
  bool ok() const { return error.empty(); }
  // True when every cell's campaign completed without a setup error.
  bool all_cells_ok() const;
};

// Scales a schedule's soft-fault intensity by |scale| (>= 0): degrade
// capacity cuts and flap duty multiply (clamped to [0, 1]), latency
// inflation multiplies (clamped to kMaxCampaignMs). kKill and kDdioOff are
// binary and pass through unchanged. scale 1.0 is the identity.
FaultSchedule ScaleSchedule(const FaultSchedule& schedule, double scale);

// Expands the pure cross product campaign × preset × scale × policy, in
// that nesting order (policy innermost), applying overrides and schedule
// scaling. Cell indices are assigned in expansion order.
std::vector<SweepCell> ExpandGrid(const SweepConfig& config);

// Deterministic total-order ranking of cells (see SweepResult::ranking).
std::vector<int> RankCells(const std::vector<SweepCellResult>& cells);

class Sweep {
 public:
  explicit Sweep(SweepConfig config);

  // Runs every (cell, trial) pair over |pool| and assembles per-cell
  // campaign results in strict (cell, trial) order, then ranks. The
  // report is byte-identical across worker counts.
  SweepResult Run(core::WorkerPool& pool);

 private:
  SweepConfig config_;
};

// Renders the ranked sweep report as a JSON document ending in a newline.
// Deterministic: same formatting contract as CampaignReportJson.
std::string SweepReportJson(const SweepResult& result);

// Writes SweepReportJson to |path|. Returns false on I/O failure.
bool WriteSweepReport(const SweepResult& result, const std::string& path);

// Parses the sweep-grid text format (see tools/mihn_chaos/campaigns/
// policy_grid.chaos). One directive per line, '#' comments:
//
//   campaign <name> <path>   # repeatable; path relative to |base_dir|
//   preset <preset_name>     # repeatable axis; empty -> campaign's own
//   scale <multiplier>       # repeatable axis; empty -> {1.0}
//   policy <policy_name>     # repeatable axis: repair, reroute_only,
//                            #   restart_only, none; empty -> campaign's
//   trials <n>               # override every cell
//   seed <n>                 # override every cell's base seed
//   duration_ms <n>          # override every cell, at most kMaxCampaignMs
//
// Read by the campaign reader's line loop (campaign_file.cc), so numbers
// are whole tokens and nothing may follow a directive's last argument.
bool ParseSweepText(std::string_view text, const std::string& base_dir,
                    SweepConfig* config, std::string* error);

// Reads and parses |path|; campaign paths resolve against its directory.
bool LoadSweepFile(const std::string& path, SweepConfig* config, std::string* error);

}  // namespace mihn::chaos

#endif  // MIHN_SRC_CHAOS_SWEEP_H_
