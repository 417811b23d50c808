// Campaign: N seeded trials of workload + fault schedule, scored.
//
// Each trial builds a fresh HostNetwork (preset topology, collector,
// manager), lays tenant streams with SLO intents over it, arms the fault
// schedule, and runs the full anomaly stack — heartbeat mesh, detector
// bank over the collector's series, SLO monitor, misconfiguration checker
// — while a periodic campaign tick gathers their signals and drives the
// recovery policy (manager re-placement of dead-path allocations plus
// stream restarts onto fault-aware routes). The Scorer then joins signals
// against injected ground truth.
//
// Determinism: a campaign is a pure function of its config. Trial seeds
// derive from base_seed via sim::Rng::Fork; every event runs on the
// virtual clock; all iterated state lives in ordered containers. Two runs
// of the same config produce byte-identical reports
// (tests/chaos/campaign_test.cc holds this bar).

#ifndef MIHN_SRC_CHAOS_CAMPAIGN_H_
#define MIHN_SRC_CHAOS_CAMPAIGN_H_

#include <optional>
#include <string>
#include <vector>

#include "src/chaos/fault_schedule.h"
#include "src/chaos/scorer.h"
#include "src/core/worker_pool.h"
#include "src/host/host_network.h"
#include "src/sim/time.h"
#include "src/sim/units.h"

namespace mihn::chaos {

// What the campaign tick does when the anomaly stack raises a signal (or
// an alarm closure re-opens a routing option). The sweep front-end crosses
// these against fault grids, so "which recovery policy wins under which
// faults" is a one-command experiment.
enum class RecoveryPolicy {
  kRepair,       // Manager re-placement AND dead-path stream restarts.
  kRerouteOnly,  // Manager re-placement of faulted allocations only.
  kRestartOnly,  // Dead-path stream restarts only.
  kNone,         // Detect but never act (the paper's status-quo baseline).
};

std::string_view RecoveryPolicyName(RecoveryPolicy policy);
std::optional<RecoveryPolicy> ParseRecoveryPolicy(std::string_view name);

// One tenant stream, symbolic endpoints: component |src_index| of
// |src_kind| in the preset's construction order (nic 0, gpu 1, ...).
struct StreamSpec {
  topology::ComponentKind src_kind = topology::ComponentKind::kNic;
  int src_index = 0;
  topology::ComponentKind dst_kind = topology::ComponentKind::kCpuSocket;
  int dst_index = 0;
  sim::Bandwidth demand;
  // Non-zero: a PerformanceTarget of this bandwidth is submitted for the
  // stream's tenant and the stream's flow attached to the allocation, so
  // the SLO monitor (and the manager's recovery) covers it. Zero: best
  // effort.
  sim::Bandwidth slo;
  bool ddio_write = false;
};

struct CampaignConfig {
  HostNetwork::Preset preset = HostNetwork::Preset::kCommodityTwoSocket;
  int trials = 3;
  uint64_t base_seed = 1;
  sim::TimeNs duration = sim::TimeNs::Millis(100);
  // Campaign cadence: signal gathering, recovery policy, health sampling,
  // and the SLO monitor all run at this period.
  sim::TimeNs tick = sim::TimeNs::Millis(1);
  sim::TimeNs telemetry_period = sim::TimeNs::Millis(1);
  // Recovery action taken on new signals (and on alarm closures).
  RecoveryPolicy recovery = RecoveryPolicy::kRepair;
  Scorer::Config scoring;
  std::vector<StreamSpec> streams;
  FaultSchedule schedule;
};

struct TrialResult {
  int trial = 0;
  uint64_t seed = 0;
  std::vector<GroundTruth> faults;
  std::vector<Signal> signals;
  std::vector<HealthSample> health;
  TrialScore score;
  uint64_t probes_sent = 0;
  uint64_t violations_total = 0;
  uint64_t violations_dropped = 0;
  uint64_t anomalies = 0;
  uint64_t repairs = 0;
  uint64_t stream_restarts = 0;
  uint64_t injector_operations = 0;
};

struct CampaignResult {
  std::string preset_name;
  std::string recovery_name;
  int trials = 0;
  // Trials that ran to completion; < trials when a trial's setup failed
  // (results then holds exactly the completed trials before the failure).
  int trials_completed = 0;
  uint64_t base_seed = 0;
  sim::TimeNs duration;
  std::vector<TrialResult> results;

  // Aggregates over all trials.
  int faults_total = 0;
  int detected_total = 0;
  int hard_faults_total = 0;
  int hard_detected_total = 0;
  int true_positives_total = 0;
  int false_positives_total = 0;
  int recovered_total = 0;
  double recall = 1.0;
  double hard_recall = 1.0;
  double precision = 1.0;
  double mean_detection_latency_ms = 0.0;
  double mean_recovery_ms = 0.0;

  // Non-empty when setup failed (unresolvable fault reference, rejected
  // SLO intent, bad stream endpoint); results are then partial and every
  // aggregate above is zeroed — a broken campaign must never read as a
  // perfect run.
  std::string error;
  bool ok() const { return error.empty(); }
};

// One trial's outcome as produced by Campaign::RunTrial: either a result
// or a setup error (in which case |result| is meaningless).
struct TrialRun {
  TrialResult result;
  std::string error;
};

class Campaign {
 public:
  explicit Campaign(CampaignConfig config);

  // Runs every trial on |pool| and aggregates. Deterministic; no
  // wall-clock reads. Trials isolate all state in a fresh clock and
  // HostNetwork each, and results merge in strict trial order, so the
  // report is byte-identical at any worker count, a width-1 pool running
  // every trial inline (tests/chaos/executor_test.cc holds this bar).
  CampaignResult Run(core::WorkerPool& pool);

  // Building blocks for the sweep's flattened (cell, trial) fan-out.
  // RunTrial executes one Fork-seeded trial in isolation; Assemble merges
  // per-trial runs in strict index order, truncating at the first trial
  // error, and computes the aggregates.
  TrialRun RunTrial(int trial) const;
  CampaignResult Assemble(std::vector<TrialRun> runs) const;

 private:
  TrialResult RunTrialImpl(int trial, uint64_t seed, std::string* error) const;

  CampaignConfig config_;
};

std::string_view PresetName(HostNetwork::Preset preset);

}  // namespace mihn::chaos

#endif  // MIHN_SRC_CHAOS_CAMPAIGN_H_
