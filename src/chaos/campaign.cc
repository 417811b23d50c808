#include "src/chaos/campaign.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "src/anomaly/bank.h"
#include "src/anomaly/heartbeat.h"
#include "src/anomaly/misconfig.h"
#include "src/manager/slo_monitor.h"
#include "src/obs/tracer.h"
#include "src/sim/random.h"
#include "src/telemetry/collector.h"
#include "src/workload/sources.h"

namespace mihn::chaos {

namespace {

// The preset's construction-order handle list for a component kind, or
// nullptr for kinds streams cannot terminate at.
const std::vector<topology::ComponentId>* PoolFor(const topology::Server& server,
                                                  topology::ComponentKind kind) {
  switch (kind) {
    case topology::ComponentKind::kNic:
      return &server.nics;
    case topology::ComponentKind::kGpu:
      return &server.gpus;
    case topology::ComponentKind::kNvmeSsd:
      return &server.ssds;
    case topology::ComponentKind::kCpuSocket:
      return &server.sockets;
    case topology::ComponentKind::kDimm:
      return &server.dimms;
    case topology::ComponentKind::kCxlMemory:
      return &server.cxl_memories;
    case topology::ComponentKind::kExternalHost:
      return &server.external_hosts;
    default:
      return nullptr;
  }
}

std::optional<topology::ComponentId> ResolveEndpoint(const topology::Server& server,
                                                     topology::ComponentKind kind,
                                                     int index) {
  const std::vector<topology::ComponentId>* pool = PoolFor(server, kind);
  if (pool == nullptr || index < 0 || static_cast<size_t>(index) >= pool->size()) {
    return std::nullopt;
  }
  return (*pool)[static_cast<size_t>(index)];
}

// Knobs currently flagged at warning or worse by the misconfig checker.
std::set<std::string> FlaggedKnobs(const anomaly::MisconfigChecker& checker) {
  std::set<std::string> knobs;
  for (const anomaly::Finding& finding : checker.Check()) {
    if (finding.severity != anomaly::Finding::Severity::kInfo) {
      knobs.insert(finding.knob);
    }
  }
  return knobs;
}

// One host's detection-and-recovery stack for a trial, and the campaign
// tick that gathers its signals, runs the recovery policy and samples
// health. It borrows the host, and through it the trial's clock.
class Rig {
 public:
  // Builds the stack and starts the SLO monitor, the streams and the mesh,
  // in that order: events at one time fire in the order they were
  // scheduled. Sets |*error| when a stream cannot be set up.
  Rig(HostNetwork& host, const CampaignConfig& config, std::vector<ResolvedFault> faults,
      std::string* error);

  const std::vector<GroundTruth>& ground_truth() const { return injector_.ground_truth(); }

  // Arms the injector, then schedules the campaign tick.
  void Start();

  // Cancels the tick and fills |result|'s signals, health and counters.
  void Finish(TrialResult* result);

 private:
  struct Stream {
    std::unique_ptr<workload::StreamSource> source;
    manager::AllocationId allocation = manager::kInvalidAllocation;
  };

  bool AddStream(size_t index, const StreamSpec& spec, std::string* error);
  void Tick();
  // Each appends its source's new signals; GatherAlarms also reports
  // whether an alarm cleared since the last tick.
  bool GatherAlarms();
  void GatherViolations();
  void GatherAnomalies();
  void GatherMisconfig();
  void Recover();
  bool OnDeadPath(const Stream& stream) const;

  HostNetwork& host_;
  const sim::TimeNs tick_period_;
  const bool repair_allocations_;
  const bool restart_streams_;
  FaultInjector injector_;
  manager::SloMonitor slo_;
  std::vector<Stream> streams_;
  std::unique_ptr<anomaly::HeartbeatMesh> mesh_;
  anomaly::DetectorBank bank_;
  anomaly::MisconfigChecker misconfig_;
  std::set<std::string> misconfig_baseline_;
  std::set<std::string> misconfig_active_;
  sim::EventHandle tick_;
  size_t alarms_seen_ = 0;
  size_t closures_seen_ = 0;
  uint64_t violations_seen_ = 0;
  std::vector<Signal> signals_;
  std::vector<HealthSample> health_;
  uint64_t repairs_ = 0;
  uint64_t stream_restarts_ = 0;
};

Rig::Rig(HostNetwork& host, const CampaignConfig& config, std::vector<ResolvedFault> faults,
         std::string* error)
    : host_(host),
      tick_period_(config.tick),
      repair_allocations_(config.recovery == RecoveryPolicy::kRepair ||
                          config.recovery == RecoveryPolicy::kRerouteOnly),
      restart_streams_(config.recovery == RecoveryPolicy::kRepair ||
                       config.recovery == RecoveryPolicy::kRestartOnly),
      injector_(host.fabric(), std::move(faults), config.duration),
      slo_(host.manager(), host.fabric(), manager::SloMonitor::Config{.period = config.tick}),
      misconfig_(host.fabric()) {
  slo_.Start();
  for (size_t i = 0; i < config.streams.size(); ++i) {
    if (!AddStream(i, config.streams[i], error)) {
      return;
    }
  }
  // Anomaly stack: a heartbeat mesh over every device, EWMA detectors over
  // every directed link's utilization series plus each socket's cache hit
  // rate, and a misconfiguration sweep whose findings beyond the trial's
  // baseline set signal once per appearance.
  mesh_ = host.MakeHeartbeatMesh();
  mesh_->Start();
  for (const topology::Link& link : host.topo().links()) {
    for (const bool forward : {true, false}) {
      bank_.Attach(telemetry::Collector::LinkUtilKey(link.id, forward),
                   std::make_unique<anomaly::EwmaDetector>(0.25, 6.0, 8));
    }
  }
  for (const topology::ComponentId socket : host.server().sockets) {
    bank_.Attach(telemetry::Collector::CacheHitKey(socket),
                 std::make_unique<anomaly::EwmaDetector>(0.25, 6.0, 8));
  }
  misconfig_baseline_ = FlaggedKnobs(misconfig_);
}

// A tenant stream, with an SLO intent whose allocation holds the stream's
// flow when the spec guarantees a bandwidth.
bool Rig::AddStream(size_t index, const StreamSpec& spec, std::string* error) {
  const auto src = ResolveEndpoint(host_.server(), spec.src_kind, spec.src_index);
  const auto dst = ResolveEndpoint(host_.server(), spec.dst_kind, spec.dst_index);
  if (!src || !dst) {
    *error = "stream " + std::to_string(index) + ": unresolvable endpoint";
    return false;
  }
  const fabric::TenantId tenant =
      host_.manager().RegisterTenant("tenant" + std::to_string(index));
  Stream stream;
  if (!spec.slo.IsZero()) {
    manager::PerformanceTarget target;
    target.src = *src;
    target.dst = *dst;
    target.bandwidth = spec.slo;
    const manager::SubmitResult submitted = host_.manager().SubmitIntent(tenant, target);
    if (!submitted.ok()) {
      *error = "stream " + std::to_string(index) + ": intent rejected: " + submitted.error;
      return false;
    }
    stream.allocation = submitted.id;
  }
  workload::StreamSource::Config source_config;
  source_config.src = *src;
  source_config.dst = *dst;
  source_config.demand = spec.demand;
  source_config.ddio_write = spec.ddio_write;
  source_config.tenant = tenant;
  stream.source = std::make_unique<workload::StreamSource>(host_.fabric(), source_config);
  stream.source->Start();
  if (stream.allocation != manager::kInvalidAllocation) {
    host_.manager().AttachFlow(stream.allocation, stream.source->flow());
  }
  streams_.push_back(std::move(stream));
  return true;
}

void Rig::Start() {
  injector_.Arm();
  tick_ = host_.simulation().SchedulePeriodic(tick_period_, [this] { Tick(); }, "chaos.tick");
}

// The campaign tick: gather signals, drive recovery, sample health.
void Rig::Tick() {
  MIHN_TRACE_SCOPE(host_.fabric().tracer(), "chaos", "chaos.tick");
  const size_t signals_before = signals_.size();
  const bool new_closure = GatherAlarms();
  GatherViolations();
  GatherAnomalies();
  GatherMisconfig();
  const bool new_signal = signals_.size() > signals_before;
  // kNone detects but never acts (and never rebaselines): the status-quo
  // baseline the sweep ranks the active policies against.
  if ((repair_allocations_ || restart_streams_) && (new_signal || new_closure)) {
    Recover();
  }
  // A pair is alarmed exactly while its alarm event is uncleared.
  const bool healthy = !new_signal && closures_seen_ == mesh_->alarm_log().size();
  health_.push_back(HealthSample{host_.Now(), healthy});
  MIHN_TRACE_COUNTER(host_.fabric().tracer(), "chaos", "chaos.signals", signals_.size());
  MIHN_TRACE_COUNTER(host_.fabric().tracer(), "chaos", "chaos.repairs", repairs_);
  MIHN_TRACE_COUNTER(host_.fabric().tracer(), "chaos", "chaos.healthy", healthy ? 1 : 0);
}

// An alarm closing is not a detection signal (no false positive), but it
// is a recovery trigger: a cleared fault may leave streams dead that only
// now have a route back.
bool Rig::GatherAlarms() {
  const auto& alarms = mesh_->alarm_log();
  for (size_t i = alarms_seen_; i < alarms.size(); ++i) {
    signals_.push_back(Signal{alarms[i].raised_at, Signal::Source::kHeartbeat,
                              "pair " + host_.topo().component(alarms[i].src).name + "->" +
                                  host_.topo().component(alarms[i].dst).name});
  }
  alarms_seen_ = alarms.size();
  const auto closures = static_cast<size_t>(std::count_if(
      alarms.begin(), alarms.end(), [](const auto& event) { return event.cleared; }));
  // An event clears at most once and the log only grows.
  const bool new_closure = closures > closures_seen_;
  closures_seen_ = closures;
  return new_closure;
}

void Rig::GatherViolations() {
  const uint64_t total = slo_.violations_total();
  const auto& log = slo_.violations();
  // The log may have evicted some of the fresh ones.
  const uint64_t fresh = std::min<uint64_t>(total - violations_seen_, log.size());
  for (size_t i = log.size() - fresh; i < log.size(); ++i) {
    const bool bandwidth = log[i].kind == manager::SloMonitor::Violation::Kind::kBandwidth;
    signals_.push_back(Signal{log[i].at, Signal::Source::kSlo,
                              "alloc " + std::to_string(log[i].allocation) +
                                  (bandwidth ? " bandwidth" : " latency")});
  }
  violations_seen_ = total;
}

void Rig::GatherAnomalies() {
  for (const anomaly::Anomaly& anomaly : bank_.Scan(host_.collector())) {
    signals_.push_back(Signal{anomaly.at, Signal::Source::kDetector, anomaly.metric});
  }
}

void Rig::GatherMisconfig() {
  const std::set<std::string> flagged = FlaggedKnobs(misconfig_);
  for (const std::string& knob : flagged) {
    if (!misconfig_baseline_.contains(knob) && misconfig_active_.insert(knob).second) {
      signals_.push_back(Signal{host_.Now(), Signal::Source::kMisconfig, knob});
    }
  }
  std::erase_if(misconfig_active_,
                [&](const std::string& knob) { return !flagged.contains(knob); });
}

// The recovery policy acts on signals, never on ground truth: the manager
// re-places faulted allocations, and streams pinned to a dead path restart
// onto fault-aware routes. Then the operator acknowledges and rebaselines:
// EwmaDetector deliberately keeps firing on a sustained shift, so without
// it a never-cleared fault would alarm every tick and the trial could never
// converge back to healthy.
void Rig::Recover() {
  if (repair_allocations_) {
    repairs_ += host_.manager().RepairFaultedAllocations().size();
  }
  for (Stream& stream : streams_) {
    if (!restart_streams_ || !OnDeadPath(stream)) {
      continue;
    }
    stream.source->Stop();
    stream.source->Start();
    ++stream_restarts_;
    if (stream.allocation != manager::kInvalidAllocation &&
        stream.source->flow() != fabric::kInvalidFlow) {
      host_.manager().AttachFlow(stream.allocation, stream.source->flow());
    }
  }
  bank_.Rebaseline();
}

// True when the stream's flow never started (or is gone), or its path
// crosses a link with no capacity left.
bool Rig::OnDeadPath(const Stream& stream) const {
  const auto info = host_.fabric().GetFlowInfo(stream.source->flow());
  if (!info || info->path == nullptr) {
    return true;
  }
  return std::any_of(info->path->hops.begin(), info->path->hops.end(),
                     [this](const topology::DirectedLink& hop) {
                       return host_.fabric().EffectiveCapacity(hop).IsZero();
                     });
}

void Rig::Finish(TrialResult* result) {
  tick_.Cancel();
  result->signals = std::move(signals_);
  result->health = std::move(health_);
  result->probes_sent = mesh_->probes_sent();
  result->violations_total = slo_.violations_total();
  result->violations_dropped = slo_.violations_dropped();
  result->anomalies = bank_.log().size();
  result->repairs = repairs_;
  result->stream_restarts = stream_restarts_;
  result->injector_operations = injector_.operations();
}

}  // namespace

std::string_view RecoveryPolicyName(RecoveryPolicy policy) {
  switch (policy) {
    case RecoveryPolicy::kRepair:
      return "repair";
    case RecoveryPolicy::kRerouteOnly:
      return "reroute_only";
    case RecoveryPolicy::kRestartOnly:
      return "restart_only";
    case RecoveryPolicy::kNone:
      return "none";
  }
  return "unknown";
}

std::optional<RecoveryPolicy> ParseRecoveryPolicy(std::string_view name) {
  for (const RecoveryPolicy policy :
       {RecoveryPolicy::kRepair, RecoveryPolicy::kRerouteOnly,
        RecoveryPolicy::kRestartOnly, RecoveryPolicy::kNone}) {
    if (name == RecoveryPolicyName(policy)) {
      return policy;
    }
  }
  return std::nullopt;
}

std::string_view PresetName(HostNetwork::Preset preset) {
  switch (preset) {
    case HostNetwork::Preset::kCommodityTwoSocket:
      return "commodity_two_socket";
    case HostNetwork::Preset::kDgxClass:
      return "dgx_class";
    case HostNetwork::Preset::kEdgeNode:
      return "edge_node";
  }
  return "unknown";
}

Campaign::Campaign(CampaignConfig config) : config_(std::move(config)) {}

CampaignResult Campaign::Run(core::WorkerPool& pool) {
  return Assemble(pool.ParallelMap(
      static_cast<size_t>(config_.trials < 0 ? 0 : config_.trials),
      [this](size_t trial) { return RunTrial(static_cast<int>(trial)); }));
}

TrialRun Campaign::RunTrial(int trial) const {
  // Trial seeds derive from base_seed the same way on every path (campaign
  // at any width, sweep), so a trial's entire execution is a pure function of
  // (config, trial index).
  const uint64_t seed =
      sim::Rng(config_.base_seed).Fork(static_cast<uint64_t>(trial) + 1).NextU64();
  TrialRun run;
  run.result = RunTrialImpl(trial, seed, &run.error);
  return run;
}

CampaignResult Campaign::Assemble(std::vector<TrialRun> runs) const {
  CampaignResult result;
  result.preset_name = std::string(PresetName(config_.preset));
  result.recovery_name = std::string(RecoveryPolicyName(config_.recovery));
  result.trials = config_.trials;
  result.base_seed = config_.base_seed;
  result.duration = config_.duration;

  for (size_t trial = 0; trial < runs.size(); ++trial) {
    if (!runs[trial].error.empty()) {
      // Built with std::string on purpose: long stream/fault diagnostics
      // must survive into the report intact.
      result.error = "trial " + std::to_string(trial) + ": " + runs[trial].error;
      break;
    }
    result.results.push_back(std::move(runs[trial].result));
  }
  result.trials_completed = static_cast<int>(result.results.size());
  if (!result.ok()) {
    // A failed campaign must not read as a perfect one: zero the
    // optimistic "no evidence" defaults and skip aggregation entirely.
    result.recall = 0.0;
    result.hard_recall = 0.0;
    result.precision = 0.0;
    return result;
  }

  // The aggregate summarizes every trial's outcomes at once, in trial order.
  std::vector<FaultOutcome> outcomes;
  int true_positives = 0;
  int false_positives = 0;
  for (const TrialResult& tr : result.results) {
    outcomes.insert(outcomes.end(), tr.score.outcomes.begin(), tr.score.outcomes.end());
    true_positives += tr.score.true_positive_signals;
    false_positives += tr.score.false_positive_signals;
  }
  const TrialScore total = Summarize(std::move(outcomes), true_positives, false_positives);
  result.faults_total = total.faults;
  result.detected_total = total.detected;
  result.hard_faults_total = total.hard_faults;
  result.hard_detected_total = total.hard_detected;
  result.true_positives_total = total.true_positive_signals;
  result.false_positives_total = total.false_positive_signals;
  result.recovered_total = total.recovered;
  result.recall = total.recall;
  result.hard_recall = total.hard_recall;
  result.precision = total.precision;
  result.mean_detection_latency_ms = total.mean_detection_latency_ms;
  result.mean_recovery_ms = total.mean_recovery_ms;
  return result;
}

TrialResult Campaign::RunTrialImpl(int trial, uint64_t seed, std::string* error) const {
  TrialResult result;
  result.trial = trial;
  result.seed = seed;

  HostNetwork::Options options;
  options.preset = config_.preset;
  options.telemetry.period = config_.telemetry_period;
  // Collector + manager running; telemetry processed in place so the
  // monitoring stream itself doesn't cross scheduled fault links.
  options.autostart = HostNetwork::Autostart::kAllUnreported;
  // The trial owns the clock and lends it to the host.
  sim::Simulation sim(seed);
  HostNetwork host(sim, options);

  std::vector<ResolvedFault> faults = config_.schedule.Resolve(host.topo(), error);
  if (!error->empty()) {
    return result;
  }
  Rig rig(host, config_, std::move(faults), error);
  if (!error->empty()) {
    return result;
  }
  result.faults = rig.ground_truth();
  rig.Start();
  {
    MIHN_TRACE_SPAN(trial_span, host.fabric().tracer(), "chaos", "chaos.trial");
    trial_span.Arg("trial", static_cast<double>(trial));
    trial_span.Arg("faults", static_cast<double>(result.faults.size()));
    host.RunFor(config_.duration);
  }
  rig.Finish(&result);
  result.score = Scorer(config_.scoring).Score(result.faults, result.signals, result.health);
  return result;
}

}  // namespace mihn::chaos
