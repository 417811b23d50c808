#include "src/chaos/campaign.h"

#include <cstdio>
#include <memory>
#include <set>
#include <utility>

#include "src/anomaly/bank.h"
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

CampaignResult Campaign::Run() {
  std::vector<TrialRun> runs;
  runs.reserve(static_cast<size_t>(config_.trials));
  for (int trial = 0; trial < config_.trials; ++trial) {
    runs.push_back(RunTrial(trial));
    if (!runs.back().error.empty()) {
      break;  // Assemble truncates here; later trials would be discarded.
    }
  }
  return Assemble(std::move(runs));
}

CampaignResult Campaign::Run(TrialExecutor& executor) {
  return Assemble(executor.Map(
      static_cast<size_t>(config_.trials < 0 ? 0 : config_.trials),
      [this](size_t trial) { return RunTrial(static_cast<int>(trial)); }));
}

TrialRun Campaign::RunTrial(int trial) const {
  // Trial seeds derive from base_seed the same way on every path (serial,
  // pooled, sweep), so a trial's entire execution is a pure function of
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

  // Aggregate across trials from the per-fault outcomes.
  double detect_sum_ms = 0.0;
  double recover_sum_ms = 0.0;
  for (const TrialResult& tr : result.results) {
    result.faults_total += tr.score.faults;
    result.detected_total += tr.score.detected;
    result.hard_faults_total += tr.score.hard_faults;
    result.hard_detected_total += tr.score.hard_detected;
    result.true_positives_total += tr.score.true_positive_signals;
    result.false_positives_total += tr.score.false_positive_signals;
    for (const FaultOutcome& outcome : tr.score.outcomes) {
      if (outcome.detected) {
        detect_sum_ms += static_cast<double>(outcome.detection_latency.nanos()) / 1e6;
      }
      if (outcome.recovered) {
        recover_sum_ms += static_cast<double>(outcome.recovery_latency.nanos()) / 1e6;
        ++result.recovered_total;
      }
    }
  }
  if (result.faults_total > 0) {
    result.recall = static_cast<double>(result.detected_total) / result.faults_total;
  }
  if (result.hard_faults_total > 0) {
    result.hard_recall =
        static_cast<double>(result.hard_detected_total) / result.hard_faults_total;
  }
  const int signals_total = result.true_positives_total + result.false_positives_total;
  if (signals_total > 0) {
    result.precision = static_cast<double>(result.true_positives_total) / signals_total;
  }
  if (result.detected_total > 0) {
    result.mean_detection_latency_ms = detect_sum_ms / result.detected_total;
  }
  if (result.recovered_total > 0) {
    result.mean_recovery_ms = recover_sum_ms / result.recovered_total;
  }
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

  std::string resolve_error;
  std::vector<ResolvedFault> resolved = config_.schedule.Resolve(host.topo(), &resolve_error);
  if (!resolve_error.empty()) {
    *error = resolve_error;
    return result;
  }
  FaultInjector injector(host.fabric(), std::move(resolved), config_.duration);
  result.faults = injector.ground_truth();

  manager::SloMonitor::Config slo_config;
  slo_config.period = config_.tick;
  manager::SloMonitor slo(host.manager(), host.fabric(), slo_config);
  slo.Start();

  // Tenant streams (+ SLO intents for the guaranteed ones).
  struct StreamRuntime {
    std::unique_ptr<workload::StreamSource> source;
    manager::AllocationId allocation = manager::kInvalidAllocation;
  };
  std::vector<StreamRuntime> streams;
  for (size_t i = 0; i < config_.streams.size(); ++i) {
    const StreamSpec& spec = config_.streams[i];
    const auto src = ResolveEndpoint(host.server(), spec.src_kind, spec.src_index);
    const auto dst = ResolveEndpoint(host.server(), spec.dst_kind, spec.dst_index);
    if (!src || !dst) {
      *error = "stream " + std::to_string(i) + ": unresolvable endpoint";
      return result;
    }
    char name[32];
    std::snprintf(name, sizeof(name), "tenant%zu", i);
    const fabric::TenantId tenant = host.manager().RegisterTenant(name);

    StreamRuntime runtime;
    if (!spec.slo.IsZero()) {
      manager::PerformanceTarget target;
      target.src = *src;
      target.dst = *dst;
      target.bandwidth = spec.slo;
      const manager::SubmitResult submitted = host.manager().SubmitIntent(tenant, target);
      if (!submitted.ok()) {
        *error = "stream " + std::to_string(i) + ": intent rejected: " + submitted.error;
        return result;
      }
      runtime.allocation = submitted.id;
    }

    workload::StreamSource::Config source_config;
    source_config.src = *src;
    source_config.dst = *dst;
    source_config.demand = spec.demand;
    source_config.ddio_write = spec.ddio_write;
    source_config.tenant = tenant;
    source_config.name = name;
    runtime.source = std::make_unique<workload::StreamSource>(host.fabric(), source_config);
    runtime.source->Start();
    if (runtime.allocation != manager::kInvalidAllocation) {
      host.manager().AttachFlow(runtime.allocation, runtime.source->flow());
    }
    streams.push_back(std::move(runtime));
  }

  // Anomaly stack: mesh, detector bank, misconfig checker.
  std::unique_ptr<anomaly::HeartbeatMesh> mesh;
  if (config_.enable_mesh) {
    mesh = host.MakeHeartbeatMesh(config_.mesh);
    mesh->Start();
  }
  anomaly::DetectorBank bank;
  if (config_.enable_detector_bank) {
    const topology::Topology& topo = host.topo();
    for (topology::LinkId link = 0; link < static_cast<topology::LinkId>(topo.link_count());
         ++link) {
      for (const bool forward : {true, false}) {
        bank.Attach(telemetry::Collector::LinkUtilKey(link, forward),
                    std::make_unique<anomaly::EwmaDetector>(0.25, 6.0, 8));
      }
    }
    for (const topology::ComponentId socket : host.server().sockets) {
      bank.Attach(telemetry::Collector::CacheHitKey(socket),
                  std::make_unique<anomaly::EwmaDetector>(0.25, 6.0, 8));
    }
  }
  anomaly::MisconfigChecker misconfig(host.fabric());
  const std::set<std::string> misconfig_baseline =
      config_.enable_misconfig_check ? FlaggedKnobs(misconfig) : std::set<std::string>{};
  std::set<std::string> misconfig_active;

  injector.Arm();

  // The campaign tick: gather signals, drive recovery, sample health.
  struct TickState {
    size_t alarms_seen = 0;
    size_t closures_seen = 0;
    uint64_t violations_seen = 0;
  };
  TickState state;
  sim::EventHandle tick = host.simulation().SchedulePeriodic(
      config_.tick,
      [&] {
        MIHN_TRACE_SCOPE(host.fabric().tracer(), "chaos", "chaos.tick");
        const sim::TimeNs now = host.Now();
        bool new_signal = false;
        // An alarm closing is not a detection signal (no false positive),
        // but it is a recovery trigger: a cleared fault may leave streams
        // dead that only now have a route back.
        bool new_closure = false;

        if (mesh) {
          const auto& log = mesh->alarm_log();
          for (size_t i = state.alarms_seen; i < log.size(); ++i) {
            Signal signal;
            signal.at = log[i].raised_at;
            signal.source = Signal::Source::kHeartbeat;
            signal.detail = "pair " + host.topo().component(log[i].src).name + "->" +
                            host.topo().component(log[i].dst).name;
            result.signals.push_back(std::move(signal));
            new_signal = true;
          }
          state.alarms_seen = log.size();
          size_t closures = 0;
          for (const anomaly::HeartbeatMesh::AlarmEvent& event : log) {
            closures += event.cleared ? 1 : 0;
          }
          if (closures > state.closures_seen) {
            state.closures_seen = closures;
            new_closure = true;
          }
        }

        const uint64_t violations_total = slo.violations_total();
        if (violations_total > state.violations_seen) {
          const uint64_t fresh = violations_total - state.violations_seen;
          const auto& log = slo.violations();
          const size_t start = log.size() >= fresh ? log.size() - fresh : 0;
          for (size_t i = start; i < log.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "alloc %lld %s",
                          static_cast<long long>(log[i].allocation),
                          log[i].kind == manager::SloMonitor::Violation::Kind::kBandwidth
                              ? "bandwidth"
                              : "latency");
            Signal signal;
            signal.at = log[i].at;
            signal.source = Signal::Source::kSlo;
            signal.detail = buf;
            result.signals.push_back(std::move(signal));
          }
          state.violations_seen = violations_total;
          new_signal = true;
        }

        if (config_.enable_detector_bank) {
          for (const anomaly::Anomaly& anomaly : bank.Scan(host.collector())) {
            Signal signal;
            signal.at = anomaly.at;
            signal.source = Signal::Source::kDetector;
            signal.detail = anomaly.metric;
            result.signals.push_back(std::move(signal));
            new_signal = true;
          }
        }

        if (config_.enable_misconfig_check) {
          const std::set<std::string> flagged = FlaggedKnobs(misconfig);
          for (const std::string& knob : flagged) {
            if (!misconfig_baseline.contains(knob) && !misconfig_active.contains(knob)) {
              Signal signal;
              signal.at = now;
              signal.source = Signal::Source::kMisconfig;
              signal.detail = knob;
              result.signals.push_back(std::move(signal));
              misconfig_active.insert(knob);
              new_signal = true;
            }
          }
          std::erase_if(misconfig_active,
                        [&](const std::string& knob) { return !flagged.contains(knob); });
        }

        // Recovery policy: signals (never ground truth) trigger the
        // manager's re-placement and/or stream restarts onto fault-aware
        // routes — the honest "the platform caught and fixed it" loop.
        // Alarm closures re-run it so streams killed by a since-cleared
        // fault come back once a route exists again. kNone detects but
        // never acts (and never rebaselines): the status-quo baseline the
        // sweep ranks the active policies against.
        const bool repair_allocations =
            config_.recovery == RecoveryPolicy::kRepair ||
            config_.recovery == RecoveryPolicy::kRerouteOnly;
        const bool restart_streams = config_.recovery == RecoveryPolicy::kRepair ||
                                     config_.recovery == RecoveryPolicy::kRestartOnly;
        if ((repair_allocations || restart_streams) && (new_signal || new_closure)) {
          if (repair_allocations) {
            const std::vector<manager::AllocationId> repaired =
                host.manager().RepairFaultedAllocations();
            result.repairs += repaired.size();
          }
          if (restart_streams) {
            for (StreamRuntime& runtime : streams) {
              bool pinned_to_dead_path = false;
              const auto info = host.fabric().GetFlowInfo(runtime.source->flow());
              if (info && info->path != nullptr) {
                for (const topology::DirectedLink& hop : info->path->hops) {
                  if (host.fabric().EffectiveCapacity(hop).IsZero()) {
                    pinned_to_dead_path = true;
                    break;
                  }
                }
              } else {
                pinned_to_dead_path = true;  // Never started (or flow gone).
              }
              if (!pinned_to_dead_path) {
                continue;
              }
              runtime.source->Stop();
              runtime.source->Start();
              ++result.stream_restarts;
              if (runtime.allocation != manager::kInvalidAllocation &&
                  runtime.source->flow() != fabric::kInvalidFlow) {
                host.manager().AttachFlow(runtime.allocation, runtime.source->flow());
              }
            }
          }
          // Acknowledge-and-rebaseline: EwmaDetector deliberately keeps
          // firing on a sustained shift, so after taking recovery action
          // the operator re-learns the post-repair level. Without this, a
          // permanent (never-cleared) fault alarms every tick forever and
          // the trial can never converge back to healthy.
          bank.Rebaseline();
        }

        HealthSample sample;
        sample.at = now;
        sample.healthy = !new_signal && (!mesh || mesh->Alarms().empty());
        result.health.push_back(sample);
        MIHN_TRACE_COUNTER(host.fabric().tracer(), "chaos", "chaos.signals",
                           result.signals.size());
        MIHN_TRACE_COUNTER(host.fabric().tracer(), "chaos", "chaos.repairs",
                           result.repairs);
        MIHN_TRACE_COUNTER(host.fabric().tracer(), "chaos", "chaos.healthy",
                           sample.healthy ? 1 : 0);
      },
      "chaos.tick");

  {
    MIHN_TRACE_SPAN(trial_span, host.fabric().tracer(), "chaos", "chaos.trial");
    trial_span.Arg("trial", static_cast<double>(trial));
    trial_span.Arg("faults", static_cast<double>(result.faults.size()));
    host.RunFor(config_.duration);
  }
  tick.Cancel();

  result.probes_sent = mesh ? mesh->probes_sent() : 0;
  result.violations_total = slo.violations_total();
  result.violations_dropped = slo.violations_dropped();
  result.anomalies = bank.log().size();
  result.injector_operations = injector.operations();
  result.score = Scorer(config_.scoring).Score(result.faults, result.signals, result.health);
  return result;
}

}  // namespace mihn::chaos
