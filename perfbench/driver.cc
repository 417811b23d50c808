// perfbench_driver: runs one benchmark workload in this process and prints
// its metrics. perfbench/run.py builds and invokes it; see
// perfbench/README.md for the workloads, the metrics and how to read them.
//
//   perfbench_driver --workload <fleet_churn|fleet_pooled|host_mix|chaos_grid>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--smoke] [--root <repo root>]
//
// --trace 0 runs the workload untraced in three phases: the end-to-end
// metrics. --trace 1 runs one untraced and one traced phase: the per-layer
// split, and the tracing overhead as the difference of the two. Each phase
// is a closed loop of steps over freshly set-up instances, and every output
// digest is checked (across set-ups, serial/pooled, traced/untraced, and
// against the library's own reference path). The last stdout line is the
// result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// The libraries are driven only through their public API: the benchmark
// times calls into each layer from outside, installs its own
// sim::EventObserver, and hands fabrics profiling tracers through
// Fabric::set_tracer to read the spans and counters they already emit.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/measure.h"
#include "src/anomaly/bank.h"
#include "src/chaos/executor.h"
#include "src/chaos/sweep.h"
#include "src/fleet/fleet.h"
#include "src/host/host_network.h"
#include "src/workload/kv_client.h"
#include "src/workload/ml_trainer.h"
#include "src/workload/sources.h"

namespace mihn::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // Small inputs: checks the plumbing in seconds.
  std::string root = ".";
};

// -- Per-layer accounting --------------------------------------------------------

// Every per-layer metric, in report order. A workload fills what its layers
// do; the rest reads 0 ("this layer did no work here"), never missing.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.self_ms", "ms"},
    {"sim.pending_events", "count"},
    {"fabric.solve_ms", "ms"},
    {"fabric.solves", "count"},
    {"fabric.mutations", "count"},
    {"fabric.coalesce_ratio", "ratio"},
    {"fabric.flows_per_solve", "count"},
    {"fabric.rounds_per_solve", "count"},
    {"fabric.delta_fallback_ratio", "ratio"},
    {"fabric.noop_splice_ratio", "ratio"},
    {"fabric.completion_ms", "ms"},
    {"fabric.completion_self_ms", "ms"},
    {"topology.route_cache_hit_ratio", "ratio"},
    {"telemetry.sample_ms", "ms"},
    {"telemetry.self_ms", "ms"},
    {"telemetry.samples", "count"},
    {"telemetry.metrics_per_sample", "count"},
    {"manager.arbitrate_ms", "ms"},
    {"manager.self_ms", "ms"},
    {"manager.arbitrations", "count"},
    {"anomaly.scan_ms", "ms"},
    {"anomaly.anomalies", "count"},
    {"anomaly.probes_sent", "count"},
    {"workload.callback_ms", "ms"},
    {"workload.self_ms", "ms"},
    {"workload.kv_ops", "count"},
    {"workload.transfers_completed", "count"},
    {"fleet.self_ms", "ms"},
    {"core.workers", "count"},
    {"core.cores_available", "count"},
    {"core.parallelism", "ratio"},
    {"chaos.trial_ms", "ms"},
    {"chaos.assemble_ms", "ms"},
    {"chaos.report_ms", "ms"},
    {"chaos.probes_per_trial", "count"},
    {"chaos.signals_per_trial", "count"},
    {"chaos.repairs_per_trial", "count"},
    {"chaos.injector_ops_per_trial", "count"},
    {"trace.step_ms_p50", "ms"},
    {"trace.untraced_step_ms_p50", "ms"},
    {"trace.overhead_ms", "ms"},
};

using Layers = std::map<std::string, double>;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// One timed closed loop, over one or more freshly set-up instances.
struct Phase {
  bool traced = false;
  std::vector<double> step_ms;
  int64_t wall_ns = 0;  // Summed step wall time.
  int64_t cpu_ns = 0;   // Summed step process-CPU time.
  int64_t failed = 0;   // Failed steps (setup errors, digest mismatches).
  Layers totals;        // Per-layer sums over the phase, filled by the bench.
  Layers layers;        // Per-layer values derived from them (EndPhase).

  size_t steps() const { return step_ms.size(); }
  double PerStep(const char* total) const {
    const auto it = totals.find(total);
    return it != totals.end() && !step_ms.empty()
               ? it->second / static_cast<double>(step_ms.size())
               : 0.0;
  }
};

// Buckets an event by its scheduling label: the layer whose callback it is.
// Unlabeled events are workload sources, RPCs and heartbeat probes.
enum EventLayer { kCompletion, kTelemetry, kManager, kWorkload, kOtherEvent, kEventLayers };
EventLayer ClassifyEvent(const char* label) {
  if (label == nullptr) {
    return kWorkload;
  }
  if (std::strcmp(label, "fabric.completion") == 0) {
    return kCompletion;
  }
  if (std::strcmp(label, "telemetry.tick") == 0) {
    return kTelemetry;
  }
  if (std::strcmp(label, "manager.arbiter") == 0) {
    return kManager;
  }
  return kOtherEvent;
}

// The benchmark's own event observer: wall-times every event the engine
// runs. Events never nest (run to completion), so one open slot suffices.
class EventTimer : public sim::EventObserver {
 public:
  struct Record {
    const char* label = nullptr;
    Interval wall;
  };

  void OnEventBegin(const char* /*label*/, sim::TimeNs /*now*/, size_t /*depth*/) override {
    begin_ = WallNs();
  }
  void OnEventEnd(const char* label, sim::TimeNs /*now*/) override {
    records_.push_back({label, {begin_, WallNs()}});
  }

  // Appends the records since the last drain to |out|.
  void Drain(std::vector<Record>& out) {
    out.insert(out.end(), records_.begin(), records_.end());
    records_.clear();
  }

 private:
  int64_t begin_ = 0;
  std::vector<Record> records_;
};

// One fabric's trace sink: a profiling tracer handed to the fabric through
// Fabric::set_tracer, plus the latest value of each cumulative counter the
// fabric emits after every solve. One per fabric, because the counters are
// per-fabric totals that only difference correctly within one fabric.
class FabricProbe {
 public:
  enum Counter { kDeltaSolves, kDeltaFallbacks, kNoopSplices, kRouteHits, kRouteMisses, kCount };

  FabricProbe(size_t span_capacity, size_t counter_capacity)
      : tracer_(obs::TraceConfig{.enabled = true,
                                 .profiling = true,
                                 .span_capacity = span_capacity,
                                 .counter_capacity = counter_capacity}) {}

  obs::Tracer* tracer() { return &tracer_; }

  // For a fresh fabric, whose counters start from zero.
  void Reset() {
    tracer_.Clear();
    last_.fill(0.0);
    base_.fill(0.0);
  }

  // Moves the fabric.solve spans recorded since the last drain into
  // |solves| (wall intervals, with their flow/round args summed) and
  // updates the counters. Returns false if the ring overflowed.
  bool Drain(std::vector<Interval>& solves, double& flows_sum, double& rounds_sum) {
    for (const obs::Span& span : tracer_.spans()) {
      if (std::strcmp(span.name, "fabric.solve") != 0) {
        continue;
      }
      solves.push_back({span.wall_start_ns, span.wall_end_ns});
      for (uint32_t a = 0; a < span.num_args; ++a) {
        if (std::strcmp(span.args[a].key, "flows") == 0) {
          flows_sum += span.args[a].value;
        } else if (std::strcmp(span.args[a].key, "rounds") == 0) {
          rounds_sum += span.args[a].value;
        }
      }
    }
    for (const obs::CounterSample& sample : tracer_.counters()) {
      const int index = CounterIndex(sample.name);
      if (index >= 0) {
        last_[static_cast<size_t>(index)] = sample.value;
      }
    }
    tracer_.Clear();
    return tracer_.dropped_spans() == 0 && tracer_.dropped_counters() == 0;
  }

  // The counters' values now become the zero the timed steps count from.
  void MarkBase() { base_ = last_; }
  double Delta(Counter c) const {
    return last_[static_cast<size_t>(c)] - base_[static_cast<size_t>(c)];
  }

 private:
  static int CounterIndex(const char* name) {
    static constexpr const char* kNames[kCount] = {
        "fabric.delta_solves", "fabric.delta_fallbacks", "fabric.delta_noop_splices",
        "fabric.route_cache_hits", "fabric.route_cache_misses"};
    for (int i = 0; i < kCount; ++i) {
      if (std::strcmp(name, kNames[i]) == 0) {
        return i;
      }
    }
    return -1;
  }

  obs::Tracer tracer_;
  std::array<double, kCount> last_{};
  std::array<double, kCount> base_{};
};

using Probes = std::vector<std::unique_ptr<FabricProbe>>;

// The traced split of one phase: fabric.solve spans, engine events (each
// with its self time: its duration minus the solves it triggered), and the
// fabrics' delta-solver and route-cache counters.
class TraceSplit {
 public:
  // Drains everything recorded since the last drain without counting it
  // (set-up and warm-up work), and zeroes the counters' baseline.
  void Discard(Probes& probes, EventTimer& events) {
    double flows_sum = 0, rounds_sum = 0;
    Collect(probes, events, flows_sum, rounds_sum);
    solves_.clear();
    events_.clear();
    for (auto& probe : probes) {
      probe->MarkBase();
    }
  }

  // Drains and folds one step's records. merged() is then that step's
  // solves ∪ events, sorted by start: the children of the step.
  void Step(Probes& probes, EventTimer& events) {
    Collect(probes, events, flows_sum_, rounds_sum_);
    std::sort(solves_.begin(), solves_.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
    merged_.assign(solves_.begin(), solves_.end());
    for (const Interval& s : solves_) {
      solve_ns_ += static_cast<double>(s.length());
    }
    solves_n_ += static_cast<double>(solves_.size());
    for (const EventTimer::Record& e : events_) {
      const EventLayer layer = ClassifyEvent(e.label);
      event_ns_[layer] += static_cast<double>(e.wall.length());
      event_self_ns_[layer] += static_cast<double>(SelfNs(e.wall, solves_));
      merged_.push_back(e.wall);
    }
    std::sort(merged_.begin(), merged_.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
    solves_.clear();
    events_.clear();
  }
  const std::vector<Interval>& merged() const { return merged_; }

  // At the end of an instance's life: its counters since MarkBase.
  void FoldCounters(const Probes& probes) {
    for (const auto& probe : probes) {
      for (int c = 0; c < FabricProbe::kCount; ++c) {
        counters_[static_cast<size_t>(c)] += probe->Delta(static_cast<FabricProbe::Counter>(c));
      }
    }
  }

  void Report(size_t steps, Layers& l) const {
    const auto ms_per_step = [steps](double ns) {
      return steps > 0 ? ns / static_cast<double>(steps) / 1e6 : 0.0;
    };
    l["fabric.solve_ms"] = ms_per_step(solve_ns_);
    l["fabric.flows_per_solve"] = Ratio(flows_sum_, solves_n_);
    l["fabric.rounds_per_solve"] = Ratio(rounds_sum_, solves_n_);
    const auto put = [&](EventLayer layer, const char* total, const char* self) {
      l[total] = ms_per_step(event_ns_[layer]);
      l[self] = ms_per_step(event_self_ns_[layer]);
    };
    put(kCompletion, "fabric.completion_ms", "fabric.completion_self_ms");
    put(kTelemetry, "telemetry.sample_ms", "telemetry.self_ms");
    put(kManager, "manager.arbitrate_ms", "manager.self_ms");
    put(kWorkload, "workload.callback_ms", "workload.self_ms");
    const auto counter = [this](FabricProbe::Counter c) { return counters_[c]; };
    const double delta_solves = counter(FabricProbe::kDeltaSolves);
    l["fabric.delta_fallback_ratio"] = Ratio(counter(FabricProbe::kDeltaFallbacks), delta_solves);
    l["fabric.noop_splice_ratio"] = Ratio(counter(FabricProbe::kNoopSplices), delta_solves);
    const double hits = counter(FabricProbe::kRouteHits);
    l["topology.route_cache_hit_ratio"] = Ratio(hits, hits + counter(FabricProbe::kRouteMisses));
    if (!complete_) {
      std::printf("# warning: trace ring overflow, the per-layer split is partial\n");
    }
  }

 private:
  void Collect(Probes& probes, EventTimer& events, double& flows_sum, double& rounds_sum) {
    for (auto& probe : probes) {
      complete_ = probe->Drain(solves_, flows_sum, rounds_sum) && complete_;
    }
    events.Drain(events_);
  }

  std::vector<Interval> solves_;
  std::vector<EventTimer::Record> events_;
  std::vector<Interval> merged_;
  double solve_ns_ = 0, solves_n_ = 0, flows_sum_ = 0, rounds_sum_ = 0;
  std::array<double, kEventLayers> event_ns_{}, event_self_ns_{};
  std::array<double, FabricProbe::kCount> counters_{};
  bool complete_ = true;
};

// -- The workload interface ---------------------------------------------------

// One workload. The measurement loop sets an instance up (timed: setup_s),
// runs closed-loop steps on it (timed), and between steps lets it take
// digests and drain traces (untimed). Every EpisodeSteps() steps the
// instance is torn down and set up afresh, so every run samples the same
// instance ages, and several memory layouts, however fast the machine is.
class Bench {
 public:
  virtual ~Bench() = default;
  // Builds a fresh instance; |traced| installs the trace sinks.
  virtual void Setup(bool traced) = 0;
  // Untimed work before the first step (caches, pools, first solves).
  virtual void Warmup() {}
  // One step of the closed loop. Returns false when the step failed.
  virtual bool Step() = 0;
  // Untimed, after every step: checkpoints, counters, trace drains.
  virtual void AfterStep(Interval step, Phase& phase) = 0;
  // Folds the instance's counters into |phase| and destroys it.
  virtual void Teardown(Phase& phase) = 0;
  // After the phase's last Teardown: phase.totals -> phase.layers.
  virtual void EndPhase(Phase& phase) = 0;
  // Checks against another configuration or the library's reference path
  // after all phases ran. Returns the number of failed checks.
  virtual int CrossCheck() { return 0; }
  virtual int64_t EpisodeSteps() const = 0;
  virtual void PrintDigests() const = 0;
};

// -- fleet_churn / fleet_pooled --------------------------------------------------

struct FleetShape {
  int hosts = 1024;
  int flows_per_host = 128;
  int warmup_ticks = 2;
  int checkpoint_tick = 8;  // Digest taken after this many ticks.
  // Ticks per instance. Tick cost depends on where a set-up's flow tables
  // land in memory, so a run averages over several set-ups.
  int episode_ticks = 20;
};

// Cross-host traffic as bench_fleet places it: one intra-rack and one
// cross-rack flow per 16 hosts, disjoint pairs, two tenants.
void PlaceCrossHostFlows(fleet::Fleet& f) {
  for (int src = 0; src + 5 < f.host_count(); src += 16) {
    fleet::CrossHostFlowSpec near;
    near.tenant = 7;
    near.src_host = src;
    near.dst_host = src + 5;
    f.StartCrossHostFlow(near);
    if (src + 40 < f.host_count()) {
      fleet::CrossHostFlowSpec far;
      far.tenant = 9;
      far.src_host = src + 2;
      far.dst_host = src + 40;
      far.demand = sim::Bandwidth::Gbps(80);
      f.StartCrossHostFlow(far);
    }
  }
}

// One fleet with its flows placed and a seeded churn stream: every tick
// changes one (random) flow's demand on every host, then ticks.
class FleetInstance {
 public:
  FleetInstance(const FleetShape& shape, int workers, uint64_t seed, Probes* probes)
      : fleet_(shape.hosts, [&] {
          fleet::Fleet::Options options;
          options.seed = seed;
          options.worker_threads = workers;
          return options;
        }()),
        rng_(seed ^ 0x5eedf1ee7ULL) {
    if (probes != nullptr) {
      for (int h = 0; h < fleet_.host_count(); ++h) {
        fleet_.host(h).fabric().set_tracer((*probes)[static_cast<size_t>(h)]->tracer());
      }
    }
    PlaceCrossHostFlows(fleet_);
    flows_.resize(static_cast<size_t>(fleet_.host_count()));
    for (int h = 0; h < fleet_.host_count(); ++h) {
      fabric::Fabric& fabric = fleet_.host(h).fabric();
      const topology::Server& server = fleet_.host(h).server();
      const auto route_a = *fabric.Route(server.ssds[0], server.dimms[0]);
      const auto route_b = *fabric.Route(server.nics[0], server.dimms[0]);
      for (int i = 0; i < shape.flows_per_host; ++i) {
        fabric::FlowSpec spec;
        spec.path = (i % 2 == 0) ? route_a : route_b;
        spec.tenant = 11 + i % 3;
        spec.demand = sim::Bandwidth::Gbps(static_cast<double>(rng_.UniformInt(1, 16)));
        flows_[static_cast<size_t>(h)].push_back(fabric.StartFlow(spec));
      }
    }
  }

  void Tick() {
    for (int h = 0; h < fleet_.host_count(); ++h) {
      const auto& flows = flows_[static_cast<size_t>(h)];
      const auto pick = rng_.UniformInt(0, static_cast<int64_t>(flows.size()) - 1);
      fleet_.host(h).fabric().SetFlowDemand(
          flows[static_cast<size_t>(pick)],
          sim::Bandwidth::Gbps(static_cast<double>(rng_.UniformInt(2, 8))));
    }
    fleet_.Tick();
    ++ticks_;
  }

  int ticks() const { return ticks_; }
  fleet::Fleet& fleet() { return fleet_; }

  // Summed public fabric counters (reading them never forces a solve).
  std::pair<double, double> SolvesAndMutations() {
    uint64_t solves = 0, mutations = 0;
    for (int h = 0; h < fleet_.host_count(); ++h) {
      solves += fleet_.host(h).fabric().recompute_count();
      mutations += fleet_.host(h).fabric().mutation_count();
    }
    return {static_cast<double>(solves), static_cast<double>(mutations)};
  }

 private:
  fleet::Fleet fleet_;
  sim::Rng rng_;
  std::vector<std::vector<fabric::FlowId>> flows_;
  int ticks_ = 0;
};

class FleetBench : public Bench {
 public:
  FleetBench(FleetShape shape, bool pooled, uint64_t seed, int cores)
      : shape_(shape), pooled_(pooled), seed_(seed), cores_(cores) {}

  void Setup(bool traced) override {
    // The profiling tracer is single-threaded, so only the serial fleet is
    // traced; the pooled traced phase records wall, CPU and parallelism.
    traced_ = traced && !pooled_;
    if (traced_) {
      if (probes_.empty()) {
        for (int h = 0; h < shape_.hosts; ++h) {
          probes_.push_back(std::make_unique<FabricProbe>(256, 1024));
        }
      }
      for (auto& probe : probes_) {
        probe->Reset();
      }
    }
    instance_ = std::make_unique<FleetInstance>(shape_, pooled_ ? cores_ : 0, seed_,
                                                traced_ ? &probes_ : nullptr);
    if (traced_) {
      instance_->fleet().simulation().SetEventObserver(&events_);
    }
  }

  void Warmup() override {
    for (int i = 0; i < shape_.warmup_ticks; ++i) {
      instance_->Tick();
      Checkpoint();
    }
    if (traced_) {
      split_.Discard(probes_, events_);
    }
    events_base_ = static_cast<double>(instance_->fleet().simulation().events_executed());
    counters_base_ = instance_->SolvesAndMutations();
  }

  bool Step() override {
    instance_->Tick();
    return true;
  }

  void AfterStep(Interval step, Phase& phase) override {
    if (!Checkpoint()) {
      ++phase.failed;
    }
    phase.totals["sim.pending_events"] +=
        static_cast<double>(instance_->fleet().simulation().pending_events());
    if (traced_) {
      // Fleet self time: the tick minus the solves and event callbacks in
      // it — coupling, staged apply, aggregation and the churn itself.
      split_.Step(probes_, events_);
      phase.totals["fleet.self_ms"] += Ms(SelfNs(step, split_.merged()));
    }
  }

  void Teardown(Phase& phase) override {
    fleet::Fleet& f = instance_->fleet();
    const auto [solves, mutations] = instance_->SolvesAndMutations();
    phase.totals["sim.events"] +=
        static_cast<double>(f.simulation().events_executed()) - events_base_;
    phase.totals["fabric.solves"] += solves - counters_base_.first;
    phase.totals["fabric.mutations"] += mutations - counters_base_.second;
    phase.layers["core.workers"] = f.worker_parallelism();
    if (traced_) {
      split_.FoldCounters(probes_);
    }
    instance_.reset();
  }

  void EndPhase(Phase& phase) override {
    Layers& l = phase.layers;
    for (const char* name : {"sim.events", "sim.pending_events", "fabric.solves",
                             "fabric.mutations", "fleet.self_ms"}) {
      l[name] = phase.PerStep(name);
    }
    l["sim.events_per_s"] =
        Ratio(phase.totals["sim.events"], static_cast<double>(phase.wall_ns) / 1e9);
    l["fabric.coalesce_ratio"] =
        Ratio(phase.totals["fabric.mutations"], phase.totals["fabric.solves"]);
    if (traced_) {
      split_.Report(phase.steps(), l);
    }
  }

  int CrossCheck() override {
    // The other worker count must reproduce the checkpoint digest: serial
    // and pooled ticks are byte-identical by the fleet's contract.
    FleetInstance other(shape_, pooled_ ? 0 : cores_, seed_, nullptr);
    while (other.ticks() < shape_.checkpoint_tick) {
      other.Tick();
    }
    other_digest_ = other.fleet().TelemetryDigest();
    return ledger_.Record("fleet.checkpoint", other_digest_) ? 0 : 1;
  }

  int64_t EpisodeSteps() const override { return shape_.episode_ticks; }

  void PrintDigests() const override {
    const auto it = ledger_.reference().find("fleet.checkpoint");
    std::printf("# digest fleet.checkpoint@tick%d = %s (%s); %s fleet = %s\n",
                shape_.checkpoint_tick,
                it != ledger_.reference().end() ? Hex(it->second).c_str() : "none",
                ledger_.mismatches() == 0 ? "every set-up and mode agrees" : "MISMATCH",
                pooled_ ? "serial" : "pooled", Hex(other_digest_).c_str());
  }

 private:
  // Records the digest once the checkpoint tick is reached.
  bool Checkpoint() {
    if (instance_->ticks() != shape_.checkpoint_tick) {
      return true;
    }
    return ledger_.Record("fleet.checkpoint", instance_->fleet().TelemetryDigest());
  }

  FleetShape shape_;
  bool pooled_;
  uint64_t seed_;
  int cores_;
  bool traced_ = false;
  // Declared before the instance: fabrics hold raw pointers into the
  // probes and the clock holds the observer, so both outlive the fleet.
  Probes probes_;
  EventTimer events_;
  std::unique_ptr<FleetInstance> instance_;
  TraceSplit split_;
  double events_base_ = 0;
  std::pair<double, double> counters_base_;
  DigestLedger ledger_;
  uint64_t other_digest_ = 0;
};

// -- host_mix ---------------------------------------------------------------------

struct HostMixShape {
  int episode_ms = 400;     // Virtual ms per instance.
  int checkpoint_ms = 200;  // Digest taken after this many virtual ms.
};

// One managed two-socket host running the paper's §2 co-location mix.
class HostMixInstance {
 public:
  HostMixInstance(uint64_t seed, obs::Tracer* tracer, sim::EventObserver* observer)
      : sim_(seed), host_(sim_, [] {
          HostNetwork::Options options;
          options.autostart = HostNetwork::Autostart::kAll;
          return options;
        }()) {
    if (tracer != nullptr) {
      host_.fabric().set_tracer(tracer);
    }
    if (observer != nullptr) {
      sim_.SetEventObserver(observer);
    }
    const topology::Server& server = host_.server();
    fabric::Fabric& fabric = host_.fabric();
    manager::Manager& manager = host_.manager();

    workload::KvClient::Config kv;
    kv.client = server.external_hosts[0];
    kv.server = server.sockets[0];
    kv.concurrency = 4;
    kv.tenant = manager.RegisterTenant("kv");
    kv_ = std::make_unique<workload::KvClient>(fabric, kv);

    workload::MlTrainer::Config ml;
    ml.data_source = server.dimms[0];  // Behind socket 0: shares rp0 with nic0.
    ml.gpu = server.gpus[0];
    ml.batch_bytes = 64LL * 1024 * 1024;
    ml.compute_time = sim::TimeNs::Millis(2);
    ml.tenant = manager.RegisterTenant("ml");
    trainer_ = std::make_unique<workload::MlTrainer>(fabric, ml);

    workload::PoissonSource::Config nvme;
    nvme.src = server.ssds[0];
    nvme.dst = server.dimms[1];
    nvme.arrivals_per_sec = 20000.0;
    nvme.mean_bytes = 64 * 1024;
    nvme.pareto_alpha = 1.3;
    nvme.tenant = manager.RegisterTenant("storage");
    nvme.rng_stream = 101;
    nvme_ = std::make_unique<workload::PoissonSource>(fabric, nvme);

    workload::BurstySource::Config ddio;
    ddio.src = server.nics[1];
    ddio.dst = server.sockets[0];
    ddio.ddio_write = true;
    ddio.tenant = manager.RegisterTenant("ingest");
    ddio.rng_stream = 102;
    bursty_ = std::make_unique<workload::BurstySource>(fabric, ddio);

    // An SLO-backed replication stream: the manager reserves its share and
    // the work-conserving arbiter enforces it every quantum.
    workload::StreamSource::Config replica;
    replica.src = server.nics[2];
    replica.dst = server.sockets[1];
    replica.demand = sim::Bandwidth::Gbps(60);
    replica.tenant = manager.RegisterTenant("replica");
    manager::PerformanceTarget target;
    target.src = replica.src;
    target.dst = replica.dst;
    target.bandwidth = sim::Bandwidth::Gbps(32);
    const manager::SubmitResult admitted = manager.SubmitIntent(replica.tenant, target);
    setup_ok_ = admitted.ok();
    stream_ = std::make_unique<workload::StreamSource>(fabric, replica);

    mesh_ = host_.MakeHeartbeatMesh();
    const topology::Topology& topo = host_.topo();
    for (topology::LinkId link = 0; link < static_cast<topology::LinkId>(topo.link_count());
         ++link) {
      for (const bool forward : {true, false}) {
        bank_.Attach(telemetry::Collector::LinkUtilKey(link, forward),
                     std::make_unique<anomaly::EwmaDetector>(0.25, 6.0, 8));
      }
    }

    kv_->Start();
    trainer_->Start();
    nvme_->Start();
    bursty_->Start();
    stream_->Start();
    if (setup_ok_) {
      manager.AttachFlow(admitted.id, stream_->flow());
    }
    mesh_->Start();
  }

  // One step: a virtual millisecond, then the detector scan over the
  // collector's new samples. |run| receives the RunFor wall interval.
  void Step(Interval& run) {
    run.start = WallNs();
    host_.RunFor(sim::TimeNs::Millis(1));
    run.end = WallNs();
    bank_.Scan(host_.collector());
  }

  bool setup_ok() const { return setup_ok_; }

  // Every source of the mix has made progress (a silent no-op workload
  // would otherwise look fast).
  bool DidWork() {
    return kv_->completed_ops() > 0 && nvme_->completed_transfers() > 0 &&
           trainer_->iterations() > 0 && bursty_->bursts() > 0 &&
           host_.manager().arbitrations() > 0 && mesh_->probes_sent() > 0;
  }

  // The host's observable outcome so far.
  uint64_t OutputDigest() {
    return Digest()
        .Add(static_cast<uint64_t>(kv_->completed_ops()))
        .Add(kv_->latency_us().Percentile(0.5))
        .Add(kv_->latency_us().Percentile(0.99))
        .Add(static_cast<uint64_t>(nvme_->completed_transfers()))
        .Add(static_cast<uint64_t>(trainer_->iterations()))
        .Add(host_.manager().arbitrations())
        .Add(static_cast<uint64_t>(bank_.log().size()))
        .value();
  }

  // Public work counters, by per-layer metric name.
  Layers Counters() {
    return {
        {"sim.events", static_cast<double>(sim_.events_executed())},
        {"fabric.solves", static_cast<double>(host_.fabric().recompute_count())},
        {"fabric.mutations", static_cast<double>(host_.fabric().mutation_count())},
        {"telemetry.samples", static_cast<double>(host_.collector().samples_taken())},
        {"manager.arbitrations", static_cast<double>(host_.manager().arbitrations())},
        {"anomaly.anomalies", static_cast<double>(bank_.log().size())},
        {"anomaly.probes_sent", static_cast<double>(mesh_->probes_sent())},
        {"workload.kv_ops", static_cast<double>(kv_->completed_ops())},
        {"workload.transfers_completed", static_cast<double>(nvme_->completed_transfers())},
    };
  }

  sim::Simulation& sim() { return sim_; }
  telemetry::Collector& collector() { return host_.collector(); }

 private:
  sim::Simulation sim_;
  HostNetwork host_;
  std::unique_ptr<workload::KvClient> kv_;
  std::unique_ptr<workload::MlTrainer> trainer_;
  std::unique_ptr<workload::PoissonSource> nvme_;
  std::unique_ptr<workload::BurstySource> bursty_;
  std::unique_ptr<workload::StreamSource> stream_;
  std::unique_ptr<anomaly::HeartbeatMesh> mesh_;
  anomaly::DetectorBank bank_;
  bool setup_ok_ = false;
};

class HostMixBench : public Bench {
 public:
  HostMixBench(HostMixShape shape, uint64_t seed) : shape_(shape), seed_(seed) {}

  void Setup(bool traced) override {
    traced_ = traced;
    if (traced_) {
      if (probes_.empty()) {
        probes_.push_back(std::make_unique<FabricProbe>(1 << 14, 1 << 16));
      }
      probes_.front()->Reset();
    }
    instance_ = std::make_unique<HostMixInstance>(
        seed_, traced_ ? probes_.front()->tracer() : nullptr, traced_ ? &events_ : nullptr);
    steps_ = 0;
  }

  void Warmup() override {
    if (traced_) {
      split_.Discard(probes_, events_);
    }
    base_ = instance_->Counters();
  }

  bool Step() override {
    instance_->Step(run_);
    ++steps_;
    return instance_->setup_ok();
  }

  void AfterStep(Interval step, Phase& phase) override {
    // Every set-up (the traced one too) must reproduce the checkpoint, and
    // the mix must actually have done its work by then.
    if (steps_ == shape_.checkpoint_ms &&
        (!ledger_.Record("host_mix.checkpoint", instance_->OutputDigest()) ||
         !instance_->DidWork())) {
      ++phase.failed;
    }
    phase.totals["sim.pending_events"] += static_cast<double>(instance_->sim().pending_events());
    phase.totals["anomaly.scan_ms"] += Ms(step.end - run_.end);
    if (traced_) {
      // Engine self time: RunFor not covered by callbacks or by the solves
      // the engine's pre-advance hook runs between them.
      split_.Step(probes_, events_);
      phase.totals["sim.self_ms"] += Ms(SelfNs(run_, split_.merged()));
    }
  }

  void Teardown(Phase& phase) override {
    for (const auto& [name, value] : instance_->Counters()) {
      phase.totals[name] += value - base_[name];
    }
    phase.layers["telemetry.metrics_per_sample"] =
        static_cast<double>(instance_->collector().last_tick_metrics());
    if (traced_) {
      split_.FoldCounters(probes_);
    }
    instance_.reset();
  }

  void EndPhase(Phase& phase) override {
    Layers& l = phase.layers;
    for (const auto& [name, total] : phase.totals) {
      l[name] = phase.PerStep(name.c_str());
    }
    l["sim.events_per_s"] =
        Ratio(phase.totals["sim.events"], static_cast<double>(phase.wall_ns) / 1e9);
    l["fabric.coalesce_ratio"] =
        Ratio(phase.totals["fabric.mutations"], phase.totals["fabric.solves"]);
    l["core.workers"] = 1;
    if (traced_) {
      split_.Report(phase.steps(), l);
    }
  }

  int64_t EpisodeSteps() const override { return shape_.episode_ms; }

  void PrintDigests() const override {
    const auto it = ledger_.reference().find("host_mix.checkpoint");
    std::printf("# digest host_mix.checkpoint@%dms = %s (%s)\n", shape_.checkpoint_ms,
                it != ledger_.reference().end() ? Hex(it->second).c_str() : "none",
                ledger_.mismatches() == 0 ? "every set-up agrees" : "MISMATCH");
  }

 private:
  HostMixShape shape_;
  uint64_t seed_;
  bool traced_ = false;
  // Declared before the instance: the fabric holds a raw pointer into the
  // probe and the clock holds the observer, so both outlive it.
  Probes probes_;
  EventTimer events_;
  std::unique_ptr<HostMixInstance> instance_;
  TraceSplit split_;
  Interval run_;
  int steps_ = 0;
  Layers base_;
  DigestLedger ledger_;
};

// -- chaos_grid -------------------------------------------------------------------

struct ChaosShape {
  int trials_per_cell = 4;  // Raised from the grid file's 2: more steps per pass.
};

// The policy grid flattened to (cell, trial) pairs, run serially through
// the public building blocks exactly as Sweep::Run runs them on a width-1
// executor.
class ChaosGridInstance {
 public:
  ChaosGridInstance(const std::string& grid_path, int trials, uint64_t seed) {
    std::string error;
    if (!chaos::LoadSweepFile(grid_path, &config_, &error)) {
      std::fprintf(stderr, "perfbench: %s: %s\n", grid_path.c_str(), error.c_str());
      std::exit(1);
    }
    config_.trials = trials;
    config_.seed = seed;
    config_.has_seed = true;
    cells_ = chaos::ExpandGrid(config_);
    campaigns_.reserve(cells_.size());
    for (const chaos::SweepCell& cell : cells_) {
      campaigns_.emplace_back(cell.config);
      for (int t = 0; t < cell.config.trials; ++t) {
        pairs_.push_back({campaigns_.size() - 1, t});
      }
    }
  }

  size_t pair_count() const { return pairs_.size(); }
  const chaos::SweepConfig& config() const { return config_; }

  chaos::TrialRun RunPair(size_t i) const {
    return campaigns_[pairs_[i].cell].RunTrial(pairs_[i].trial);
  }

  // Assembles one full pass of runs (in pair order) per cell.
  chaos::SweepResult Assemble(std::vector<chaos::TrialRun> runs) const {
    chaos::SweepResult out;
    size_t next = 0;
    for (size_t c = 0; c < cells_.size(); ++c) {
      std::vector<chaos::TrialRun> cell_runs;
      for (int t = 0; t < cells_[c].config.trials; ++t) {
        cell_runs.push_back(std::move(runs[next++]));
      }
      chaos::SweepCellResult cell;
      cell.index = cells_[c].index;
      cell.campaign = cells_[c].campaign;
      cell.preset = cells_[c].preset;
      cell.fault_scale = cells_[c].fault_scale;
      cell.policy = cells_[c].policy;
      cell.result = campaigns_[c].Assemble(std::move(cell_runs));
      out.cells.push_back(std::move(cell));
    }
    return out;
  }

 private:
  struct Pair {
    size_t cell = 0;
    int trial = 0;
  };
  chaos::SweepConfig config_;
  std::vector<chaos::SweepCell> cells_;
  std::vector<chaos::Campaign> campaigns_;
  std::vector<Pair> pairs_;
};

class ChaosBench : public Bench {
 public:
  ChaosBench(ChaosShape shape, uint64_t seed, std::string grid_path)
      : shape_(shape),
        seed_(seed),
        grid_path_(std::move(grid_path)),
        pass_steps_(static_cast<int64_t>(
            ChaosGridInstance(grid_path_, shape_.trials_per_cell, seed_).pair_count())) {}

  void Setup(bool /*traced*/) override {
    instance_ = std::make_unique<ChaosGridInstance>(grid_path_, shape_.trials_per_cell, seed_);
    pass_.clear();
  }

  bool Step() override {
    pass_.push_back(instance_->RunPair(pass_.size()));
    return pass_.back().error.empty();
  }

  void AfterStep(Interval /*step*/, Phase& phase) override {
    const chaos::TrialResult& r = pass_.back().result;
    Layers& t = phase.totals;
    t["chaos.probes_per_trial"] += static_cast<double>(r.probes_sent);
    t["chaos.signals_per_trial"] += static_cast<double>(r.signals.size());
    t["chaos.repairs_per_trial"] += static_cast<double>(r.repairs);
    t["chaos.injector_ops_per_trial"] += static_cast<double>(r.injector_operations);
    t["anomaly.anomalies"] += static_cast<double>(r.anomalies);
    if (pass_.size() < instance_->pair_count()) {
      return;
    }
    // A full grid pass: assemble, rank and render it, and hold the report
    // to the first pass's bytes (and, in CrossCheck, to Sweep::Run's).
    const int64_t t0 = WallNs();
    chaos::SweepResult result = instance_->Assemble(std::move(pass_));
    const int64_t t1 = WallNs();
    result.ranking = chaos::RankCells(result.cells);
    const std::string report = chaos::SweepReportJson(result);
    const int64_t t2 = WallNs();
    t["chaos.assemble_ms"] += Ms(t1 - t0);
    t["chaos.report_ms"] += Ms(t2 - t1);
    t["passes"] += 1;
    if (!result.all_cells_ok() ||
        !ledger_.Record("chaos.report", Digest().AddBytes(report).value())) {
      ++phase.failed;
    }
    if (report_.empty()) {
      report_ = report;
    }
    pass_.clear();
  }

  void Teardown(Phase& /*phase*/) override { instance_.reset(); }

  void EndPhase(Phase& phase) override {
    Layers& l = phase.layers;
    for (const char* name : {"chaos.probes_per_trial", "chaos.signals_per_trial",
                             "chaos.repairs_per_trial", "chaos.injector_ops_per_trial",
                             "anomaly.anomalies"}) {
      l[name] = phase.PerStep(name);
    }
    // The mesh's probes are the trial's probes.
    l["anomaly.probes_sent"] = l["chaos.probes_per_trial"];
    l["chaos.trial_ms"] = Ratio(Ms(phase.wall_ns), static_cast<double>(phase.steps()));
    l["chaos.assemble_ms"] = Ratio(phase.totals["chaos.assemble_ms"], phase.totals["passes"]);
    l["chaos.report_ms"] = Ratio(phase.totals["chaos.report_ms"], phase.totals["passes"]);
    l["core.workers"] = 1;
  }

  int CrossCheck() override {
    // The library's own reference path: Sweep::Run on a width-1 executor
    // must render the bytes the benchmark assembled from the blocks.
    ChaosGridInstance grid(grid_path_, shape_.trials_per_cell, seed_);
    chaos::TrialExecutor serial(1);
    const chaos::SweepResult result = chaos::Sweep(grid.config()).Run(serial);
    reference_matches_ = !report_.empty() && chaos::SweepReportJson(result) == report_;
    return reference_matches_ ? 0 : 1;
  }

  // One episode is one full grid pass.
  int64_t EpisodeSteps() const override { return pass_steps_; }

  void PrintDigests() const override {
    std::printf("# digest chaos.report (%zu bytes) = %s (%s; %s Sweep::Run)\n", report_.size(),
                Hex(Digest().AddBytes(report_).value()).c_str(),
                ledger_.mismatches() == 0 ? "every pass agrees" : "MISMATCH",
                reference_matches_ ? "matches" : "DIFFERS FROM");
  }

 private:
  ChaosShape shape_;
  uint64_t seed_;
  std::string grid_path_;
  int64_t pass_steps_;
  std::unique_ptr<ChaosGridInstance> instance_;
  std::vector<chaos::TrialRun> pass_;
  std::string report_;
  bool reference_matches_ = false;
  DigestLedger ledger_;
};

// -- The measurement loop -----------------------------------------------------------

struct Outcome {
  std::vector<Phase> phases;  // Untraced phases, then (--trace 1) the traced one.
  std::vector<double> setup_s;
  int64_t attempted = 0;
  int64_t failed = 0;
};

// One phase: a closed loop (the next step starts when the previous one
// returns) for |seconds| of wall time and at least |min_steps| steps,
// ending only on an episode boundary.
void RunPhase(Bench& bench, Phase& phase, double seconds, int64_t min_steps,
              std::vector<double>& setup_s) {
  const auto setup = [&] {
    const int64_t t0 = WallNs();
    bench.Setup(phase.traced);
    setup_s.push_back(static_cast<double>(WallNs() - t0) / 1e9);
    bench.Warmup();
  };
  const int64_t episode = bench.EpisodeSteps();
  const int64_t deadline = WallNs() + static_cast<int64_t>(seconds * 1e9);
  setup();
  for (int64_t in_episode = 1;; ++in_episode) {
    const int64_t cpu0 = ProcessCpuNs();
    const int64_t t0 = WallNs();
    const bool ok = bench.Step();
    const int64_t t1 = WallNs();
    const int64_t cpu1 = ProcessCpuNs();
    phase.step_ms.push_back(Ms(t1 - t0));
    phase.wall_ns += t1 - t0;
    phase.cpu_ns += cpu1 - cpu0;
    if (!ok) {
      ++phase.failed;
    }
    bench.AfterStep({t0, t1}, phase);
    if (in_episode < episode) {
      continue;
    }
    if (static_cast<int64_t>(phase.steps()) >= min_steps && WallNs() >= deadline) {
      break;
    }
    bench.Teardown(phase);
    setup();
    in_episode = 0;
  }
  bench.Teardown(phase);
  bench.EndPhase(phase);
}

Outcome Measure(Bench& bench, const Args& args) {
  Outcome out;
  // --trace 0: three untraced phases (p90 needs 100 steps in all).
  // --trace 1: one untraced and one traced phase, whose p50 difference is
  // the tracing overhead.
  const int phases = args.trace ? 2 : 3;
  const int untraced = args.trace ? 1 : 3;
  const int64_t min_steps =
      args.trace ? MinSamplesFor(0.5) : (MinSamplesFor(0.9) + untraced - 1) / untraced;
  {
    // One untimed instance first: the allocator and the caches warm up on
    // it, so the first phase does not pay the process's first-touch costs.
    Phase scratch;
    bench.Setup(false);
    bench.Warmup();
    for (int i = 0; i < 5; ++i) {
      bench.Step();
      bench.AfterStep({}, scratch);
    }
    bench.Teardown(scratch);
    out.failed += scratch.failed;
  }
  for (int p = 0; p < phases; ++p) {
    Phase phase;
    phase.traced = p >= untraced;
    RunPhase(bench, phase, args.seconds / phases, min_steps, out.setup_s);
    out.attempted += static_cast<int64_t>(phase.steps());
    out.failed += phase.failed;
    out.phases.push_back(std::move(phase));
  }
  out.attempted += 1;  // The cross-check counts as one more step.
  out.failed += bench.CrossCheck();
  return out;
}

std::vector<Metric> EndToEnd(const Outcome& out) {
  std::vector<double> step_ms;
  int64_t wall_ns = 0, cpu_ns = 0;
  for (const Phase& phase : out.phases) {
    step_ms.insert(step_ms.end(), phase.step_ms.begin(), phase.step_ms.end());
    wall_ns += phase.wall_ns;
    cpu_ns += phase.cpu_ns;
  }
  const double steps = static_cast<double>(step_ms.size());
  if (!PercentileResolved(step_ms.size(), 0.9)) {
    std::printf("# warning: %zu steps leave fewer than %lld beyond p90\n", step_ms.size(),
                static_cast<long long>(kTailSamples));
  }
  return {
      {"setup_s", Percentile(out.setup_s, 0.5), "s"},
      {"step_ms_p50", Percentile(step_ms, 0.5), "ms"},
      {"step_ms_p90", Percentile(step_ms, 0.9), "ms"},
      {"steps_per_s", Ratio(steps, static_cast<double>(wall_ns) / 1e9), "1/s"},
      {"cpu_ms_per_step", Ratio(Ms(cpu_ns), steps), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const Outcome& out, const MachineRecord& machine) {
  const Phase& untraced = out.phases.front();
  const Phase& traced = out.phases.back();
  Layers layers = traced.layers;
  layers["core.cores_available"] = machine.cores_available;
  layers["core.parallelism"] =
      Ratio(static_cast<double>(traced.cpu_ns), static_cast<double>(traced.wall_ns));
  const double traced_p50 = Percentile(traced.step_ms, 0.5);
  const double untraced_p50 = Percentile(untraced.step_ms, 0.5);
  layers["trace.step_ms_p50"] = traced_p50;
  layers["trace.untraced_step_ms_p50"] = untraced_p50;
  layers["trace.overhead_ms"] = traced_p50 - untraced_p50;
  std::vector<Metric> metrics;
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = layers.find(m.name);
    metrics.push_back({m.name, it != layers.end() ? it->second : 0.0, m.unit});
  }
  return metrics;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        return false;
      }
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--root") {
      args->root = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

std::unique_ptr<Bench> MakeBench(const Args& args, int cores) {
  if (args.workload == "fleet_churn" || args.workload == "fleet_pooled") {
    FleetShape shape;
    if (args.smoke) {
      shape.hosts = 64;
      shape.flows_per_host = 16;
    }
    return std::make_unique<FleetBench>(shape, args.workload == "fleet_pooled", args.seed,
                                        cores);
  }
  if (args.workload == "host_mix") {
    HostMixShape shape;
    if (args.smoke) {
      shape.episode_ms = 40;
      shape.checkpoint_ms = 20;
    }
    return std::make_unique<HostMixBench>(shape, args.seed);
  }
  if (args.workload == "chaos_grid") {
    ChaosShape shape;
    if (args.smoke) {
      shape.trials_per_cell = 1;
    }
    return std::make_unique<ChaosBench>(
        shape, args.seed, args.root + "/tools/mihn_chaos/campaigns/policy_grid.chaos");
  }
  return nullptr;
}

}  // namespace
}  // namespace mihn::perfbench

int main(int argc, char** argv) {
  using namespace mihn::perfbench;
  const int64_t wall_start = WallNs();
  const int64_t cpu_start = ProcessCpuNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <fleet_churn|fleet_pooled|host_mix|chaos_grid> "
                 "--seed <n> --seconds <s> --trace <0|1> [--smoke] [--root <dir>]\n",
                 argv[0]);
    return 2;
  }
  MachineRecord machine = StartMachineRecord();
  // fleet_pooled asks for min(nproc, cores in the affinity mask) workers.
  const int cores = std::max(1, std::min(machine.nproc, machine.cores_available));
  std::unique_ptr<Bench> bench = MakeBench(args, cores);
  if (bench == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  const Outcome out = Measure(*bench, args);
  const std::vector<Metric> metrics = args.trace ? PerLayer(out, machine) : EndToEnd(out);
  FinishMachineRecord(machine, wall_start, cpu_start);

  size_t steps = 0;
  for (const Phase& phase : out.phases) {
    steps += phase.steps();
    // Phase-to-phase drift inside one run shows how steady the box was.
    std::printf("# phase %zu%s: %zu steps, step p50 %.4f ms, cpu %.4f ms/step\n",
                &phase - out.phases.data(), phase.traced ? " (traced)" : "", phase.steps(),
                Percentile(phase.step_ms, 0.5),
                Ratio(Ms(phase.cpu_ns), static_cast<double>(phase.steps())));
  }
  bench->PrintDigests();
  std::printf("# workload %s seed %llu trace %d: %zu steps in %zu phases, %zu set-ups, "
              "error_rate %.6f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, steps, out.phases.size(), out.setup_s.size(),
              Ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)));
  std::printf("# machine %s\n", MachineRecordJson(machine).c_str());
  std::printf("%s\n", ResultJson(out.failed == 0, out.attempted, out.failed, metrics).c_str());
  return 0;
}
