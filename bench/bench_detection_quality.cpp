// E13 (extension) — Detection quality campaign: E4 asks *whether* the
// heartbeat mesh catches one fault; this campaign asks how *reliably*.
// Randomized trials (random faulted link, random severity, plus fault-free
// control trials under shifting load) score the mesh's precision, recall,
// localization accuracy, and detection latency.

#include "bench/bench_util.h"
#include "src/host/host_network.h"
#include "src/workload/sources.h"

namespace {

using namespace mihn;

struct TrialOutcome {
  bool fault_present = false;
  bool alarmed = false;
  bool localized_topmost = false;  // True link within the top-2 suspects.
  double detect_ms = 0.0;
};

TrialOutcome RunTrial(uint64_t seed, bool inject_fault) {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  sim::Simulation sim(seed);
  HostNetwork host(sim, options);
  const auto& server = host.server();
  sim::Rng rng = host.simulation().ForkRng(999);

  // Randomized background load so control trials are not trivially quiet:
  // two bursty sources on random device pairs.
  auto random_device = [&](const std::vector<topology::ComponentId>& pool) {
    return pool[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
  };
  workload::BurstySource::Config b1;
  b1.src = random_device(server.ssds);
  b1.dst = random_device(server.dimms);
  b1.on_demand = sim::Bandwidth::GBps(rng.Uniform(2, 10));
  b1.rng_stream = 11;
  workload::BurstySource noise1(host.fabric(), b1);
  noise1.Start();
  workload::BurstySource::Config b2;
  b2.src = random_device(server.gpus);
  b2.dst = server.sockets[static_cast<size_t>(rng.UniformInt(0, 1))];
  b2.on_demand = sim::Bandwidth::GBps(rng.Uniform(2, 10));
  b2.rng_stream = 12;
  workload::BurstySource noise2(host.fabric(), b2);
  noise2.Start();

  anomaly::HeartbeatMesh::Config mesh_config;
  mesh_config.period = sim::TimeNs::Millis(1);
  mesh_config.degradation_factor = 2.0;
  auto mesh = host.MakeHeartbeatMesh(mesh_config);
  mesh->Start();

  const sim::TimeNs baseline = sim::TimeNs::Millis(50);
  host.RunFor(baseline);

  TrialOutcome outcome;
  outcome.fault_present = inject_fault;
  topology::LinkId bad_link = topology::kInvalidLink;
  if (inject_fault) {
    // Random non-inter-host link, random severity.
    do {
      bad_link = static_cast<topology::LinkId>(
          rng.UniformInt(0, static_cast<int64_t>(host.topo().link_count()) - 1));
    } while (host.topo().link(bad_link).spec.kind == topology::LinkKind::kInterHost);
    fabric::LinkFault fault;
    if (rng.Bernoulli(0.5)) {
      fault.extra_latency = sim::TimeNs::Nanos(rng.UniformInt(500, 8000));
    } else {
      fault.capacity_factor = rng.Uniform(0.05, 0.3);
      // Drive load over the degraded link so it congests.
      const topology::Link& link = host.topo().link(bad_link);
      fabric::FlowSpec loader;
      loader.path.nodes = {link.a, link.b};
      loader.path.hops = {topology::DirectedLink{bad_link, true}};
      loader.demand = sim::Bandwidth::GBps(8);
      host.fabric().StartFlow(loader);
    }
    host.fabric().InjectLinkFault(bad_link, fault);
  }

  host.RunFor(sim::TimeNs::Millis(50));
  if (mesh->first_alarm_at() && *mesh->first_alarm_at() > baseline) {
    outcome.alarmed = true;
    outcome.detect_ms = (*mesh->first_alarm_at() - baseline).ToMillisF();
    const auto suspects = mesh->LocalizeFaults();
    for (size_t i = 0; i < suspects.size() && i < 2; ++i) {
      if (suspects[i].link == bad_link) {
        outcome.localized_topmost = true;
      }
    }
  }
  return outcome;
}

}  // namespace

int main() {
  bench::Banner("E13: heartbeat-mesh detection quality campaign",
                "40 randomized trials (half with a silent fault, half fault-free "
                "controls) under bursty background load");

  constexpr int kTrials = 40;
  int true_pos = 0, false_neg = 0, false_pos = 0, true_neg = 0;
  int localized = 0;
  sim::RunningStats detect_ms;
  for (int t = 0; t < kTrials; ++t) {
    const bool inject = t % 2 == 0;
    const TrialOutcome outcome = RunTrial(1000 + static_cast<uint64_t>(t) * 7, inject);
    if (inject) {
      if (outcome.alarmed) {
        ++true_pos;
        detect_ms.Add(outcome.detect_ms);
        localized += outcome.localized_topmost ? 1 : 0;
      } else {
        ++false_neg;
      }
    } else {
      if (outcome.alarmed) {
        ++false_pos;
      } else {
        ++true_neg;
      }
    }
  }

  bench::Table table({{"metric", 30}, {"value", 20}});
  const double precision =
      true_pos + false_pos > 0 ? static_cast<double>(true_pos) / (true_pos + false_pos) : 1.0;
  const double recall =
      true_pos + false_neg > 0 ? static_cast<double>(true_pos) / (true_pos + false_neg) : 1.0;
  table.Row({"trials (fault / control)",
             bench::Fmt("%d / %d", true_pos + false_neg, false_pos + true_neg)});
  table.Row({"precision", bench::Fmt("%.2f", precision)});
  table.Row({"recall", bench::Fmt("%.2f", recall)});
  table.Row({"localized in top-2",
             bench::Fmt("%d of %d detections", localized, true_pos)});
  table.Row({"mean detection latency", bench::Fmt("%.1f ms", detect_ms.mean())});
  table.Row({"max detection latency", bench::Fmt("%.1f ms", detect_ms.max())});

  std::printf("\nexpected shape: high precision (bursty background load does not trip the\n"
              "2x-baseline threshold), high-but-imperfect recall — faults on the\n"
              "memory-controller branch links sit outside the device mesh's probe\n"
              "coverage entirely (a real deployment would add DIMM-side vantage points),\n"
              "and mild latency faults on short paths stay under the threshold — with\n"
              "top-2 localization for every detection, within a few probe periods.\n");
  return 0;
}
