// E8 — Overhead of resource management (paper §3.2 Q3: "the schedule and
// arbitration may need to be finished in microsecond level"). Wall-clock
// google-benchmark micro-benchmarks of every operation on the management
// fast path: intent interpretation, scheduling, admission, one arbitration
// pass (after an input moved, and a quiet quantum the arbiter skips), the
// max-min solve itself, and a fabric rate recomputation.

#include <benchmark/benchmark.h>

#include "src/host/host_network.h"
#include "src/fabric/max_min.h"
#include "src/workload/sources.h"

namespace {

using namespace mihn;

HostNetwork::Options Quiet() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

// A host with |n| attached allocated flows plus |n| scavengers; |flows|
// alternates the two, so flows[1] is a scavenger.
struct LoadedHost {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<HostNetwork> host;
  std::vector<fabric::FlowId> flows;

  explicit LoadedHost(int n) {
    sim = std::make_unique<sim::Simulation>();
    host = std::make_unique<HostNetwork>(*sim, Quiet());
    auto& mgr = host->manager();
    const auto& server = host->server();
    const auto tenant = mgr.RegisterTenant("t", 1.0);
    for (int i = 0; i < n; ++i) {
      manager::PerformanceTarget target;
      target.src = server.ssds[static_cast<size_t>(i) % server.ssds.size()];
      target.dst = server.dimms[static_cast<size_t>(i) % server.dimms.size()];
      target.bandwidth = sim::Bandwidth::Mbps(100);
      const auto alloc = mgr.SubmitIntent(tenant, target);
      fabric::FlowSpec spec;
      spec.path = *host->fabric().Route(target.src, target.dst);
      spec.tenant = tenant;
      spec.demand = sim::Bandwidth::Mbps(100);
      const auto flow = host->fabric().StartFlow(spec);
      flows.push_back(flow);
      if (alloc.ok()) {
        mgr.AttachFlow(alloc.id, flow);
      }
      // A scavenger sibling.
      fabric::FlowSpec scav = spec;
      scav.tenant = 99;
      flows.push_back(host->fabric().StartFlow(scav));
    }
  }
};

void BM_InterpretIntent(benchmark::State& state) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto path = *host.fabric().Route(host.server().ssds[0], host.server().dimms[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager::Interpret(path, sim::Bandwidth::GBps(10)));
  }
}
BENCHMARK(BM_InterpretIntent);

void BM_SchedulerPlace(benchmark::State& state) {
  HostNetwork::Options options = Quiet();
  options.preset = HostNetwork::Preset::kDgxClass;
  sim::Simulation sim;
  HostNetwork host(sim, options);
  manager::Scheduler scheduler(host.fabric(), manager::SchedulerConfig{});
  manager::PerformanceTarget target;
  target.src = host.server().gpus[0];
  target.dst = host.server().ssds.back();
  target.bandwidth = sim::Bandwidth::GBps(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.Place(target, {}));
  }
}
BENCHMARK(BM_SchedulerPlace);

void BM_SubmitAndRelease(benchmark::State& state) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  auto& mgr = host.manager();
  const auto tenant = mgr.RegisterTenant("t", 1.0);
  manager::PerformanceTarget target;
  target.src = host.server().ssds[0];
  target.dst = host.server().dimms[0];
  target.bandwidth = sim::Bandwidth::GBps(5);
  for (auto _ : state) {
    const auto result = mgr.SubmitIntent(tenant, target);
    mgr.ReleaseAllocation(result.id);
  }
}
BENCHMARK(BM_SubmitAndRelease);

// A pass that runs: each iteration moves one scavenger's demand, so the
// arbiter re-reads every rate (paying the one solve that demand change
// forces) and recomputes every flow's limit.
void BM_ArbitrateOnce(benchmark::State& state) {
  LoadedHost loaded(static_cast<int>(state.range(0)));
  auto& mgr = loaded.host->manager();
  auto& fabric = loaded.host->fabric();
  const auto scavenger = loaded.flows[1];
  bool toggle = false;
  for (auto _ : state) {
    fabric.SetFlowDemand(scavenger, sim::Bandwidth::Mbps(toggle ? 100 : 50));
    toggle = !toggle;
    mgr.ArbitrateOnce();
  }
  state.SetLabel(std::to_string(2 * state.range(0)) + " flows");
}
BENCHMARK(BM_ArbitrateOnce)->Arg(4)->Arg(16)->Arg(64);

// A quiet quantum: nothing moved since a pass that changed no limit, so
// the arbiter skips it.
void BM_ArbitrateQuiet(benchmark::State& state) {
  LoadedHost loaded(static_cast<int>(state.range(0)));
  auto& mgr = loaded.host->manager();
  mgr.ArbitrateOnce();  // Sets the limits.
  mgr.ArbitrateOnce();  // Changes nothing: the next quanta are quiet.
  for (auto _ : state) {
    mgr.ArbitrateOnce();
  }
  state.SetLabel(std::to_string(2 * state.range(0)) + " flows");
}
BENCHMARK(BM_ArbitrateQuiet)->Arg(4)->Arg(16)->Arg(64);

void BM_MaxMinSolve(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  fabric::MaxMinSolver solver;
  sim::Rng rng(7);
  std::vector<fabric::MaxMinFlow> input(static_cast<size_t>(flows));
  std::vector<double> caps(64);
  for (auto& c : caps) {
    c = rng.Uniform(1e9, 100e9);
  }
  for (auto& f : input) {
    f.weight = 1.0;
    f.demand = fabric::kUnlimitedDemand;
    for (int l = 0; l < 5; ++l) {
      f.links.push_back(static_cast<int32_t>(rng.UniformInt(0, 63)));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(input, caps));
  }
}
BENCHMARK(BM_MaxMinSolve)->Arg(16)->Arg(64)->Arg(256);

void BM_FabricRecompute(benchmark::State& state) {
  LoadedHost loaded(static_cast<int>(state.range(0)));
  auto& fabric = loaded.host->fabric();
  const auto flow = loaded.flows.front();
  bool toggle = false;
  for (auto _ : state) {
    // A weight change re-primes the solver, and Settle() pays one full
    // recompute from the flow table (no DDIO flow is live, so no cache
    // coupling rounds).
    fabric.SetFlowWeight(flow, toggle ? 1.0 : 2.0);
    toggle = !toggle;
    fabric.Settle();
  }
}
BENCHMARK(BM_FabricRecompute)->Arg(4)->Arg(16)->Arg(64);

void BM_ProbePathLatency(benchmark::State& state) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto path = *host.fabric().Route(host.server().external_hosts[0],
                                         host.server().dimms[0]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.fabric().ProbePathLatency(path));
  }
}
BENCHMARK(BM_ProbePathLatency);

void BM_HostTrace(benchmark::State& state) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  for (auto _ : state) {
    benchmark::DoNotOptimize(host.diagnose().Trace(host.server().external_hosts[0],
                                                   host.server().dimms[0]));
  }
}
BENCHMARK(BM_HostTrace);

}  // namespace

BENCHMARK_MAIN();
