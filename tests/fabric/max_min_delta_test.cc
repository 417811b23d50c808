// Mutation-trace differential tests for the MaxMinSolver delta engine.
//
// The retained delta path (UpdateFlowDemand + SolveDelta) must produce rates
// bit-identical to a fresh full solve — and therefore to
// SolveMaxMinReference — after EVERY mutation step, whether it splices,
// sews a resumed suffix, or falls back to the full path. A capacity, weight
// or add step reloads the solver (Begin/SetCapacity/AddFlow) as the fabric
// does, and its SolveDelta() is a full solve. These suites drive long
// random mutation traces against a shadow instance that is re-solved from
// scratch by the reference oracle at each step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/fabric/max_min.h"
#include "src/sim/random.h"
#include "src/topology/presets.h"

namespace mihn::fabric {
namespace {

void ExpectIdentical(const std::vector<double>& got, const std::vector<double>& want,
                     uint64_t seed, size_t step) {
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " step " << step;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "flow " << i << " seed " << seed << " step " << step
                               << " (diff " << std::abs(got[i] - want[i]) << ")";
  }
}

// Shadow copy of the retained problem: slot-for-slot mirror of the solver's
// rate vector (killed flows stay as demand-0 entries, exactly the
// reference's dead-flow rule).
struct Shadow {
  std::vector<MaxMinFlow> flows;
  std::vector<double> caps;
};

double RandomDemand(sim::Rng& rng) {
  if (rng.Bernoulli(0.3)) {
    return kUnlimitedDemand;
  }
  if (rng.Bernoulli(0.07)) {
    return rng.Uniform(0.0, 1e-6);  // Dust demand, may be dead-adjacent.
  }
  return rng.Uniform(0.0, 500.0);
}

Shadow MakeShadow(sim::Rng& rng, int num_links, int num_flows) {
  Shadow sh;
  sh.caps.resize(static_cast<size_t>(num_links));
  for (auto& c : sh.caps) {
    c = rng.Bernoulli(0.04) ? 0.0 : rng.Uniform(1.0, 1000.0);
  }
  sh.flows.resize(static_cast<size_t>(num_flows));
  for (auto& f : sh.flows) {
    f.weight = rng.Bernoulli(0.1) ? rng.Uniform(1e-10, 1e-6) : rng.Uniform(0.1, 4.0);
    f.demand = RandomDemand(rng);
    const int nl = static_cast<int>(rng.UniformInt(1, std::min(num_links, 5)));
    for (int i = 0; i < nl; ++i) {
      f.links.push_back(static_cast<int32_t>(rng.UniformInt(0, num_links - 1)));
    }
  }
  return sh;
}

// Loads the shadow as a new problem; the next solve is a full one.
void LoadSolver(MaxMinSolver& solver, const Shadow& sh) {
  solver.Begin(sh.caps.size());
  for (size_t l = 0; l < sh.caps.size(); ++l) {
    solver.SetCapacity(static_cast<int32_t>(l), sh.caps[l]);
  }
  for (const MaxMinFlow& f : sh.flows) {
    solver.AddFlow(f.weight, f.demand, f.links.data(), f.links.size());
  }
}

void PrimeSolver(MaxMinSolver& solver, const Shadow& sh) {
  LoadSolver(solver, sh);
  solver.Commit();
}

// Applies one random mutation to both worlds. Returns false if the step was
// a no-op (nothing to mutate).
bool MutateOnce(sim::Rng& rng, MaxMinSolver& solver, Shadow& sh) {
  const int kind = static_cast<int>(rng.UniformInt(0, 9));
  switch (kind) {
    case 0:
    case 1:
    case 2: {  // Demand nudge — the hot churn mutation.
      const auto f = static_cast<int32_t>(rng.UniformInt(0, static_cast<int>(sh.flows.size()) - 1));
      const double d = RandomDemand(rng);
      solver.UpdateFlowDemand(f, d);
      sh.flows[static_cast<size_t>(f)].demand = d;
      return true;
    }
    case 3:
    case 4: {  // Weight change: a new problem.
      const auto f = static_cast<int32_t>(rng.UniformInt(0, static_cast<int>(sh.flows.size()) - 1));
      sh.flows[static_cast<size_t>(f)].weight = rng.Uniform(0.1, 4.0);
      LoadSolver(solver, sh);
      return true;
    }
    case 5:
    case 6: {  // Capacity nudge (occasionally to/from zero): a new problem.
      const auto l = static_cast<int32_t>(rng.UniformInt(0, static_cast<int>(sh.caps.size()) - 1));
      sh.caps[static_cast<size_t>(l)] = rng.Bernoulli(0.06) ? 0.0 : rng.Uniform(1.0, 1000.0);
      LoadSolver(solver, sh);
      return true;
    }
    case 7: {  // Kill: a demand of 0.
      const auto f = static_cast<int32_t>(rng.UniformInt(0, static_cast<int>(sh.flows.size()) - 1));
      solver.UpdateFlowDemand(f, 0.0);
      sh.flows[static_cast<size_t>(f)].demand = 0.0;
      return true;
    }
    default: {  // Add a flow: a new problem.
      MaxMinFlow f;
      f.weight = rng.Uniform(0.1, 4.0);
      f.demand = RandomDemand(rng);
      const int nl = static_cast<int>(rng.UniformInt(1, std::min<int>(5, static_cast<int>(sh.caps.size()))));
      for (int i = 0; i < nl; ++i) {
        f.links.push_back(static_cast<int32_t>(rng.UniformInt(0, static_cast<int>(sh.caps.size()) - 1)));
      }
      sh.flows.push_back(std::move(f));
      LoadSolver(solver, sh);
      return true;
    }
  }
}

TEST(MaxMinDeltaDifferentialTest, SingleMutationStepsMatchReference) {
  MaxMinSolver solver;  // Persistent across traces: exercises re-priming.
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    sim::Rng rng(seed * 2654435761u);
    Shadow sh = MakeShadow(rng, static_cast<int>(rng.UniformInt(2, 20)),
                           static_cast<int>(rng.UniformInt(2, 50)));
    PrimeSolver(solver, sh);
    ExpectIdentical(solver.rates(), SolveMaxMinReference(sh.flows, sh.caps), seed, 0);
    for (size_t step = 1; step <= 40; ++step) {
      MutateOnce(rng, solver, sh);
      const std::vector<double>& got = solver.SolveDelta();
      ExpectIdentical(got, SolveMaxMinReference(sh.flows, sh.caps), seed, step);
      if (HasFailure()) {
        return;
      }
    }
  }
}

TEST(MaxMinDeltaDifferentialTest, BatchedMutationStepsMatchReference) {
  // Several mutations per solve: the scan must compose dirty sets.
  MaxMinSolver solver;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    sim::Rng rng(seed * 7919 + 13);
    Shadow sh = MakeShadow(rng, static_cast<int>(rng.UniformInt(3, 16)),
                           static_cast<int>(rng.UniformInt(4, 40)));
    PrimeSolver(solver, sh);
    for (size_t step = 1; step <= 15; ++step) {
      const int batch = static_cast<int>(rng.UniformInt(1, 6));
      for (int b = 0; b < batch; ++b) {
        MutateOnce(rng, solver, sh);
      }
      ExpectIdentical(solver.SolveDelta(), SolveMaxMinReference(sh.flows, sh.caps), seed, step);
      if (HasFailure()) {
        return;
      }
    }
  }
}

TEST(MaxMinDeltaDifferentialTest, DeltaPathActuallyEngages) {
  // Large instance, single-flow demand churn: the crossover heuristic must
  // keep this on the delta path (scan + splice/resume), not the full solve.
  MaxMinSolver solver;
  sim::Rng rng(424243);
  Shadow sh = MakeShadow(rng, 64, 2000);
  PrimeSolver(solver, sh);
  uint64_t fallbacks_before = solver.delta_fallbacks();
  size_t engaged = 0;
  for (size_t step = 0; step < 50; ++step) {
    const auto f = static_cast<int32_t>(rng.UniformInt(0, 1999));
    const double d = RandomDemand(rng);
    solver.UpdateFlowDemand(f, d);
    sh.flows[static_cast<size_t>(f)].demand = d;
    const std::vector<double>& got = solver.SolveDelta();
    ExpectIdentical(got, SolveMaxMinReference(sh.flows, sh.caps), 424243, step);
    if (!solver.last_delta_stats().fallback_full) {
      ++engaged;
    }
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_EQ(solver.delta_fallbacks(), fallbacks_before)
      << "demand-only churn must never fall back to the full path";
  EXPECT_EQ(engaged, 50u);
}

TEST(MaxMinDeltaDifferentialTest, NoopDeltaSplicesWithoutResolving) {
  MaxMinSolver solver;
  sim::Rng rng(99);
  Shadow sh = MakeShadow(rng, 8, 20);
  PrimeSolver(solver, sh);
  const std::vector<double> before = solver.rates();
  const uint64_t noops_before = solver.delta_noop_splices();
  ExpectIdentical(solver.SolveDelta(), before, 99, 0);
  EXPECT_EQ(solver.delta_noop_splices(), noops_before + 1);
  EXPECT_TRUE(solver.last_delta_stats().noop_splice);

  // Writing back the identical value is elided entirely.
  solver.UpdateFlowDemand(3, sh.flows[3].demand);
  ExpectIdentical(solver.SolveDelta(), before, 99, 1);
  EXPECT_EQ(solver.delta_noop_splices(), noops_before + 2);
}

// SolveDelta() right after Begin() solves the loaded problem from scratch,
// whether or not the solver held an earlier one, and counts as a full solve;
// a demand written before that first solve is just an input.
TEST(MaxMinDeltaDifferentialTest, SolveDeltaAfterBeginIsAFullSolve) {
  MaxMinSolver solver;
  Shadow sh;
  sh.caps = {100.0, 50.0};
  sh.flows = {{1.0, kUnlimitedDemand, {0}}, {1.0, kUnlimitedDemand, {0, 1}}};
  LoadSolver(solver, sh);
  solver.UpdateFlowDemand(0, 30.0);
  sh.flows[0].demand = 30.0;
  ExpectIdentical(solver.SolveDelta(), SolveMaxMinReference(sh.flows, sh.caps), 0, 0);
  EXPECT_TRUE(solver.last_delta_stats().fallback_full);
  EXPECT_EQ(solver.delta_solves(), 1u);
  EXPECT_EQ(solver.delta_fallbacks(), 1u);

  // A primed solver reloaded with a new problem drops its trace.
  sh.caps[1] = 60.0;
  sh.flows.push_back({2.0, 15.0, {1}});
  LoadSolver(solver, sh);
  ExpectIdentical(solver.SolveDelta(), SolveMaxMinReference(sh.flows, sh.caps), 0, 1);
  EXPECT_TRUE(solver.last_delta_stats().fallback_full);
  EXPECT_EQ(solver.delta_solves(), 2u);
  EXPECT_EQ(solver.delta_fallbacks(), 2u);
}

// The delta contract: only a demand change to a flow that stays live is
// replayed against the retained trace; a demand that kills or revives a
// flow makes the next SolveDelta() a full solve. Each case mutates a freshly
// primed solver and its shadow, solves, then takes one more live demand step
// to show the re-primed solver is back on the delta path.
TEST(MaxMinDeltaDifferentialTest, OnlyLiveDemandChangesAvoidTheFullPath) {
  struct Case {
    const char* name;
    void (*mutate)(MaxMinSolver&, Shadow&);
    bool want_full;
  };
  const Case cases[] = {
      {"demand change on a live flow",
       [](MaxMinSolver& s, Shadow& sh) {
         s.UpdateFlowDemand(0, 40.0);
         sh.flows[0].demand = 40.0;
       },
       false},
      {"demand of 0",
       [](MaxMinSolver& s, Shadow& sh) {
         s.UpdateFlowDemand(4, 0.0);
         sh.flows[4].demand = 0.0;
       },
       true},
      {"revive",
       [](MaxMinSolver& s, Shadow& sh) {
         s.UpdateFlowDemand(3, 25.0);
         sh.flows[3].demand = 25.0;
       },
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Shadow sh;
    sh.caps = {100.0, 50.0, 80.0};
    sh.flows = {{1.0, 30.0, {0}},
                {1.0, kUnlimitedDemand, {0, 1}},
                {2.0, kUnlimitedDemand, {1, 2}},
                {1.0, 0.0, {2}},  // Dead at the baseline.
                {1.0, 20.0, {2}}};
    MaxMinSolver solver;
    PrimeSolver(solver, sh);
    ExpectIdentical(solver.rates(), SolveMaxMinReference(sh.flows, sh.caps), 0, 0);

    c.mutate(solver, sh);
    ExpectIdentical(solver.SolveDelta(), SolveMaxMinReference(sh.flows, sh.caps), 0, 1);
    EXPECT_EQ(solver.last_delta_stats().fallback_full, c.want_full);

    solver.UpdateFlowDemand(1, 35.0);
    sh.flows[1].demand = 35.0;
    ExpectIdentical(solver.SolveDelta(), SolveMaxMinReference(sh.flows, sh.caps), 0, 2);
    EXPECT_FALSE(solver.last_delta_stats().fallback_full);
  }
}

// The stall regime: weight dust on drained links pins the water level, so
// almost every round takes the forced-fix guard. This instance is the ctest
// coverage of ForcedArgmin and of the scan's forced-round divergence: a
// demand change resumes at the first forced round and re-runs the guard
// from there. The instance follows bench_solver_scaling's MakeInstance.
TEST(MaxMinDeltaDifferentialTest, StallRegimeMixedMutationsMatchReference) {
  constexpr int kLinks = 4;
  sim::Rng rng(1);
  Shadow sh;
  sh.caps.resize(kLinks);
  for (auto& c : sh.caps) {
    c = rng.Uniform(1e9, 100e9);
  }
  const auto make_flow = [&rng] {
    MaxMinFlow f;
    f.weight = rng.Uniform(0.5, 4.0);
    f.demand = rng.Bernoulli(0.2) ? kUnlimitedDemand : rng.Uniform(1e6, 5e9);
    const int nl = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < nl; ++i) {
      f.links.push_back(static_cast<int32_t>(rng.UniformInt(0, kLinks - 1)));
    }
    return f;
  };
  for (int i = 0; i < 2000; ++i) {
    sh.flows.push_back(make_flow());
  }
  MaxMinSolver solver;
  PrimeSolver(solver, sh);
  ASSERT_GE(solver.last_rounds(), 500u) << "the instance left the stall regime";
  ExpectIdentical(solver.rates(), SolveMaxMinReference(sh.flows, sh.caps), 1, 0);

  for (size_t step = 1; step <= 200; ++step) {
    const auto f =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(sh.flows.size()) - 1));
    const double kind = rng.Uniform(0.0, 1.0);
    if (kind < 0.7) {
      sh.flows[f].demand = rng.Bernoulli(0.2) ? kUnlimitedDemand : rng.Uniform(1e6, 5e9);
      solver.UpdateFlowDemand(static_cast<int32_t>(f), sh.flows[f].demand);
    } else {
      // Weight, capacity and add steps are new problems: reload.
      if (kind < 0.8) {
        sh.flows[f].weight = rng.Uniform(0.5, 4.0);
      } else if (kind < 0.9) {
        const auto l = static_cast<size_t>(rng.UniformInt(0, kLinks - 1));
        sh.caps[l] = rng.Uniform(1e9, 100e9);
      } else {
        sh.flows.push_back(make_flow());
      }
      LoadSolver(solver, sh);
    }
    ExpectIdentical(solver.SolveDelta(), SolveMaxMinReference(sh.flows, sh.caps), 1, step);
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_GT(solver.delta_solves(), solver.delta_fallbacks()) << "no demand step was replayed";
}

// A what-if on the fuzz instances: WhatIf(f, d) must equal what a twin
// solver with the same history gives after UpdateFlowDemand(f, d) +
// SolveDelta(), and the reference, bit for bit. Any number of what-ifs
// leaves the solver's rates, delta counters and next SolveDelta() as they
// were: after them the solver takes the same step as its twin and must
// match it in rates and in delta stats. Kills, revives and reloads
// (weight, capacity and add steps) ride along.
TEST(MaxMinWhatIfTest, AnswersMatchADeltaSolveAndTheReference) {
  MaxMinSolver solver;
  MaxMinSolver twin;
  MaxMinSolver scratch;  // Shared across instances: stale state must not leak.
  size_t spliced = 0;
  size_t resumed = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    sim::Rng rng(seed * 2654435761u + 5);
    Shadow sh = MakeShadow(rng, static_cast<int>(rng.UniformInt(2, 20)),
                           static_cast<int>(rng.UniformInt(2, 50)));
    PrimeSolver(solver, sh);
    PrimeSolver(twin, sh);
    const auto pick_flow = [&] {
      return static_cast<int32_t>(rng.UniformInt(0, static_cast<int64_t>(sh.flows.size()) - 1));
    };
    const auto pick_demand = [&] { return rng.Bernoulli(0.05) ? 0.0 : RandomDemand(rng); };
    for (size_t step = 1; step <= 30; ++step) {
      if (rng.Bernoulli(0.15)) {  // A new problem for both.
        sh.flows[static_cast<size_t>(pick_flow())].weight = rng.Uniform(0.1, 4.0);
        LoadSolver(solver, sh);
        LoadSolver(twin, sh);
        solver.SolveDelta();
        twin.SolveDelta();
        continue;
      }
      const std::vector<double> rates = solver.rates();
      const uint64_t solves = solver.delta_solves();
      const uint64_t fallbacks = solver.delta_fallbacks();
      const uint64_t noops = solver.delta_noop_splices();
      const size_t rounds = solver.last_rounds();
      for (int probe = 0; probe < 3; ++probe) {
        const int32_t f = pick_flow();
        const double d = pick_demand();
        const double got = solver.WhatIf(f, d, scratch);
        Shadow mutated = sh;
        mutated.flows[static_cast<size_t>(f)].demand = d;
        ASSERT_EQ(got, SolveMaxMinReference(mutated.flows, mutated.caps)[static_cast<size_t>(f)])
            << "seed " << seed << " step " << step << " flow " << f;
      }
      ExpectIdentical(solver.rates(), rates, seed, step);
      EXPECT_EQ(solver.delta_solves(), solves);
      EXPECT_EQ(solver.delta_fallbacks(), fallbacks);
      EXPECT_EQ(solver.delta_noop_splices(), noops);
      EXPECT_EQ(solver.last_rounds(), rounds);

      // The step both take: the what-if of it first, then the real thing.
      const int32_t f = pick_flow();
      const double d = pick_demand();
      const double got = solver.WhatIf(f, d, scratch);
      solver.UpdateFlowDemand(f, d);
      twin.UpdateFlowDemand(f, d);
      sh.flows[static_cast<size_t>(f)].demand = d;
      const std::vector<double>& want = twin.SolveDelta();
      ASSERT_EQ(got, want[static_cast<size_t>(f)]) << "seed " << seed << " step " << step;
      ExpectIdentical(solver.SolveDelta(), want, seed, step);
      ExpectIdentical(want, SolveMaxMinReference(sh.flows, sh.caps), seed, step);
      EXPECT_EQ(solver.last_delta_stats().noop_splice, twin.last_delta_stats().noop_splice);
      EXPECT_EQ(solver.last_delta_stats().fallback_full, twin.last_delta_stats().fallback_full);
      EXPECT_EQ(solver.last_delta_stats().component_links,
                twin.last_delta_stats().component_links);
      spliced += twin.last_delta_stats().noop_splice ? 1 : 0;
      resumed += !twin.last_delta_stats().noop_splice && !twin.last_delta_stats().fallback_full;
      if (HasFailure()) {
        return;
      }
    }
  }
  // Both answer paths ran: the replay alone and a resume in the scratch.
  EXPECT_GT(spliced, 100u);
  EXPECT_GT(resumed, 100u);
}

// The case the scan's link term exists for. A flow capped at exactly the
// level its bottleneck link saturates at sets that round's level twice
// over, through its demand key and through the link term T_r. Lifting it
// leaves the level where it was, so the lift is a no-op splice and its
// what-if needs no resume. A flow capped below its bottleneck level set
// the level alone, so lifting it still resumes. So does one capped a dust
// below: its link still saturates in the round its key sets, but the link
// term T_r sits above that level, and the lift raises the level to it.
TEST(MaxMinWhatIfTest, LiftAtTheBottleneckLevelSplices) {
  // One 100-unit link: flow 2 wants 10, flows 0 and 1 split the other 90.
  Shadow sh;
  sh.caps = {100.0};
  sh.flows = {{1.0, kUnlimitedDemand, {0}}, {1.0, kUnlimitedDemand, {0}}, {1.0, 10.0, {0}}};
  struct Case {
    double cap;
    bool splices;
  };
  for (const Case c : {Case{45.0, true}, Case{45.0 - 1e-11, false}, Case{30.0, false}}) {
    SCOPED_TRACE(c.cap);
    MaxMinSolver solver;
    MaxMinSolver scratch;
    PrimeSolver(solver, sh);
    ASSERT_EQ(solver.rates()[0], 45.0);
    solver.UpdateFlowDemand(0, c.cap);
    ASSERT_EQ(solver.SolveDelta()[0], c.cap);

    EXPECT_EQ(solver.WhatIf(0, kUnlimitedDemand, scratch), 45.0);
    solver.UpdateFlowDemand(0, kUnlimitedDemand);
    ExpectIdentical(solver.SolveDelta(), SolveMaxMinReference(sh.flows, sh.caps), 0, 1);
    EXPECT_EQ(solver.last_delta_stats().noop_splice, c.splices);
    EXPECT_FALSE(solver.last_delta_stats().fallback_full);
  }
}

// End-to-end: the Fabric's retained diff path (dirty flow worklist +
// SolveDelta) must track the reference oracle bit-for-bit through a chaos
// mutation trace — flow add/remove, demand/weight/limit churn, fault
// inject/clear — reconstructed purely from the fabric's public state. DDIO
// stays off so the allocation is a single max-min instance per step.
TEST(FabricDeltaEquivalenceTest, MutationTraceMatchesReferenceAtEveryStep) {
  sim::Simulation sim(7);
  const topology::Server server = topology::BuildServer(topology::ServerSpec{});
  ASSERT_EQ(server.topo.Validate(), "");
  FabricConfig config;
  config.ddio_enabled = false;
  Fabric fabric(sim, server.topo, config);
  sim::Rng rng(1234);

  std::vector<topology::ComponentId> endpoints;
  for (const topology::Component& c : server.topo.components()) {
    if (topology::IsEndpointKind(c.kind)) {
      endpoints.push_back(c.id);
    }
  }
  ASSERT_GE(endpoints.size(), 2u);
  const auto pick_endpoint = [&] {
    return endpoints[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(endpoints.size()) - 1))];
  };
  const auto pick_link = [&] {
    return server.topo.links()[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(server.topo.links().size()) - 1))].id;
  };

  std::vector<FlowId> live;
  const auto check_against_reference = [&](size_t step) {
    const std::vector<FlowId> ids = fabric.ActiveFlows();
    std::vector<MaxMinFlow> flows;
    flows.reserve(ids.size());
    for (const FlowId id : ids) {
      const std::optional<FlowInfo> info = fabric.GetFlowInfo(id);
      ASSERT_TRUE(info.has_value());
      MaxMinFlow f;
      f.weight = info->weight;
      f.demand = std::min(info->demand.bytes_per_sec(), info->limit.bytes_per_sec());
      for (const topology::DirectedLink& hop : info->path->hops) {
        f.links.push_back(topology::DirectedIndex(hop));
      }
      std::sort(f.links.begin(), f.links.end());
      f.links.erase(std::unique(f.links.begin(), f.links.end()), f.links.end());
      flows.push_back(std::move(f));
    }
    std::vector<double> caps(server.topo.link_count() * 2, 0.0);
    for (const topology::Link& link : server.topo.links()) {
      for (const bool fwd : {true, false}) {
        const topology::DirectedLink dlink{link.id, fwd};
        caps[static_cast<size_t>(topology::DirectedIndex(dlink))] =
            fabric.EffectiveCapacity(dlink).bytes_per_sec();
      }
    }
    const std::vector<double> want = SolveMaxMinReference(flows, caps);
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(fabric.FlowRate(ids[i]).bytes_per_sec(), want[i])
          << "flow " << ids[i] << " step " << step;
    }
  };

  for (size_t step = 0; step < 200; ++step) {
    const int burst = static_cast<int>(rng.UniformInt(1, 4));
    for (int b = 0; b < burst; ++b) {
      const int kind = static_cast<int>(rng.UniformInt(0, 9));
      if (kind <= 2 || live.empty()) {  // Start a flow.
        const topology::ComponentId src = pick_endpoint();
        const topology::ComponentId dst = pick_endpoint();
        if (src == dst) {
          continue;
        }
        const auto path = fabric.Route(src, dst);
        if (!path) {
          continue;
        }
        FlowSpec spec;
        spec.path = *path;
        spec.weight = rng.Uniform(0.5, 4.0);
        spec.demand = rng.Bernoulli(0.4)
                          ? sim::Bandwidth::BytesPerSec(kUnlimitedDemand)
                          : sim::Bandwidth::Gbps(rng.Uniform(0.1, 80.0));
        const FlowId id = fabric.StartFlow(std::move(spec));
        if (id != kInvalidFlow) {
          live.push_back(id);
        }
      } else if (kind <= 4) {  // Demand churn.
        const FlowId id = live[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
        fabric.SetFlowDemand(id, sim::Bandwidth::Gbps(rng.Uniform(0.1, 120.0)));
      } else if (kind == 5) {  // Weight churn.
        const FlowId id = live[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
        fabric.SetFlowWeight(id, rng.Uniform(0.25, 8.0));
      } else if (kind == 6) {  // Limit churn.
        const FlowId id = live[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
        fabric.SetFlowLimit(id, sim::Bandwidth::Gbps(rng.Uniform(0.05, 60.0)));
      } else if (kind == 7) {  // Stop a flow.
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        fabric.StopFlow(live[at]);
        live.erase(live.begin() + static_cast<ptrdiff_t>(at));
      } else if (kind == 8) {  // Fault injection (degrade, sometimes kill).
        fabric.InjectLinkFault(
            pick_link(), LinkFault{rng.Bernoulli(0.25) ? 0.0 : rng.Uniform(0.2, 0.9),
                                   sim::TimeNs::Zero()});
      } else {  // Fault clear.
        fabric.ClearLinkFault(pick_link());
      }
    }
    check_against_reference(step);
    if (HasFailure()) {
      return;
    }
  }
  // The trace must have actually exercised the machinery: a healthy run
  // carries dozens of concurrent flows and solved once per burst.
  EXPECT_GE(live.size(), 10u);
  EXPECT_GE(fabric.recompute_count(), 100u);
  EXPECT_GE(fabric.mutation_count(), fabric.recompute_count());
}

}  // namespace
}  // namespace mihn::fabric
