// Solver scaling bench: MaxMinSolver vs SolveMaxMinReference (the
// pre-optimisation solver) across flows ∈ {100, 1000, 10000} × links ∈
// {32, 256}, in two scenarios:
//
//  * churn         — every solve is a full rebuild (Begin/AddFlow/Commit)
//                    after a single-flow demand mutation. Measures the raw
//                    full-solve engine against the reference.
//  * churn-single  — the fabric's actual steady-state pattern: the solver
//                    retains the problem and each step is one
//                    UpdateFlowDemand + SolveDelta. Measured against a full
//                    rebuild of the same mutated problem, with every step's
//                    rate vector compared bit-for-bit against the full
//                    solve (and the final state against the reference), and
//                    the delta engine's work metrics (resumed component
//                    size, full-path fallbacks, no-op splices) accumulated
//                    into the emitted JSON.
//
// Timing follows the harness in bench_util.h: the gated sides run 3 times
// (once under --smoke) and the fastest repeat counts, with its process-CPU
// time beside it. The reference side of churn feeds no gate and runs once:
// at 10^4 flows × 32 links it costs about 2 s per solve.
//
// Emits machine-readable BENCH_solver.json in the working directory so the
// perf trajectory is tracked across PRs, plus TRACE_solver.json — a
// wall-clock (profiling-mode) mihn_obs trace of the run, loadable in
// chrome://tracing or Perfetto to see where the bench spends its time.
//
// Exits non-zero if any rate vector mismatches, or if a scaling gate trips:
//  * churn         — per-solve cost must not grow super-linearly across a
//                    decade of flow count (the guard that would have caught
//                    the 10^4 × 32 forced-fix stall regression).
//  * churn-single  — per-mutation delta cost must stay below the full
//                    rebuild of the same config (the delta path must never
//                    lose to the work it is skipping). Decade-monotonicity
//                    is deliberately NOT enforced here: delta cost is
//                    Θ(post-divergence trace length), which tracks round
//                    structure, not flow count.
//
// Flags: --smoke  (reduced grid for CI smoke jobs)

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fabric/max_min.h"
#include "src/obs/export.h"
#include "src/obs/tracer.h"
#include "src/sim/random.h"

namespace mihn {
namespace {

using fabric::MaxMinFlow;
using fabric::MaxMinSolver;
using fabric::kUnlimitedDemand;

struct Instance {
  std::vector<MaxMinFlow> flows;
  std::vector<double> caps;
};

// A multi-tenant-looking population: mostly capped flows with distinct
// demands (distinct demand plateaus → many filling rounds, the worst case
// for the reference's full rescans), a slice of elastic flows, paths of 1-4
// links over the fabric.
Instance MakeInstance(size_t num_flows, size_t num_links, uint64_t seed) {
  sim::Rng rng(seed);
  Instance inst;
  inst.caps.resize(num_links);
  for (auto& c : inst.caps) {
    c = rng.Uniform(1e9, 100e9);
  }
  inst.flows.resize(num_flows);
  for (auto& f : inst.flows) {
    f.weight = rng.Uniform(0.5, 4.0);
    f.demand = rng.Bernoulli(0.2) ? kUnlimitedDemand : rng.Uniform(1e6, 5e9);
    const int nl = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < nl; ++i) {
      f.links.push_back(static_cast<int32_t>(
          rng.UniformInt(0, static_cast<int64_t>(num_links) - 1)));
    }
  }
  return inst;
}

// One churn step: mutate one flow's demand, then re-solve. Returns a
// checksum so the work cannot be optimised away.
double ChurnReference(Instance& inst, size_t iters, sim::Rng& rng) {
  double checksum = 0.0;
  for (size_t i = 0; i < iters; ++i) {
    auto& f = inst.flows[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(inst.flows.size()) - 1))];
    f.demand = rng.Bernoulli(0.2) ? kUnlimitedDemand : rng.Uniform(1e6, 5e9);
    const std::vector<double> rates = fabric::SolveMaxMinReference(inst.flows, inst.caps);
    checksum += rates[i % rates.size()];
  }
  return checksum;
}

// Full rebuild of |inst| through the batch API, as the fabric cold path
// drives it: zero-copy, zero-alloc at steady state.
const std::vector<double>& FullSolve(const Instance& inst, MaxMinSolver& solver) {
  solver.Begin(inst.caps.size());
  for (size_t l = 0; l < inst.caps.size(); ++l) {
    solver.SetCapacity(static_cast<int32_t>(l), inst.caps[l]);
  }
  for (const MaxMinFlow& flow : inst.flows) {
    solver.AddFlow(flow.weight, flow.demand, flow.links.data(), flow.links.size());
  }
  return solver.Commit();
}

double ChurnSolver(Instance& inst, size_t iters, sim::Rng& rng, MaxMinSolver& solver) {
  double checksum = 0.0;
  for (size_t i = 0; i < iters; ++i) {
    auto& f = inst.flows[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(inst.flows.size()) - 1))];
    f.demand = rng.Bernoulli(0.2) ? kUnlimitedDemand : rng.Uniform(1e6, 5e9);
    const std::vector<double>& rates = FullSolve(inst, solver);
    checksum += rates[i % rates.size()];
  }
  return checksum;
}

bool SameRates(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {  // mihn-check: float-eq-ok(bit-identity differential gate)
      return false;
    }
  }
  return true;
}

struct Result {
  const char* scenario;
  size_t flows, links, iters;
  bench::Timing base;  // Per solve: reference (churn) / full rebuild (churn-single).
  bench::Timing next;  // Per solve: full solver (churn) / SolveDelta (churn-single).
  bool identical;
  // churn-single delta-engine metrics (zero for churn rows).
  bool has_delta_stats = false;
  double component_links_mean = 0.0;
  size_t fallback_full_solves = 0;
  size_t noop_splices = 0;

  double speedup() const { return base.wall_ns / next.wall_ns; }
};

// Full-rebuild churn: reference vs solver, both rebuilding per mutation.
Result RunChurn(size_t num_flows, size_t num_links, size_t iters, bool smoke,
                MaxMinSolver& solver, obs::Tracer& tracer) {
  const uint64_t seed = 1000003u * num_flows + num_links;

  // Correctness gate first: identical rates on the starting instance.
  Instance check = MakeInstance(num_flows, num_links, seed);
  const std::vector<double> want = fabric::SolveMaxMinReference(check.flows, check.caps);
  bool identical = SameRates(solver.Solve(check.flows, check.caps), want);

  // Warm the solver once (page in, size the workspace).
  {
    sim::Rng warm(seed + 2);
    Instance w = MakeInstance(num_flows, num_links, seed);
    ChurnSolver(w, 1, warm, solver);
  }

  Result r{"churn", num_flows, num_links, iters, {}, {}, identical};
  double cs_ref = 0.0;
  {
    MIHN_TRACE_SPAN(ref_span, &tracer, "solver", "churn.reference");
    ref_span.Arg("flows", static_cast<double>(num_flows));
    ref_span.Arg("links", static_cast<double>(num_links));
    ref_span.Arg("iters", static_cast<double>(iters));
    Instance inst = MakeInstance(num_flows, num_links, seed);
    sim::Rng rng(seed + 1);
    r.base = bench::Time([&] { cs_ref = ChurnReference(inst, iters, rng); });
  }
  {
    MIHN_TRACE_SPAN(new_span, &tracer, "solver", "churn.solver");
    new_span.Arg("flows", static_cast<double>(num_flows));
    new_span.Arg("links", static_cast<double>(num_links));
    new_span.Arg("iters", static_cast<double>(iters));
    r.next = bench::Fastest(smoke, [&] {
      Instance inst = MakeInstance(num_flows, num_links, seed);
      sim::Rng rng(seed + 1);
      double cs = 0.0;
      const bench::Timing timing = bench::Time([&] { cs = ChurnSolver(inst, iters, rng, solver); });
      // Same mutation stream as the reference -> identical checksums expected.
      const bool same = cs == cs_ref;  // mihn-check: float-eq-ok(bit-identity differential gate)
      r.identical = r.identical && same;
      return std::array{timing};
    })[0];
  }
  r.base = bench::Per(r.base, static_cast<double>(iters));
  r.next = bench::Per(r.next, static_cast<double>(iters));
  MIHN_TRACE_COUNTER(&tracer, "solver", "solver.ns_per_solve", r.next.wall_ns);
  MIHN_TRACE_COUNTER(&tracer, "solver", "solver.speedup", r.speedup());
  return r;
}

// Retained single-flow churn: per mutation, UpdateFlowDemand + SolveDelta on
// a primed solver vs a full rebuild of the same problem, every step checked
// bit-for-bit. Delta and full solves interleave step by step, so one pass
// is one repeat; every pass replays the same mutation stream from the same
// start, so the reference checks the start and the end state once.
Result RunChurnSingle(size_t num_flows, size_t num_links, size_t iters, bool smoke,
                      obs::Tracer& tracer) {
  const uint64_t seed = 1000003u * num_flows + num_links;
  const Instance start = MakeInstance(num_flows, num_links, seed);
  const std::vector<double> start_want = fabric::SolveMaxMinReference(start.flows, start.caps);

  Result r{"churn-single", num_flows, num_links, iters, {}, {}, true};
  r.has_delta_stats = true;
  Instance inst;
  MaxMinSolver delta_solver;
  MaxMinSolver full_solver;
  double component_links_sum = 0.0;
  {
    MIHN_TRACE_SPAN(span, &tracer, "solver", "churn_single.delta");
    span.Arg("flows", static_cast<double>(num_flows));
    span.Arg("links", static_cast<double>(num_links));
    span.Arg("iters", static_cast<double>(iters));
    const auto [full, delta] = bench::Fastest(smoke, [&] {
      // Prime the retained problem, and warm the baseline workspace.
      inst = start;
      r.identical = r.identical && SameRates(FullSolve(inst, delta_solver), start_want);
      FullSolve(inst, full_solver);
      component_links_sum = 0.0;
      r.fallback_full_solves = r.noop_splices = 0;
      std::array<bench::Timing, 2> pass{};
      sim::Rng rng(seed + 1);
      for (size_t i = 0; i < iters; ++i) {
        const int32_t slot = static_cast<int32_t>(
            rng.UniformInt(0, static_cast<int64_t>(inst.flows.size()) - 1));
        const double demand = rng.Bernoulli(0.2) ? kUnlimitedDemand : rng.Uniform(1e6, 5e9);
        inst.flows[static_cast<size_t>(slot)].demand = demand;

        const std::vector<double>* got = nullptr;
        pass[1] += bench::Time([&] {
          delta_solver.UpdateFlowDemand(slot, demand);
          got = &delta_solver.SolveDelta();
        });
        const MaxMinSolver::DeltaStats& stats = delta_solver.last_delta_stats();
        component_links_sum += static_cast<double>(stats.component_links);
        r.fallback_full_solves += stats.fallback_full ? 1u : 0u;
        r.noop_splices += stats.noop_splice ? 1u : 0u;

        const std::vector<double>* want = nullptr;
        pass[0] += bench::Time([&] { want = &FullSolve(inst, full_solver); });
        r.identical = r.identical && SameRates(*got, *want);
      }
      return pass;
    });
    r.base = bench::Per(full, static_cast<double>(iters));
    r.next = bench::Per(delta, static_cast<double>(iters));
    span.Arg("fallback_full_solves", static_cast<double>(r.fallback_full_solves));
  }
  // End-state gate against the oracle itself (one reference solve).
  const std::vector<double> end_want = fabric::SolveMaxMinReference(inst.flows, inst.caps);
  r.identical = r.identical && SameRates(delta_solver.rates(), end_want);
  r.component_links_mean = component_links_sum / static_cast<double>(iters);
  MIHN_TRACE_COUNTER(&tracer, "solver", "delta.ns_per_solve", r.next.wall_ns);
  MIHN_TRACE_COUNTER(&tracer, "solver", "delta.speedup", r.speedup());
  return r;
}

// Full-rebuild per-solve cost must not grow super-linearly across a decade
// of flows at fixed link count: allow 30× per 10× flows over a 50 µs noise
// floor. The 10^4 × 32 forced-fix stall (one O(flows × links) rescan per
// remaining flow) violated this by two orders of magnitude. Applies to the
// churn scenario only — churn-single's delta cost is Θ(post-divergence
// trace length), not flow count, so decade ratios are meaningless there.
bool CheckMonotoneSane(const std::vector<Result>& results) {
  bool ok = true;
  for (const Result& big : results) {
    if (std::strcmp(big.scenario, "churn") != 0) {
      continue;
    }
    for (const Result& small : results) {
      if (std::strcmp(big.scenario, small.scenario) != 0 || big.links != small.links ||
          big.flows != 10 * small.flows) {
        continue;
      }
      const double allowed = 30.0 * std::max(small.next.wall_ns, 5e4);
      if (big.next.wall_ns > allowed) {
        std::fprintf(stderr,
                     "MONOTONE VIOLATION [%s links=%zu]: %zu flows -> %.0f ns/solve but "
                     "%zu flows -> %.0f ns/solve (allowed <= %.0f)\n",
                     big.scenario, big.links, small.flows, small.next.wall_ns, big.flows,
                     big.next.wall_ns, allowed);
        ok = false;
      }
    }
  }
  return ok;
}

// The delta path must never lose to the full rebuild it short-circuits:
// per-mutation SolveDelta cost stays under 1.5× the same config's full
// rebuild, plus a 100 µs noise floor for the tiny configs where both sides
// are a handful of microseconds. A violation means the retained-trace
// machinery (scan, resume, re-waterfill) costs more than the work it
// skips — the delta engine has regressed into a slow full solve.
bool CheckDeltaSane(const std::vector<Result>& results) {
  bool ok = true;
  for (const Result& r : results) {
    if (!r.has_delta_stats) {
      continue;
    }
    const double allowed = 1.5 * r.base.wall_ns + 1e5;
    if (r.next.wall_ns > allowed) {
      std::fprintf(stderr,
                   "DELTA VIOLATION [churn-single flows=%zu links=%zu]: delta %.0f ns/solve "
                   "vs full %.0f ns/solve (allowed <= %.0f)\n",
                   r.flows, r.links, r.next.wall_ns, r.base.wall_ns, allowed);
      ok = false;
    }
  }
  return ok;
}

}  // namespace
}  // namespace mihn

int main(int argc, char** argv) {
  using namespace mihn;
  const bool smoke = bench::SmokeFlag(argc, argv);

  bench::Banner("solver_scaling",
                "Per-mutation solve cost: full rebuild (churn) and retained delta "
                "(churn-single) vs their baselines");
  bench::Table table({{"scenario", 14},
                      {"flows", 8},
                      {"links", 8},
                      {"iters", 8},
                      {"base us/solve", 16},
                      {"new us/solve", 16},
                      {"speedup", 10},
                      {"fallbk", 8},
                      {"identical", 10}});

  // Standalone profiling tracer (no simulation bound): spans carry
  // wall-clock stamps, laid out on the real timeline. The spans wrap whole
  // measurement phases, outside the timed regions, so they cost the
  // benchmark nothing.
  obs::TraceConfig trace_config;
  trace_config.enabled = true;
  trace_config.profiling = true;
  obs::Tracer tracer(trace_config);

  const std::vector<size_t> flow_grid = smoke ? std::vector<size_t>{1000u}
                                              : std::vector<size_t>{100u, 1000u, 10000u};
  const std::vector<size_t> link_grid = {32u, 256u};

  std::vector<Result> results;
  MaxMinSolver churn_solver;
  for (const size_t num_flows : flow_grid) {
    for (const size_t num_links : link_grid) {
      // Budget iterations so the reference side stays tractable at 10^4.
      const size_t churn_iters =
          smoke ? 20 : (num_flows >= 10000 ? 5 : (num_flows >= 1000 ? 40 : 400));
      results.push_back(
          RunChurn(num_flows, num_links, churn_iters, smoke, churn_solver, tracer));
      const size_t single_iters = smoke ? 50 : (num_flows >= 10000 ? 200 : 400);
      results.push_back(RunChurnSingle(num_flows, num_links, single_iters, smoke, tracer));
    }
  }

  bench::JsonReport report;
  report.header().Str("bench", "solver_scaling").Bool("smoke", smoke).Str("unit", "ns_per_solve");
  bool all_identical = true;
  for (const Result& r : results) {
    table.Row({r.scenario, std::to_string(r.flows), std::to_string(r.links),
               std::to_string(r.iters), bench::Fmt("%.1f", r.base.wall_ns / 1e3),
               bench::Fmt("%.1f", r.next.wall_ns / 1e3), bench::Fmt("%.1fx", r.speedup()),
               r.has_delta_stats ? std::to_string(r.fallback_full_solves) : "-",
               r.identical ? "yes" : "NO"});
    bench::Fields& row = report.AddRow()
                             .Str("scenario", r.scenario)
                             .Int("flows", static_cast<int64_t>(r.flows))
                             .Int("links", static_cast<int64_t>(r.links))
                             .Int("iters", static_cast<int64_t>(r.iters));
    if (r.has_delta_stats) {
      row.Num("full_ns", r.base.wall_ns)
          .Num("full_cpu_ns", r.base.cpu_ns)
          .Num("delta_ns", r.next.wall_ns)
          .Num("delta_cpu_ns", r.next.cpu_ns)
          .Num("speedup", r.speedup())
          .Num("component_links_mean", r.component_links_mean)
          .Int("fallback_full_solves", static_cast<int64_t>(r.fallback_full_solves))
          .Int("noop_splices", static_cast<int64_t>(r.noop_splices));
    } else {
      row.Num("reference_ns", r.base.wall_ns)
          .Num("reference_cpu_ns", r.base.cpu_ns)
          .Num("solver_ns", r.next.wall_ns)
          .Num("solver_cpu_ns", r.next.cpu_ns)
          .Num("speedup", r.speedup());
    }
    row.Bool("identical", r.identical);
    all_identical = all_identical && r.identical;
  }
  bool ok = report.Write("BENCH_solver.json");
  if (obs::WriteChromeTraceFile(tracer, "TRACE_solver.json")) {
    std::printf("wrote TRACE_solver.json (open in chrome://tracing or ui.perfetto.dev)\n");
  }

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: rate mismatch against the oracle\n");
  }
  ok = CheckMonotoneSane(results) && ok;
  ok = CheckDeltaSane(results) && ok;
  return all_identical && ok ? 0 : 1;
}
