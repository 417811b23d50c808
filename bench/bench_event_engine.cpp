// Event-engine bench: the pooled Simulation (slab + inline closures +
// indexed heap of 24-byte entries) vs ReferenceSimulation (std::function +
// shared_ptr flag + binary priority_queue) across schedule/fire/cancel
// mixes.
//
// Two mixes, both driven by the same templated code so the engines see
// byte-identical workloads (and must produce identical checksums):
//
//   steady — a fixed population of self-rescheduling events: the fabric's
//     completion-driven pattern. Per firing: 1 pop + 1 push.
//   churn  — schedule-heavy with cancellations: per firing the event
//     re-arms itself, schedules a fresh victim AND cancels an old one —
//     the reference's worst case (a heap full of tombstones, an allocation
//     per schedule, another per top() copy).
//
// The pending-size axis (10^2..10^6) is swept with far-future ballast
// events, measuring how dispatch cost scales with queue depth: O(log n)
// sifts of fat events (closure included) for the reference vs O(log n)
// sifts of 24-byte entries for the pooled engine, whose cancels also leave
// no tombstones behind. Event closures carry a 32-byte
// payload on top of the context pointer — the size of the fabric's
// completion captures — which exceeds libstdc++'s std::function inline
// buffer but fits InlineFn's.
//
// Timing follows the harness in bench_util.h: the two engines run each row
// in alternation and the fastest of 3 runs counts (1 under --smoke), with
// its process-CPU time beside it. Emits machine-readable
// BENCH_event_engine.json in the working directory. --smoke runs a reduced
// grid (CI keeps it under a couple of seconds). The bench is its own
// oracle: it exits 1 (after writing the JSON) when any row's checksum or
// event count differs between the two engines.

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/sim_trace.h"
#include "src/obs/tracer.h"
#include "src/sim/random.h"
#include "src/sim/reference_simulation.h"
#include "src/sim/simulation.h"

namespace mihn {
namespace {

using sim::TimeNs;

// TransferResult-sized cargo: what a realistic completion closure carries.
struct Payload {
  uint64_t a = 0, b = 0, c = 0, d = 0;
};

template <typename Engine>
struct Ctx {
  explicit Ctx(uint64_t seed) : rng(seed * 2654435761u) {}

  Engine sim;
  sim::Rng rng;
  uint64_t checksum = 0;
  uint64_t fired = 0;
  uint64_t budget = 0;
  bool churn = false;
  std::vector<typename Engine::Handle> victims;
  size_t victim_next = 0;
};

template <typename Engine>
void Worker(Ctx<Engine>* ctx, Payload p) {
  ctx->checksum += static_cast<uint64_t>(ctx->sim.Now().nanos()) + p.a;
  if (++ctx->fired >= ctx->budget) {
    ctx->sim.Stop();
    return;
  }
  Payload np = p;
  ++np.a;
  // Re-arm self: the steady-state pop+push cycle.
  ctx->sim.ScheduleAfter(TimeNs::Nanos(ctx->rng.UniformInt(100, 10000)),
                         [ctx, np] { Worker(ctx, np); }, "bench.worker");
  if (ctx->churn) {
    // Schedule a victim and cancel the one scheduled |ring| firings ago —
    // half-ish die unfired, leaving tombstones for the reference heap.
    auto victim = ctx->sim.ScheduleAfter(
        TimeNs::Nanos(ctx->rng.UniformInt(5000, 50000)),
        [ctx, np] { ctx->checksum += np.b + 1; }, "bench.victim");
    ctx->victims[ctx->victim_next].Cancel();
    ctx->victims[ctx->victim_next] = victim;
    ctx->victim_next = (ctx->victim_next + 1) % ctx->victims.size();
  }
}

struct RunOutcome {
  uint64_t checksum = 0;
  uint64_t events = 0;
};

// Drives |budget| firings of the mix with |pending| total queue depth
// (active workers + far-future ballast), fills |out| and returns the
// measured region's time. Setup (prefill) is excluded from timing.
template <typename Engine>
bench::Timing RunMix(bool churn, size_t pending, uint64_t budget, bool observe, uint64_t seed,
                     RunOutcome* out) {
  Ctx<Engine> ctx(seed);
  ctx.budget = budget;
  ctx.churn = churn;

  obs::TraceConfig config;
  config.enabled = observe;
  obs::Tracer tracer(config, &ctx.sim);
  obs::SimTraceObserver observer(&tracer);
  if (observe) {
    ctx.sim.SetEventObserver(&observer);
  }

  // Active self-rescheduling population; the rest of |pending| is ballast
  // parked far past the measured horizon (it pads the queue, never fires).
  const size_t active = pending < 4096 ? pending : 4096;
  ctx.victims.resize(active > 64 ? active : 64);
  for (size_t i = 0; i < active; ++i) {
    Payload p;
    p.a = i;
    p.b = i * 3;
    ctx.sim.ScheduleAfter(TimeNs::Nanos(ctx.rng.UniformInt(100, 10000)),
                          [c = &ctx, p] { Worker(c, p); }, "bench.worker");
  }
  for (size_t i = active; i < pending; ++i) {
    ctx.sim.ScheduleAt(TimeNs::Seconds(3600) + TimeNs::Nanos(static_cast<int64_t>(i)),
                       [c = &ctx] { ++c->checksum; }, "bench.ballast");
  }

  // Halts via Stop() when the budget is reached.
  const bench::Timing timing = bench::Time([&] { ctx.sim.Run(); });
  out->events = ctx.sim.events_executed();
  out->checksum = ctx.checksum;
  return timing;
}

}  // namespace
}  // namespace mihn

int main(int argc, char** argv) {
  using namespace mihn;
  const bool smoke = bench::SmokeFlag(argc, argv);

  bench::Banner("event_engine",
                "Pooled Simulation vs ReferenceSimulation: ns/event by mix, "
                "queue depth and observer");
  bench::Table table({{"mix", 8},
                      {"pending", 10},
                      {"observer", 10},
                      {"events", 10},
                      {"ref ns/ev", 12},
                      {"pooled ns/ev", 14},
                      {"speedup", 10},
                      {"identical", 10}});

  const std::vector<size_t> depths =
      smoke ? std::vector<size_t>{100, 10000}
            : std::vector<size_t>{100, 10000, 1000000};
  bench::JsonReport report;
  report.header().Str("bench", "event_engine").Str("unit", "ns_per_event");
  bool all_identical = true;
  for (const bool churn : {false, true}) {
    for (const size_t pending : depths) {
      for (const bool observe : {false, true}) {
        // The reference engine's observer path recomputes the exact live
        // count with an O(pending) scan per event (the price of exposing
        // the same observable as the pooled engine's O(1) counter), so
        // observed rows get smaller budgets and skip the 10^6 tier —
        // a 10ms-per-event scan measures nothing interesting.
        if (observe && pending >= 1000000) {
          continue;
        }
        uint64_t budget = smoke ? 20000 : (pending >= 1000000 ? 200000 : 400000);
        if (observe) {
          budget = smoke ? 5000 : 20000;
        }
        const uint64_t seed = 7u + pending + (churn ? 1u : 0u);

        // Warm both engines once at this shape (page-in, pool growth).
        RunOutcome warm;
        const size_t warm_pending = pending < 1000 ? pending : 1000;
        RunMix<sim::Simulation>(churn, warm_pending, budget / 10, observe, seed, &warm);
        RunMix<sim::ReferenceSimulation>(churn, warm_pending, budget / 10, observe, seed, &warm);

        RunOutcome ref, pooled;
        const auto [ref_run, pooled_run] = bench::Fastest(smoke, [&] {
          return std::array{
              RunMix<sim::ReferenceSimulation>(churn, pending, budget, observe, seed, &ref),
              RunMix<sim::Simulation>(churn, pending, budget, observe, seed, &pooled)};
        });

        const char* mix = churn ? "churn" : "steady";
        const bench::Timing ref_ns = bench::Per(ref_run, static_cast<double>(ref.events));
        const bench::Timing pooled_ns = bench::Per(pooled_run, static_cast<double>(pooled.events));
        const double speedup = ref_ns.wall_ns / pooled_ns.wall_ns;
        const bool identical = pooled.checksum == ref.checksum && pooled.events == ref.events;
        all_identical = all_identical && identical;

        table.Row({mix, std::to_string(pending), observe ? "on" : "off",
                   std::to_string(pooled.events), bench::Fmt("%.1f", ref_ns.wall_ns),
                   bench::Fmt("%.1f", pooled_ns.wall_ns), bench::Fmt("%.2fx", speedup),
                   identical ? "yes" : "NO"});
        report.AddRow()
            .Str("mix", mix)
            .Int("pending", static_cast<int64_t>(pending))
            .Bool("observer", observe)
            .Int("events", static_cast<int64_t>(pooled.events))
            .Num("ref_ns_per_event", ref_ns.wall_ns)
            .Num("ref_cpu_ns_per_event", ref_ns.cpu_ns)
            .Num("pooled_ns_per_event", pooled_ns.wall_ns)
            .Num("pooled_cpu_ns_per_event", pooled_ns.cpu_ns)
            .Num("speedup", speedup)
            .Bool("identical", identical);
      }
    }
  }

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: pooled engine diverged from the reference\n");
  }
  const bool written = report.Write("BENCH_event_engine.json");
  return all_identical && written ? 0 : 1;
}
