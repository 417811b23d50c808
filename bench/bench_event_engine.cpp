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
// Emits machine-readable BENCH_event_engine.json in the working directory.
// --smoke runs a reduced grid (CI keeps it under a couple of seconds).
// Unknown flags and bad filter values print the usage line and exit 2. The
// bench is its own oracle: it exits 1 (after writing the JSON) when any
// row's checksum or event count differs between the two engines.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/read_number.h"
#include "src/obs/sim_trace.h"
#include "src/obs/tracer.h"
#include "src/sim/random.h"
#include "src/sim/reference_simulation.h"
#include "src/sim/simulation.h"

namespace mihn {
namespace {

using sim::TimeNs;

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// TransferResult-sized cargo: what a realistic completion closure carries.
struct Payload {
  uint64_t a = 0, b = 0, c = 0, d = 0;
};

template <typename Engine>
struct Ctx {
  explicit Ctx(uint64_t seed) : sim(seed), rng(seed * 2654435761u) {}

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
  double ns_per_event = 0.0;
  uint64_t checksum = 0;
  uint64_t events = 0;
};

// Drives |budget| firings of the mix with |pending| total queue depth
// (active workers + far-future ballast) and returns wall ns/event over the
// measured region. Setup (prefill) is excluded from timing.
template <typename Engine>
RunOutcome RunMix(bool churn, size_t pending, uint64_t budget, bool observe,
                  uint64_t seed) {
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

  const double t0 = NowSec();
  ctx.sim.Run();  // Halts via Stop() when the budget is reached.
  const double t1 = NowSec();

  RunOutcome out;
  out.events = ctx.sim.events_executed();
  out.ns_per_event = (t1 - t0) * 1e9 / static_cast<double>(out.events);
  out.checksum = ctx.checksum;
  return out;
}

struct Row {
  const char* mix;
  size_t pending;
  bool observer;
  uint64_t events;
  double ref_ns, pooled_ns, speedup;
  bool identical;
};

}  // namespace
}  // namespace mihn

int main(int argc, char** argv) {
  using namespace mihn;
  bool smoke = false;
  // Row filters, mainly for profiling one configuration in isolation:
  //   --mix steady|churn   --pending N   --engine pooled|reference
  const char* only_mix = nullptr;
  const char* only_engine = nullptr;
  size_t only_pending = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::string_view value = i + 1 < argc ? argv[i + 1] : "";
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--mix" && (value == "steady" || value == "churn")) {
      only_mix = argv[++i];
    } else if (arg == "--engine" && (value == "pooled" || value == "reference")) {
      only_engine = argv[++i];
    } else if (arg == "--pending" && core::ReadNumber(value, &only_pending) &&
               only_pending > 0) {
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--mix steady|churn] [--pending N] "
                   "[--engine pooled|reference]\n",
                   argv[0]);
      return 2;
    }
  }

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
  std::vector<Row> rows;
  for (const bool churn : {false, true}) {
    for (const size_t pending : depths) {
      for (const bool observe : {false, true}) {
        if (only_mix != nullptr &&
            std::strcmp(only_mix, churn ? "churn" : "steady") != 0) {
          continue;
        }
        if (only_pending != 0 && pending != only_pending) {
          continue;
        }
        if (only_engine != nullptr && observe) {
          continue;  // Profiling mode: unobserved dispatch only.
        }
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
        const bool run_ref =
            only_engine == nullptr || std::strcmp(only_engine, "reference") == 0;
        const bool run_pooled =
            only_engine == nullptr || std::strcmp(only_engine, "pooled") == 0;

        // Warm both engines once at this shape (page-in, pool growth).
        if (run_pooled) {
          RunMix<sim::Simulation>(churn, pending < 1000 ? pending : 1000,
                                  budget / 10, observe, seed);
        }
        if (run_ref) {
          RunMix<sim::ReferenceSimulation>(churn, pending < 1000 ? pending : 1000,
                                           budget / 10, observe, seed);
        }

        // Min of |reps| runs per engine: wall-clock minima reject OS
        // scheduling interference (these runs share the machine), which a
        // mean would fold into the result.
        const int reps = smoke ? 1 : 3;
        RunOutcome ref, pooled;
        for (int r = 0; r < reps; ++r) {
          if (run_ref) {
            const RunOutcome o =
                RunMix<sim::ReferenceSimulation>(churn, pending, budget, observe, seed);
            if (r == 0 || o.ns_per_event < ref.ns_per_event) {
              ref = o;
            }
          }
          if (run_pooled) {
            const RunOutcome o =
                RunMix<sim::Simulation>(churn, pending, budget, observe, seed);
            if (r == 0 || o.ns_per_event < pooled.ns_per_event) {
              pooled = o;
            }
          }
        }
        if (!run_ref) {
          ref = pooled;  // Profiling one engine: degenerate row, speedup 1.
        }
        if (!run_pooled) {
          pooled = ref;
        }

        Row row;
        row.mix = churn ? "churn" : "steady";
        row.pending = pending;
        row.observer = observe;
        row.events = pooled.events;
        row.ref_ns = ref.ns_per_event;
        row.pooled_ns = pooled.ns_per_event;
        row.speedup = ref.ns_per_event / pooled.ns_per_event;
        row.identical =
            pooled.checksum == ref.checksum && pooled.events == ref.events;
        rows.push_back(row);

        table.Row({row.mix, std::to_string(row.pending),
                   row.observer ? "on" : "off", std::to_string(row.events),
                   bench::Fmt("%.1f", row.ref_ns),
                   bench::Fmt("%.1f", row.pooled_ns),
                   bench::Fmt("%.2fx", row.speedup),
                   row.identical ? "yes" : "NO"});
      }
    }
  }

  bool all_identical = true;
  for (const Row& r : rows) {
    all_identical = all_identical && r.identical;
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: pooled engine diverged from the reference\n");
  }
  if (only_mix != nullptr || only_engine != nullptr || only_pending != 0) {
    // Filtered (profiling) runs never clobber the full-grid JSON.
    return all_identical ? 0 : 1;
  }

  std::FILE* json = std::fopen("BENCH_event_engine.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"bench\": \"event_engine\",\n");
    std::fprintf(json, "  \"unit\": \"ns_per_event\",\n  \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(json,
                   "    {\"mix\": \"%s\", \"pending\": %zu, \"observer\": %s, "
                   "\"events\": %" PRIu64
                   ", \"ref_ns_per_event\": %.1f, \"pooled_ns_per_event\": %.1f, "
                   "\"speedup\": %.2f, \"identical\": %s}%s\n",
                   r.mix, r.pending, r.observer ? "true" : "false", r.events,
                   r.ref_ns, r.pooled_ns, r.speedup,
                   r.identical ? "true" : "false",
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_event_engine.json\n");
  }
  return all_identical ? 0 : 1;
}
