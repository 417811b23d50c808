// Differential test: the pooled Simulation against ReferenceSimulation.
//
// One templated script drives both engines with identical seeded workloads —
// bulk one-shot scheduling, cancellations (external, self, mid-periodic),
// periodics, pre-advance hooks scheduling at now_, RunUntil segments and a
// Stop/resume — while a Tracer + SimTraceObserver records every firing.
// The engines must produce identical (label, time, order) firing sequences,
// identical executed/pending counts, and byte-identical Chrome-trace JSON.
// Any divergence in dispatch order, clamping, re-arm timing or the
// observer-visible queue depth shows up as a string diff here.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/sim_trace.h"
#include "src/obs/tracer.h"
#include "src/sim/random.h"
#include "src/sim/reference_simulation.h"
#include "src/sim/simulation.h"

namespace mihn::sim {
namespace {

struct ScriptResult {
  // "label@time" per firing, in execution order.
  std::vector<std::string> firings;
  uint64_t executed = 0;
  size_t pending_at_stop = 0;
  int64_t final_now = 0;
  std::string trace_json;
};

// Static labels: engines store the pointer, never a copy.
constexpr const char* kOneShotLabels[] = {"ev.alpha", "ev.beta", "ev.gamma",
                                          "ev.delta"};

template <typename Engine>
ScriptResult RunScript(uint64_t seed) {
  Engine sim;
  obs::TraceConfig config;
  config.enabled = true;
  obs::Tracer tracer(config, &sim);
  obs::SimTraceObserver observer(&tracer);
  sim.SetEventObserver(&observer);

  ScriptResult out;
  auto record = [&](const char* label) {
    out.firings.push_back(std::string(label) + "@" +
                          std::to_string(sim.Now().nanos()));
  };

  // The script's own randomness is seeded identically for both engines and
  // consumed in identical order (same code path), so both see the same
  // workload.
  Rng rng(seed * 1000003);

  // Phase 1: 200 one-shots across [0, 5000]ns; every third cancelled.
  std::vector<typename Engine::Handle> handles;
  for (int i = 0; i < 200; ++i) {
    const char* label = kOneShotLabels[i % 4];
    const TimeNs at = TimeNs::Nanos(rng.UniformInt(0, 5000));
    handles.push_back(sim.ScheduleAt(at, [&record, label] { record(label); }, label));
  }
  for (size_t i = 0; i < handles.size(); i += 3) {
    handles[i].Cancel();
  }

  // A periodic that cancels itself mid-callback on its 12th firing.
  int self_count = 0;
  typename Engine::Handle self_periodic;
  self_periodic = sim.SchedulePeriodic(
      TimeNs::Nanos(97),
      [&] {
        record("periodic.self");
        if (++self_count == 12) {
          self_periodic.Cancel();
        }
      },
      "periodic.self");

  // A periodic cancelled externally at t=2000.
  auto ext_periodic = sim.SchedulePeriodic(
      TimeNs::Nanos(151), [&] { record("periodic.ext"); }, "periodic.ext");
  sim.ScheduleAt(TimeNs::Nanos(2000), [&] {
    record("canceller");
    ext_periodic.Cancel();
  }, "canceller");

  // A pre-advance hook that occasionally schedules at now_ (the "flush
  // spawns same-timestamp work" pattern) and once schedules in the past
  // (exercising the clamp inside a hook).
  int hook_spawns = 0;
  sim.AddPreAdvanceHook([&] {
    if (hook_spawns < 5 && sim.Now().nanos() > 500 * (hook_spawns + 1)) {
      ++hook_spawns;
      sim.ScheduleAt(sim.Now(), [&] { record("hook.spawn"); }, "hook.spawn");
    }
    if (hook_spawns == 3 && sim.Now().nanos() > 1700) {
      ++hook_spawns;  // Reuse the counter so this fires exactly once.
      sim.ScheduleAt(TimeNs::Nanos(1), [&] { record("hook.past"); }, "hook.past");
    }
  });

  // Phase 2: run to 2500, schedule a second wave (some in the past — they
  // clamp to now), then a Stop/resume, then drain.
  sim.RunUntil(TimeNs::Nanos(2500));
  for (int i = 0; i < 100; ++i) {
    const char* label = kOneShotLabels[(i + 1) % 4];
    const TimeNs at = TimeNs::Nanos(rng.UniformInt(2000, 6000));
    handles.push_back(sim.ScheduleAt(at, [&record, label] { record(label); }, label));
  }
  for (size_t i = 200; i < handles.size(); i += 5) {
    handles[i].Cancel();
  }

  sim.ScheduleAt(TimeNs::Nanos(3000), [&] {
    record("stopper");
    sim.Stop();
  }, "stopper");
  sim.Run();  // Halts at the stopper.
  out.pending_at_stop = sim.pending_events();

  sim.RunUntil(TimeNs::Nanos(5500));
  sim.Run();  // Drain.

  out.executed = sim.events_executed();
  out.final_now = sim.Now().nanos();
  out.trace_json = obs::ChromeTraceJson(tracer);
  return out;
}

class EngineDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineDifferentialTest, IdenticalFiringSequenceAndTrace) {
  const uint64_t seed = GetParam();
  const ScriptResult pooled = RunScript<Simulation>(seed);
  const ScriptResult reference = RunScript<ReferenceSimulation>(seed);

  ASSERT_EQ(pooled.firings.size(), reference.firings.size());
  for (size_t i = 0; i < pooled.firings.size(); ++i) {
    ASSERT_EQ(pooled.firings[i], reference.firings[i]) << "first divergence at firing " << i;
  }
  EXPECT_EQ(pooled.executed, reference.executed);
  EXPECT_EQ(pooled.pending_at_stop, reference.pending_at_stop);
  EXPECT_EQ(pooled.final_now, reference.final_now);

  // Byte-identical export: same spans, same counters (including the
  // observer's queue-depth samples), same formatting.
  EXPECT_EQ(pooled.trace_json, reference.trace_json);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialTest,
                         ::testing::Values(1u, 2u, 42u, 1234u, 987654321u));

// The pooled engine must be deterministic run-to-run, not merely
// reference-matching: two pooled runs of the same script are byte-identical.
TEST(EngineDifferentialTest, PooledEngineIsSelfDeterministic) {
  const ScriptResult a = RunScript<Simulation>(7);
  const ScriptResult b = RunScript<Simulation>(7);
  EXPECT_EQ(a.firings, b.firings);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

}  // namespace
}  // namespace mihn::sim
