// Proof of the engine's zero-allocation steady state.
//
// This binary overrides global operator new/delete with a counting shim
// (which is why it is its own test target: the override is link-global).
// The test warms a stationary schedule/fire/cancel/periodic mix until the
// event pool and event queue reach their high-water marks, then flips the
// counter on and drives hundreds of thousands more events. Any heap
// allocation on the dispatch path — a closure that outgrew the inline
// buffer, a re-arm that builds a fresh closure, a queue that grew — fails
// the test. Callbacks here are small POD functors on purpose: the claim
// under test is about the engine, so the workload must not allocate either.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/obs/sim_trace.h"
#include "src/obs/tracer.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"

namespace {

// mihn-check: mutable-ok(operator-new shim state is necessarily link-global)
bool g_counting = false;
// mihn-check: mutable-ok(operator-new shim state is necessarily link-global)
size_t g_allocations = 0;

void* CountedAlloc(size_t size) {
  if (g_counting) {
    ++g_allocations;
  }
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void* operator new(size_t size, std::align_val_t) { return CountedAlloc(size); }
void* operator new[](size_t size, std::align_val_t) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace mihn::sim {
namespace {

// Workload state shared by the POD event functors (globals keep every
// functor pointer-free and inline-sized; the single-threaded test binary
// owns them for its whole lifetime).
// mihn-check: mutable-ok(keeps the zero-alloc functors pointer-free)
Simulation* g_sim = nullptr;
// mihn-check: mutable-ok(keeps the zero-alloc functors pointer-free)
Rng* g_rng = nullptr;
// mihn-check: mutable-ok(keeps the zero-alloc functors pointer-free)
uint64_t g_noop_fired = 0;
constexpr size_t kVictimRing = 64;
// mihn-check: mutable-ok(keeps the zero-alloc functors pointer-free)
EventHandle g_victims[kVictimRing];
// mihn-check: mutable-ok(keeps the zero-alloc functors pointer-free)
size_t g_victim_next = 0;

// Fires, does nothing. Victim fodder for the cancellation churn.
struct NoopEvent {
  void operator()() const { ++g_noop_fired; }
};

// A fixed population of these keeps rescheduling itself; each firing also
// schedules a victim and cancels the one scheduled kVictimRing firings ago
// (which may have fired already — cancelling a stale handle is the inert
// path, also worth exercising).
struct ChurnEvent {
  void operator()() const {
    g_sim->ScheduleAfter(TimeNs::Nanos(g_rng->UniformInt(1, 400)), ChurnEvent{}, "churn");
    EventHandle victim = g_sim->ScheduleAfter(TimeNs::Nanos(g_rng->UniformInt(100, 900)),
                                              NoopEvent{}, "victim");
    g_victims[g_victim_next].Cancel();
    g_victims[g_victim_next] = victim;
    g_victim_next = (g_victim_next + 1) % kVictimRing;
  }
};

TEST(EngineAllocTest, SteadyStateDispatchAllocatesNothing) {
  Simulation sim;
  // Pre-size pool and queue: with the reservation in place, zero
  // allocations is a hard guarantee rather than "after organic high-water
  // warm-up" (where occupancy hovering at a vector growth boundary could
  // trip one late doubling).
  sim.ReserveEvents(2048);
  Rng rng = sim.ForkRng(99);
  g_sim = &sim;
  g_rng = &rng;
  g_noop_fired = 0;
  g_victim_next = 0;
  for (EventHandle& h : g_victims) {
    h = EventHandle();
  }

  // Tracing on: the observer path must be allocation-free too (the tracer's
  // rings are allocated once, at construction).
  obs::TraceConfig config;
  config.enabled = true;
  obs::Tracer tracer(config, &sim);
  obs::SimTraceObserver observer(&tracer);
  sim.SetEventObserver(&observer);

  // The mix: 64 churners, a periodic, and a pre-advance hook.
  for (int i = 0; i < 64; ++i) {
    sim.ScheduleAfter(TimeNs::Nanos(rng.UniformInt(1, 400)), ChurnEvent{}, "churn");
  }
  uint64_t periodic_fired = 0;
  sim.SchedulePeriodic(TimeNs::Nanos(257), [&periodic_fired] { ++periodic_fired; },
                       "periodic");
  uint64_t hook_fired = 0;
  sim.AddPreAdvanceHook([&hook_fired] { ++hook_fired; });

  // Warm-up: let the pool slab, the queue's heap and the free list hit
  // their high-water marks.
  sim.RunUntil(TimeNs::Micros(500));
  const uint64_t warm_events = sim.events_executed();
  const size_t warm_capacity = sim.event_pool_capacity();
  ASSERT_GT(warm_events, 100000u) << "warm-up did not generate enough churn";

  // Measurement window: same stationary mix, counter armed.
  g_allocations = 0;
  g_counting = true;
  sim.RunUntil(TimeNs::Micros(1000));
  g_counting = false;

  const uint64_t measured_events = sim.events_executed() - warm_events;
  EXPECT_GT(measured_events, 100000u);
  EXPECT_EQ(g_allocations, 0u)
      << "steady-state dispatch allocated (" << g_allocations << " allocations over "
      << measured_events << " events)";
  // The pool stopped growing: recycling, not appending.
  EXPECT_EQ(sim.event_pool_capacity(), warm_capacity);
  EXPECT_GT(periodic_fired, 0u);
  EXPECT_GT(hook_fired, 0u);
  EXPECT_GT(g_noop_fired, 0u);

  g_sim = nullptr;
  g_rng = nullptr;
}

// The inline buffer really is big enough for the repo's workhorse closures:
// a capture the size of the fabric's completion lambda (std::function +
// 32-byte result struct) must not fall back to the boxed path.
TEST(EngineAllocTest, RepoSizedClosuresStayInline) {
  struct FabricSizedCapture {
    void* fn_storage[4];     // std::function<void(TransferResult)> is 32 bytes.
    uint64_t result_pod[4];  // TransferResult is 32 bytes of PODs.
  };
  static_assert(sizeof(FabricSizedCapture) <= kEventFnCapacity);
  FabricSizedCapture capture{};
  EventFn fn([capture] { (void)capture; });
  EXPECT_TRUE(fn.is_inline());
}

}  // namespace
}  // namespace mihn::sim
