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
//
// The same counter then holds the packet path to the same standard: a
// heartbeat mesh and a KV client on an unfaulted fabric, past warm-up,
// send their probes and packets without a single allocation. So is the
// telemetry store: a fine collector and a detector bank, once every ring
// has wrapped, sample and scan without one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/anomaly/bank.h"
#include "src/anomaly/heartbeat.h"
#include "src/fabric/fabric.h"
#include "src/obs/sim_trace.h"
#include "src/obs/tracer.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/telemetry/collector.h"
#include "src/topology/presets.h"
#include "src/workload/kv_client.h"

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

// Heartbeat probes and KV packets borrow their paths from their senders,
// read each hop's latency from the fabric's table, and hand their delivery
// callbacks to the event pool inline: once warm, 1000 mesh ticks (50
// planned probes each) and at least 1000 KV round trips allocate nothing.
TEST(EngineAllocTest, ProbesAndPacketsAllocateNothing) {
  Simulation sim;
  sim.ReserveEvents(64);
  const topology::Server server = topology::CommodityTwoSocket();
  fabric::Fabric fabric(sim, server.topo);

  anomaly::HeartbeatMesh::Config mesh_config;
  for (const auto* endpoints :
       {&server.sockets, &server.nics, &server.gpus, &server.ssds, &server.dimms}) {
    mesh_config.participants.insert(mesh_config.participants.end(), endpoints->begin(),
                                    endpoints->end());
  }
  mesh_config.period = TimeNs::Micros(10);
  anomaly::HeartbeatMesh mesh(fabric, mesh_config);
  ASSERT_EQ(mesh.pair_count(), 50u);

  workload::KvClient::Config kv_config;
  kv_config.client = server.external_hosts[0];
  kv_config.server = server.sockets[0];
  kv_config.concurrency = 1;
  workload::KvClient kv(fabric, kv_config);
  mesh.Start();
  kv.Start();

  sim.RunFor(TimeNs::Millis(1));  // Warm-up: 100 ticks.
  const uint64_t probes_before = mesh.probes_sent();
  const int64_t ops_before = kv.completed_ops();
  ASSERT_GT(ops_before, 0);

  g_allocations = 0;
  g_counting = true;
  sim.RunFor(TimeNs::Millis(10));  // 1000 ticks.
  g_counting = false;

  EXPECT_EQ(mesh.probes_sent() - probes_before, 1000u * mesh.pair_count());
  EXPECT_GE(kv.completed_ops() - ops_before, 1000);
  EXPECT_EQ(g_allocations, 0u) << "the packet path allocated " << g_allocations << " times";
}

// A fine collector sampling every ms into 64-row rings and a bank of EWMA
// detectors over every link-util key, scanned every ms: tenants, a DDIO
// writer (the spill class and cache columns) and a late tenant give it
// every kind of series. Past the late tenant's first sample and past the
// wrap of every ring, 1000 samples and scans allocate nothing.
TEST(EngineAllocTest, TelemetrySamplesAndScansAllocateNothing) {
  Simulation sim;
  sim.ReserveEvents(64);
  const topology::Server server = topology::CommodityTwoSocket();
  fabric::FabricConfig fabric_config;
  fabric_config.ddio_ways = 2;
  fabric_config.way_bytes = 64 * 1024;
  fabric::Fabric fabric(sim, server.topo, fabric_config);
  auto start = [&](topology::ComponentId src, topology::ComponentId dst,
                   fabric::TenantId tenant, Bandwidth demand, bool ddio_write) {
    fabric::FlowSpec spec;
    spec.path = *fabric.Route(src, dst);
    spec.demand = demand;
    spec.tenant = tenant;
    spec.ddio_write = ddio_write;
    fabric.StartFlow(std::move(spec));
  };
  start(server.ssds[0], server.dimms[0], 1, Bandwidth::GBps(5), false);
  start(server.nics[0], server.sockets[0], 2, Bandwidth::GBps(40), true);

  telemetry::Collector::Config config;
  config.period = TimeNs::Millis(1);
  config.series_capacity = 64;
  telemetry::Collector collector(fabric, config);
  anomaly::DetectorBank bank;
  for (const topology::Link& link : server.topo.links()) {
    for (const bool forward : {true, false}) {
      bank.Attach(telemetry::Collector::LinkUtilKey(link.id, forward),
                  std::make_unique<anomaly::EwmaDetector>());
    }
  }
  collector.Start();
  auto run_ms = [&](int ms) {
    for (int i = 0; i < ms; ++i) {
      sim.RunFor(TimeNs::Millis(1));
      bank.Scan(collector);
    }
  };
  run_ms(20);
  start(server.gpus[0], server.dimms[1], 3, Bandwidth::GBps(5), false);
  // The late tenant's series fill their 64 rows; the detectors learn the
  // new level afresh.
  run_ms(80);
  bank.Rebaseline();
  run_ms(40);
  ASSERT_GT(collector.total_dropped_points(), 0u);
  const std::vector<std::string> keys = collector.Keys();
  ASSERT_TRUE(std::any_of(keys.begin(), keys.end(), [](const std::string& key) {
    return key.find("/class/spill/") != std::string::npos;
  }));
  const size_t series = collector.series_count();
  const size_t anomalies = bank.log().size();
  const uint64_t samples_before = collector.samples_taken();

  g_allocations = 0;
  g_counting = true;
  run_ms(1000);
  g_counting = false;

  EXPECT_EQ(collector.samples_taken() - samples_before, 1000u);
  EXPECT_EQ(collector.series_count(), series);
  EXPECT_EQ(bank.log().size(), anomalies);
  EXPECT_EQ(g_allocations, 0u) << "sampling and scanning allocated " << g_allocations
                               << " times";
}

}  // namespace
}  // namespace mihn::sim
