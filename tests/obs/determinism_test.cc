// Determinism of the trace itself (DESIGN.md §7): with profiling off, a
// trace is a pure function of (topology, workload, seed). Two identically
// seeded HostNetwork runs must export byte-identical Chrome trace JSON —
// the trace inherits the simulator's determinism guarantee, and the export
// adds no nondeterminism of its own (map-ordered tracks, fixed number
// formats, ring-order events).

#include <gtest/gtest.h>

#include <string>

#include "src/host/host_network.h"
#include "src/obs/export.h"
#include "src/workload/sources.h"

namespace mihn {
namespace {

std::string TracedRun(uint64_t seed) {
  HostNetwork::Options options;
  options.trace.enabled = true;
  sim::Simulation sim(seed);
  HostNetwork host(sim, options);
  const auto& server = host.server();

  // Exercise every instrumented layer: manager placement + arbitration,
  // fabric solves, telemetry ticks, sim events, and a diagnose probe.
  const auto tenant = host.manager().RegisterTenant("tenant", 1.0);
  manager::PerformanceTarget target;
  target.src = server.ssds[0];
  target.dst = server.dimms[0];
  target.bandwidth = sim::Bandwidth::GBps(4);
  const auto alloc = host.manager().SubmitIntent(tenant, target);

  workload::StreamSource::Config bulk;
  bulk.src = server.gpus[0];
  bulk.dst = server.dimms[0];
  bulk.tenant = tenant;
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  if (alloc.ok()) {
    // An allocation-attached flow gives the arbiter real work.
    fabric::FlowSpec spec;
    spec.path = *host.fabric().Route(target.src, target.dst);
    spec.tenant = tenant;
    spec.demand = target.bandwidth;
    host.manager().AttachFlow(alloc.id, host.fabric().StartFlow(spec));
  }
  host.RunFor(sim::TimeNs::Millis(2));
  (void)host.diagnose().Perf(server.ssds[1], server.dimms[1]);
  host.RunFor(sim::TimeNs::Millis(1));

  return obs::ChromeTraceJson(host.tracer());
}

TEST(TraceDeterminismTest, IdenticallySeededRunsExportByteIdenticalJson) {
  const std::string first = TracedRun(7);
  const std::string second = TracedRun(7);
  EXPECT_GT(first.size(), 1000u);  // Actually captured a busy run.
  EXPECT_EQ(first, second);
}

TEST(TraceDeterminismTest, CapturesEveryInstrumentedLayer) {
  const std::string json = TracedRun(7);
  for (const char* expected :
       {"fabric.solve", "manager.place", "manager.arbitrate", "telemetry.sample",
        "diagnose.perf", "sim.queue_depth", "fabric.flows", "manager.arbiter"}) {
    EXPECT_NE(json.find(expected), std::string::npos) << expected;
  }
}

}  // namespace
}  // namespace mihn
