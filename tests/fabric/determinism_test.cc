// Bit-exact determinism of the fabric's observable surface.
//
// The simulator is the oracle for every experiment: if two identically
// seeded runs can disagree in even one snapshot byte, telemetry diffs,
// anomaly baselines, and manager decisions all become unreproducible. This
// regression pins the contract end to end — including the fault table and
// DIMM spill placement state, which are deliberately kept in ordered maps
// (src/fabric/fabric.h) so no hash order can leak into output.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/sim/simulation.h"
#include "src/topology/presets.h"

namespace mihn::fabric {
namespace {

using sim::Bandwidth;
using sim::Simulation;
using sim::TimeNs;

// Serializes every observable counter with full precision (hexfloat keeps
// every mantissa bit, so "equal dumps" means bit-equal doubles). Void so
// ASSERT_* is usable.
void DumpFabric(Fabric& fabric, const topology::Server& server, std::ostringstream& out) {
  out << std::hexfloat;
  for (int32_t d = 0; d < 2 * static_cast<int32_t>(fabric.topo().link_count()); ++d) {
    const LinkSnapshot snap = fabric.Snapshot({d / 2, d % 2 == 0});
    out << "link=" << snap.link << " fwd=" << snap.forward << " cap=" << snap.capacity_bps
        << " rate=" << snap.rate_bps << " util=" << snap.utilization
        << " bytes=" << snap.bytes_total;
    for (const auto& [tenant, rate] : snap.rate_by_tenant_bps) {
      out << " t" << tenant << "=" << rate;
    }
    for (const double r : snap.rate_by_class_bps) {
      out << " c=" << r;
    }
    for (const double b : snap.bytes_by_class) {
      out << " cb=" << b;
    }
    out << "\n";
  }
  for (const topology::ComponentId socket : server.sockets) {
    const SocketCacheStats stats = fabric.CacheStats(socket);
    out << "socket=" << socket << " io=" << stats.io_write_rate_bps
        << " hit=" << stats.hit_rate << " spill=" << stats.spill_rate_bps
        << " ws=" << stats.working_set_bytes << "\n";
  }
  for (const FlowId id : fabric.ActiveFlows()) {
    const auto info = fabric.GetFlowInfo(id);
    ASSERT_TRUE(info.has_value()) << id;
    out << "flow=" << id << " rate=" << info->rate.bytes_per_sec()
        << " moved=" << info->bytes_moved << "\n";
  }
  out << "recomputes=" << fabric.recompute_count() << " mutations=" << fabric.mutation_count()
      << " now=" << fabric.simulation().Now().nanos() << "\n";
}

// Every rate-derived field, hexfloat: per-link capacity, rate and
// utilization, per-tenant and per-class rates, socket cache stats, per-flow
// rates, and the solve/mutation counts. Byte counters are left out: they
// are sums over accrual intervals, so their last bits depend on where the
// fabric splits time, while rates are pure functions of the solver inputs.
void DumpRates(Fabric& fabric, const topology::Server& server, std::ostringstream& out) {
  out << std::hexfloat;
  for (int32_t d = 0; d < 2 * static_cast<int32_t>(fabric.topo().link_count()); ++d) {
    const LinkSnapshot snap = fabric.Snapshot({d / 2, d % 2 == 0});
    out << "link=" << snap.link << " fwd=" << snap.forward << " cap=" << snap.capacity_bps
        << " rate=" << snap.rate_bps << " util=" << snap.utilization;
    for (const auto& [tenant, rate] : snap.rate_by_tenant_bps) {
      out << " t" << tenant << "=" << rate;
    }
    for (const double r : snap.rate_by_class_bps) {
      out << " c=" << r;
    }
    out << "\n";
  }
  for (const topology::ComponentId socket : server.sockets) {
    const SocketCacheStats stats = fabric.CacheStats(socket);
    out << "socket=" << socket << " io=" << stats.io_write_rate_bps
        << " hit=" << stats.hit_rate << " spill=" << stats.spill_rate_bps
        << " ws=" << stats.working_set_bytes << "\n";
  }
  for (const FlowId id : fabric.ActiveFlows()) {
    out << "flow=" << id << " rate=" << fabric.FlowRate(id).bytes_per_sec() << "\n";
  }
  out << "recomputes=" << fabric.recompute_count() << " mutations=" << fabric.mutation_count()
      << "\n";
}

// One eventful scenario: DDIO inbound writes (exercises spill-DIMM
// placement), cross-socket traffic, faults injected and partially cleared,
// packets, and a mid-run config change. |dump| serializes the end state.
std::string RunScenario(uint64_t seed,
                        void (*dump)(Fabric&, const topology::Server&,
                                     std::ostringstream&) = DumpFabric) {
  Simulation sim(seed);
  topology::Server server = topology::CommodityTwoSocket();
  Fabric fabric(sim, server.topo);

  auto flow_between = [&](topology::ComponentId src, topology::ComponentId dst, TenantId tenant,
                          bool ddio) {
    FlowSpec spec;
    auto path = fabric.Route(src, dst);
    EXPECT_TRUE(path.has_value());
    spec.path = *path;
    spec.tenant = tenant;
    spec.ddio_write = ddio;
    return fabric.StartFlow(spec);
  };

  flow_between(server.external_hosts[0], server.sockets[0], 1, /*ddio=*/true);
  flow_between(server.external_hosts[1], server.sockets[1], 2, /*ddio=*/true);
  flow_between(server.gpus[0], server.gpus[2], 3, /*ddio=*/false);
  const FlowId limited = flow_between(server.ssds[0], server.dimms[0], 4, /*ddio=*/false);
  fabric.SetFlowLimit(limited, Bandwidth::GBps(2));

  sim.RunFor(TimeNs::Millis(1));
  fabric.InjectLinkFault(topology::LinkId{0}, LinkFault{0.5, TimeNs::Micros(3)});
  fabric.InjectLinkFault(topology::LinkId{3}, LinkFault{0.25, TimeNs::Micros(1)});
  sim.RunFor(TimeNs::Millis(1));
  fabric.ClearLinkFault(topology::LinkId{3});

  PacketSpec packet;
  auto packet_path = fabric.Route(server.nics[0], server.dimms[1]);
  EXPECT_TRUE(packet_path.has_value());
  packet.path = &*packet_path;
  fabric.SendPacket(std::move(packet));

  FabricConfig config = fabric.config();
  config.iommu_enabled = !config.iommu_enabled;
  fabric.SetConfig(config);
  sim.RunFor(TimeNs::Millis(1));

  std::ostringstream out;
  dump(fabric, server, out);
  return out.str();
}

TEST(DeterminismTest, IdenticallySeededRunsProduceByteIdenticalSnapshots) {
  const std::string first = RunScenario(42);
  const std::string second = RunScenario(42);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// RunScenario(42, DumpRates), captured before the fabric's flow table,
// aggregates and accrual were rewritten for speed. Rates, snapshot key sets
// and solve counts are part of the behaviour contract: a change here is a
// behaviour change, never a refactoring artefact.
constexpr const char* kScenario42Rates = R"(link=0 fwd=1 cap=0x1.176592ep+36 rate=0x1.dcd65p+30 util=0x1.b4e81b4e81b4fp-6 t4=0x1.dcd65p+30 c=0x1.dcd65p+30 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=0 fwd=0 cap=0x1.176592ep+36 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=1 fwd=1 cap=0x1.74876e8p+38 rate=0x1.dcd65p+30 util=0x1.47ae147ae147bp-8 t4=0x1.dcd65p+30 c=0x1.dcd65p+30 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=1 fwd=0 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=2 fwd=1 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=2 fwd=0 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=3 fwd=1 cap=0x1.176592ep+37 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=3 fwd=0 cap=0x1.176592ep+37 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=4 fwd=1 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=4 fwd=0 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=5 fwd=1 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=5 fwd=0 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=6 fwd=1 cap=0x1.176592ep+37 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=6 fwd=0 cap=0x1.176592ep+37 rate=0x1.9b3ad29c244fdp+34 util=0x1.78cb138e250ebp-3 t1=0x1.7d6d6d9c244fdp+33 t3=0x1.7d6d6d9c244fdp+33 t4=0x1.dcd65p+30 c=0x1.9b3ad29c244fdp+34 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=7 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=7 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x1.9b3ad29c244fdp+34 util=0x1p+0 t1=0x1.7d6d6d9c244fdp+33 t3=0x1.7d6d6d9c244fdp+33 t4=0x1.dcd65p+30 c=0x1.9b3ad29c244fdp+34 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=8 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=8 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x1.7d6d6d9c244fdp+33 util=0x1.dae50d79435e5p-2 t1=0x1.7d6d6d9c244fdp+33 c=0x1.7d6d6d9c244fdp+33 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=9 fwd=1 cap=0x1.74876e8p+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=9 fwd=0 cap=0x1.74876e8p+34 rate=0x1.7d6d6d9c244fdp+33 util=0x1.061d6d62edb69p-1 t1=0x1.7d6d6d9c244fdp+33 c=0x1.7d6d6d9c244fdp+33 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=10 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=10 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x1.7d6d6d9c244fdp+33 util=0x1.dae50d79435e5p-2 t3=0x1.7d6d6d9c244fdp+33 c=0x1.7d6d6d9c244fdp+33 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=11 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=11 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x1.dcd65p+30 util=0x1.28d79435e50d8p-4 t4=0x1.dcd65p+30 c=0x1.dcd65p+30 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=12 fwd=1 cap=0x1.176592ep+37 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=12 fwd=0 cap=0x1.176592ep+37 rate=0x1.74876e8p+34 util=0x1.5555555555555p-3 t2=0x1.74876e8p+34 c=0x1.74876e8p+34 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=13 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=13 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x1.74876e8p+34 util=0x1.cfd0d79435e52p-1 t2=0x1.74876e8p+34 c=0x1.74876e8p+34 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=14 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=14 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x1.74876e8p+34 util=0x1.cfd0d79435e52p-1 t2=0x1.74876e8p+34 c=0x1.74876e8p+34 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=15 fwd=1 cap=0x1.74876e8p+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=15 fwd=0 cap=0x1.74876e8p+34 rate=0x1.74876e8p+34 util=0x1p+0 t2=0x1.74876e8p+34 c=0x1.74876e8p+34 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=16 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=16 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=17 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=17 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=18 fwd=1 cap=0x1.176592ep+37 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=18 fwd=0 cap=0x1.176592ep+37 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=19 fwd=1 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=19 fwd=0 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=20 fwd=1 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=20 fwd=0 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=21 fwd=1 cap=0x1.176592ep+37 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=21 fwd=0 cap=0x1.176592ep+37 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=22 fwd=1 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=22 fwd=0 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=23 fwd=1 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=23 fwd=0 cap=0x1.74876e8p+38 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=24 fwd=1 cap=0x1.176592ep+37 rate=0x1.7d6d6d9c244fdp+33 util=0x1.5d7c91d93cf36p-4 t3=0x1.7d6d6d9c244fdp+33 c=0x1.7d6d6d9c244fdp+33 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=24 fwd=0 cap=0x1.176592ep+37 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=25 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x1.7d6d6d9c244fdp+33 util=0x1.dae50d79435e5p-2 t3=0x1.7d6d6d9c244fdp+33 c=0x1.7d6d6d9c244fdp+33 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=25 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=26 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=26 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=27 fwd=1 cap=0x1.74876e8p+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=27 fwd=0 cap=0x1.74876e8p+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=28 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x1.7d6d6d9c244fdp+33 util=0x1.dae50d79435e5p-2 t3=0x1.7d6d6d9c244fdp+33 c=0x1.7d6d6d9c244fdp+33 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=28 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=29 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=29 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=30 fwd=1 cap=0x1.176592ep+37 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=30 fwd=0 cap=0x1.176592ep+37 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=31 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=31 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=32 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=32 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=33 fwd=1 cap=0x1.74876e8p+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=33 fwd=0 cap=0x1.74876e8p+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=34 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=34 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=35 fwd=1 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=35 fwd=0 cap=0x1.9b3ad29c244fdp+34 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=36 fwd=1 cap=0x1.56ba098p+35 rate=0x1.199f12a70913fp+35 util=0x1.a4b6f319f07fp-1 t2=0x1.74876e8p+34 t3=0x1.7d6d6d9c244fdp+33 c=0x1.199f12a70913fp+35 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=36 fwd=0 cap=0x1.56ba098p+35 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=37 fwd=1 cap=0x1.56ba098p+35 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=37 fwd=0 cap=0x1.56ba098p+35 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=38 fwd=1 cap=0x1.176592ep+37 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
link=38 fwd=0 cap=0x1.176592ep+37 rate=0x0p+0 util=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0 c=0x0p+0
socket=0 io=0x1.7d6d6d9c244fdp+33 hit=0x1p+0 spill=0x0p+0 ws=0x1.f3f1d0cb58f6ep+17
socket=19 io=0x1.74876e8p+34 hit=0x1p+0 spill=0x0p+0 ws=0x1.e848000000001p+18
flow=1 rate=0x1.7d6d6d9c244fdp+33
flow=2 rate=0x1.74876e8p+34
flow=3 rate=0x1.7d6d6d9c244fdp+33
flow=4 rate=0x1.dcd65p+30
recomputes=4 mutations=9
)";

TEST(DeterminismTest, RatesMatchPinnedGolden) {
  EXPECT_EQ(RunScenario(42, DumpRates), kScenario42Rates);
}

TEST(DeterminismTest, DumpActuallyObservesActivity) {
  // Guard against the regression test degenerating into comparing two
  // empty strings: the scenario must produce flows, bytes, and cache state.
  const std::string dump = RunScenario(7);
  EXPECT_NE(dump.find("flow="), std::string::npos);
  EXPECT_NE(dump.find("hit="), std::string::npos);
  EXPECT_NE(dump.find("recomputes="), std::string::npos);
}

TEST(DeterminismTest, DifferentFaultInsertionOrderSameState) {
  // The fault table is keyed storage, not history: injecting the same
  // faults in a different order must converge to identical snapshots.
  auto run = [](bool reversed) {
    Simulation sim(1);
    topology::Server server = topology::CommodityTwoSocket();
    Fabric fabric(sim, server.topo);
    FlowSpec spec;
    auto path = fabric.Route(server.external_hosts[0], server.sockets[1]);
    EXPECT_TRUE(path.has_value());
    spec.path = *path;
    spec.tenant = 9;
    fabric.StartFlow(spec);
    const LinkFault faint{0.9, TimeNs::Nanos(10)};
    const LinkFault heavy{0.3, TimeNs::Micros(5)};
    if (reversed) {
      fabric.InjectLinkFault(topology::LinkId{4}, heavy);
      fabric.InjectLinkFault(topology::LinkId{1}, faint);
    } else {
      fabric.InjectLinkFault(topology::LinkId{1}, faint);
      fabric.InjectLinkFault(topology::LinkId{4}, heavy);
    }
    sim.RunFor(TimeNs::Millis(2));
    std::ostringstream out;
    out << std::hexfloat;
    for (int32_t d = 0; d < 2 * static_cast<int32_t>(fabric.topo().link_count()); ++d) {
      const LinkSnapshot snap = fabric.Snapshot({d / 2, d % 2 == 0});
      out << snap.link << ":" << snap.rate_bps << ":" << snap.bytes_total << "\n";
    }
    return out.str();
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace mihn::fabric
