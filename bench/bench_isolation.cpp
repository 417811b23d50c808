// E6 — Multi-tenant isolation end-to-end (paper §3.2): the virtualized
// abstraction + interpreter + scheduler + arbiter versus today's unmanaged
// fabric. Two guaranteed tenants and one rogue elastic tenant share a PCIe
// path; a second table ablates the arbiter quantum against a bursty
// aggressor (the DESIGN.md §4 quantum ablation).

#include "bench/bench_util.h"
#include "src/host/host_network.h"
#include "src/workload/sources.h"

namespace {

using namespace mihn;

struct TenantRates {
  double alice = 0, bob = 0, rogue = 0;
  bool alice_met = false, bob_met = false;
};

TenantRates RunMode(manager::ManagerConfig::Mode mode) {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  options.manager.mode = mode;
  sim::Simulation sim;
  HostNetwork host(sim, options);
  const auto& server = host.server();
  auto& mgr = host.manager();

  const auto alice = mgr.RegisterTenant("alice", 1.0);
  manager::PerformanceTarget at;
  at.src = server.ssds[0];
  at.dst = server.dimms[0];
  at.bandwidth = sim::Bandwidth::GBps(12);
  const auto aa = mgr.SubmitIntent(alice, at);

  const auto bob = mgr.RegisterTenant("bob", 1.0);
  manager::PerformanceTarget bt;
  bt.src = server.ssds[0];
  bt.dst = server.dimms[1];
  bt.bandwidth = sim::Bandwidth::GBps(8);
  const auto ba = mgr.SubmitIntent(bob, bt);

  workload::StreamSource::Config ac;
  ac.src = at.src;
  ac.dst = at.dst;
  ac.tenant = alice;
  workload::StreamSource sa(host.fabric(), ac);
  sa.Start();
  if (aa.ok()) {
    mgr.AttachFlow(aa.id, sa.flow());
  }
  workload::StreamSource::Config bc;
  bc.src = bt.src;
  bc.dst = bt.dst;
  bc.tenant = bob;
  workload::StreamSource sb(host.fabric(), bc);
  sb.Start();
  if (ba.ok()) {
    mgr.AttachFlow(ba.id, sb.flow());
  }

  // Rogue: elastic, no allocation, same path.
  workload::StreamSource::Config rc;
  rc.src = server.ssds[0];
  rc.dst = server.dimms[0];
  rc.tenant = 99;
  workload::StreamSource rogue(host.fabric(), rc);
  rogue.Start();

  mgr.Start();
  mgr.ArbitrateOnce();
  host.RunFor(sim::TimeNs::Millis(20));

  TenantRates rates;
  rates.alice = sa.AchievedRate().ToGBps();
  rates.bob = sb.AchievedRate().ToGBps();
  rates.rogue = rogue.AchievedRate().ToGBps();
  rates.alice_met = rates.alice >= 12.0 * 0.98;
  rates.bob_met = rates.bob >= 8.0 * 0.98;
  return rates;
}

}  // namespace

int main() {
  bench::Banner("E6: end-to-end multi-tenant isolation",
                "alice (12 GB/s SLO) + bob (8 GB/s SLO) + rogue elastic tenant on one "
                "PCIe path (~29 GB/s effective)");

  bench::Table table({{"manager mode", 17},
                      {"alice GB/s", 12},
                      {"SLO", 6},
                      {"bob GB/s", 10},
                      {"SLO", 6},
                      {"rogue GB/s", 12},
                      {"total", 8}});
  for (const auto mode :
       {manager::ManagerConfig::Mode::kOff, manager::ManagerConfig::Mode::kStatic,
        manager::ManagerConfig::Mode::kWorkConserving}) {
    const TenantRates r = RunMode(mode);
    table.Row({std::string(manager::ModeName(mode)), bench::Fmt("%.1f", r.alice),
               r.alice_met ? "met" : "MISS", bench::Fmt("%.1f", r.bob),
               r.bob_met ? "met" : "MISS", bench::Fmt("%.1f", r.rogue),
               bench::Fmt("%.1f", r.alice + r.bob + r.rogue)});
  }

  // Ablation: arbiter quantum vs a bursty rogue. A slow arbiter leaves the
  // victim exposed for most of each burst; a fast one clamps within the
  // paper's microsecond ambitions (§3.2 Q3).
  // Alice's SLO (20 GB/s) exceeds the unmanaged fair share (14.5), so every
  // fresh burst violates it until the next arbitration pass clamps the
  // rogue — the quantum directly sets the exposure window.
  bench::Banner("E6b: arbiter quantum ablation",
                "alice (20 GB/s SLO) vs a rogue bursting 2ms on / 2ms off; fraction of "
                "samples where alice's SLO held, by arbiter quantum");
  bench::Table qtable(
      {{"quantum", 10}, {"alice mean GB/s", 17}, {"SLO held", 10}, {"arbitrations", 14}});
  for (const int64_t quantum_us : {10'000LL, 1'000LL, 100LL, 10LL}) {
    HostNetwork::Options options;
    options.autostart = HostNetwork::Autostart::kNone;
    options.manager.mode = manager::ManagerConfig::Mode::kStatic;
    options.manager.arbiter_quantum = sim::TimeNs::Micros(quantum_us);
    sim::Simulation sim;
    HostNetwork host(sim, options);
    const auto& server = host.server();
    auto& mgr = host.manager();
    const auto alice = mgr.RegisterTenant("alice", 1.0);
    manager::PerformanceTarget at;
    at.src = server.ssds[0];
    at.dst = server.dimms[0];
    at.bandwidth = sim::Bandwidth::GBps(20);
    const auto aa = mgr.SubmitIntent(alice, at);
    workload::StreamSource::Config ac;
    ac.src = at.src;
    ac.dst = at.dst;
    ac.tenant = alice;
    workload::StreamSource sa(host.fabric(), ac);
    sa.Start();
    mgr.AttachFlow(aa.id, sa.flow());
    mgr.Start();

    workload::BurstySource::Config burst;
    burst.src = server.ssds[0];
    burst.dst = server.dimms[0];
    burst.on_demand = sim::Bandwidth::GBps(64);  // Elastic-scale burst.
    burst.mean_on = sim::TimeNs::Millis(2);
    burst.mean_off = sim::TimeNs::Millis(2);
    burst.tenant = 99;
    workload::BurstySource rogue(host.fabric(), burst);
    rogue.Start();

    // Sample alice's rate every 50us over 100ms.
    int held = 0;
    int samples = 0;
    double sum = 0;
    for (int i = 0; i < 2000; ++i) {
      host.RunFor(sim::TimeNs::Micros(50));
      const double rate = sa.AchievedRate().ToGBps();
      sum += rate;
      held += rate >= 20.0 * 0.95 ? 1 : 0;
      ++samples;
    }
    qtable.Row({sim::TimeNs::Micros(quantum_us).ToString(), bench::Fmt("%.1f", sum / samples),
                bench::Fmt("%.0f%%", 100.0 * held / samples),
                bench::Fmt("%llu", static_cast<unsigned long long>(mgr.arbitrations()))});
  }
  std::printf("\nexpected shape: unmanaged splits the link evenly three ways, which\n"
              "misses alice's SLO and happens to clear bob's; static meets SLOs but\n"
              "strands slack; work-conserving meets SLOs and hands the slack to\n"
              "whoever can use it. Finer quanta close the window in which a fresh\n"
              "burst can violate the SLO.\n");
  return 0;
}
