// E1 — RDMA loopback interference (paper §2, citing Collie [31]): loopback
// traffic on a NIC exhausts the PCIe fabric that an innocent victim also
// crosses. Sweeps loopback intensity and reports the victim's achieved
// bandwidth and KV tail latency.

#include "bench/bench_util.h"
#include "src/host/host_network.h"
#include "src/workload/kv_client.h"
#include "src/workload/sources.h"

int main() {
  using namespace mihn;
  bench::Banner("E1: RDMA loopback exhausts PCIe",
                "victim SSD stream + remote KV service vs loopback intensity on the "
                "same PCIe switch");

  bench::Table table({{"loopback GB/s", 15},
                      {"achieved", 10},
                      {"victim GB/s", 13},
                      {"kv p50 us", 11},
                      {"kv p99 us", 11}});

  for (const double loopback_gbps : {0.0, 4.0, 8.0, 16.0, 24.0, 64.0}) {
    HostNetwork::Options options;
    options.autostart = HostNetwork::Autostart::kNone;
    sim::Simulation sim;
    HostNetwork host(sim, options);
    const auto& server = host.server();

    // Victim 1: bulk SSD ingest sharing nic0's switch and root port.
    workload::StreamSource::Config victim_config;
    victim_config.src = server.ssds[0];
    victim_config.dst = server.dimms[0];
    victim_config.tenant = 1;
    workload::StreamSource victim(host.fabric(), victim_config);
    victim.Start();

    // Victim 2: the remote KV service through nic0.
    workload::KvClient::Config kv_config;
    kv_config.client = server.external_hosts[0];
    kv_config.server = server.sockets[0];
    kv_config.tenant = 2;
    workload::KvClient kv(host.fabric(), kv_config);
    kv.Start();

    // The aggressor: loopback traffic on nic0 (0 = disabled; 64 = elastic,
    // takes whatever PCIe gives it).
    workload::LoopbackRdma::Config loop_config;
    loop_config.nic = server.nics[0];
    loop_config.socket = server.sockets[0];
    loop_config.tenant = 3;
    if (loopback_gbps > 0.0) {
      loop_config.demand = sim::Bandwidth::GBps(loopback_gbps);
    } else {
      loop_config.demand = sim::Bandwidth::Zero();
    }
    workload::LoopbackRdma loopback(host.fabric(), loop_config);
    if (loopback_gbps > 0.0) {
      loopback.Start();
    }

    host.RunFor(sim::TimeNs::Millis(50));
    table.Row({loopback_gbps == 0 ? "off"
                                  : (loopback_gbps >= 64 ? "elastic"
                                                         : bench::Fmt("%.0f", loopback_gbps)),
               bench::Fmt("%.1f", loopback.WriteRate().ToGBps()),
               bench::Fmt("%.1f", victim.AchievedRate().ToGBps()),
               bench::Fmt("%.1f", kv.latency_us().Percentile(0.5)),
               bench::Fmt("%.1f", kv.latency_us().Percentile(0.99))});
  }
  std::printf("\nexpected shape: victim bandwidth collapses toward a fair share and KV\n"
              "latency inflates as loopback intensity approaches PCIe line rate.\n");
  return 0;
}
