// DDIO cache-thrashing walkthrough (paper §2's "unintended resource
// consumption" example): two high-bandwidth I/O writers overflow the DDIO
// ways, spill traffic appears on the memory bus, and a victim workload on
// that bus suffers — all visible through the telemetry/cache counters.
//
//   $ ./ddio_walkthrough

#include <cstdio>

#include "src/host/host_network.h"
#include "src/diagnose/session.h"
#include "src/workload/sources.h"

int main() {
  using namespace mihn;
  HostNetwork::Options options;
  // A small DDIO so commodity NIC rates overflow it (2 ways x 256 KiB).
  options.fabric.ddio_ways = 2;
  options.fabric.way_bytes = 256 * 1024;
  sim::Simulation sim;
  HostNetwork host(sim, options);
  const auto& server = host.server();
  const topology::ComponentId socket = server.sockets[0];

  auto print_state = [&](const char* label) {
    const auto stats = host.fabric().CacheStats(socket);
    std::printf("%-28s hit=%5.1f%%  io=%5.1f GB/s  spill=%5.1f GB/s  amplification=%.2f\n",
                label, stats.hit_rate * 100.0, stats.io_write_rate_bps / 1e9,
                stats.spill_rate_bps / 1e9, stats.AmplificationFactor());
  };

  std::printf("DDIO capacity: %.1f MiB, drain window %s\n\n",
              static_cast<double>(host.fabric().config().DdioCapacityBytes()) / (1024 * 1024),
              fabric::kLlcDrainTime.ToString().c_str());

  // A victim stream using the memory bus (DIMM -> GPU data loading).
  workload::StreamSource::Config victim_config;
  victim_config.src = server.dimms[0];
  victim_config.dst = server.gpus[0];
  victim_config.tenant = 1;
  workload::StreamSource victim(host.fabric(), victim_config);
  victim.Start();
  std::printf("victim (dimm0->gpu0): %.1f GB/s with memory bus idle\n",
              victim.AchievedRate().ToGBps());
  print_state("no I/O writers:");

  // Writer 1: NIC receive traffic, DDIO-eligible, moderate rate — fits.
  workload::StreamSource::Config w1;
  w1.src = server.nics[0];
  w1.dst = socket;
  w1.demand = sim::Bandwidth::GBps(10);
  w1.ddio_write = true;
  w1.tenant = 2;
  workload::StreamSource writer1(host.fabric(), w1);
  writer1.Start();
  print_state("one 10 GB/s writer:");

  // Writer 2: a second device floods through DDIO; combined working set
  // overflows the ways -> thrashing, spill, memory-bus pressure.
  workload::StreamSource::Config w2;
  w2.src = server.ssds[1];
  w2.dst = socket;
  w2.ddio_write = true;
  w2.tenant = 3;
  workload::StreamSource writer2(host.fabric(), w2);
  writer2.Start();
  print_state("plus elastic SSD writer:");
  std::printf("victim now: %.1f GB/s (memory bus shared with spill)\n",
              victim.AchievedRate().ToGBps());

  // The spill is visible — and attributed — in the flow capture.
  diagnose::FlowFilter spill_only;
  spill_only.klass = fabric::TrafficClass::kSpill;
  std::printf("\n== hostshark: spill flows ==\n%s",
              host.diagnose().Render(host.diagnose().Capture(spill_only)).c_str());

  // Remediation: double the DDIO ways and watch the spill collapse.
  fabric::FabricConfig bigger = host.fabric().config();
  bigger.ddio_ways = 8;
  bigger.way_bytes = 1536 * 1024;
  host.fabric().SetConfig(bigger);
  print_state("\nafter widening DDIO:");
  std::printf("victim restored: %.1f GB/s\n", victim.AchievedRate().ToGBps());
  return 0;
}
