// mihnctl — an operator's command-line tool over the manageability API.
//
//   mihnctl [--topo <file>] <command> [args...]
//
//   commands:
//     describe                    print the topology
//     dot                         print Graphviz for the topology
//     ping <src> <dst>            hostping between two components
//     trace <src> <dst>           hosttrace with per-hop breakdown
//     perf <src> <dst>            hostperf achievable-bandwidth probe
//     check                       misconfiguration findings
//     demo-fault <src> <dst>      inject a fault on the path and re-trace
//
// Without --topo it uses the built-in two-socket preset. Component names are
// the ones `describe` prints (e.g. nic0, s0, s0.mc0.dimm1, remote0).

#include <cstdio>
#include <cstring>
#include <string>

#include "src/anomaly/misconfig.h"
#include "src/core/read_file.h"
#include "src/host/host_network.h"
#include "src/diagnose/session.h"
#include "src/topology/serialize.h"

namespace {

using namespace mihn;

int Usage() {
  std::fprintf(stderr,
               "usage: mihnctl [--topo <file>] <describe|dot|ping|trace|perf|check|demo-fault> "
               "[<src> <dst>]\n");
  return 2;
}

topology::ComponentId Resolve(const topology::Topology& topo, const char* name) {
  const auto id = topo.FindComponent(name);
  if (!id) {
    std::fprintf(stderr, "mihnctl: unknown component '%s' (try 'describe')\n", name);
    std::exit(2);
  }
  return *id;
}

}  // namespace

int main(int argc, char** argv) {
  std::string topo_file;
  int arg = 1;
  if (arg < argc && std::strcmp(argv[arg], "--topo") == 0) {
    if (arg + 1 >= argc) {
      return Usage();
    }
    topo_file = argv[arg + 1];
    arg += 2;
  }
  if (arg >= argc) {
    return Usage();
  }
  const std::string command = argv[arg++];

  // Build the host: preset, or a user-described topology.
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  sim::Simulation sim;
  std::unique_ptr<HostNetwork> host;
  if (topo_file.empty()) {
    host = std::make_unique<HostNetwork>(sim, options);
  } else {
    std::string text;
    std::string error;
    if (!core::ReadBoundedFile(topo_file, &text, &error)) {
      std::fprintf(stderr, "mihnctl: %s\n", error.c_str());
      return 2;
    }
    auto parsed = topology::FromText(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "mihnctl: parse error: %s\n", parsed.error.c_str());
      return 2;
    }
    const std::string invalid = parsed.topology->Validate();
    if (!invalid.empty()) {
      std::fprintf(stderr, "mihnctl: invalid topology: %s\n", invalid.c_str());
      return 2;
    }
    topology::Server server;
    server.topo = std::move(*parsed.topology);
    host = std::make_unique<HostNetwork>(sim, std::move(server), options);
  }
  const topology::Topology& topo = host->topo();

  if (command == "describe") {
    std::printf("%s", topo.Describe().c_str());
    return 0;
  }
  if (command == "dot") {
    std::printf("%s", topology::ToDot(topo).c_str());
    return 0;
  }
  if (command == "check") {
    anomaly::MisconfigChecker checker(host->fabric());
    const std::string findings = checker.Render();
    std::printf("%s", findings.empty() ? "no findings\n" : findings.c_str());
    return 0;
  }

  if (arg + 1 >= argc) {
    return Usage();
  }
  const topology::ComponentId src = Resolve(topo, argv[arg]);
  const topology::ComponentId dst = Resolve(topo, argv[arg + 1]);

  diagnose::Session& dx = host->diagnose();
  if (command == "ping") {
    const auto result = dx.Ping(src, dst);
    if (!result.probe.reachable) {
      std::printf("unreachable\n");
      return 1;
    }
    std::printf("%s -> %s: %s over %zu hops (%s)\n", argv[arg], argv[arg + 1],
                result.latency.ToString().c_str(), result.probe.path.hops.size(),
                result.probe.path.ToString(topo).c_str());
    return 0;
  }
  if (command == "trace") {
    const auto trace = dx.Trace(src, dst);
    std::printf("%s", dx.Render(trace).c_str());
    return trace.probe.reachable ? 0 : 1;
  }
  if (command == "perf") {
    const auto result = dx.Perf(src, dst);
    if (!result.probe.reachable) {
      std::printf("unreachable\n");
      return 1;
    }
    std::printf("%s -> %s: %.2f GB/s (%.1f Gbps) achievable now\n", argv[arg], argv[arg + 1],
                result.initial_rate.ToGBps(), result.initial_rate.ToGbps());
    return 0;
  }
  if (command == "demo-fault") {
    auto path = host->fabric().Route(src, dst);
    if (!path) {
      std::printf("unreachable\n");
      return 1;
    }
    const topology::LinkId victim = path->hops[path->hops.size() / 2].link;
    std::printf("== healthy ==\n%s", dx.Render(dx.Trace(src, dst)).c_str());
    host->fabric().InjectLinkFault(victim,
                                   fabric::LinkFault{0.5, sim::TimeNs::Micros(2)});
    std::printf("\n== after silent fault on link %d (50%% capacity, +2us) ==\n%s", victim,
                dx.Render(dx.Trace(src, dst)).c_str());
    return 0;
  }
  return Usage();
}
