// HostNetwork: the assembled manageable intra-host network.
//
// The one-stop facade a downstream user starts from: a server topology
// (preset or custom), the fabric simulator, the fine-grained monitoring
// collector (building block 1), and the holistic resource manager
// (building block 2), wired together over a virtual clock. Examples and
// benchmarks build on this; power users can instead compose the pieces
// from src/{sim,topology,fabric,telemetry,anomaly,diagnose,manager}
// directly — HostNetwork adds no behaviour of its own.
//
// Clock ownership: every constructor *borrows* a caller-owned
// sim::Simulation. The clock's owner seeds it; a single-host caller makes
// its own Simulation first, and the fleet layer (src/fleet/) gives every
// host a clock of its own, all seeded alike.

#ifndef MIHN_SRC_HOST_HOST_NETWORK_H_
#define MIHN_SRC_HOST_HOST_NETWORK_H_

#include <memory>
#include <vector>

#include "src/anomaly/heartbeat.h"
#include "src/diagnose/session.h"
#include "src/fabric/fabric.h"
#include "src/manager/manager.h"
#include "src/obs/sim_trace.h"
#include "src/obs/tracer.h"
#include "src/sim/simulation.h"
#include "src/telemetry/collector.h"
#include "src/topology/presets.h"

namespace mihn {

class HostNetwork {
 public:
  enum class Preset { kCommodityTwoSocket, kDgxClass, kEdgeNode };

  // Which manageability services the constructor starts; anything not
  // auto-started here can be started later via StartCollector() /
  // StartManager().
  enum class Autostart {
    // Nothing runs until explicitly started. Telemetry reporting to the
    // monitor store is still wired, so a later StartCollector() reports.
    kNone,
    kCollectorOnly,
    // Collector + manager (the default, matching a managed production host).
    kAll,
    // kAll, but telemetry is processed in place: no reporting traffic to
    // the monitor store.
    kAllUnreported,
  };

  struct Options {
    Preset preset = Preset::kCommodityTwoSocket;
    fabric::FabricConfig fabric;
    manager::ManagerConfig manager;
    telemetry::Collector::Config telemetry;
    Autostart autostart = Autostart::kAll;
    // Tracing (spans + counters across sim/fabric/manager/telemetry/
    // diagnose). Disabled by default: zero allocation, one branch per
    // instrumentation site.
    obs::TraceConfig trace;
  };

  // -- Construction -------------------------------------------------------------
  // The network borrows |sim|, which must outlive it; do not Run() the
  // simulation after destroying the host (the fleet destroys each host
  // before its clock). Several hosts may share one Simulation, their events
  // interleaving in (time, insertion-order) order, but at most one of them
  // may enable Options::trace — the Simulation has a single observer slot.
  //
  // Builds the default preset server on |sim|.
  explicit HostNetwork(sim::Simulation& sim);
  // Builds a preset server on |sim|.
  HostNetwork(sim::Simulation& sim, Options options);
  // Wraps a caller-built server (takes ownership of the topology).
  HostNetwork(sim::Simulation& sim, topology::Server server, Options options);

  HostNetwork(const HostNetwork&) = delete;
  HostNetwork& operator=(const HostNetwork&) = delete;

  // Uninstalls this host's trace observer from the clock.
  ~HostNetwork();

  // -- Component access ---------------------------------------------------------
  sim::Simulation& simulation() { return sim_; }
  const topology::Server& server() const { return server_; }
  const topology::Topology& topo() const { return server_.topo; }
  fabric::Fabric& fabric() { return *fabric_; }
  telemetry::Collector& collector() { return *collector_; }
  manager::Manager& manager() { return *manager_; }

  // The network's tracer (inert unless Options::trace.enabled). Export via
  // obs::WriteChromeTraceFile(net.tracer(), "trace.json").
  obs::Tracer& tracer() { return *tracer_; }

  // The diagnostic toolbox, pre-bound to this network's fabric.
  diagnose::Session& diagnose() { return *diagnose_; }

  // -- Service control --------------------------------------------------------------
  // Idempotent; for services not covered by Options::autostart.
  void StartCollector() { collector_->Start(); }
  void StartManager() { manager_->Start(); }

  // -- Conveniences ----------------------------------------------------------------
  sim::TimeNs Now() const { return sim_.Now(); }
  sim::TimeNs RunFor(sim::TimeNs duration) { return sim_.RunFor(duration); }

  // All endpoint devices (NICs, GPUs, SSDs) plus sockets — the natural
  // heartbeat-mesh participant set.
  std::vector<topology::ComponentId> Devices() const;

  // Builds (but does not start) a heartbeat mesh over Devices(), or over
  // the given participants.
  std::unique_ptr<anomaly::HeartbeatMesh> MakeHeartbeatMesh(
      anomaly::HeartbeatMesh::Config config = {});

 private:
  sim::Simulation& sim_;
  topology::Server server_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::SimTraceObserver> sim_observer_;  // Only when tracing.
  std::unique_ptr<fabric::Fabric> fabric_;
  std::unique_ptr<telemetry::Collector> collector_;
  std::unique_ptr<manager::Manager> manager_;
  std::unique_ptr<diagnose::Session> diagnose_;
};

}  // namespace mihn

#endif  // MIHN_SRC_HOST_HOST_NETWORK_H_
