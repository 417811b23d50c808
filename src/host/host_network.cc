#include "src/host/host_network.h"

#include <utility>

namespace mihn {
namespace {

topology::Server BuildPreset(HostNetwork::Preset preset) {
  switch (preset) {
    case HostNetwork::Preset::kCommodityTwoSocket:
      return topology::CommodityTwoSocket();
    case HostNetwork::Preset::kDgxClass:
      return topology::DgxClass();
    case HostNetwork::Preset::kEdgeNode:
      return topology::EdgeNode();
  }
  return topology::CommodityTwoSocket();
}

}  // namespace

HostNetwork::HostNetwork(sim::Simulation& sim) : HostNetwork(sim, Options{}) {}

HostNetwork::HostNetwork(sim::Simulation& sim, Options options)
    : HostNetwork(sim, BuildPreset(options.preset), std::move(options)) {}

HostNetwork::HostNetwork(sim::Simulation& sim, topology::Server server, Options options)
    : sim_(sim), server_(std::move(server)) {
  tracer_ = std::make_unique<obs::Tracer>(options.trace, &sim_);
  if (tracer_->enabled()) {
    sim_observer_ = std::make_unique<obs::SimTraceObserver>(tracer_.get());
    sim_.SetEventObserver(sim_observer_.get());
  }
  fabric_ = std::make_unique<fabric::Fabric>(sim_, server_.topo, options.fabric);
  fabric_->set_tracer(tracer_.get());
  if (options.autostart != Autostart::kAllUnreported &&
      options.telemetry.report_to == topology::kInvalidComponent &&
      server_.monitor_store != topology::kInvalidComponent) {
    options.telemetry.report_to = server_.monitor_store;
  }
  collector_ = std::make_unique<telemetry::Collector>(*fabric_, options.telemetry);
  manager_ = std::make_unique<manager::Manager>(*fabric_, options.manager);
  diagnose_ = std::make_unique<diagnose::Session>(*fabric_);
  if (options.autostart == Autostart::kCollectorOnly || options.autostart == Autostart::kAll ||
      options.autostart == Autostart::kAllUnreported) {
    collector_->Start();
  }
  if (options.autostart == Autostart::kAll || options.autostart == Autostart::kAllUnreported) {
    manager_->Start();
  }
}

HostNetwork::~HostNetwork() {
  if (sim_observer_ != nullptr) {
    sim_.SetEventObserver(nullptr);
  }
}

std::vector<topology::ComponentId> HostNetwork::Devices() const {
  std::vector<topology::ComponentId> devices = server_.sockets;
  devices.insert(devices.end(), server_.nics.begin(), server_.nics.end());
  devices.insert(devices.end(), server_.gpus.begin(), server_.gpus.end());
  devices.insert(devices.end(), server_.ssds.begin(), server_.ssds.end());
  return devices;
}

std::unique_ptr<anomaly::HeartbeatMesh> HostNetwork::MakeHeartbeatMesh(
    anomaly::HeartbeatMesh::Config config) {
  if (config.participants.empty()) {
    config.participants = Devices();
    config.participants.insert(config.participants.end(), server_.dimms.begin(),
                               server_.dimms.end());
    config.participants.insert(config.participants.end(), server_.cxl_memories.begin(),
                               server_.cxl_memories.end());
  }
  return std::make_unique<anomaly::HeartbeatMesh>(*fabric_, std::move(config));
}

}  // namespace mihn
