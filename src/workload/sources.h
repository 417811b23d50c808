// Generic traffic sources: continuous streams, RDMA loopback, open-loop
// Poisson transfer generators, and bursty on/off sources.

#ifndef MIHN_SRC_WORKLOAD_SOURCES_H_
#define MIHN_SRC_WORKLOAD_SOURCES_H_

#include <string>

#include "src/fabric/fabric.h"
#include "src/sim/random.h"
#include "src/workload/workload.h"

namespace mihn::workload {

// A continuous fluid stream between two endpoints (NVMe scans, video
// ingest, replication traffic, ...). Elastic by default.
class StreamSource : public Workload {
 public:
  struct Config {
    topology::ComponentId src = topology::kInvalidComponent;
    topology::ComponentId dst = topology::kInvalidComponent;
    sim::Bandwidth demand = sim::Bandwidth::BytesPerSec(fabric::kUnlimitedDemand);
    double weight = 1.0;
    bool ddio_write = false;
    fabric::TenantId tenant = fabric::kNoTenant;
    std::string name = "stream";
  };

  StreamSource(fabric::Fabric& fabric, Config config);

  void Start() override;
  void Stop() override;
  std::string name() const override { return config_.name; }

  sim::Bandwidth AchievedRate() const { return fabric_.FlowRate(flow_); }
  fabric::FlowId flow() const { return flow_; }

 private:
  fabric::Fabric& fabric_;
  Config config_;
  fabric::FlowId flow_ = fabric::kInvalidFlow;
};

// RDMA loopback traffic (paper §2: "an RDMA loopback traffic can exhaust
// the PCIe bandwidth"): the NIC simultaneously reads payload from host
// memory and DMA-writes it back, loading the PCIe link in both directions
// plus the memory path.
class LoopbackRdma : public Workload {
 public:
  struct Config {
    topology::ComponentId nic = topology::kInvalidComponent;
    topology::ComponentId socket = topology::kInvalidComponent;
    // Loopback intensity per direction.
    sim::Bandwidth demand = sim::Bandwidth::BytesPerSec(fabric::kUnlimitedDemand);
    fabric::TenantId tenant = fabric::kNoTenant;
    std::string name = "loopback";
  };

  LoopbackRdma(fabric::Fabric& fabric, Config config);

  void Start() override;
  void Stop() override;
  std::string name() const override { return config_.name; }

  sim::Bandwidth WriteRate() const { return fabric_.FlowRate(write_flow_); }

 private:
  fabric::Fabric& fabric_;
  Config config_;
  fabric::FlowId read_flow_ = fabric::kInvalidFlow;
  fabric::FlowId write_flow_ = fabric::kInvalidFlow;
};

// Open-loop Poisson transfer generator: arrivals ~ Exp(rate), sizes fixed
// or bounded-Pareto. Counts the transfers that complete while it runs.
class PoissonSource : public Workload {
 public:
  struct Config {
    topology::ComponentId src = topology::kInvalidComponent;
    topology::ComponentId dst = topology::kInvalidComponent;
    double arrivals_per_sec = 1000.0;
    int64_t mean_bytes = 64 * 1024;
    // 0 disables the heavy tail (all transfers are mean_bytes).
    double pareto_alpha = 0.0;
    bool ddio_write = false;
    fabric::TenantId tenant = fabric::kNoTenant;
    uint64_t rng_stream = 1;
    std::string name = "poisson";
  };

  PoissonSource(fabric::Fabric& fabric, Config config);

  void Start() override;
  void Stop() override;
  std::string name() const override { return config_.name; }

  int64_t completed_transfers() const { return completed_; }

 private:
  void ScheduleNext();
  int64_t DrawBytes();

  fabric::Fabric& fabric_;
  Config config_;
  topology::Path path_;
  sim::Rng rng_;
  int64_t completed_ = 0;
  sim::EventHandle next_arrival_;
  uint64_t generation_ = 0;
};

// On/off bursty source: alternates exponentially-distributed bursts of a
// fixed-demand stream with idle gaps. Models the "performance jitters"
// traffic of §2.
class BurstySource : public Workload {
 public:
  struct Config {
    topology::ComponentId src = topology::kInvalidComponent;
    topology::ComponentId dst = topology::kInvalidComponent;
    sim::Bandwidth on_demand = sim::Bandwidth::GBps(10);
    sim::TimeNs mean_on = sim::TimeNs::Millis(5);
    sim::TimeNs mean_off = sim::TimeNs::Millis(5);
    bool ddio_write = false;
    fabric::TenantId tenant = fabric::kNoTenant;
    uint64_t rng_stream = 2;
    std::string name = "bursty";
  };

  BurstySource(fabric::Fabric& fabric, Config config);

  void Start() override;
  void Stop() override;
  std::string name() const override { return config_.name; }

  int64_t bursts() const { return bursts_; }

 private:
  void EnterOn();
  void EnterOff();

  fabric::Fabric& fabric_;
  Config config_;
  topology::Path path_;
  sim::Rng rng_;
  fabric::FlowId flow_ = fabric::kInvalidFlow;
  int64_t bursts_ = 0;
  sim::EventHandle pending_;
  uint64_t generation_ = 0;
};

}  // namespace mihn::workload

#endif  // MIHN_SRC_WORKLOAD_SOURCES_H_
