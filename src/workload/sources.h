// Generic traffic sources: continuous streams, RDMA loopback, open-loop
// Poisson transfer generators, and bursty on/off sources.
//
// Every workload (these, KvClient, MlTrainer and RingAllReduce) drives the
// Fabric through its public API and records its own application-level
// statistics. Start() begins generating traffic and is idempotent. The
// workloads a binary stops (StreamSource, RingAllReduce) also have Stop(),
// which tears down their active flows, is idempotent, and makes callbacks
// that land after it do nothing; the others run until their simulation
// ends.

#ifndef MIHN_SRC_WORKLOAD_SOURCES_H_
#define MIHN_SRC_WORKLOAD_SOURCES_H_

#include "src/fabric/fabric.h"
#include "src/sim/random.h"

namespace mihn::workload {

// A continuous fluid stream between two endpoints (NVMe scans, video
// ingest, replication traffic, ...). Elastic by default.
class StreamSource {
 public:
  struct Config {
    topology::ComponentId src = topology::kInvalidComponent;
    topology::ComponentId dst = topology::kInvalidComponent;
    sim::Bandwidth demand = sim::Bandwidth::BytesPerSec(fabric::kUnlimitedDemand);
    double weight = 1.0;
    bool ddio_write = false;
    fabric::TenantId tenant = fabric::kNoTenant;
  };

  StreamSource(fabric::Fabric& fabric, Config config);

  void Start();
  void Stop();

  sim::Bandwidth AchievedRate() const { return fabric_.FlowRate(flow_); }
  fabric::FlowId flow() const { return flow_; }

 private:
  fabric::Fabric& fabric_;
  Config config_;
  fabric::FlowId flow_ = fabric::kInvalidFlow;
  bool running_ = false;
};

// RDMA loopback traffic (paper §2: "an RDMA loopback traffic can exhaust
// the PCIe bandwidth"): the NIC simultaneously reads payload from host
// memory and DMA-writes it back, loading the PCIe link in both directions
// plus the memory path.
class LoopbackRdma {
 public:
  struct Config {
    topology::ComponentId nic = topology::kInvalidComponent;
    topology::ComponentId socket = topology::kInvalidComponent;
    // Loopback intensity per direction.
    sim::Bandwidth demand = sim::Bandwidth::BytesPerSec(fabric::kUnlimitedDemand);
    fabric::TenantId tenant = fabric::kNoTenant;
  };

  LoopbackRdma(fabric::Fabric& fabric, Config config);

  void Start();

  sim::Bandwidth WriteRate() const { return fabric_.FlowRate(write_flow_); }

 private:
  fabric::Fabric& fabric_;
  Config config_;
  fabric::FlowId write_flow_ = fabric::kInvalidFlow;
  bool running_ = false;
};

// Open-loop Poisson transfer generator: arrivals ~ Exp(rate), sizes fixed
// or bounded-Pareto. Counts the transfers that complete.
class PoissonSource {
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
  };

  PoissonSource(fabric::Fabric& fabric, Config config);

  void Start();

  int64_t completed_transfers() const { return completed_; }

 private:
  void ScheduleNext();
  int64_t DrawBytes();

  fabric::Fabric& fabric_;
  Config config_;
  topology::Path path_;
  sim::Rng rng_;
  int64_t completed_ = 0;
  bool running_ = false;
};

// On/off bursty source: alternates exponentially-distributed bursts of a
// fixed-demand stream with idle gaps. Models the "performance jitters"
// traffic of §2.
class BurstySource {
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
  };

  BurstySource(fabric::Fabric& fabric, Config config);

  void Start();

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
  bool running_ = false;
};

}  // namespace mihn::workload

#endif  // MIHN_SRC_WORKLOAD_SOURCES_H_
