// ML training workload (paper §2).
//
// Each iteration loads a training batch from host memory to the GPU (a bulk
// fluid transfer over the memory bus + PCIe fabric), then computes for a
// fixed time. Its bulk transfers are exactly the "substantial workload for CPU-GPU
// communication" that interferes with a co-located latency-sensitive
// service.

#ifndef MIHN_SRC_WORKLOAD_ML_TRAINER_H_
#define MIHN_SRC_WORKLOAD_ML_TRAINER_H_

#include "src/fabric/fabric.h"
#include "src/sim/stats.h"

namespace mihn::workload {

class MlTrainer {
 public:
  struct Config {
    topology::ComponentId data_source = topology::kInvalidComponent;  // DIMM.
    topology::ComponentId gpu = topology::kInvalidComponent;
    int64_t batch_bytes = 256LL * 1024 * 1024;
    sim::TimeNs compute_time = sim::TimeNs::Millis(10);
    // Cap on the data-load transfer rate (pacing, à la BytePS scheduling);
    // default unlimited.
    sim::Bandwidth load_demand = sim::Bandwidth::BytesPerSec(fabric::kUnlimitedDemand);
    fabric::TenantId tenant = fabric::kNoTenant;
    double weight = 1.0;
  };

  MlTrainer(fabric::Fabric& fabric, Config config);

  void Start();

  // Completed iterations (load + compute).
  int64_t iterations() const { return iterations_; }

  // Data-load phase achieved bandwidth, GB/s.
  const sim::Histogram& load_bandwidth_gbps() const { return load_bandwidth_gbps_; }

 private:
  void BeginIteration();
  void FinishIteration();

  fabric::Fabric& fabric_;
  Config config_;
  topology::Path load_path_;
  int64_t iterations_ = 0;
  sim::Histogram load_bandwidth_gbps_;
  bool running_ = false;
};

}  // namespace mihn::workload

#endif  // MIHN_SRC_WORKLOAD_ML_TRAINER_H_
