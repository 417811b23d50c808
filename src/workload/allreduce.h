// Ring all-reduce collective (distributed DNN training, cf. BytePS [31]).
//
// Each iteration runs the classic ring algorithm over N GPUs: 2*(N-1)
// steps, where in each step every GPU sends one tensor chunk (tensor/N
// bytes) to its ring successor and the step completes when the slowest
// transfer lands. On a multi-socket server some ring edges cross the
// inter-socket fabric, so the collective's bus bandwidth is shaped by the
// intra-host topology — the traffic pattern behind the paper's DGX example.

#ifndef MIHN_SRC_WORKLOAD_ALLREDUCE_H_
#define MIHN_SRC_WORKLOAD_ALLREDUCE_H_

#include <vector>

#include "src/fabric/fabric.h"
#include "src/sim/stats.h"

namespace mihn::workload {

class RingAllReduce {
 public:
  struct Config {
    std::vector<topology::ComponentId> gpus;  // Ring order; >= 2 entries.
    int64_t tensor_bytes = 256LL * 1024 * 1024;
    // Idle (compute) gap between iterations.
    sim::TimeNs compute_time = sim::TimeNs::Millis(5);
    fabric::TenantId tenant = fabric::kNoTenant;
  };

  RingAllReduce(fabric::Fabric& fabric, Config config);

  void Start();
  void Stop();

  // Communication-phase duration per iteration, ms.
  const sim::Histogram& comm_ms() const { return comm_ms_; }

  // Algorithm ("bus") bandwidth of the last completed iteration:
  // 2*(N-1)/N * tensor_bytes / comm_time — the metric NCCL reports.
  double LastBusBandwidthGBps() const { return last_bus_gbps_; }

 private:
  void BeginIteration();
  void RunStep(int step, sim::TimeNs comm_start);

  fabric::Fabric& fabric_;
  Config config_;
  std::vector<topology::Path> ring_paths_;  // gpus[i] -> gpus[i+1 mod N].
  sim::Histogram comm_ms_;
  double last_bus_gbps_ = 0.0;
  int pending_transfers_ = 0;
  std::vector<fabric::FlowId> active_;
  uint64_t generation_ = 0;
  bool running_ = false;
};

}  // namespace mihn::workload

#endif  // MIHN_SRC_WORKLOAD_ALLREDUCE_H_
