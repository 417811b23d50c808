// Workload base interface.
//
// Workloads are the traffic the paper reasons about (§2): remote key-value
// serving, ML training with CPU-GPU bulk transfers, NVMe streams, RDMA
// loopback, plus generic open-loop and bursty sources. Each workload drives
// the Fabric through its public API and records its own application-level
// statistics (the numbers the benchmarks report).

#ifndef MIHN_SRC_WORKLOAD_WORKLOAD_H_
#define MIHN_SRC_WORKLOAD_WORKLOAD_H_

#include <string>

namespace mihn::workload {

class Workload {
 public:
  virtual ~Workload() = default;

  // Begins generating traffic. Idempotent.
  virtual void Start() = 0;

  // Stops generating traffic and tears down any active flows. In-flight
  // callbacks may still land after Stop(); they are ignored. Idempotent.
  virtual void Stop() = 0;

  virtual std::string name() const = 0;

 protected:
  bool running_ = false;
};

}  // namespace mihn::workload

#endif  // MIHN_SRC_WORKLOAD_WORKLOAD_H_
