// Closed-loop remote key-value store client (paper §2).
//
// A remote client issues GET requests across the inter-host link; the
// request DMA lands in host memory, the host serves it after a fixed
// service time, and the response travels back. The client keeps
// |concurrency| requests (64 B each, 4 KiB responses) outstanding. Request/response packets observe
// congestion latency on every fabric hop, so co-located bulk traffic on the
// PCIe root port or memory bus directly inflates the recorded tail — the
// paper's interference narrative, measurable.

#ifndef MIHN_SRC_WORKLOAD_KV_CLIENT_H_
#define MIHN_SRC_WORKLOAD_KV_CLIENT_H_

#include "src/fabric/fabric.h"
#include "src/sim/stats.h"

namespace mihn::workload {

class KvClient {
 public:
  struct Config {
    // Endpoints: requests travel client -> server, responses back.
    topology::ComponentId client = topology::kInvalidComponent;  // e.g. external host.
    topology::ComponentId server = topology::kInvalidComponent;  // e.g. CPU socket.
    int concurrency = 4;
    // Packets carry no tenant, so nothing reads this.
    fabric::TenantId tenant = fabric::kNoTenant;
  };

  // Routes paths at construction; |fabric| must outlive the client.
  KvClient(fabric::Fabric& fabric, Config config);

  void Start();

  // End-to-end operation latency distribution, in microseconds.
  const sim::Histogram& latency_us() const { return latency_us_; }
  int64_t completed_ops() const { return latency_us_.count(); }

  // Completed operations per second over the running interval so far.
  double OpsPerSecond() const;

 private:
  void IssueOp();

  fabric::Fabric& fabric_;
  Config config_;
  topology::Path request_path_;
  topology::Path response_path_;
  sim::Histogram latency_us_;
  sim::TimeNs started_at_;
  bool running_ = false;
};

}  // namespace mihn::workload

#endif  // MIHN_SRC_WORKLOAD_KV_CLIENT_H_
