#include "src/workload/sources.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mihn::workload {

// -- StreamSource -------------------------------------------------------------

StreamSource::StreamSource(fabric::Fabric& fabric, Config config)
    : fabric_(fabric), config_(std::move(config)) {}

void StreamSource::Start() {
  if (running_) {
    return;
  }
  auto path = fabric_.Route(config_.src, config_.dst);
  if (!path) {
    return;
  }
  fabric::FlowSpec spec;
  spec.path = std::move(*path);
  spec.tenant = config_.tenant;
  spec.demand = config_.demand;
  spec.weight = config_.weight;
  spec.ddio_write = config_.ddio_write;
  flow_ = fabric_.StartFlow(std::move(spec));
  running_ = flow_ != fabric::kInvalidFlow;
}

void StreamSource::Stop() {
  if (flow_ != fabric::kInvalidFlow) {
    fabric_.StopFlow(flow_);
    flow_ = fabric::kInvalidFlow;
  }
  running_ = false;
}

// -- LoopbackRdma -------------------------------------------------------------

LoopbackRdma::LoopbackRdma(fabric::Fabric& fabric, Config config)
    : fabric_(fabric), config_(std::move(config)) {}

void LoopbackRdma::Start() {
  if (running_) {
    return;
  }
  auto read_path = fabric_.Route(config_.socket, config_.nic);
  auto write_path = fabric_.Route(config_.nic, config_.socket);
  if (!read_path || !write_path) {
    return;
  }
  fabric::FlowSpec read;
  read.path = std::move(*read_path);
  read.tenant = config_.tenant;
  read.demand = config_.demand;
  fabric_.StartFlow(std::move(read));

  fabric::FlowSpec write;
  write.path = std::move(*write_path);
  write.tenant = config_.tenant;
  write.demand = config_.demand;
  write.ddio_write = true;  // Loopback receive lands in host memory via DDIO.
  write_flow_ = fabric_.StartFlow(std::move(write));
  running_ = true;
}

// -- PoissonSource ------------------------------------------------------------

PoissonSource::PoissonSource(fabric::Fabric& fabric, Config config)
    : fabric_(fabric),
      config_(std::move(config)),
      rng_(fabric.simulation().ForkRng(config_.rng_stream)) {
  if (auto p = fabric_.Route(config_.src, config_.dst)) {
    path_ = std::move(*p);
  }
}

void PoissonSource::Start() {
  if (running_ || path_.empty() || config_.arrivals_per_sec <= 0) {
    return;
  }
  running_ = true;
  ScheduleNext();
}

int64_t PoissonSource::DrawBytes() {
  if (config_.pareto_alpha <= 0.0) {
    return config_.mean_bytes;
  }
  // Bounded Pareto spanning [mean/10, mean*100]; heavy-tailed around the
  // configured mean-ish scale.
  const double lo = static_cast<double>(config_.mean_bytes) / 10.0;
  const double hi = static_cast<double>(config_.mean_bytes) * 100.0;
  return std::max<int64_t>(1, static_cast<int64_t>(rng_.BoundedPareto(lo, hi,
                                                                      config_.pareto_alpha)));
}

void PoissonSource::ScheduleNext() {
  const double gap_s = rng_.Exponential(config_.arrivals_per_sec);
  fabric_.simulation().ScheduleAfter(sim::TimeNs::FromSecondsF(gap_s), [this] {
    fabric::TransferSpec spec;
    spec.flow.path = path_;
    spec.flow.tenant = config_.tenant;
    spec.flow.ddio_write = config_.ddio_write;
    spec.bytes = DrawBytes();
    spec.on_complete = [this](const fabric::TransferResult&) { ++completed_; };
    fabric_.StartTransfer(std::move(spec));
    ScheduleNext();
  });
}

// -- BurstySource -------------------------------------------------------------

BurstySource::BurstySource(fabric::Fabric& fabric, Config config)
    : fabric_(fabric),
      config_(std::move(config)),
      rng_(fabric.simulation().ForkRng(config_.rng_stream)) {
  if (auto p = fabric_.Route(config_.src, config_.dst)) {
    path_ = std::move(*p);
  }
}

void BurstySource::Start() {
  if (running_ || path_.empty()) {
    return;
  }
  running_ = true;
  EnterOn();
}

void BurstySource::EnterOn() {
  fabric::FlowSpec spec;
  spec.path = path_;
  spec.tenant = config_.tenant;
  spec.demand = config_.on_demand;
  spec.ddio_write = config_.ddio_write;
  flow_ = fabric_.StartFlow(std::move(spec));
  ++bursts_;
  const double on_s = rng_.Exponential(1.0 / config_.mean_on.ToSecondsF());
  fabric_.simulation().ScheduleAfter(sim::TimeNs::FromSecondsF(on_s), [this] { EnterOff(); });
}

void BurstySource::EnterOff() {
  fabric_.StopFlow(flow_);
  const double off_s = rng_.Exponential(1.0 / config_.mean_off.ToSecondsF());
  fabric_.simulation().ScheduleAfter(sim::TimeNs::FromSecondsF(off_s), [this] { EnterOn(); });
}

}  // namespace mihn::workload
