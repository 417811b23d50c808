#include "src/workload/ml_trainer.h"

#include <utility>

namespace mihn::workload {

MlTrainer::MlTrainer(fabric::Fabric& fabric, Config config)
    : fabric_(fabric), config_(std::move(config)) {
  if (auto p = fabric_.Route(config_.data_source, config_.gpu)) {
    load_path_ = std::move(*p);
  }
}

void MlTrainer::Start() {
  if (running_ || load_path_.empty()) {
    return;
  }
  running_ = true;
  BeginIteration();
}

void MlTrainer::BeginIteration() {
  fabric::TransferSpec spec;
  spec.flow.path = load_path_;
  spec.flow.tenant = config_.tenant;
  spec.flow.weight = config_.weight;
  spec.flow.demand = config_.load_demand;
  spec.bytes = config_.batch_bytes;
  spec.on_complete = [this](const fabric::TransferResult& result) {
    load_bandwidth_gbps_.Add(result.AverageRate().ToGBps());
    fabric_.simulation().ScheduleAfter(config_.compute_time, [this] { FinishIteration(); });
  };
  fabric_.StartTransfer(std::move(spec));
}

void MlTrainer::FinishIteration() {
  ++iterations_;
  BeginIteration();
}

}  // namespace mihn::workload
