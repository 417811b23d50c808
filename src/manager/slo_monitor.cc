#include "src/manager/slo_monitor.h"

#include <algorithm>

namespace mihn::manager {
namespace {

// Delivered bandwidth must reach promise * tolerance.
constexpr double kBandwidthTolerance = 0.95;

}  // namespace

SloMonitor::SloMonitor(Manager& manager, fabric::Fabric& fabric, Config config)
    : manager_(manager), fabric_(fabric), config_(config) {}

void SloMonitor::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  timer_ = fabric_.simulation().SchedulePeriodic(config_.period, [this] { CheckOnce(); });
}

SloMonitor::~SloMonitor() { timer_.Cancel(); }

void SloMonitor::CheckOnce() {
  const sim::TimeNs now = fabric_.simulation().Now();
  for (const AllocationId id : manager_.AllAllocations()) {
    const Allocation* alloc = manager_.GetAllocation(id);
    if (alloc == nullptr || alloc->flows.empty()) {
      continue;  // Nothing attached: nothing to verify.
    }
    Tally& tally = tallies_[id];
    ++tally.checked;
    bool passed = true;

    // Bandwidth: only meaningful when the tenant offers enough load.
    const double promise = alloc->target.bandwidth.bytes_per_sec();
    double offered = 0.0;
    double delivered = 0.0;
    for (const fabric::FlowId flow : alloc->flows) {
      if (const auto info = fabric_.GetFlowInfo(flow)) {
        offered += std::min(info->demand.bytes_per_sec(), info->limit.bytes_per_sec());
        delivered += info->rate.bytes_per_sec();
      }
    }
    const double entitled = std::min(offered, promise);
    if (entitled > 0.0 && delivered < entitled * kBandwidthTolerance) {
      passed = false;
      Violation v;
      v.at = now;
      v.allocation = id;
      v.tenant = alloc->tenant;
      v.kind = Violation::Kind::kBandwidth;
      v.expected = entitled;
      v.actual = delivered;
      RecordViolation(v);
    }

    // Latency bound, if the intent carries one.
    if (alloc->target.max_latency) {
      const sim::TimeNs current = fabric_.ProbePathLatency(alloc->path);
      if (current > *alloc->target.max_latency) {
        passed = false;
        Violation v;
        v.at = now;
        v.allocation = id;
        v.tenant = alloc->tenant;
        v.kind = Violation::Kind::kLatency;
        v.expected = static_cast<double>(alloc->target.max_latency->nanos());
        v.actual = static_cast<double>(current.nanos());
        RecordViolation(v);
      }
    }
    if (passed) {
      ++tally.passed;
    }
  }
}

void SloMonitor::RecordViolation(const Violation& v) {
  violations_.push_back(v);
  while (violations_.size() > kMaxViolations) {
    violations_.pop_front();
    ++violations_dropped_;
  }
}

double SloMonitor::Compliance(AllocationId id) const {
  const auto it = tallies_.find(id);
  if (it == tallies_.end() || it->second.checked == 0) {
    return 1.0;
  }
  return static_cast<double>(it->second.passed) / static_cast<double>(it->second.checked);
}

}  // namespace mihn::manager
