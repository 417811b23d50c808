#include "src/fleet/inter_host.h"

#include "src/core/check.h"

namespace mihn::fleet {

InterHostNetwork::InterHostNetwork(const Config& config) : config_(config) {
  MIHN_CHECK(config_.hosts >= 1);
  MIHN_CHECK(config_.hosts_per_rack >= 1);
  racks_ = (config_.hosts + config_.hosts_per_rack - 1) / config_.hosts_per_rack;
  capacity_.resize(static_cast<size_t>(2 * config_.hosts + 2 * racks_), 0.0);
  for (int h = 0; h < config_.hosts; ++h) {
    capacity_[static_cast<size_t>(HostUpIndex(h))] = config_.host_up.bytes_per_sec();
    capacity_[static_cast<size_t>(HostDownIndex(h))] = config_.host_down.bytes_per_sec();
  }
  for (int r = 0; r < racks_; ++r) {
    capacity_[static_cast<size_t>(RackUpIndex(r))] = config_.rack_up.bytes_per_sec();
    capacity_[static_cast<size_t>(RackDownIndex(r))] = config_.rack_down.bytes_per_sec();
  }
  link_rate_.assign(capacity_.size(), 0.0);
  // Prime the solver on the (empty) problem so the retained API is live from
  // the start: slots align with flows_ indices, and a flow added between
  // solves reads rate 0 until the next Solve() (a full one; only demand
  // changes replay the retained trace).
  solver_.Begin(capacity_.size());
  for (size_t l = 0; l < capacity_.size(); ++l) {
    solver_.SetCapacity(static_cast<int32_t>(l), capacity_[l]);
  }
  solver_.Commit();
}

int32_t InterHostNetwork::AddFlow(int src_host, int dst_host, sim::Bandwidth demand,
                                  double weight) {
  MIHN_CHECK(src_host >= 0 && src_host < config_.hosts);
  MIHN_CHECK(dst_host >= 0 && dst_host < config_.hosts);
  MIHN_CHECK(src_host != dst_host);
  FlowRec rec;
  rec.live = true;
  rec.links.push_back(HostUpIndex(src_host));
  const int src_rack = RackOf(src_host);
  const int dst_rack = RackOf(dst_host);
  if (src_rack != dst_rack) {
    rec.links.push_back(RackUpIndex(src_rack));
    rec.links.push_back(RackDownIndex(dst_rack));
  }
  rec.links.push_back(HostDownIndex(dst_host));
  const int32_t slot = solver_.AddFlowRetained(weight, demand.bytes_per_sec(), rec.links.data(),
                                               rec.links.size());
  MIHN_CHECK(slot == static_cast<int32_t>(flows_.size()));
  flows_.push_back(std::move(rec));
  return slot;
}

void InterHostNetwork::SetFlowDemand(int32_t slot, sim::Bandwidth demand) {
  MIHN_CHECK(slot >= 0 && slot < static_cast<int32_t>(flows_.size()));
  if (!flows_[static_cast<size_t>(slot)].live) {
    return;
  }
  solver_.UpdateFlowDemand(slot, demand.bytes_per_sec());
}

void InterHostNetwork::RemoveFlow(int32_t slot) {
  MIHN_CHECK(slot >= 0 && slot < static_cast<int32_t>(flows_.size()));
  FlowRec& rec = flows_[static_cast<size_t>(slot)];
  if (!rec.live) {
    return;
  }
  rec.live = false;
  solver_.RemoveFlowRetained(slot);
}

void InterHostNetwork::Solve() {
  const std::vector<double>& rates = solver_.SolveDelta();
  link_rate_.assign(capacity_.size(), 0.0);
  for (size_t f = 0; f < flows_.size(); ++f) {
    if (!flows_[f].live) {
      continue;
    }
    for (const int32_t l : flows_[f].links) {
      link_rate_[static_cast<size_t>(l)] += rates[f];
    }
  }
}

sim::Bandwidth InterHostNetwork::FlowRate(int32_t slot) const {
  MIHN_CHECK(slot >= 0 && slot < static_cast<int32_t>(flows_.size()));
  if (!flows_[static_cast<size_t>(slot)].live) {
    return sim::Bandwidth::Zero();
  }
  return sim::Bandwidth::BytesPerSec(solver_.rates()[static_cast<size_t>(slot)]);
}

std::vector<InterHostLinkUse> InterHostNetwork::SnapshotLinks() const {
  std::vector<InterHostLinkUse> out;
  out.reserve(capacity_.size());
  auto push = [&](int host, int rack, bool up, size_t index) {
    InterHostLinkUse use;
    use.host = host;
    use.rack = rack;
    use.up = up;
    use.capacity_bps = capacity_[index];
    use.rate_bps = link_rate_[index];
    use.utilization = use.capacity_bps > 0.0 ? use.rate_bps / use.capacity_bps : 0.0;
    out.push_back(use);
  };
  for (int h = 0; h < config_.hosts; ++h) {
    push(h, RackOf(h), true, static_cast<size_t>(HostUpIndex(h)));
    push(h, RackOf(h), false, static_cast<size_t>(HostDownIndex(h)));
  }
  for (int r = 0; r < racks_; ++r) {
    push(-1, r, true, static_cast<size_t>(RackUpIndex(r)));
    push(-1, r, false, static_cast<size_t>(RackDownIndex(r)));
  }
  return out;
}

}  // namespace mihn::fleet
