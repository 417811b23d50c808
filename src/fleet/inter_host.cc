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
}

int32_t InterHostNetwork::AddFlow(int src_host, int dst_host, sim::Bandwidth demand,
                                  double weight) {
  MIHN_CHECK(src_host >= 0 && src_host < config_.hosts);
  MIHN_CHECK(dst_host >= 0 && dst_host < config_.hosts);
  MIHN_CHECK(src_host != dst_host);
  FlowRec rec;
  rec.demand = demand.bytes_per_sec();
  rec.weight = weight;
  rec.links.push_back(HostUpIndex(src_host));
  const int src_rack = RackOf(src_host);
  const int dst_rack = RackOf(dst_host);
  if (src_rack != dst_rack) {
    rec.links.push_back(RackUpIndex(src_rack));
    rec.links.push_back(RackDownIndex(dst_rack));
  }
  rec.links.push_back(HostDownIndex(dst_host));
  flows_.push_back(std::move(rec));
  reprime_ = true;
  return static_cast<int32_t>(flows_.size()) - 1;
}

void InterHostNetwork::SetFlowDemand(int32_t slot, sim::Bandwidth demand) {
  MIHN_CHECK(slot >= 0 && slot < static_cast<int32_t>(flows_.size()));
  FlowRec& rec = flows_[static_cast<size_t>(slot)];
  rec.demand = demand.bytes_per_sec();
  if (!reprime_) {
    solver_.UpdateFlowDemand(slot, rec.demand);
  }
}

void InterHostNetwork::Solve() {
  if (reprime_) {
    // An add is a new problem: load every slot, so slots stay the solver's
    // flow indices.
    solver_.Begin(capacity_.size());
    for (size_t l = 0; l < capacity_.size(); ++l) {
      solver_.SetCapacity(static_cast<int32_t>(l), capacity_[l]);
    }
    for (const FlowRec& rec : flows_) {
      solver_.AddFlow(rec.weight, rec.demand, rec.links.data(), rec.links.size());
    }
    reprime_ = false;
  }
  const std::vector<double>& rates = solver_.SolveDelta();
  link_rate_.assign(capacity_.size(), 0.0);
  for (size_t f = 0; f < flows_.size(); ++f) {
    for (const int32_t l : flows_[f].links) {
      link_rate_[static_cast<size_t>(l)] += rates[f];
    }
  }
}

sim::Bandwidth InterHostNetwork::FlowRate(int32_t slot) const {
  MIHN_CHECK(slot >= 0 && slot < static_cast<int32_t>(flows_.size()));
  const std::vector<double>& rates = solver_.rates();
  if (static_cast<size_t>(slot) >= rates.size()) {
    return sim::Bandwidth::Zero();  // Added since the last Solve().
  }
  return sim::Bandwidth::BytesPerSec(rates[static_cast<size_t>(slot)]);
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
