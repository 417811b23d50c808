// Seeded op-sequence fuzz of the fabric's public API.
//
// Each seed drives one fabric through a random sequence of every mutator
// (flows, transfers, stops, limits, weights, demands, faults, config
// toggles, packets, clock advances) and, after every step, checks the
// observable state against oracles that know nothing of how the fabric
// keeps its books:
//
//  * each link's rate — and its per-tenant and per-class rates — equal the
//    id-order sum of FlowRate over the flows crossing it, bit for bit;
//  * with no DDIO write live (so the cache model is out of the loop), the
//    rates equal SolveMaxMinReference on the problem rebuilt from
//    GetFlowInfo and EffectiveCapacity, bit for bit;
//  * per-link and per-class byte counters match a shadow integrator fed by
//    a pre-advance hook (which sees every settled rate before time moves)
//    to within 1e-9 relative, so a transfer that drains between accruals
//    must take back exactly what the aggregate rates overcredited;
//  * every finite transfer that was not stopped fires on_complete exactly
//    once, reporting the requested byte count;
//  * CheckInvariants() holds (armed in invariant-check builds).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/topology/presets.h"

namespace mihn::fabric {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

constexpr int kStepsPerSeed = 1000;
constexpr double kRelTol = 1e-9;
constexpr double kAbsTolBytes = 1e-6;

bool Near(double a, double b) {
  return std::abs(a - b) <= kRelTol * std::max(std::abs(a), std::abs(b)) + kAbsTolBytes;
}

class FuzzHarness {
 public:
  explicit FuzzHarness(uint64_t seed)
      : sim_(seed),
        server_(topology::CommodityTwoSocket()),
        fabric_(sim_, server_.topo),
        rng_(seed),
        allow_ddio_(seed % 2 == 0) {
    for (const auto* group : {&server_.nics, &server_.ssds, &server_.gpus, &server_.dimms,
                              &server_.sockets, &server_.external_hosts}) {
      endpoints_.insert(endpoints_.end(), group->begin(), group->end());
    }
    link_bytes_.resize(server_.topo.link_count() * 2, 0.0);
    class_bytes_.resize(link_bytes_.size());
    // Registered after the fabric's own flush hook, so it reads settled
    // rates: the ones in force until the clock moves again.
    hook_ = sim_.AddPreAdvanceHook([this] {
      Advance();
      Record();
    });
  }
  ~FuzzHarness() { hook_.Cancel(); }

  void Step() {
    const int64_t op = rng_.UniformInt(0, 99);
    if (op < 12) {
      StartOne(/*finite=*/false);
    } else if (op < 22) {
      StartOne(/*finite=*/true);
    } else if (op < 30) {
      StopOne();
    } else if (op < 38) {
      if (const FlowId id = PickOwned(); id != kInvalidFlow) {
        // A negative draw is a zero limit.
        const double gbps = static_cast<double>(rng_.UniformInt(-5, 300));
        fabric_.SetFlowLimit(id, gbps < 0 ? Bandwidth::Zero() : Bandwidth::Gbps(gbps));
      }
    } else if (op < 43) {
      // An arbiter's burst of limits at one timestamp. Unknown and stopped
      // ids ride along: the fabric must skip them.
      for (int64_t i = rng_.UniformInt(1, 6); i > 0; --i) {
        const FlowId id = rng_.UniformInt(0, 4) == 0 ? rng_.UniformInt(1, 4000) : PickOwned();
        fabric_.SetFlowLimit(id, Bandwidth::Gbps(static_cast<double>(rng_.UniformInt(1, 400))));
      }
    } else if (op < 49) {
      if (const FlowId id = PickOwned(); id != kInvalidFlow) {
        fabric_.SetFlowWeight(id, static_cast<double>(rng_.UniformInt(0, 8)) * 0.5);
      }
    } else if (op < 57) {
      if (const FlowId id = PickOwned(); id != kInvalidFlow) {
        fabric_.SetFlowDemand(id, Bandwidth::Gbps(static_cast<double>(rng_.UniformInt(0, 500))));
      }
    } else if (op < 62) {
      const auto link = static_cast<topology::LinkId>(
          rng_.UniformInt(0, static_cast<int64_t>(server_.topo.link_count()) - 1));
      const double factor = rng_.UniformInt(0, 4) == 0 ? 0.0 : rng_.Uniform(-0.1, 1.2);
      fabric_.InjectLinkFault(link, LinkFault{factor, TimeNs::Nanos(rng_.UniformInt(0, 2000))});
    } else if (op < 66) {
      fabric_.ClearLinkFault(static_cast<topology::LinkId>(
          rng_.UniformInt(0, static_cast<int64_t>(server_.topo.link_count()) - 1)));
    } else if (op < 69) {
      FabricConfig config = fabric_.config();
      if (rng_.UniformInt(0, 1) == 0) {
        config.ddio_enabled = !config.ddio_enabled;
      } else {
        config.iommu_enabled = !config.iommu_enabled;
      }
      fabric_.SetConfig(config);
    } else if (op < 79) {
      SendOne();
    } else {
      sim_.RunFor(TimeNs::Micros(rng_.UniformInt(1, 600)));
    }
  }

  // Every oracle, against the state as of Now().
  void Check() {
    Advance();   // Bytes up to Now() moved at the last recorded rates.
    Record();    // Reading settles any pending solve: these rates hold from Now().
    fabric_.CheckInvariants();

    const size_t num_links = link_bytes_.size();
    std::vector<double> link_rate(num_links, 0.0);
    std::vector<std::map<TenantId, double>> tenant_rate(num_links);
    std::vector<std::array<double, kNumTrafficClasses>> class_rate(num_links);
    for (const auto& [id, flow] : recorded_) {  // Id order.
      for (const int32_t li : flow.links) {
        const size_t l = static_cast<size_t>(li);
        link_rate[l] += flow.rate;
        tenant_rate[l][flow.tenant] += flow.rate;
        class_rate[l][static_cast<size_t>(flow.klass)] += flow.rate;
      }
    }
    for (size_t l = 0; l < num_links; ++l) {
      const LinkSnapshot snap =
          fabric_.Snapshot({static_cast<topology::LinkId>(l / 2), l % 2 == 0});
      EXPECT_EQ(snap.rate_bps, link_rate[l]) << "link " << l;
      EXPECT_EQ(snap.rate_by_tenant_bps, (std::vector<std::pair<TenantId, double>>(
                                             tenant_rate[l].begin(), tenant_rate[l].end())))
          << "link " << l;
      EXPECT_EQ(snap.rate_by_class_bps, class_rate[l]) << "link " << l;
      EXPECT_TRUE(Near(snap.bytes_total, link_bytes_[l]))
          << "link " << l << ": " << snap.bytes_total << " vs shadow " << link_bytes_[l];
      for (size_t k = 0; k < kNumTrafficClasses; ++k) {
        EXPECT_TRUE(Near(snap.bytes_by_class[k], class_bytes_[l][k]))
            << "link " << l << " class " << k << ": " << snap.bytes_by_class[k] << " vs "
            << class_bytes_[l][k];
      }
    }

    if (!DdioLive()) {
      std::vector<MaxMinFlow> flows;
      for (const auto& [id, flow] : recorded_) {
        flows.push_back({flow.weight, flow.demand, flow.links});
      }
      std::vector<double> capacities(num_links);
      for (const topology::Link& link : server_.topo.links()) {
        for (const bool forward : {true, false}) {
          const topology::DirectedLink dlink{link.id, forward};
          capacities[static_cast<size_t>(topology::DirectedIndex(dlink))] =
              fabric_.EffectiveCapacity(dlink).bytes_per_sec();
        }
      }
      const std::vector<double> expected = SolveMaxMinReference(flows, capacities);
      size_t i = 0;
      for (const auto& [id, flow] : recorded_) {
        EXPECT_EQ(flow.rate, expected[i++]) << "flow " << id;
      }
    }
  }

  // Lets every surviving transfer drain, then checks each fired exactly
  // once with its requested size (and stopped ones never).
  void Drain() {
    for (const topology::Link& link : server_.topo.links()) {
      fabric_.ClearLinkFault(link.id);  // A no-op on a healthy link.
    }
    for (const auto& [id, bytes] : requested_) {
      fabric_.SetFlowDemand(id, Bandwidth::Gbps(100));
      fabric_.SetFlowLimit(id, Bandwidth::BytesPerSec(kUnlimitedDemand));
      fabric_.SetFlowWeight(id, 1.0);
    }
    sim_.RunFor(TimeNs::Seconds(1));
    Check();
    for (const auto& [id, bytes] : requested_) {
      const auto it = completions_.find(id);
      if (stopped_.contains(id)) {
        EXPECT_EQ(it, completions_.end()) << "stopped transfer " << id << " completed";
        continue;
      }
      ASSERT_NE(it, completions_.end()) << "transfer " << id << " never completed";
      EXPECT_EQ(it->second.first, 1) << "transfer " << id;
      EXPECT_EQ(it->second.second, bytes) << "transfer " << id;
    }
    EXPECT_GT(completions_.size(), 0u);
  }

 private:
  struct ShadowFlow {
    TenantId tenant = kNoTenant;
    TrafficClass klass = TrafficClass::kData;
    std::vector<int32_t> links;  // Distinct directed links.
    double rate = 0.0;
    double weight = 1.0;
    double demand = 0.0;  // min(demand, limit): what the solver is given.
  };

  topology::ComponentId PickEndpoint() {
    return endpoints_[static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(endpoints_.size()) - 1))];
  }

  // A flow this harness started (possibly already gone), or kInvalidFlow.
  FlowId PickOwned() {
    if (owned_.empty()) {
      return kInvalidFlow;
    }
    return owned_[static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(owned_.size()) - 1))];
  }

  void StartOne(bool finite) {
    const topology::ComponentId src = PickEndpoint();
    const topology::ComponentId dst = PickEndpoint();
    const auto path = src == dst ? std::nullopt : fabric_.Route(src, dst);
    if (!path) {
      return;
    }
    FlowSpec spec;
    spec.path = *path;
    spec.tenant = static_cast<TenantId>(rng_.UniformInt(0, 5));
    spec.demand = rng_.UniformInt(0, 5) == 0
                      ? Bandwidth::BytesPerSec(kUnlimitedDemand)
                      : Bandwidth::Gbps(static_cast<double>(rng_.UniformInt(1, 400)));
    spec.weight = static_cast<double>(rng_.UniformInt(1, 4));
    spec.ddio_write = allow_ddio_ && rng_.UniformInt(0, 2) == 0;
    spec.klass = static_cast<TrafficClass>(rng_.UniformInt(0, 1) * 2);  // Data or monitor.
    FlowId id = kInvalidFlow;
    if (finite) {
      TransferSpec transfer;
      transfer.flow = spec;
      transfer.bytes = rng_.UniformInt(1, 20'000'000);
      const int64_t bytes = transfer.bytes;
      transfer.on_complete = [this](const TransferResult& result) {
        auto& [count, reported] = completions_[result.id];
        ++count;
        reported = result.bytes;
        EXPECT_EQ(count, 1) << "transfer " << result.id << " completed twice";
      };
      id = fabric_.StartTransfer(std::move(transfer));
      if (id != kInvalidFlow) {
        requested_[id] = bytes;
        remaining_[id] = static_cast<double>(bytes);
      }
    } else {
      id = fabric_.StartFlow(spec);
    }
    if (id == kInvalidFlow) {
      return;
    }
    owned_.push_back(id);
    if (spec.ddio_write) {
      ddio_.insert(id);
    }
  }

  void StopOne() {
    const FlowId id = PickOwned();
    if (id == kInvalidFlow) {
      return;
    }
    if (requested_.contains(id) && fabric_.GetFlowInfo(id).has_value()) {
      stopped_.insert(id);  // Stopped before draining: must never complete.
    }
    fabric_.StopFlow(id);
    owned_.erase(std::find(owned_.begin(), owned_.end(), id));
  }

  void SendOne() {
    const topology::ComponentId src = PickEndpoint();
    const topology::ComponentId dst = PickEndpoint();
    const auto path = src == dst ? std::nullopt : fabric_.Route(src, dst);
    if (!path) {
      return;
    }
    PacketSpec packet;
    packet.path = &*path;
    packet.bytes = rng_.UniformInt(0, 9000);
    for (const topology::DirectedLink& hop : path->hops) {
      const size_t l = static_cast<size_t>(topology::DirectedIndex(hop));
      link_bytes_[l] += static_cast<double>(packet.bytes);
      class_bytes_[l][static_cast<size_t>(packet.klass)] += static_cast<double>(packet.bytes);
    }
    fabric_.SendPacket(std::move(packet));
  }

  bool DdioLive() const {
    return std::any_of(ddio_.begin(), ddio_.end(),
                       [this](FlowId id) { return recorded_.contains(id); });
  }

  // Integrates the recorded rates over (last_, Now()].
  void Advance() {
    const TimeNs now = sim_.Now();
    const double dt = (now - last_).ToSecondsF();
    last_ = now;
    if (dt <= 0.0) {
      return;
    }
    for (const auto& [id, flow] : recorded_) {
      double bytes = flow.rate * dt;
      const auto left = remaining_.find(id);
      if (left != remaining_.end()) {
        bytes = std::min(bytes, left->second);
        left->second -= bytes;
      }
      if (bytes <= 0.0) {
        continue;
      }
      for (const int32_t li : flow.links) {
        link_bytes_[static_cast<size_t>(li)] += bytes;
        class_bytes_[static_cast<size_t>(li)][static_cast<size_t>(flow.klass)] += bytes;
      }
    }
  }

  // Reads every live flow's settled state through the public API.
  void Record() {
    recorded_.clear();
    for (const FlowId id : fabric_.ActiveFlows()) {
      const std::optional<FlowInfo> info = fabric_.GetFlowInfo(id);
      ASSERT_TRUE(info.has_value());
      ShadowFlow flow;
      flow.tenant = info->tenant;
      flow.klass = info->klass;
      for (const topology::DirectedLink& hop : info->path->hops) {
        flow.links.push_back(topology::DirectedIndex(hop));
      }
      std::sort(flow.links.begin(), flow.links.end());
      flow.links.erase(std::unique(flow.links.begin(), flow.links.end()), flow.links.end());
      flow.rate = info->rate.bytes_per_sec();
      flow.weight = info->weight;
      flow.demand = std::min(info->demand.bytes_per_sec(), info->limit.bytes_per_sec());
      recorded_.emplace(id, std::move(flow));
    }
  }

  sim::Simulation sim_;
  topology::Server server_;
  Fabric fabric_;
  sim::Rng rng_;
  const bool allow_ddio_;
  sim::EventHandle hook_;
  std::vector<topology::ComponentId> endpoints_;
  std::vector<FlowId> owned_;
  std::set<FlowId> ddio_;
  std::map<FlowId, int64_t> requested_;
  std::map<FlowId, double> remaining_;  // Shadow bytes left per transfer.
  std::set<FlowId> stopped_;
  std::map<FlowId, std::pair<int, int64_t>> completions_;  // (count, bytes).
  std::map<FlowId, ShadowFlow> recorded_;                   // Id order.
  TimeNs last_;
  std::vector<double> link_bytes_;
  std::vector<std::array<double, kNumTrafficClasses>> class_bytes_;
};

class FabricFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FabricFuzzTest, EveryStepMatchesTheOracles) {
  FuzzHarness harness(GetParam());
  for (int step = 0; step < kStepsPerSeed; ++step) {
    harness.Step();
    harness.Check();
    ASSERT_FALSE(HasFailure()) << "seed " << GetParam() << " step " << step;
  }
  harness.Drain();
}

// Ten seeds x 1000 steps: 10^4 operations per ctest run. Odd seeds keep
// DDIO writes out, so the reference-solver oracle runs on every step.
INSTANTIATE_TEST_SUITE_P(Seeds, FabricFuzzTest, ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace mihn::fabric
