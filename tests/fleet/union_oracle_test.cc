// The fleet's coupling against the max-min allocation of the union network.
//
// Every host's links and the inter-host links form one network. In it a
// host flow crosses its own fabric's links, and a cross-host flow is one
// flow over its three stages' links, at its spec demand and weight. Once
// the coupling settles, every rate the fleet reports must be that
// network's weighted max-min allocation (SolveMaxMinReference), within a
// relative 1e-9: the order of the float operations differs, the allocation
// must not.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/fabric/max_min.h"
#include "src/fleet/fleet.h"
#include "src/sim/random.h"

namespace mihn::fleet {
namespace {

using sim::Bandwidth;

// A fleet whose cross-host flows are all placed before any host flow, so
// each host's stages are its lowest flow ids, in placement order.
struct UnionFleet {
  UnionFleet(int hosts, Fleet::Options options) : fleet(hosts, options) {
    locals.resize(static_cast<size_t>(hosts));
  }

  CrossFlowId Place(const CrossHostFlowSpec& spec) {
    EXPECT_TRUE(locals[static_cast<size_t>(spec.src_host)].empty() &&
                locals[static_cast<size_t>(spec.dst_host)].empty())
        << "place cross-host flows before host flows";
    specs.push_back(spec);
    ids.push_back(fleet.StartCrossHostFlow(spec));
    return ids.back();
  }

  fabric::FlowId StartLocal(int host, const topology::Path& path, double demand_bps,
                            double weight) {
    fabric::FlowSpec spec;
    spec.path = path;
    spec.tenant = 40 + host;
    spec.demand = Bandwidth::BytesPerSec(demand_bps);
    spec.weight = weight;
    const fabric::FlowId id = fleet.host(host).fabric().StartFlow(std::move(spec));
    locals[static_cast<size_t>(host)].push_back(id);
    return id;
  }

  Fleet fleet;
  std::vector<CrossHostFlowSpec> specs;  // Placement order.
  std::vector<CrossFlowId> ids;
  std::vector<std::vector<fabric::FlowId>> locals;  // Per host.
};

// One rate the fleet reports, and the union flow it must equal.
struct Reported {
  std::string what;
  double rate_bps = 0.0;
  size_t union_flow = 0;
};

struct UnionProblem {
  std::vector<fabric::MaxMinFlow> flows;
  std::vector<double> caps;
  std::vector<Reported> reported;
};

// Appends |fabric|'s directed-link capacities to |caps|; returns the offset
// of its link 0.
int32_t AppendCapacities(fabric::Fabric& fabric, std::vector<double>& caps) {
  const auto offset = static_cast<int32_t>(caps.size());
  for (const topology::Link& link : fabric.topo().links()) {
    for (const bool forward : {true, false}) {
      const topology::DirectedLink dlink{link.id, forward};
      const size_t at = static_cast<size_t>(offset + topology::DirectedIndex(dlink));
      caps.resize(std::max(caps.size(), at + 1), 0.0);
      caps[at] = fabric.EffectiveCapacity(dlink).bytes_per_sec();
    }
  }
  caps.resize(static_cast<size_t>(offset) + fabric.topo().link_count() * 2, 0.0);
  return offset;
}

// The flow's links in the union, from its path.
void AppendLinks(const fabric::FlowInfo& info, int32_t offset, std::vector<int32_t>& links) {
  for (const topology::DirectedLink& hop : info.path->hops) {
    links.push_back(offset + topology::DirectedIndex(hop));
  }
}

UnionProblem BuildUnion(UnionFleet& uf) {
  Fleet& fleet = uf.fleet;
  UnionProblem problem;
  std::vector<int32_t> offsets;
  // Per host, its stages in id order: the flows the test did not start.
  std::vector<std::vector<fabric::FlowId>> stages(static_cast<size_t>(fleet.host_count()));
  for (int h = 0; h < fleet.host_count(); ++h) {
    fabric::Fabric& fabric = fleet.host(h).fabric();
    offsets.push_back(AppendCapacities(fabric, problem.caps));
    const std::vector<fabric::FlowId>& locals = uf.locals[static_cast<size_t>(h)];
    for (const fabric::FlowId id : fabric.ActiveFlows()) {
      if (std::find(locals.begin(), locals.end(), id) != locals.end()) {
        const std::optional<fabric::FlowInfo> info = fabric.GetFlowInfo(id);
        fabric::MaxMinFlow flow;
        flow.weight = info->weight;
        flow.demand = std::min(info->demand.bytes_per_sec(), info->limit.bytes_per_sec());
        AppendLinks(*info, offsets.back(), flow.links);
        problem.reported.push_back({"host " + std::to_string(h) + " flow " + std::to_string(id),
                                    info->rate.bytes_per_sec(), problem.flows.size()});
        problem.flows.push_back(std::move(flow));
      } else {
        stages[static_cast<size_t>(h)].push_back(id);
      }
    }
  }
  fabric::Fabric& inter = fleet.inter_fabric();
  const int32_t inter_offset = AppendCapacities(inter, problem.caps);
  const std::vector<fabric::FlowId> inter_flows = inter.ActiveFlows();
  EXPECT_EQ(inter_flows.size(), uf.specs.size());
  std::vector<size_t> next_stage(static_cast<size_t>(fleet.host_count()), 0);
  for (size_t i = 0; i < uf.specs.size() && i < inter_flows.size(); ++i) {
    const CrossHostFlowSpec& spec = uf.specs[i];
    fabric::MaxMinFlow flow;
    flow.weight = spec.weight;
    flow.demand = spec.demand.bytes_per_sec();
    const std::string name = "cross flow " + std::to_string(uf.ids[i]);
    for (const int h : {spec.src_host, spec.dst_host}) {
      const std::vector<fabric::FlowId>& host_stages = stages[static_cast<size_t>(h)];
      size_t& next = next_stage[static_cast<size_t>(h)];
      EXPECT_LT(next, host_stages.size());
      if (next >= host_stages.size()) {
        return problem;
      }
      const std::optional<fabric::FlowInfo> info =
          fleet.host(h).fabric().GetFlowInfo(host_stages[next++]);
      AppendLinks(*info, offsets[static_cast<size_t>(h)], flow.links);
      problem.reported.push_back({name + (h == spec.src_host ? " source stage" : " sink stage"),
                                  info->rate.bytes_per_sec(), problem.flows.size()});
    }
    const std::optional<fabric::FlowInfo> info = inter.GetFlowInfo(inter_flows[i]);
    AppendLinks(*info, inter_offset, flow.links);
    problem.reported.push_back(
        {name + " inter-host stage", info->rate.bytes_per_sec(), problem.flows.size()});
    problem.reported.push_back(
        {name, fleet.CrossHostRate(uf.ids[i]).bytes_per_sec(), problem.flows.size()});
    problem.flows.push_back(std::move(flow));
  }
  return problem;
}

std::vector<double> ReportedRates(const UnionProblem& problem) {
  std::vector<double> rates;
  for (const Reported& r : problem.reported) {
    rates.push_back(r.rate_bps);
  }
  return rates;
}

// Ticks until no reported rate moves between two ticks, at most 16.
// Returns the settled problem, or nullopt.
std::optional<UnionProblem> TickUntilSettled(UnionFleet& uf) {
  uf.fleet.Tick();
  UnionProblem last = BuildUnion(uf);
  for (int tick = 2; tick <= 16; ++tick) {
    uf.fleet.Tick();
    UnionProblem next = BuildUnion(uf);
    if (ReportedRates(next) == ReportedRates(last)) {
      return next;
    }
    last = std::move(next);
  }
  return std::nullopt;
}

// Compares every reported rate with the union's max-min allocation.
void ExpectUnionMaxMin(const UnionProblem& problem, const std::string& context) {
  const std::vector<double> want = SolveMaxMinReference(problem.flows, problem.caps);
  for (const Reported& r : problem.reported) {
    const double w = want[r.union_flow];
    EXPECT_LE(std::abs(r.rate_bps - w), 1e-9 * std::max(std::abs(w), 1.0))
        << context << ": " << r.what << " at " << r.rate_bps / 1.25e8 << " Gbps, union "
        << w / 1.25e8 << " Gbps";
  }
}

// Two cross-host stages share host 0's SSD link with three elastic host
// flows. C is bound at 29.05 Gbps on host 1, where seven elastic flows
// share its sink path; A is bound only on host 0. Lifting A and C together
// to read their rates hands C a fifth of the SSD link it can never use,
// so A settled at 46.48 Gbps while each elastic flow got 52.29. The union
// allocation gives A what each elastic flow gets.
TEST(FleetUnionOracleTest, StagesSharingABottleneckSettleAtTheUnionMaxMin) {
  UnionFleet uf(4, {});
  HostNetwork& h0 = uf.fleet.host(0);
  CrossHostFlowSpec a;
  a.tenant = 1;
  a.src_host = 0;
  a.dst_host = 2;
  a.demand = Bandwidth::Gbps(100);
  const CrossFlowId a_id = uf.Place(a);
  CrossHostFlowSpec c = a;
  c.tenant = 2;
  c.dst_host = 1;
  const CrossFlowId c_id = uf.Place(c);

  const topology::Path e_path = *h0.fabric().Route(h0.server().ssds[0], h0.server().dimms[0]);
  std::vector<fabric::FlowId> elastic;
  for (int i = 0; i < 3; ++i) {
    elastic.push_back(uf.StartLocal(0, e_path, fabric::kUnlimitedDemand, 1.0));
  }
  // C's sink stage is host 1's only flow so far.
  fabric::Fabric& h1 = uf.fleet.host(1).fabric();
  const topology::Path c_sink = *h1.GetFlowInfo(h1.ActiveFlows().front())->path;
  for (int i = 0; i < 7; ++i) {
    uf.StartLocal(1, c_sink, fabric::kUnlimitedDemand, 1.0);
  }

  const std::optional<UnionProblem> settled = TickUntilSettled(uf);
  ASSERT_TRUE(settled.has_value()) << "the coupling did not settle within 16 ticks";
  ExpectUnionMaxMin(*settled, "first row");
  EXPECT_NEAR(uf.fleet.CrossHostRate(c_id).ToGbps(), 29.05, 0.01);
  EXPECT_NEAR(uf.fleet.CrossHostRate(a_id).ToGbps(), 50.84, 0.01);
  for (const fabric::FlowId id : elastic) {
    EXPECT_NEAR(h0.fabric().FlowRate(id).ToGbps(), 50.84, 0.01);
  }
}

constexpr uint64_t kSeeds = 200;

// A seeded small fleet in which hosts carry several stages: 4-8 hosts,
// cross-host flows between random host pairs and devices, then random host
// flows, some elastic, some of weight 2.
int SeededHostCount(uint64_t seed) {
  sim::Rng shape(seed);
  return static_cast<int>(shape.UniformInt(4, 8));
}

void BuildSeededFleet(UnionFleet& uf, uint64_t seed) {
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ull + 31);
  Fleet& fleet = uf.fleet;
  const int hosts = fleet.host_count();
  const auto pick = [&rng](const std::vector<topology::ComponentId>& from) {
    return from[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(from.size()) - 1))];
  };
  const auto devices = [&fleet](int h) {
    const topology::Server& server = fleet.host(h).server();
    std::vector<topology::ComponentId> all = server.ssds;
    all.insert(all.end(), server.dimms.begin(), server.dimms.end());
    all.insert(all.end(), server.gpus.begin(), server.gpus.end());
    return all;
  };
  const auto demand = [&rng] {
    return rng.Bernoulli(0.25) ? fabric::kUnlimitedDemand
                               : Bandwidth::Gbps(rng.Uniform(2.0, 140.0)).bytes_per_sec();
  };
  const auto weight = [&rng] { return rng.Bernoulli(0.2) ? 2.0 : 1.0; };

  const int cross = static_cast<int>(rng.UniformInt(hosts, 2 * hosts));
  for (int i = 0; i < cross; ++i) {
    CrossHostFlowSpec spec;
    spec.tenant = 1 + i;
    spec.src_host = static_cast<int>(rng.UniformInt(0, hosts - 1));
    spec.dst_host = static_cast<int>(rng.UniformInt(0, hosts - 2));
    spec.dst_host += spec.dst_host >= spec.src_host ? 1 : 0;
    spec.src_device = pick(devices(spec.src_host));
    spec.dst_device = pick(devices(spec.dst_host));
    spec.demand = Bandwidth::Gbps(rng.Uniform(5.0, 160.0));
    spec.weight = weight();
    uf.Place(spec);
  }
  for (int h = 0; h < hosts; ++h) {
    const std::vector<topology::ComponentId> endpoints = devices(h);
    const int locals = static_cast<int>(rng.UniformInt(0, 5));
    for (int i = 0; i < locals; ++i) {
      const topology::ComponentId src = pick(endpoints);
      const topology::ComponentId dst = pick(endpoints);
      const std::optional<topology::Path> path = fleet.host(h).fabric().Route(src, dst);
      if (src == dst || !path.has_value()) {
        continue;
      }
      uf.StartLocal(h, *path, demand(), weight());
    }
  }
}

TEST(FleetUnionOracleTest, SeededMultiStageFleetsSettleAtTheUnionMaxMin) {
  int several_stages = 0;  // Fleets in which some host carries two or more stages.
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    UnionFleet uf(SeededHostCount(seed), {});
    BuildSeededFleet(uf, seed);
    std::vector<int> stages(static_cast<size_t>(uf.fleet.host_count()), 0);
    for (const CrossHostFlowSpec& spec : uf.specs) {
      ++stages[static_cast<size_t>(spec.src_host)];
      ++stages[static_cast<size_t>(spec.dst_host)];
    }
    several_stages += *std::max_element(stages.begin(), stages.end()) >= 2 ? 1 : 0;
    const std::optional<UnionProblem> settled = TickUntilSettled(uf);
    EXPECT_TRUE(settled.has_value()) << "seed " << seed << " did not settle within 16 ticks";
    if (settled.has_value()) {
      ExpectUnionMaxMin(*settled, "seed " + std::to_string(seed));
    }
    if (HasFailure()) {
      return;
    }
  }
  EXPECT_EQ(several_stages, static_cast<int>(kSeeds));
}

// The per-host what-if pass runs on the pool: the oracle's fleets must
// tick to the same bytes serially and at 2 and 8 unclamped workers.
TEST(FleetUnionOracleTest, SeededMultiStageFleetsAreWorkerCountInvariant) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto run = [seed](int workers) {
      Fleet::Options options;
      options.worker_threads = workers;
      options.clamp_workers_to_hardware = false;
      UnionFleet uf(SeededHostCount(seed), options);
      BuildSeededFleet(uf, seed);
      uf.fleet.Run(8);
      return uf.fleet.TelemetryDigest();
    };
    const uint64_t serial = run(0);
    for (const int workers : {2, 8}) {
      EXPECT_EQ(run(workers), serial) << "seed " << seed << ", " << workers << " workers";
    }
  }
}

}  // namespace
}  // namespace mihn::fleet
