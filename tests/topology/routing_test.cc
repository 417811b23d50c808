#include "src/topology/routing.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/random.h"
#include "src/topology/presets.h"

namespace mihn::topology {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

// A diamond with asymmetric latencies: s -> {a fast, b slow} -> t.
struct Diamond {
  Topology topo;
  ComponentId s, a, b, t;
  LinkId sa, sb, at, bt;
};

Diamond MakeDiamond() {
  Diamond d;
  d.s = d.topo.AddComponent(ComponentKind::kCpuSocket, "s");
  d.a = d.topo.AddComponent(ComponentKind::kPcieSwitch, "a");
  d.b = d.topo.AddComponent(ComponentKind::kPcieSwitch, "b");
  d.t = d.topo.AddComponent(ComponentKind::kGpu, "t");
  const auto spec = [](int64_t ns, double gbps) {
    return LinkSpec{LinkKind::kPcieSwitchDown, Bandwidth::Gbps(gbps), TimeNs::Nanos(ns)};
  };
  d.sa = d.topo.AddLink(d.s, d.a, spec(10, 100));
  d.sb = d.topo.AddLink(d.s, d.b, spec(50, 400));
  d.at = d.topo.AddLink(d.a, d.t, spec(10, 100));
  d.bt = d.topo.AddLink(d.b, d.t, spec(50, 400));
  return d;
}

TEST(RoutingTest, ShortestPathPicksLowestLatency) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  const auto path = router.ShortestPath(d.s, d.t);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<ComponentId>{d.s, d.a, d.t}));
  EXPECT_EQ(path->BaseLatency(d.topo), TimeNs::Nanos(20));
}

TEST(RoutingTest, PathEndpoints) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  const auto path = router.ShortestPath(d.s, d.t);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes.front(), d.s);
  EXPECT_EQ(path->destination(), d.t);
  EXPECT_EQ(path->hops.size(), 2u);
}

TEST(RoutingTest, SameSourceAndDestinationIsNull) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  EXPECT_FALSE(router.ShortestPath(d.s, d.s).has_value());
}

TEST(RoutingTest, UnreachableReturnsNull) {
  Topology topo;
  const ComponentId a = topo.AddComponent(ComponentKind::kCpuSocket, "a");
  const ComponentId b = topo.AddComponent(ComponentKind::kGpu, "b");
  Router router(topo);
  EXPECT_FALSE(router.ShortestPath(a, b).has_value());
}

TEST(RoutingTest, ExcludedLinksForceAlternatePath) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  router.SetLinkHealth({d.sa}, {});
  const auto path = router.ShortestPath(d.s, d.t);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<ComponentId>{d.s, d.b, d.t}));
  EXPECT_EQ(path->BaseLatency(d.topo), TimeNs::Nanos(100));
}

TEST(RoutingTest, ExcludingAllPathsReturnsNull) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  router.SetLinkHealth({d.sa, d.sb}, {});
  EXPECT_FALSE(router.ShortestPath(d.s, d.t).has_value());
}

TEST(RoutingTest, DirectionsAreCorrect) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  const auto path = router.ShortestPath(d.t, d.s);
  ASSERT_TRUE(path.has_value());
  // Traversing a->t's link in reverse must be marked !forward (link stored
  // as (a=the switch a, b=t) or per insertion).
  for (const DirectedLink& hop : path->hops) {
    const Link& l = d.topo.link(hop.link);
    // Walk consistency: hop i goes nodes[i] -> nodes[i+1].
    const size_t i = static_cast<size_t>(&hop - path->hops.data());
    const ComponentId from = path->nodes[i];
    const ComponentId to = path->nodes[i + 1];
    if (hop.forward) {
      EXPECT_EQ(l.a, from);
      EXPECT_EQ(l.b, to);
    } else {
      EXPECT_EQ(l.b, from);
      EXPECT_EQ(l.a, to);
    }
  }
}

TEST(RoutingTest, PathUses) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  const auto path = router.ShortestPath(d.s, d.t);
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(path->Uses(d.sa));
  EXPECT_FALSE(path->Uses(d.sb));
}

TEST(RoutingTest, KShortestFindsBothDiamondPaths) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  const auto paths = router.KShortestPaths(d.s, d.t, 4);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].nodes, (std::vector<ComponentId>{d.s, d.a, d.t}));
  EXPECT_EQ(paths[1].nodes, (std::vector<ComponentId>{d.s, d.b, d.t}));
  EXPECT_LE(paths[0].BaseLatency(d.topo), paths[1].BaseLatency(d.topo));
}

TEST(RoutingTest, KShortestRespectsK) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  EXPECT_EQ(router.KShortestPaths(d.s, d.t, 1).size(), 1u);
}

TEST(RoutingTest, KShortestPathsAreUniqueAndSorted) {
  // Grid-ish topology with many alternate routes: two sockets, cross links.
  Server server = DgxClass();
  Router router(server.topo);
  const auto paths = router.KShortestPaths(server.gpus[0], server.ssds.back(), 6);
  ASSERT_GE(paths.size(), 2u);
  std::set<std::vector<std::pair<LinkId, bool>>> unique;
  TimeNs prev = TimeNs::Zero();
  for (const Path& p : paths) {
    EXPECT_EQ(p.nodes.front(), server.gpus[0]);
    EXPECT_EQ(p.destination(), server.ssds.back());
    std::vector<std::pair<LinkId, bool>> key;
    for (const DirectedLink& h : p.hops) {
      key.emplace_back(h.link, h.forward);
    }
    EXPECT_TRUE(unique.insert(key).second) << "duplicate path";
    EXPECT_GE(p.BaseLatency(server.topo), prev);
    prev = p.BaseLatency(server.topo);
    // Loop-free.
    std::set<ComponentId> nodes(p.nodes.begin(), p.nodes.end());
    EXPECT_EQ(nodes.size(), p.nodes.size());
  }
}

TEST(RoutingTest, PathToStringReadable) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  const auto path = router.ShortestPath(d.s, d.t);
  EXPECT_EQ(path->ToString(d.topo), "s -> a -> t");
}

TEST(RoutingTest, OutOfRangeEndpointsAreUnroutable) {
  // Ids outside [0, component_count()) name no component: every query
  // answers "no route" instead of indexing past the search arrays.
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  const auto n = static_cast<ComponentId>(d.topo.component_count());
  for (const ComponentId bad : {n, n + 1000, ComponentId{-1}}) {
    EXPECT_FALSE(router.ShortestPath(d.s, bad).has_value()) << bad;
    EXPECT_FALSE(router.ShortestPath(bad, d.t).has_value()) << bad;
    EXPECT_TRUE(router.KShortestPaths(d.s, bad, 1).empty()) << bad;
    EXPECT_TRUE(router.KShortestPaths(bad, d.t, 1).empty()) << bad;
    EXPECT_TRUE(router.KShortestPaths(d.s, bad, 3).empty()) << bad;
    EXPECT_TRUE(router.KShortestPaths(bad, d.t, 3).empty()) << bad;
  }
}

TEST(RoutingHealthTest, SetLinkHealthOnlyBumpsEpochOnEffectiveChange) {
  // The fabric bumps its route epoch exactly when SetLinkHealth reports a
  // change, so a re-sync with the same sets must report none.
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  EXPECT_TRUE(router.SetLinkHealth({d.sa}, {}));
  // Same sets (order and duplicates ignored): no change.
  EXPECT_FALSE(router.SetLinkHealth({d.sa, d.sa}, {}));
  EXPECT_TRUE(router.SetLinkHealth({d.sa}, {d.bt}));
  EXPECT_FALSE(router.SetLinkHealth({d.sa}, {d.bt, d.bt}));
  EXPECT_TRUE(router.SetLinkHealth({}, {}));
  EXPECT_FALSE(router.SetLinkHealth({}, {}));
}

TEST(RoutingHealthTest, DeadLinkExcludedFromShortestAndKShortest) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  router.SetLinkHealth({d.sa}, {});

  const auto path = router.ShortestPath(d.s, d.t);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->ToString(d.topo), "s -> b -> t");

  for (const Path& p : router.KShortestPaths(d.s, d.t, 4)) {
    EXPECT_FALSE(p.Uses(d.sa));
  }
}

TEST(RoutingHealthTest, DegradedLinkAvoidedOnlyWhenAlternativeExists) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);

  // Degrading the fast path diverts the shortest path to the slow one.
  router.SetLinkHealth({}, {d.sa});
  auto path = router.ShortestPath(d.s, d.t);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->ToString(d.topo), "s -> b -> t");
  // k == 1 is the same health-aware answer.
  EXPECT_EQ(router.KShortestPaths(d.s, d.t, 1), std::vector<Path>{*path});

  // Degrading both legs leaves no healthy alternative: the router falls
  // back to routing over degraded links rather than failing.
  router.SetLinkHealth({}, {d.sa, d.sb});
  path = router.ShortestPath(d.s, d.t);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->ToString(d.topo), "s -> a -> t");
}

TEST(RoutingHealthTest, InjectDetoursAndClearRestoresTheOriginalRoute) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);

  const auto original = router.ShortestPath(d.s, d.t);
  ASSERT_TRUE(original.has_value());
  EXPECT_EQ(original->ToString(d.topo), "s -> a -> t");

  // Inject: the s->a->t answer must give way to the detour...
  router.SetLinkHealth({d.sa}, {});
  const auto detour = router.ShortestPath(d.s, d.t);
  ASSERT_TRUE(detour.has_value());
  EXPECT_EQ(detour->ToString(d.topo), "s -> b -> t");

  // ... and clear: the original route comes back.
  router.SetLinkHealth({}, {});
  const auto restored = router.ShortestPath(d.s, d.t);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, *original);
}

TEST(RoutingTreeTest, AnswersEveryDestinationInOrder) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  router.SetLinkHealth({}, {d.sa, d.at});
  const std::vector<ComponentId> dsts = {d.t, d.s, d.a, kInvalidComponent, d.t};
  const std::vector<std::optional<Path>> paths = router.ShortestPaths(d.s, dsts);
  ASSERT_EQ(paths.size(), dsts.size());
  // The healthy tree reaches t around the degraded links; a only across
  // one, so its answer comes from the dead-only tree.
  ASSERT_TRUE(paths[0].has_value());
  EXPECT_EQ(paths[0]->ToString(d.topo), "s -> b -> t");
  EXPECT_FALSE(paths[1].has_value());
  ASSERT_TRUE(paths[2].has_value());
  EXPECT_EQ(paths[2]->ToString(d.topo), "s -> a");
  EXPECT_FALSE(paths[3].has_value());
  EXPECT_EQ(paths[4], paths[0]);
  for (const std::optional<Path>& path : router.ShortestPaths(kInvalidComponent, dsts)) {
    EXPECT_FALSE(path.has_value());
  }
  EXPECT_TRUE(router.ShortestPaths(d.s, {}).empty());
}

// The per-source trees are an optimization of the per-pair search, so
// they must return exactly its paths, (distance, node) tie-breaks
// included, under every mix of dead and degraded links. The presets are
// rich in equal-latency alternatives (sockets, root ports and switches
// repeat), which is where a tie-break would show.
TEST(RoutingTreeTest, TreesMatchPerPairSearchUnderRandomHealth) {
  constexpr int kHealthSets = 200;
  const std::vector<std::pair<const char*, Server>> presets = {
      {"commodity_two_socket", CommodityTwoSocket()},
      {"dgx_class", DgxClass()},
      {"edge_node", EdgeNode()},
  };
  for (const auto& [name, server] : presets) {
    const Topology& topo = server.topo;
    std::vector<ComponentId> all(topo.component_count());
    for (size_t c = 0; c < all.size(); ++c) {
      all[c] = static_cast<ComponentId>(c);
    }
    sim::Rng rng(0x5eed0 + topo.component_count());
    Router router(topo);
    size_t compared = 0;
    size_t routed = 0;
    for (int set = 0; set < kHealthSets; ++set) {
      // Dead and degraded fractions vary per set, from healthy to shattered.
      const double dead_p = rng.Uniform(0.0, 0.3);
      const double degraded_p = rng.Uniform(0.0, 0.4);
      std::vector<LinkId> dead;
      std::vector<LinkId> degraded;
      for (size_t l = 0; l < topo.link_count(); ++l) {
        if (rng.Bernoulli(dead_p)) {
          dead.push_back(static_cast<LinkId>(l));
        } else if (rng.Bernoulli(degraded_p)) {
          degraded.push_back(static_cast<LinkId>(l));
        }
      }
      router.SetLinkHealth(dead, degraded);
      for (const ComponentId src : all) {
        const std::vector<std::optional<Path>> tree = router.ShortestPaths(src, all);
        ASSERT_EQ(tree.size(), all.size());
        for (const ComponentId dst : all) {
          const std::optional<Path> pair = router.ShortestPath(src, dst);
          ASSERT_EQ(tree[static_cast<size_t>(dst)], pair)
              << name << " set " << set << ": " << topo.component(src).name << " -> "
              << topo.component(dst).name;
          ++compared;
          routed += pair.has_value() ? 1 : 0;
        }
      }
    }
    EXPECT_EQ(compared, kHealthSets * all.size() * all.size()) << name;
    // The sets leave most pairs routable and cut some: both answers occur.
    EXPECT_GT(routed, compared / 2) << name;
    EXPECT_LT(routed, compared) << name;
  }
}

}  // namespace
}  // namespace mihn::topology
