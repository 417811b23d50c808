#include "src/topology/routing.h"

#include <gtest/gtest.h>

#include <set>

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
  const auto path = router.ShortestPath(d.s, d.t, {d.sa});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes, (std::vector<ComponentId>{d.s, d.b, d.t}));
  EXPECT_EQ(path->BaseLatency(d.topo), TimeNs::Nanos(100));
}

TEST(RoutingTest, ExcludingAllPathsReturnsNull) {
  const Diamond d = MakeDiamond();
  Router router(d.topo);
  EXPECT_FALSE(router.ShortestPath(d.s, d.t, {d.sa, d.sb}).has_value());
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

}  // namespace
}  // namespace mihn::topology
