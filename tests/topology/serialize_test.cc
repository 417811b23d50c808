#include "src/topology/serialize.h"

#include <gtest/gtest.h>

#include "src/topology/presets.h"

namespace mihn::topology {
namespace {

TEST(SerializeTest, RoundTripPreset) {
  const Server server = CommodityTwoSocket();
  const std::string text = ToText(server.topo);
  const ParseResult parsed = FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Topology& re = *parsed.topology;
  ASSERT_EQ(re.component_count(), server.topo.component_count());
  ASSERT_EQ(re.link_count(), server.topo.link_count());
  for (const Component& c : server.topo.components()) {
    const auto id = re.FindComponent(c.name);
    ASSERT_TRUE(id.has_value()) << c.name;
    EXPECT_EQ(re.component(*id).kind, c.kind);
    // Socket attribution survives.
    if (c.socket != kInvalidComponent) {
      EXPECT_EQ(re.component(*id).socket,
                *re.FindComponent(server.topo.component(c.socket).name));
    }
  }
  for (size_t i = 0; i < server.topo.link_count(); ++i) {
    const Link& a = server.topo.link(static_cast<LinkId>(i));
    const Link& b = re.link(static_cast<LinkId>(i));
    EXPECT_EQ(a.spec.kind, b.spec.kind);
    EXPECT_NEAR(a.spec.capacity.ToGbps(), b.spec.capacity.ToGbps(), 1e-6);
    EXPECT_EQ(a.spec.base_latency, b.spec.base_latency);
  }
  EXPECT_EQ(re.Validate(), "");
}

TEST(SerializeTest, ParsesMinimalHost) {
  const char* text = R"(
# tiny host
component s0 cpu_socket
component nic0 nic socket=s0
link s0 nic0 pcie_root_link gbps=128 ns=90
)";
  const ParseResult parsed = FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const Topology& topo = *parsed.topology;
  EXPECT_EQ(topo.component_count(), 2u);
  EXPECT_EQ(topo.link_count(), 1u);
  EXPECT_DOUBLE_EQ(topo.link(0).spec.capacity.ToGbps(), 128.0);
  EXPECT_EQ(topo.link(0).spec.base_latency, sim::TimeNs::Nanos(90));
  EXPECT_EQ(topo.component(1).socket, 0);
}

TEST(SerializeTest, DefaultsWhenAttributesOmitted) {
  const ParseResult parsed = FromText(
      "component a cpu_socket\ncomponent b cpu_socket\nlink a b inter_socket\n");
  ASSERT_TRUE(parsed.ok());
  const LinkSpec expected = DefaultLinkSpec(LinkKind::kInterSocket);
  EXPECT_DOUBLE_EQ(parsed.topology->link(0).spec.capacity.ToGbps(), expected.capacity.ToGbps());
  EXPECT_EQ(parsed.topology->link(0).spec.base_latency, expected.base_latency);
}

TEST(SerializeTest, ErrorsCiteLineNumbers) {
  struct Case {
    const char* text;
    const char* expect;
  };
  const Case cases[] = {
      {"component s0\n", "line 1"},
      {"component s0 flux_capacitor\n", "unknown component kind"},
      {"component s0 cpu_socket\ncomponent s0 nic\n", "duplicate"},
      {"component s0 cpu_socket\nlink s0 nic0 pcie_root_link\n", "not declared"},
      {"component s0 cpu_socket\ncomponent n nic\nlink s0 n warp_link\n", "unknown link kind"},
      {"component s0 cpu_socket\ncomponent n nic\nlink s0 n nic gbps=abc\n", "unknown link"},
      {"component n nic socket=ghost\n", "not declared before use"},
      {"teleport s0 s1\n", "unknown directive"},
      {"component s0 cpu_socket\nlink s0 s0 intra_socket\n", "self-loop"},
      {"component s0 cpu_socket\ncomponent n nic\nlink s0 n inter_host gbps=xyz\n",
       "bad gbps"},
      // Numbers are whole tokens; capacities are finite and positive,
      // latencies are integers >= 0.
      {"component s0 cpu_socket\ncomponent n nic\nlink s0 n inter_host gbps=10junk\n",
       "line 3: bad gbps"},
      {"component s0 cpu_socket\ncomponent n nic\nlink s0 n inter_host ns=12abc\n",
       "line 3: bad ns"},
      {"component s0 cpu_socket\ncomponent n nic\nlink s0 n inter_host gbps=nan\n",
       "line 3: bad gbps"},
      {"component s0 cpu_socket\ncomponent n nic\nlink s0 n inter_host gbps=inf\n",
       "line 3: bad gbps"},
      {"component s0 cpu_socket\ncomponent n nic\nlink s0 n inter_host gbps=-5\n",
       "line 3: bad gbps"},
      {"component s0 cpu_socket\ncomponent n nic\nlink s0 n inter_host gbps=0\n",
       "line 3: bad gbps"},
      {"component s0 cpu_socket\ncomponent n nic\nlink s0 n inter_host ns=-3\n",
       "line 3: bad ns"},
      {"component s0 cpu_socket\ncomponent n nic\nlink s0 n inter_host ns=1.5\n",
       "line 3: bad ns"},
  };
  for (const Case& c : cases) {
    const ParseResult parsed = FromText(c.text);
    EXPECT_FALSE(parsed.ok()) << c.text;
    EXPECT_NE(parsed.error.find(c.expect), std::string::npos)
        << "for input: " << c.text << " got error: " << parsed.error;
  }
}

TEST(SerializeTest, CommentsAndBlankLinesIgnored) {
  const ParseResult parsed = FromText("\n\n# hello\ncomponent s0 cpu_socket # trailing\n\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.topology->component_count(), 1u);
}

TEST(SerializeTest, EmptyInputIsEmptyTopology) {
  const ParseResult parsed = FromText("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.topology->component_count(), 0u);
}

TEST(SerializeTest, DotOutputContainsNodesAndEdges) {
  const Server server = EdgeNode();
  const std::string dot = ToDot(server.topo);
  EXPECT_NE(dot.find("graph intra_host"), std::string::npos);
  EXPECT_NE(dot.find("\"nic0\""), std::string::npos);
  EXPECT_NE(dot.find("--"), std::string::npos);
  EXPECT_NE(dot.find("}"), std::string::npos);
}

}  // namespace
}  // namespace mihn::topology
