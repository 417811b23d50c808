#include "src/chaos/campaign_file.h"

#include <gtest/gtest.h>

namespace mihn::chaos {
namespace {

using sim::TimeNs;

TEST(CampaignFileTest, ParsesFullConfig) {
  const char* text = R"(# demo
preset dgx_class
trials 5
seed 99
duration_ms 80
tick_us 500
telemetry_us 250
grace_ms 3
convergence_ticks 4

stream nic 0 cpu_socket 1 80 64
stream gpu 2 dimm 0 40 0 ddio

fault kill pcie_switch_up 0 10 20
fault degrade inter_socket 1 30 40 0.25
fault latency intra_socket 0 45 50 100
fault flap pcie_switch_up 1 55 70 2000 0.75
fault ddio_off 60 65
)";
  CampaignConfig config;
  std::string error;
  ASSERT_TRUE(ParseCampaignText(text, &config, &error)) << error;

  EXPECT_EQ(config.preset, HostNetwork::Preset::kDgxClass);
  EXPECT_EQ(config.trials, 5);
  EXPECT_EQ(config.base_seed, 99u);
  EXPECT_EQ(config.duration, TimeNs::Millis(80));
  EXPECT_EQ(config.tick, TimeNs::Micros(500));
  EXPECT_EQ(config.telemetry_period, TimeNs::Micros(250));
  EXPECT_EQ(config.scoring.grace, TimeNs::Millis(3));
  EXPECT_EQ(config.scoring.convergence_ticks, 4);

  ASSERT_EQ(config.streams.size(), 2u);
  EXPECT_EQ(config.streams[0].src_kind, topology::ComponentKind::kNic);
  EXPECT_EQ(config.streams[0].dst_kind, topology::ComponentKind::kCpuSocket);
  EXPECT_EQ(config.streams[0].dst_index, 1);
  EXPECT_DOUBLE_EQ(config.streams[0].demand.ToGbps(), 80.0);
  EXPECT_DOUBLE_EQ(config.streams[0].slo.ToGbps(), 64.0);
  EXPECT_FALSE(config.streams[0].ddio_write);
  EXPECT_TRUE(config.streams[1].ddio_write);
  EXPECT_TRUE(config.streams[1].slo.IsZero());

  ASSERT_EQ(config.schedule.size(), 5u);
  EXPECT_EQ(config.schedule.specs()[0].kind, FaultKind::kKill);
  EXPECT_EQ(config.schedule.specs()[1].capacity_factor, 0.25);
  EXPECT_EQ(config.schedule.specs()[2].extra_latency, TimeNs::Micros(100));
  EXPECT_EQ(config.schedule.specs()[3].flap_period, TimeNs::Micros(2000));
  EXPECT_EQ(config.schedule.specs()[4].kind, FaultKind::kDdioOff);
}

TEST(CampaignFileTest, ReportsLineNumbersOnErrors) {
  CampaignConfig config;
  std::string error;
  EXPECT_FALSE(ParseCampaignText("trials 2\nbogus_directive 1\n", &config, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_NE(error.find("bogus_directive"), std::string::npos);

  error.clear();
  EXPECT_FALSE(ParseCampaignText("fault kill warp_link 0 1 2\n", &config, &error));
  EXPECT_NE(error.find("warp_link"), std::string::npos);

  error.clear();
  EXPECT_FALSE(ParseCampaignText("stream nic 0 flux_capacitor 0 10 0\n", &config, &error));
  EXPECT_NE(error.find("flux_capacitor"), std::string::npos);

  error.clear();
  EXPECT_FALSE(ParseCampaignText("trials -3\n", &config, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
}

TEST(CampaignFileTest, ParsesRecoveryPolicy) {
  CampaignConfig config;
  std::string error;
  ASSERT_TRUE(ParseCampaignText("recovery reroute_only\n", &config, &error)) << error;
  EXPECT_EQ(config.recovery, RecoveryPolicy::kRerouteOnly);

  config = {};
  EXPECT_EQ(config.recovery, RecoveryPolicy::kRepair);  // Default.
  ASSERT_TRUE(ParseCampaignText("recovery none\n", &config, &error)) << error;
  EXPECT_EQ(config.recovery, RecoveryPolicy::kNone);

  config = {};
  error.clear();
  EXPECT_FALSE(ParseCampaignText("recovery aggressive\n", &config, &error));
  EXPECT_NE(error.find("aggressive"), std::string::npos);
}

// Boundary validation: each malformed value is rejected where it enters,
// with the offending line named.
std::string ParseError(const std::string& text) {
  CampaignConfig config;
  std::string error;
  EXPECT_FALSE(ParseCampaignText(text, &config, &error)) << text;
  return error;
}

TEST(CampaignFileTest, RejectsNegativeStreamDemandOrSlo) {
  EXPECT_NE(ParseError("trials 1\nstream nic 0 cpu_socket 1 -80 64\n").find("line 2:"),
            std::string::npos);
  EXPECT_NE(ParseError("stream nic 0 cpu_socket 1 80 -1\n").find("line 1:"), std::string::npos);
}

TEST(CampaignFileTest, RejectsFlapPeriodAndDutyOutOfRange) {
  EXPECT_NE(ParseError("fault flap pcie_switch_up 1 55 70 0 0.5\n").find("line 1: fault flap"),
            std::string::npos);
  EXPECT_NE(ParseError("\nfault flap pcie_switch_up 1 55 70 2000 0\n").find("line 2: fault flap"),
            std::string::npos);
  EXPECT_NE(ParseError("fault flap pcie_switch_up 1 55 70 2000 1.5\n").find("duty"),
            std::string::npos);
  CampaignConfig config;
  std::string error;
  EXPECT_TRUE(ParseCampaignText("fault flap pcie_switch_up 1 55 70 2000 1\n", &config, &error))
      << error;  // Duty 1 (always down) is the closed end of (0, 1].
}

TEST(CampaignFileTest, RejectsDegradeFactorOutsideUnitRange) {
  EXPECT_NE(ParseError("fault degrade inter_socket 1 30 40 -1\n").find("line 1: fault degrade"),
            std::string::npos);
  EXPECT_NE(ParseError("fault degrade inter_socket 1 30 40 1.5\n").find("[0, 1]"),
            std::string::npos);
}

TEST(CampaignFileTest, RejectsFaultThatClearsBeforeItStarts) {
  EXPECT_NE(ParseError("fault kill pcie_switch_up 0 45 30\n").find("line 1: fault kill"),
            std::string::npos);
  EXPECT_NE(ParseError("fault ddio_off 60 60\n").find("clear_ms"), std::string::npos);
  CampaignConfig config;
  std::string error;
  EXPECT_TRUE(ParseCampaignText("fault kill inter_socket 0 80 0\n", &config, &error))
      << error;  // clear_ms 0: never clears.
}

TEST(CampaignFileTest, RejectsTrailingTokens) {
  // operator>> would read 1e300 as 1 µs and ignore the rest.
  EXPECT_NE(ParseError("fault latency intra_socket 0 45 50 1e300\n").find("line 1:"),
            std::string::npos);
  EXPECT_NE(ParseError("trials 3 4\n").find("unexpected trailing '4'"), std::string::npos);
  EXPECT_NE(ParseError("preset dgx_class edge_node\n").find("line 1: preset"),
            std::string::npos);
  EXPECT_NE(ParseError("stream gpu 2 dimm 0 40 0 ddio extra\n").find("'extra'"),
            std::string::npos);
  EXPECT_NE(ParseError("fault kill pcie_switch_up 0 10 20 0.5\n").find("'0.5'"),
            std::string::npos);
}

TEST(CampaignFileTest, RejectsDurationAboveVirtualTimeCeiling) {
  EXPECT_NE(ParseError("duration_ms 99999999999\n").find("line 1: duration_ms"),
            std::string::npos);
  CampaignConfig config;
  std::string error;
  EXPECT_TRUE(ParseCampaignText("duration_ms " + std::to_string(kMaxCampaignMs) + "\n",
                                &config, &error))
      << error;
}

TEST(CampaignFileTest, CommentsAndBlankLinesIgnored) {
  CampaignConfig config;
  std::string error;
  ASSERT_TRUE(ParseCampaignText("\n# full-line comment\ntrials 7 # trailing\n\n",
                                &config, &error))
      << error;
  EXPECT_EQ(config.trials, 7);
}

}  // namespace
}  // namespace mihn::chaos
