// Sweep grid: cross-product expansion order, schedule scaling semantics,
// ranking total order, grammar parsing, and the byte-identical report
// contract across worker counts — the ctest gate behind mihn_chaos --grid.

#include "src/chaos/sweep.h"

#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chaos/campaign_file.h"

namespace mihn::chaos {
namespace {

using sim::Bandwidth;
using sim::TimeNs;
using topology::ComponentKind;
using topology::LinkKind;

StreamSpec Stream(ComponentKind src_kind, int src_index, ComponentKind dst_kind,
                  int dst_index, double demand_gbps, double slo_gbps) {
  StreamSpec spec;
  spec.src_kind = src_kind;
  spec.src_index = src_index;
  spec.dst_kind = dst_kind;
  spec.dst_index = dst_index;
  spec.demand = Bandwidth::Gbps(demand_gbps);
  spec.slo = Bandwidth::Gbps(slo_gbps);
  return spec;
}

CampaignConfig BaseCampaign() {
  CampaignConfig config;
  config.preset = HostNetwork::Preset::kCommodityTwoSocket;
  config.trials = 2;
  config.base_seed = 7;
  config.duration = TimeNs::Millis(40);
  config.streams = {Stream(ComponentKind::kNic, 0, ComponentKind::kCpuSocket, 1, 80, 64),
                    Stream(ComponentKind::kNic, 1, ComponentKind::kCpuSocket, 0, 80, 64)};
  config.schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(10), TimeNs::Millis(20));
  config.schedule.Degrade(LinkKind::kInterSocket, 0, 0.4, TimeNs::Millis(22),
                          TimeNs::Millis(32));
  return config;
}

TEST(ScaleScheduleTest, ScalesSoftFaultsAndPassesHardOnesThrough) {
  FaultSchedule schedule;
  schedule.Degrade(LinkKind::kInterSocket, 0, 0.5, TimeNs::Millis(1), TimeNs::Millis(2));
  schedule.InflateLatency(LinkKind::kIntraSocket, 0, TimeNs::Micros(100),
                          TimeNs::Millis(3), TimeNs::Millis(4));
  schedule.Flap(LinkKind::kPcieSwitchUp, 0, TimeNs::Micros(2000), 0.6, TimeNs::Millis(5),
                TimeNs::Millis(6));
  schedule.Kill(LinkKind::kPcieSwitchUp, 1, TimeNs::Millis(7), TimeNs::Millis(8));

  const FaultSchedule half = ScaleSchedule(schedule, 0.5);
  ASSERT_EQ(half.size(), 4u);
  // Degrade scales the *cut*: a 50% haircut at half intensity cuts 25%.
  EXPECT_DOUBLE_EQ(half.specs()[0].capacity_factor, 0.75);
  EXPECT_EQ(half.specs()[1].extra_latency, TimeNs::Micros(50));
  EXPECT_DOUBLE_EQ(half.specs()[2].flap_duty, 0.3);
  EXPECT_EQ(half.specs()[3].kind, FaultKind::kKill);

  const FaultSchedule triple = ScaleSchedule(schedule, 3.0);
  // Intensities clamp rather than leave [0, 1].
  EXPECT_DOUBLE_EQ(triple.specs()[0].capacity_factor, 0.0);
  EXPECT_DOUBLE_EQ(triple.specs()[2].flap_duty, 1.0);

  const FaultSchedule identity = ScaleSchedule(schedule, 1.0);
  EXPECT_DOUBLE_EQ(identity.specs()[0].capacity_factor, 0.5);
  EXPECT_EQ(identity.specs()[1].extra_latency, TimeNs::Micros(100));
  EXPECT_DOUBLE_EQ(identity.specs()[2].flap_duty, 0.6);

  // Latency clamps to the campaign ceiling rather than overflow int64.
  const FaultSchedule huge = ScaleSchedule(schedule, 1e300);
  EXPECT_EQ(huge.specs()[1].extra_latency, TimeNs::Millis(kMaxCampaignMs));
}

TEST(ExpandGridTest, CrossProductInDeclaredOrderPolicyInnermost) {
  SweepConfig config;
  config.campaigns.push_back({"alpha", BaseCampaign()});
  config.campaigns.push_back({"beta", BaseCampaign()});
  config.fault_scales = {1.0, 0.5};
  config.policies = {RecoveryPolicy::kRepair, RecoveryPolicy::kNone};

  const std::vector<SweepCell> cells = ExpandGrid(config);
  ASSERT_EQ(cells.size(), 8u);  // 2 campaigns x 1 preset x 2 scales x 2 policies.
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, static_cast<int>(i));
  }
  // Policy flips fastest, then scale, then campaign.
  EXPECT_EQ(cells[0].campaign, "alpha");
  EXPECT_EQ(cells[0].policy, RecoveryPolicy::kRepair);
  EXPECT_DOUBLE_EQ(cells[0].fault_scale, 1.0);
  EXPECT_EQ(cells[1].policy, RecoveryPolicy::kNone);
  EXPECT_DOUBLE_EQ(cells[1].fault_scale, 1.0);
  EXPECT_DOUBLE_EQ(cells[2].fault_scale, 0.5);
  EXPECT_EQ(cells[3].policy, RecoveryPolicy::kNone);
  EXPECT_EQ(cells[4].campaign, "beta");
  // The cell's config carries the applied axes.
  EXPECT_EQ(cells[1].config.recovery, RecoveryPolicy::kNone);
  EXPECT_DOUBLE_EQ(cells[2].config.schedule.specs()[1].capacity_factor, 0.7);
}

TEST(ExpandGridTest, EmptyAxesFallBackToEachCampaignsOwnValues) {
  CampaignConfig own = BaseCampaign();
  own.recovery = RecoveryPolicy::kRestartOnly;
  own.preset = HostNetwork::Preset::kDgxClass;
  SweepConfig config;
  config.campaigns.push_back({"solo", own});

  const std::vector<SweepCell> cells = ExpandGrid(config);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].policy, RecoveryPolicy::kRestartOnly);
  EXPECT_EQ(cells[0].preset, std::string(PresetName(HostNetwork::Preset::kDgxClass)));
  EXPECT_DOUBLE_EQ(cells[0].fault_scale, 1.0);
  // Schedule at scale 1.0 is the identity.
  EXPECT_DOUBLE_EQ(cells[0].config.schedule.specs()[1].capacity_factor, 0.4);
}

TEST(ExpandGridTest, OverridesApplyToEveryCell) {
  SweepConfig config;
  config.campaigns.push_back({"alpha", BaseCampaign()});
  config.policies = {RecoveryPolicy::kRepair, RecoveryPolicy::kNone};
  config.trials = 9;
  config.seed = 1234;
  config.has_seed = true;
  config.duration = TimeNs::Millis(77);

  for (const SweepCell& cell : ExpandGrid(config)) {
    EXPECT_EQ(cell.config.trials, 9);
    EXPECT_EQ(cell.config.base_seed, 1234u);
    EXPECT_EQ(cell.config.duration, TimeNs::Millis(77));
  }
}

SweepCellResult SyntheticCell(int index, double hard_recall, int faults, int recovered,
                              double mean_recovery_ms, const std::string& error = "") {
  SweepCellResult cell;
  cell.index = index;
  cell.campaign = "synthetic";
  cell.result.error = error;
  cell.result.hard_recall = hard_recall;
  cell.result.faults_total = faults;
  cell.result.recovered_total = recovered;
  cell.result.mean_recovery_ms = mean_recovery_ms;
  return cell;
}

TEST(RankCellsTest, OrdersByKeysWithIndexTieBreakAndFailuresLast) {
  std::vector<SweepCellResult> cells;
  cells.push_back(SyntheticCell(0, 0.5, 4, 4, 10.0));             // Low hard recall.
  cells.push_back(SyntheticCell(1, 1.0, 4, 2, 10.0));             // Recovery rate 0.5.
  cells.push_back(SyntheticCell(2, 1.0, 4, 4, 20.0));             // Slower recovery.
  cells.push_back(SyntheticCell(3, 1.0, 4, 4, 10.0));             // Best.
  cells.push_back(SyntheticCell(4, 1.0, 4, 4, 10.0));             // Ties 3 -> index.
  cells.push_back(SyntheticCell(5, 1.0, 4, 4, 5.0, "it broke"));  // Failed: last.

  const std::vector<int> ranking = RankCells(cells);
  EXPECT_EQ(ranking, (std::vector<int>{3, 4, 2, 1, 0, 5}));
}

TEST(RankCellsTest, FailedCellsKeepGridOrderAmongThemselves) {
  std::vector<SweepCellResult> cells;
  cells.push_back(SyntheticCell(0, 1.0, 4, 4, 10.0, "boom"));
  cells.push_back(SyntheticCell(1, 0.1, 4, 0, 99.0));
  cells.push_back(SyntheticCell(2, 1.0, 4, 4, 10.0, "bang"));
  EXPECT_EQ(RankCells(cells), (std::vector<int>{1, 0, 2}));
}

// The ctest determinism gate for the sweep: byte-identical ranked reports
// across worker counts {0, 1, 2, 8} and across repeated runs.
TEST(SweepTest, ReportBytesIdenticalAcrossWorkerCountsAndRuns) {
  SweepConfig config;
  config.campaigns.push_back({"grid", BaseCampaign()});
  config.fault_scales = {1.0, 0.5};
  config.policies = {RecoveryPolicy::kRepair, RecoveryPolicy::kRerouteOnly,
                     RecoveryPolicy::kNone};

  TrialExecutor serial(1);
  const std::string baseline = SweepReportJson(Sweep(config).Run(serial));
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(SweepReportJson(Sweep(config).Run(serial)), baseline) << "rerun drifted";
  for (const int workers : {0, 2, 8}) {
    TrialExecutor executor(workers, /*clamp_to_hardware=*/false);
    EXPECT_EQ(SweepReportJson(Sweep(config).Run(executor)), baseline)
        << "workers=" << workers;
  }
}

// Ranked-report golden: the structural invariants of the report, and the
// paper's expected outcome — an active recovery policy must not rank below
// the detect-but-never-act baseline.
TEST(SweepTest, RankedReportIsWellFormedAndRepairBeatsNone) {
  // BaseCampaign's faults all clear themselves, so even the do-nothing
  // policy "recovers" once they lapse. A single permanent inter-socket
  // kill detects identically under both policies (hard_recall 1.0) but
  // only recovers through an active policy's reroute — recovery rate is
  // what separates repair from none here.
  CampaignConfig campaign = BaseCampaign();
  campaign.schedule = FaultSchedule();
  campaign.schedule.Kill(LinkKind::kInterSocket, 0, TimeNs::Millis(20));  // Permanent.
  SweepConfig config;
  config.campaigns.push_back({"grid", campaign});
  config.policies = {RecoveryPolicy::kRepair, RecoveryPolicy::kNone};

  TrialExecutor executor(2, /*clamp_to_hardware=*/false);
  const SweepResult result = Sweep(config).Run(executor);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(result.all_cells_ok());
  ASSERT_EQ(result.cells.size(), 2u);
  ASSERT_EQ(result.ranking.size(), 2u);

  const SweepCellResult& repair = result.cells[0];
  const SweepCellResult& none = result.cells[1];
  ASSERT_EQ(repair.policy, RecoveryPolicy::kRepair);
  ASSERT_EQ(none.policy, RecoveryPolicy::kNone);
  // kNone detects but never repairs/restarts, so it must recover fewer
  // faults than kRepair on a schedule with a killed link.
  EXPECT_LT(none.result.recovered_total, repair.result.recovered_total);
  EXPECT_EQ(result.ranking.front(), repair.index);

  const std::string json = SweepReportJson(result);
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"cells\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"all_cells_ok\": true"), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"repair\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"none\""), std::string::npos);
  EXPECT_NE(json.find("\"rank\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"recovery_rate\""), std::string::npos);
}

TEST(SweepTest, EmptyGridFailsWithClearError) {
  TrialExecutor executor(1);
  const SweepResult result = Sweep(SweepConfig{}).Run(executor);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("no campaigns"), std::string::npos);
  EXPECT_NE(SweepReportJson(result).find("\"ok\": false"), std::string::npos);
}

class SweepParseTest : public ::testing::Test {
 protected:
  // A minimal on-disk campaign file for `campaign` path resolution.
  void SetUp() override {
    dir_ = ::testing::TempDir();
    const std::string path = dir_ + "/mini.chaos";
    std::ofstream file(path);
    file << "trials 3\nseed 5\nduration_ms 30\n"
         << "stream nic 0 cpu_socket 1 80 64\n"
         << "fault kill pcie_switch_up 0 10 20\n";
  }
  std::string dir_;
};

TEST_F(SweepParseTest, ParsesGridWithAllAxesAndOverrides) {
  const std::string text =
      "# comment\n"
      "campaign mini mini.chaos\n"
      "preset dgx_class\n"
      "scale 1.0\n"
      "scale 0.25 # trailing comment\n"
      "policy repair\n"
      "policy none\n"
      "trials 4\n"
      "seed 11\n"
      "duration_ms 50\n";
  SweepConfig config;
  std::string error;
  ASSERT_TRUE(ParseSweepText(text, dir_, &config, &error)) << error;
  ASSERT_EQ(config.campaigns.size(), 1u);
  EXPECT_EQ(config.campaigns[0].name, "mini");
  EXPECT_EQ(config.campaigns[0].config.trials, 3);  // From the campaign file.
  ASSERT_EQ(config.presets.size(), 1u);
  EXPECT_EQ(config.presets[0], HostNetwork::Preset::kDgxClass);
  EXPECT_EQ(config.fault_scales, (std::vector<double>{1.0, 0.25}));
  EXPECT_EQ(config.policies,
            (std::vector<RecoveryPolicy>{RecoveryPolicy::kRepair, RecoveryPolicy::kNone}));
  EXPECT_EQ(config.trials, 4);
  EXPECT_TRUE(config.has_seed);
  EXPECT_EQ(config.seed, 11u);
  EXPECT_EQ(config.duration, TimeNs::Millis(50));
}

TEST_F(SweepParseTest, RejectsBadDirectivesWithLineNumbers) {
  SweepConfig config;
  std::string error;
  EXPECT_FALSE(ParseSweepText("campaign mini mini.chaos\npolicy warp_speed\n", dir_,
                              &config, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);
  EXPECT_NE(error.find("warp_speed"), std::string::npos);

  config = {};
  error.clear();
  EXPECT_FALSE(ParseSweepText("campaign mini mini.chaos\nscale -1\n", dir_, &config,
                              &error));
  EXPECT_NE(error.find("positive multiplier"), std::string::npos);

  config = {};
  error.clear();
  EXPECT_FALSE(ParseSweepText("campaign mini missing.chaos\n", dir_, &config, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);

  config = {};
  error.clear();
  EXPECT_FALSE(ParseSweepText("warp 9\n", dir_, &config, &error));
  EXPECT_NE(error.find("warp"), std::string::npos);

  config = {};
  error.clear();
  EXPECT_FALSE(ParseSweepText("scale 1.0\n", dir_, &config, &error));
  EXPECT_NE(error.find("no campaigns"), std::string::npos);

  // Partial numbers, a duration past the campaign ceiling, trailing tokens.
  for (const char* bad : {"scale 2x", "trials 1junk", "seed 12abc", "duration_ms 99999999999",
                          "policy none extra"}) {
    config = {};
    error.clear();
    EXPECT_FALSE(ParseSweepText(std::string("campaign mini mini.chaos\n") + bad + "\n", dir_,
                                &config, &error))
        << bad;
    EXPECT_NE(error.find("line 2"), std::string::npos) << bad << ": " << error;
  }
}

}  // namespace
}  // namespace mihn::chaos
