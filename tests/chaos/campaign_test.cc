#include "src/chaos/campaign.h"

#include <gtest/gtest.h>

#include "src/chaos/report.h"

namespace mihn::chaos {
namespace {

using sim::Bandwidth;
using sim::TimeNs;
using topology::ComponentKind;
using topology::LinkKind;

StreamSpec Stream(ComponentKind src_kind, int src_index, ComponentKind dst_kind,
                  int dst_index, double demand_gbps, double slo_gbps,
                  bool ddio = false) {
  StreamSpec spec;
  spec.src_kind = src_kind;
  spec.src_index = src_index;
  spec.dst_kind = dst_kind;
  spec.dst_index = dst_index;
  spec.demand = Bandwidth::Gbps(demand_gbps);
  spec.slo = Bandwidth::Gbps(slo_gbps);
  spec.ddio_write = ddio;
  return spec;
}

// Every trial inline, in trial order.
CampaignResult RunInline(Campaign& campaign) {
  core::WorkerPool inline_pool(1);
  return campaign.Run(inline_pool);
}

CampaignConfig BaseConfig() {
  CampaignConfig config;
  config.preset = HostNetwork::Preset::kCommodityTwoSocket;
  config.trials = 2;
  config.base_seed = 11;
  config.duration = TimeNs::Millis(60);
  config.streams = {Stream(ComponentKind::kNic, 0, ComponentKind::kCpuSocket, 1, 80, 64),
                    Stream(ComponentKind::kNic, 1, ComponentKind::kCpuSocket, 0, 80, 64)};
  return config;
}

TEST(CampaignTest, SameSeedYieldsByteIdenticalReports) {
  CampaignConfig config = BaseConfig();
  config.schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(15), TimeNs::Millis(25));
  config.schedule.Kill(LinkKind::kInterSocket, 0, TimeNs::Millis(35));

  Campaign first(config);
  Campaign second(config);
  const CampaignResult a = RunInline(first);
  const CampaignResult b = RunInline(second);
  ASSERT_TRUE(a.ok()) << a.error;
  EXPECT_EQ(CampaignReportJson(a), CampaignReportJson(b));
}

TEST(CampaignTest, DifferentSeedStillFindsTheSameFaults) {
  CampaignConfig config = BaseConfig();
  config.trials = 1;
  config.schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(15), TimeNs::Millis(25));

  Campaign a(config);
  config.base_seed = 12;
  Campaign b(config);
  const CampaignResult ra = RunInline(a);
  const CampaignResult rb = RunInline(b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_DOUBLE_EQ(ra.hard_recall, 1.0);
  EXPECT_DOUBLE_EQ(rb.hard_recall, 1.0);
  // Different seeds are different campaigns; reports may differ...
  EXPECT_NE(CampaignReportJson(ra), CampaignReportJson(rb));
}

// Satellite 5: the full detector stack (mesh + EWMA bank + SLO monitor +
// misconfig sweep) over a healthy fabric must stay completely silent.
TEST(CampaignTest, NoFaultCampaignHasZeroFalsePositives) {
  CampaignConfig config = BaseConfig();
  config.streams.push_back(
      Stream(ComponentKind::kNic, 2, ComponentKind::kCpuSocket, 0, 40, 0, true));

  Campaign campaign(config);
  const CampaignResult result = RunInline(campaign);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.results.size(), 2u);
  for (const TrialResult& trial : result.results) {
    EXPECT_TRUE(trial.signals.empty());
    EXPECT_EQ(trial.violations_total, 0u);
    EXPECT_EQ(trial.anomalies, 0u);
    EXPECT_EQ(trial.repairs, 0u);
    // Every health sample is healthy.
    for (const HealthSample& sample : trial.health) {
      EXPECT_TRUE(sample.healthy);
    }
  }
  EXPECT_EQ(result.false_positives_total, 0);
  EXPECT_DOUBLE_EQ(result.precision, 1.0);
}

// Acceptance bar: hard link-death faults are always caught, with a
// per-fault detection latency in the report.
TEST(CampaignTest, HardLinkDeathAlwaysDetected) {
  CampaignConfig config = BaseConfig();
  config.schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(15), TimeNs::Millis(30));
  config.schedule.Kill(LinkKind::kInterSocket, 0, TimeNs::Millis(40));

  Campaign campaign(config);
  const CampaignResult result = RunInline(campaign);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.hard_faults_total, 4);  // 2 faults x 2 trials.
  EXPECT_EQ(result.hard_detected_total, 4);
  EXPECT_DOUBLE_EQ(result.hard_recall, 1.0);
  EXPECT_DOUBLE_EQ(result.precision, 1.0);
  for (const TrialResult& trial : result.results) {
    for (const FaultOutcome& outcome : trial.score.outcomes) {
      EXPECT_TRUE(outcome.detected);
      EXPECT_GE(outcome.detection_latency, TimeNs::Zero());
      EXPECT_LE(outcome.detection_latency, TimeNs::Millis(5));
    }
  }
}

// The cleared switch-uplink kill must also *recover*: signals stop, the
// platform re-converges, and the report carries a recovery latency.
TEST(CampaignTest, ClearedFaultRecovers) {
  CampaignConfig config = BaseConfig();
  config.trials = 1;
  config.schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(15), TimeNs::Millis(25));

  Campaign campaign(config);
  const CampaignResult result = RunInline(campaign);
  ASSERT_TRUE(result.ok()) << result.error;
  const FaultOutcome& outcome = result.results[0].score.outcomes[0];
  ASSERT_TRUE(outcome.detected);
  ASSERT_TRUE(outcome.recovered);
  EXPECT_GT(outcome.recovered_at, TimeNs::Millis(25));
  EXPECT_GT(result.mean_recovery_ms, 0.0);
}

// A permanent UPI-link death is survivable on the commodity preset (two
// parallel links): the manager's recovery re-routes and the SLO
// re-converges while the fault is still active.
TEST(CampaignTest, PermanentInterSocketKillRecoversViaReroute) {
  CampaignConfig config = BaseConfig();
  config.trials = 1;
  config.schedule.Kill(LinkKind::kInterSocket, 0, TimeNs::Millis(20));

  Campaign campaign(config);
  const CampaignResult result = RunInline(campaign);
  ASSERT_TRUE(result.ok()) << result.error;
  const TrialResult& trial = result.results[0];
  const FaultOutcome& outcome = trial.score.outcomes[0];
  ASSERT_TRUE(outcome.detected);
  EXPECT_TRUE(outcome.recovered);
  EXPECT_GT(trial.stream_restarts, 0u);
  // The tail of the run is healthy even though the link stays dead.
  ASSERT_FALSE(trial.health.empty());
  EXPECT_TRUE(trial.health.back().healthy);
}

// Recovery policies change what the manager *does*, never what the
// detectors *see*: kNone still detects the kill but takes no action.
TEST(CampaignTest, NonePolicyDetectsButNeverActs) {
  CampaignConfig config = BaseConfig();
  config.trials = 1;
  config.recovery = RecoveryPolicy::kNone;
  config.schedule.Kill(LinkKind::kInterSocket, 0, TimeNs::Millis(20));

  Campaign campaign(config);
  const CampaignResult result = RunInline(campaign);
  ASSERT_TRUE(result.ok()) << result.error;
  const TrialResult& trial = result.results[0];
  EXPECT_FALSE(trial.signals.empty());  // Detection still fires...
  EXPECT_EQ(trial.repairs, 0u);         // ...but nothing acts on it.
  EXPECT_EQ(trial.stream_restarts, 0u);
  EXPECT_EQ(result.recovery_name, "none");
}

TEST(CampaignTest, RestartOnlyPolicyNeverRepairsAllocations) {
  CampaignConfig config = BaseConfig();
  config.trials = 1;
  config.recovery = RecoveryPolicy::kRestartOnly;
  config.schedule.Kill(LinkKind::kInterSocket, 0, TimeNs::Millis(20));

  Campaign campaign(config);
  const CampaignResult result = RunInline(campaign);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.results[0].repairs, 0u);
  EXPECT_GT(result.results[0].stream_restarts, 0u);
}

TEST(CampaignTest, UnresolvableFaultFailsSetup) {
  CampaignConfig config = BaseConfig();
  config.schedule.Kill(LinkKind::kCxl, 0, TimeNs::Millis(10));  // No CXL links here.
  Campaign campaign(config);
  const CampaignResult result = RunInline(campaign);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("cxl"), std::string::npos);
  // A failed campaign reports what actually happened: no completed trials,
  // no optimistic default aggregates.
  EXPECT_EQ(result.trials_completed, 0);
  EXPECT_DOUBLE_EQ(result.recall, 0.0);
  EXPECT_DOUBLE_EQ(result.hard_recall, 0.0);
  EXPECT_DOUBLE_EQ(result.precision, 0.0);
  const std::string json = CampaignReportJson(result);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"trials_completed\": 0"), std::string::npos);

  // Two faults whose windows overlap on one link fail setup the same way.
  CampaignConfig overlapping = BaseConfig();
  overlapping.schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(30), TimeNs::Millis(45));
  overlapping.schedule.Degrade(LinkKind::kPcieSwitchUp, 0, 0.3, TimeNs::Millis(40),
                               TimeNs::Millis(50));
  Campaign overlap_campaign(overlapping);
  const CampaignResult overlap = RunInline(overlap_campaign);
  EXPECT_FALSE(overlap.ok());
  EXPECT_NE(overlap.error.find("trial 0: fault 1: overlaps fault 0 on pcie_switch_up link 0"),
            std::string::npos)
      << overlap.error;
  EXPECT_EQ(overlap.trials_completed, 0);
  EXPECT_DOUBLE_EQ(overlap.recall, 0.0);
}

TEST(CampaignTest, BadStreamEndpointFailsSetup) {
  CampaignConfig config = BaseConfig();
  config.streams.push_back(Stream(ComponentKind::kGpu, 99, ComponentKind::kCpuSocket, 0,
                                  10, 0));
  Campaign campaign(config);
  const CampaignResult result = RunInline(campaign);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("stream"), std::string::npos);
}

TEST(CampaignReportTest, JsonIsWellFormedAndStable) {
  CampaignConfig config = BaseConfig();
  config.trials = 1;
  config.duration = TimeNs::Millis(30);
  config.schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(10), TimeNs::Millis(20));
  Campaign campaign(config);
  const CampaignResult result = RunInline(campaign);
  ASSERT_TRUE(result.ok());

  const std::string json = CampaignReportJson(result);
  // Structural spot-checks (CI validates with a real JSON parser).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"preset\": \"commodity_two_socket\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery\": \"repair\""), std::string::npos);
  EXPECT_NE(json.find("\"trials_completed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
  EXPECT_NE(json.find("\"detection_latency_ns\""), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

}  // namespace
}  // namespace mihn::chaos
