// Pooled campaign determinism: campaign reports must be byte-identical
// across worker counts {0, 1, 2, 8} and equal to merging RunTrial results
// in trial order with Assemble, and the failed-campaign path must stay
// honest (and identical) under the pool.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/chaos/campaign.h"
#include "src/chaos/report.h"
#include "src/core/worker_pool.h"

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

CampaignConfig FaultyConfig(int trials) {
  CampaignConfig config;
  config.preset = HostNetwork::Preset::kCommodityTwoSocket;
  config.trials = trials;
  config.base_seed = 17;
  config.duration = TimeNs::Millis(40);
  config.streams = {Stream(ComponentKind::kNic, 0, ComponentKind::kCpuSocket, 1, 80, 64),
                    Stream(ComponentKind::kNic, 1, ComponentKind::kCpuSocket, 0, 80, 64)};
  config.schedule.Kill(LinkKind::kPcieSwitchUp, 0, TimeNs::Millis(10), TimeNs::Millis(20));
  config.schedule.Kill(LinkKind::kInterSocket, 0, TimeNs::Millis(25));
  return config;
}

// The reference a pooled run must reproduce: RunTrial(i) for every trial,
// merged in index order by Assemble.
CampaignResult TrialOrderMerge(const Campaign& campaign, int trials) {
  std::vector<TrialRun> runs;
  for (int trial = 0; trial < trials; ++trial) {
    runs.push_back(campaign.RunTrial(trial));
  }
  return campaign.Assemble(std::move(runs));
}

// The ctest determinism gate for pooled campaigns: byte-identical
// reports across worker counts {0, 1, 2, 8} and vs the trial-order merge.
TEST(CampaignExecutorTest, ReportBytesIdenticalAcrossWorkerCounts) {
  Campaign campaign(FaultyConfig(4));
  const std::string reference = CampaignReportJson(TrialOrderMerge(campaign, 4));
  ASSERT_FALSE(reference.empty());
  for (const int workers : {0, 1, 2, 8}) {
    core::WorkerPool pool(workers, /*clamp_to_hardware=*/false);
    const std::string pooled = CampaignReportJson(campaign.Run(pool));
    EXPECT_EQ(pooled, reference) << "workers=" << workers;
  }
}

TEST(CampaignExecutorTest, PooledRunMatchesTrialOrderMerge) {
  // Run(pool) must equal assembling RunTrial(i) results in index order —
  // the merge rule the sweep also relies on.
  Campaign campaign(FaultyConfig(3));
  const std::string assembled = CampaignReportJson(TrialOrderMerge(campaign, 3));
  core::WorkerPool pool(2, /*clamp_to_hardware=*/false);
  EXPECT_EQ(CampaignReportJson(campaign.Run(pool)), assembled);
}

TEST(CampaignExecutorTest, FailedSetupIdenticalAcrossWorkerCountsAndHonest) {
  CampaignConfig config = FaultyConfig(3);
  config.streams.push_back(Stream(ComponentKind::kGpu, 99, ComponentKind::kCpuSocket, 0,
                                  10, 0));  // Unresolvable endpoint.
  Campaign campaign(config);
  core::WorkerPool inline_pool(1);
  const CampaignResult serial = campaign.Run(inline_pool);
  EXPECT_FALSE(serial.ok());
  EXPECT_EQ(serial.trials, 3);
  EXPECT_EQ(serial.trials_completed, 0);
  EXPECT_TRUE(serial.results.empty());
  // A broken campaign must not read as a perfect one.
  EXPECT_DOUBLE_EQ(serial.recall, 0.0);
  EXPECT_DOUBLE_EQ(serial.hard_recall, 0.0);
  EXPECT_DOUBLE_EQ(serial.precision, 0.0);

  const std::string serial_json = CampaignReportJson(serial);
  EXPECT_NE(serial_json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(serial_json.find("\"error\""), std::string::npos);
  EXPECT_NE(serial_json.find("\"trials_completed\": 0"), std::string::npos);
  EXPECT_EQ(CampaignReportJson(TrialOrderMerge(campaign, config.trials)), serial_json);
  for (const int workers : {2, 8}) {
    core::WorkerPool pool(workers, /*clamp_to_hardware=*/false);
    EXPECT_EQ(CampaignReportJson(campaign.Run(pool)), serial_json)
        << "workers=" << workers;
  }
}

TEST(CampaignAssembleTest, TruncatesAtFirstErrorInTrialOrder) {
  Campaign campaign(FaultyConfig(3));
  std::vector<TrialRun> runs(3);
  runs[0].result.trial = 0;
  runs[1].error = "injected failure";
  runs[2].result.trial = 2;
  const CampaignResult result = campaign.Assemble(std::move(runs));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error, "trial 1: injected failure");
  EXPECT_EQ(result.trials_completed, 1);
  ASSERT_EQ(result.results.size(), 1u);
  EXPECT_EQ(result.results[0].trial, 0);
}

TEST(CampaignAssembleTest, LongTrialErrorsSurviveIntact) {
  // Regression: Campaign::Run used to squeeze trial errors through a
  // 160-byte snprintf buffer, truncating long stream/fault diagnostics.
  Campaign campaign(FaultyConfig(1));
  const std::string long_error(500, 'e');
  std::vector<TrialRun> runs(1);
  runs[0].error = long_error;
  const CampaignResult result = campaign.Assemble(std::move(runs));
  EXPECT_EQ(result.error, "trial 0: " + long_error);
  EXPECT_NE(CampaignReportJson(result).find(long_error), std::string::npos);
}

}  // namespace
}  // namespace mihn::chaos
