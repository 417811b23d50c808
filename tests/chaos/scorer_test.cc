#include "src/chaos/scorer.h"

#include <gtest/gtest.h>

namespace mihn::chaos {
namespace {

using sim::TimeNs;

GroundTruth Fault(int index, TimeNs start, TimeNs end, bool hard) {
  GroundTruth truth;
  truth.index = index;
  truth.kind = hard ? FaultKind::kKill : FaultKind::kDegrade;
  truth.start = start;
  truth.end = end;
  truth.hard = hard;
  return truth;
}

Signal At(TimeNs at, Signal::Source source = Signal::Source::kHeartbeat) {
  Signal signal;
  signal.at = at;
  signal.source = source;
  return signal;
}

HealthSample Health(TimeNs at, bool healthy) { return HealthSample{at, healthy}; }

TEST(ScorerTest, DetectionUsesEarliestInWindowSignal) {
  Scorer::Config config;
  config.grace = TimeNs::Millis(5);
  Scorer scorer(config);

  const std::vector<GroundTruth> faults = {
      Fault(0, TimeNs::Millis(10), TimeNs::Millis(20), true)};
  const std::vector<Signal> signals = {At(TimeNs::Millis(14), Signal::Source::kSlo),
                                       At(TimeNs::Millis(12))};
  const TrialScore score = scorer.Score(faults, signals, {});

  ASSERT_EQ(score.outcomes.size(), 1u);
  EXPECT_TRUE(score.outcomes[0].detected);
  EXPECT_EQ(score.outcomes[0].detected_at, TimeNs::Millis(12));
  EXPECT_EQ(score.outcomes[0].detected_by, Signal::Source::kHeartbeat);
  EXPECT_EQ(score.outcomes[0].detection_latency, TimeNs::Millis(2));
  EXPECT_DOUBLE_EQ(score.recall, 1.0);
  EXPECT_DOUBLE_EQ(score.hard_recall, 1.0);
}

TEST(ScorerTest, SignalBeforeWindowOrPastGraceDoesNotCount) {
  Scorer::Config config;
  config.grace = TimeNs::Millis(5);
  Scorer scorer(config);

  const std::vector<GroundTruth> faults = {
      Fault(0, TimeNs::Millis(10), TimeNs::Millis(20), true)};
  // One too early, one past end + grace.
  const std::vector<Signal> signals = {At(TimeNs::Millis(9)), At(TimeNs::Millis(26))};
  const TrialScore score = scorer.Score(faults, signals, {});

  EXPECT_FALSE(score.outcomes[0].detected);
  EXPECT_DOUBLE_EQ(score.recall, 0.0);
  EXPECT_DOUBLE_EQ(score.hard_recall, 0.0);
  // Both signals miss every window: pure false positives.
  EXPECT_EQ(score.false_positive_signals, 2);
  EXPECT_DOUBLE_EQ(score.precision, 0.0);
}

TEST(ScorerTest, GraceTailStillAttributes) {
  Scorer::Config config;
  config.grace = TimeNs::Millis(5);
  Scorer scorer(config);
  const std::vector<GroundTruth> faults = {
      Fault(0, TimeNs::Millis(10), TimeNs::Millis(20), false)};
  const std::vector<Signal> signals = {At(TimeNs::Millis(24))};
  const TrialScore score = scorer.Score(faults, signals, {});
  EXPECT_TRUE(score.outcomes[0].detected);
  EXPECT_EQ(score.true_positive_signals, 1);
  EXPECT_DOUBLE_EQ(score.precision, 1.0);
}

TEST(ScorerTest, HardRecallCountsOnlyHardFaults) {
  Scorer scorer(Scorer::Config{});
  const std::vector<GroundTruth> faults = {
      Fault(0, TimeNs::Millis(10), TimeNs::Millis(20), true),
      Fault(1, TimeNs::Millis(40), TimeNs::Millis(50), false)};
  const std::vector<Signal> signals = {At(TimeNs::Millis(11))};
  const TrialScore score = scorer.Score(faults, signals, {});
  EXPECT_EQ(score.detected, 1);
  EXPECT_EQ(score.hard_faults, 1);
  EXPECT_EQ(score.hard_detected, 1);
  EXPECT_DOUBLE_EQ(score.recall, 0.5);
  EXPECT_DOUBLE_EQ(score.hard_recall, 1.0);
}

TEST(ScorerTest, RecoveryNeedsConsecutiveHealthySamples) {
  Scorer::Config config;
  config.convergence_ticks = 3;
  Scorer scorer(config);

  const std::vector<GroundTruth> faults = {
      Fault(0, TimeNs::Millis(10), TimeNs::Millis(20), true)};
  const std::vector<Signal> signals = {At(TimeNs::Millis(11))};
  // Healthy at 12 is interrupted at 13; the real streak is 21, 22, 23.
  const std::vector<HealthSample> health = {
      Health(TimeNs::Millis(11), false), Health(TimeNs::Millis(12), true),
      Health(TimeNs::Millis(13), false), Health(TimeNs::Millis(21), true),
      Health(TimeNs::Millis(22), true),  Health(TimeNs::Millis(23), true),
      Health(TimeNs::Millis(24), true)};
  const TrialScore score = scorer.Score(faults, signals, health);

  ASSERT_TRUE(score.outcomes[0].recovered);
  EXPECT_EQ(score.outcomes[0].recovered_at, TimeNs::Millis(23));
  EXPECT_EQ(score.outcomes[0].recovery_latency, TimeNs::Millis(13));
  EXPECT_DOUBLE_EQ(score.mean_recovery_ms, 13.0);
}

TEST(ScorerTest, SamplesBeforeDetectionDoNotCountTowardsRecovery) {
  Scorer::Config config;
  config.convergence_ticks = 2;
  Scorer scorer(config);
  const std::vector<GroundTruth> faults = {
      Fault(0, TimeNs::Millis(10), TimeNs::Millis(20), true)};
  const std::vector<Signal> signals = {At(TimeNs::Millis(15))};
  // Healthy samples before detected_at = 15ms are ignored.
  const std::vector<HealthSample> health = {
      Health(TimeNs::Millis(8), true), Health(TimeNs::Millis(9), true),
      Health(TimeNs::Millis(16), true), Health(TimeNs::Millis(17), true)};
  const TrialScore score = scorer.Score(faults, signals, health);
  ASSERT_TRUE(score.outcomes[0].recovered);
  EXPECT_EQ(score.outcomes[0].recovered_at, TimeNs::Millis(17));
}

TEST(ScorerTest, EmptyInputsScorePerfect) {
  Scorer scorer(Scorer::Config{});
  const TrialScore score = scorer.Score({}, {}, {});
  EXPECT_EQ(score.faults, 0);
  EXPECT_DOUBLE_EQ(score.recall, 1.0);
  EXPECT_DOUBLE_EQ(score.precision, 1.0);
}

}  // namespace
}  // namespace mihn::chaos
