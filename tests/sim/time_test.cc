#include "src/sim/time.h"

#include <gtest/gtest.h>

namespace mihn::sim {
namespace {

TEST(TimeNsTest, FactoriesProduceExpectedNanos) {
  EXPECT_EQ(TimeNs::Nanos(7).nanos(), 7);
  EXPECT_EQ(TimeNs::Micros(3).nanos(), 3000);
  EXPECT_EQ(TimeNs::Millis(2).nanos(), 2'000'000);
  EXPECT_EQ(TimeNs::Seconds(1).nanos(), 1'000'000'000);
  EXPECT_EQ(TimeNs::Zero().nanos(), 0);
}

TEST(TimeNsTest, FromSecondsFRounds) {
  EXPECT_EQ(TimeNs::FromSecondsF(1.5).nanos(), 1'500'000'000);
  EXPECT_EQ(TimeNs::FromSecondsF(0.0000005).nanos(), 500);
}

TEST(TimeNsTest, Arithmetic) {
  const TimeNs a = TimeNs::Micros(10);
  const TimeNs b = TimeNs::Micros(4);
  EXPECT_EQ((a + b).nanos(), 14'000);
  EXPECT_EQ((a - b).nanos(), 6'000);
}

TEST(TimeNsTest, CompoundAssignment) {
  TimeNs t = TimeNs::Nanos(100);
  t += TimeNs::Nanos(50);
  EXPECT_EQ(t.nanos(), 150);
}

TEST(TimeNsTest, Comparisons) {
  EXPECT_LT(TimeNs::Nanos(1), TimeNs::Nanos(2));
  EXPECT_LE(TimeNs::Nanos(2), TimeNs::Nanos(2));
  EXPECT_GT(TimeNs::Micros(1), TimeNs::Nanos(999));
  EXPECT_EQ(TimeNs::Millis(1), TimeNs::Micros(1000));
  EXPECT_NE(TimeNs::Millis(1), TimeNs::Micros(1001));
}

TEST(TimeNsTest, ConversionAccessors) {
  const TimeNs t = TimeNs::Nanos(2'500);
  EXPECT_DOUBLE_EQ(t.ToMicrosF(), 2.5);
  EXPECT_DOUBLE_EQ(TimeNs::Millis(1500).ToSecondsF(), 1.5);
  EXPECT_DOUBLE_EQ(TimeNs::Micros(2500).ToMillisF(), 2.5);
}

TEST(TimeNsTest, ToStringPicksUnits) {
  EXPECT_EQ(TimeNs::Nanos(999).ToString(), "999ns");
  EXPECT_EQ(TimeNs::Nanos(2500).ToString(), "2.50us");
  EXPECT_EQ(TimeNs::Micros(2500).ToString(), "2.50ms");
  EXPECT_EQ(TimeNs::Millis(2500).ToString(), "2.500s");
}

TEST(TimeNsTest, ScaleRoundsDown) {
  EXPECT_EQ(Scale(TimeNs::Nanos(100), 1.5).nanos(), 150);
  EXPECT_EQ(Scale(TimeNs::Nanos(3), 0.5).nanos(), 1);
}

TEST(TimeNsTest, MaxIsLargerThanAnyPracticalTime) {
  EXPECT_GT(TimeNs::Max(), TimeNs::Seconds(1'000'000'000));
}

}  // namespace
}  // namespace mihn::sim
