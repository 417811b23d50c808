#include "src/sim/time_series.h"

#include <gtest/gtest.h>

namespace mihn::sim {
namespace {

TEST(TimeSeriesTest, StartsEmpty) {
  TimeSeries ts(8);
  EXPECT_EQ(ts.size(), 0u);
  EXPECT_EQ(ts.dropped(), 0u);
}

TEST(TimeSeriesTest, AppendAndAccess) {
  TimeSeries ts(8);
  ts.Append(TimeNs::Nanos(10), 1.0);
  ts.Append(TimeNs::Nanos(20), 2.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.At(0).value, 1.0);
  EXPECT_EQ(ts.Latest().value, 2.0);
  EXPECT_EQ(ts.At(1).time, TimeNs::Nanos(20));
}

TEST(TimeSeriesTest, OverflowDropsOldest) {
  TimeSeries ts(3);
  for (int i = 0; i < 5; ++i) {
    ts.Append(TimeNs::Nanos(i), static_cast<double>(i));
  }
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts.dropped(), 2u);
  EXPECT_EQ(ts.At(0).value, 2.0);
  EXPECT_EQ(ts.Latest().value, 4.0);
}

TEST(TimeSeriesTest, CapacityOneKeepsLatest) {
  TimeSeries ts(1);
  ts.Append(TimeNs::Nanos(1), 1.0);
  ts.Append(TimeNs::Nanos(2), 2.0);
  EXPECT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts.Latest().value, 2.0);
}

TEST(TimeSeriesTest, ZeroCapacityClampedToOne) {
  TimeSeries ts(0);
  ts.Append(TimeNs::Nanos(1), 6.0);
  ts.Append(TimeNs::Nanos(2), 7.0);
  EXPECT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts.dropped(), 1u);
  EXPECT_EQ(ts.Latest().value, 7.0);
}

TEST(TimeSeriesTest, FirstAfterFindsOldestNewerPoint) {
  TimeSeries ts(16);
  for (int i = 0; i < 8; ++i) {
    ts.Append(TimeNs::Nanos(i * 10), static_cast<double>(i));
  }
  EXPECT_EQ(ts.FirstAfter(TimeNs::Nanos(-1)), 0u);
  EXPECT_EQ(ts.FirstAfter(TimeNs::Nanos(0)), 1u);
  const size_t first = ts.FirstAfter(TimeNs::Nanos(49));
  ASSERT_EQ(first, 5u);
  EXPECT_EQ(ts.size() - first, 3u);
  EXPECT_EQ(ts.At(first).value, 5.0);
  EXPECT_EQ(ts.FirstAfter(TimeNs::Nanos(50)), 6u);
  EXPECT_EQ(ts.FirstAfter(TimeNs::Nanos(70)), ts.size());
  EXPECT_EQ(TimeSeries(4).FirstAfter(TimeNs::Nanos(-1)), 0u);
}

TEST(TimeSeriesTest, FirstAfterOnWrappedRingAndEqualTimes) {
  TimeSeries ts(4);
  for (int i = 0; i < 10; ++i) {
    ts.Append(TimeNs::Nanos(i), static_cast<double>(i));
  }
  // Retained: 6..9. Anything older than the oldest retained point is gone.
  EXPECT_EQ(ts.FirstAfter(TimeNs::Nanos(2)), 0u);
  EXPECT_EQ(ts.At(ts.FirstAfter(TimeNs::Nanos(7))).value, 8.0);
  // Two points at one time are both "not after" that time.
  ts.Append(TimeNs::Nanos(9), 10.0);
  EXPECT_EQ(ts.FirstAfter(TimeNs::Nanos(9)), ts.size());
  EXPECT_EQ(ts.FirstAfter(TimeNs::Nanos(8)), 2u);
}

TEST(TimeSeriesTest, CapacityIsABoundNotAnAllocation) {
  // A ring sized for 2^40 points costs only what it holds.
  TimeSeries ts(size_t{1} << 40);
  ts.Append(TimeNs::Nanos(1), 1.0);
  EXPECT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts.Latest().value, 1.0);
}

TEST(TimeSeriesTest, GrowsThenWrapsInArrivalOrder) {
  TimeSeries ts(5);
  for (int i = 0; i < 3; ++i) {
    ts.Append(TimeNs::Nanos(i), static_cast<double>(i));
    EXPECT_EQ(ts.size(), static_cast<size_t>(i + 1));
  }
  EXPECT_EQ(ts.dropped(), 0u);
  EXPECT_EQ(ts.At(0).value, 0.0);
  for (int i = 3; i < 7; ++i) {
    ts.Append(TimeNs::Nanos(i), static_cast<double>(i));
  }
  EXPECT_EQ(ts.size(), 5u);
  EXPECT_EQ(ts.dropped(), 2u);
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ts.At(i).value, static_cast<double>(i + 2));
  }
}

}  // namespace
}  // namespace mihn::sim
