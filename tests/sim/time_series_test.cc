#include "src/sim/time_series.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace mihn::sim {
namespace {

TEST(TimeSeriesTest, StartsEmpty) {
  TimeSeries ts(8);
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.size(), 0u);
  EXPECT_EQ(ts.capacity(), 8u);
  EXPECT_EQ(ts.dropped(), 0u);
}

TEST(TimeSeriesTest, AppendAndAccess) {
  TimeSeries ts(8);
  ts.Append(TimeNs::Nanos(10), 1.0);
  ts.Append(TimeNs::Nanos(20), 2.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts.Oldest().value, 1.0);
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
  EXPECT_EQ(ts.Oldest().value, 2.0);
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
  EXPECT_EQ(ts.capacity(), 1u);
  ts.Append(TimeNs::Nanos(1), 7.0);
  EXPECT_EQ(ts.Latest().value, 7.0);
}

TEST(TimeSeriesTest, ForEachVisitsOldestFirst) {
  TimeSeries ts(4);
  for (int i = 0; i < 6; ++i) {
    ts.Append(TimeNs::Nanos(i), static_cast<double>(i));
  }
  std::vector<double> seen;
  ts.ForEach([&](const TimePoint& p) { seen.push_back(p.value); });
  EXPECT_EQ(seen, (std::vector<double>{2.0, 3.0, 4.0, 5.0}));
}

TEST(TimeSeriesTest, StatsSinceFiltersOnTime) {
  TimeSeries ts(16);
  for (int i = 0; i < 10; ++i) {
    ts.Append(TimeNs::Micros(i), static_cast<double>(i));
  }
  const RunningStats s = ts.StatsSince(TimeNs::Micros(5));
  EXPECT_EQ(s.count(), 5);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
}

TEST(TimeSeriesTest, MeanOfLast) {
  TimeSeries ts(16);
  for (int i = 1; i <= 5; ++i) {
    ts.Append(TimeNs::Nanos(i), static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(ts.MeanOfLast(2), 4.5);
  EXPECT_DOUBLE_EQ(ts.MeanOfLast(100), 3.0);
  EXPECT_EQ(TimeSeries(4).MeanOfLast(3), 0.0);
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
  EXPECT_EQ(ts.capacity(), size_t{1} << 40);
  ts.Append(TimeNs::Nanos(1), 1.0);
  EXPECT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts.Latest().value, 1.0);
}

TEST(TimeSeriesTest, GrowsThenWrapsThenRegrowsAfterClear) {
  TimeSeries ts(5);
  for (int i = 0; i < 3; ++i) {
    ts.Append(TimeNs::Nanos(i), static_cast<double>(i));
    EXPECT_EQ(ts.size(), static_cast<size_t>(i + 1));
  }
  EXPECT_EQ(ts.dropped(), 0u);
  EXPECT_EQ(ts.Oldest().value, 0.0);
  for (int i = 3; i < 7; ++i) {
    ts.Append(TimeNs::Nanos(i), static_cast<double>(i));
  }
  EXPECT_EQ(ts.size(), 5u);
  EXPECT_EQ(ts.dropped(), 2u);
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ts.At(i).value, static_cast<double>(i + 2));
  }

  ts.Clear();
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.dropped(), 0u);
  EXPECT_EQ(ts.capacity(), 5u);
  for (int i = 0; i < 8; ++i) {
    ts.Append(TimeNs::Nanos(100 + i), static_cast<double>(100 + i));
    EXPECT_EQ(ts.size(), std::min<size_t>(static_cast<size_t>(i + 1), 5u));
    EXPECT_EQ(ts.Latest().value, static_cast<double>(100 + i));
  }
  EXPECT_EQ(ts.dropped(), 3u);
  EXPECT_EQ(ts.Oldest().value, 103.0);
}

TEST(TimeSeriesTest, ClearResets) {
  TimeSeries ts(4);
  for (int i = 0; i < 10; ++i) {
    ts.Append(TimeNs::Nanos(i), 1.0);
  }
  ts.Clear();
  EXPECT_TRUE(ts.empty());
  EXPECT_EQ(ts.dropped(), 0u);
  ts.Append(TimeNs::Nanos(99), 9.0);
  EXPECT_EQ(ts.Oldest().value, 9.0);
}

}  // namespace
}  // namespace mihn::sim
