#include "src/sim/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/sim/random.h"

namespace mihn::sim {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SingleValueAllPercentiles) {
  Histogram h;
  h.Add(1000.0);
  EXPECT_EQ(h.count(), 1);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_NEAR(h.Percentile(q), 1000.0, 1000.0 * 0.02) << "q=" << q;
  }
}

TEST(HistogramTest, BoundedRelativeError) {
  Histogram h;
  Rng rng(31);
  std::vector<double> values;
  for (int i = 0; i < 20'000; ++i) {
    const double v = rng.Uniform(50.0, 5'000'000.0);
    values.push_back(v);
    h.Add(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.99}) {
    const double exact = values[static_cast<size_t>(q * (values.size() - 1))];
    EXPECT_NEAR(h.Percentile(q), exact, exact * 0.03) << "q=" << q;
  }
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.Add(10.0);
  h.Add(20.0);
  h.Add(60.0);
  EXPECT_DOUBLE_EQ(h.mean(), 30.0);
  EXPECT_EQ(h.max(), 60.0);
}

TEST(HistogramTest, SubUnitValuesLandInFirstBucket) {
  Histogram h;
  h.Add(0.0);
  h.Add(0.5);
  EXPECT_EQ(h.count(), 2);
  EXPECT_LE(h.Percentile(1.0), 1.0);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Add(-5.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.Percentile(0.0), 0.0);
}

TEST(HistogramTest, PercentilesMonotoneInQ) {
  Histogram h;
  Rng rng(51);
  for (int i = 0; i < 10'000; ++i) {
    h.Add(rng.Exponential(0.001));
  }
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double p = h.Percentile(q);
    EXPECT_GE(p, prev) << "q=" << q;
    prev = p;
  }
}

TEST(HistogramTest, SummaryMentionsCount) {
  Histogram h;
  h.Add(5.0);
  h.Add(10.0);
  const std::string s = h.Summary("us");
  EXPECT_NE(s.find("n=2"), std::string::npos);
  EXPECT_NE(s.find("us"), std::string::npos);
}

TEST(HistogramTest, HandlesVeryLargeValues) {
  Histogram h;
  h.Add(1e15);
  h.Add(1e16);
  EXPECT_EQ(h.count(), 2);
  EXPECT_GE(h.Percentile(1.0), 1e15);
}

}  // namespace
}  // namespace mihn::sim
