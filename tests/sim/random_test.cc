#include "src/sim/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace mihn::sim {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkedStreamsAreIndependentAndDeterministic) {
  Rng root(7);
  Rng child1 = root.Fork(1);
  Rng child2 = root.Fork(2);
  Rng child1_again = Rng(7).Fork(1);
  EXPECT_EQ(child1.NextU64(), child1_again.NextU64());
  EXPECT_NE(child1.NextU64(), child2.NextU64());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1'000; ++i) {
    const double d = rng.Uniform(-5.0, 11.0);
    EXPECT_GE(d, -5.0);
    EXPECT_LT(d, 11.0);
  }
}

TEST(RngTest, UniformIntInclusiveAndCoversRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1'000; ++i) {
    const int64_t v = rng.UniformInt(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(6);
  EXPECT_EQ(rng.UniformInt(9, 9), 9);
  EXPECT_EQ(rng.UniformInt(9, 2), 9);  // hi < lo clamps to lo.
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliApproximatesP) {
  Rng rng(8);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Exponential(4.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.25, 0.005);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(10);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(5.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, BoundedParetoStaysInBounds) {
  Rng rng(11);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.BoundedPareto(100.0, 10'000.0, 1.3);
    EXPECT_GE(x, 100.0 * 0.999);
    EXPECT_LE(x, 10'000.0 * 1.001);
  }
}

}  // namespace
}  // namespace mihn::sim
