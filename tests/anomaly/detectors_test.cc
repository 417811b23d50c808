#include "src/anomaly/detectors.h"

#include <gtest/gtest.h>

#include "src/sim/random.h"

namespace mihn::anomaly {
namespace {

using sim::TimeNs;

TimeNs T(int i) { return TimeNs::Micros(i); }

TEST(EwmaDetectorTest, NoFireOnSteadySignal) {
  // k=6: with 500 Gaussian samples the false-positive probability is
  // negligible (k=4 would fire ~3% of the time over a run this long).
  EwmaDetector d(0.1, 6.0, 8);
  sim::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const auto fired = d.Observe(T(i), 10.0 + rng.Normal(0.0, 0.5));
    EXPECT_FALSE(fired.has_value()) << "at " << i;
  }
}

TEST(EwmaDetectorTest, FiresOnStepChange) {
  EwmaDetector d(0.1, 4.0, 8);
  sim::Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    d.Observe(T(i), 10.0 + rng.Normal(0.0, 0.5));
  }
  bool fired = false;
  for (int i = 100; i < 110; ++i) {
    if (d.Observe(T(i), 30.0 + rng.Normal(0.0, 0.5))) {
      fired = true;
    }
  }
  EXPECT_TRUE(fired);
}

TEST(EwmaDetectorTest, AnomalyDoesNotPoisonBaseline) {
  EwmaDetector d(0.2, 4.0, 8);
  sim::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    d.Observe(T(i), 10.0 + rng.Normal(0.0, 0.3));
  }
  const double mean_before = d.mean();
  // A sustained shift keeps firing because the baseline is frozen against
  // anomalous samples.
  int fires = 0;
  for (int i = 50; i < 70; ++i) {
    if (d.Observe(T(i), 100.0)) {
      ++fires;
    }
  }
  EXPECT_EQ(fires, 20);
  EXPECT_NEAR(d.mean(), mean_before, 1.0);
}

TEST(EwmaDetectorTest, ResetForgets) {
  EwmaDetector d(0.5, 3.0, 4);
  for (int i = 0; i < 20; ++i) {
    d.Observe(T(i), 10.0 + (i % 2 ? 0.2 : -0.2));
  }
  d.Reset();
  // First post-reset sample can't fire (no baseline).
  EXPECT_FALSE(d.Observe(T(100), 1000.0).has_value());
}

}  // namespace
}  // namespace mihn::anomaly
