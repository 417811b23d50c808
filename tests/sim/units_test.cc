#include "src/sim/units.h"

#include <limits>

#include <gtest/gtest.h>

namespace mihn::sim {
namespace {

TEST(BandwidthTest, UnitConversions) {
  EXPECT_DOUBLE_EQ(Bandwidth::Gbps(8).bytes_per_sec(), 1e9);
  EXPECT_DOUBLE_EQ(Bandwidth::GBps(1).bytes_per_sec(), 1e9);
  EXPECT_DOUBLE_EQ(Bandwidth::Mbps(8).bytes_per_sec(), 1e6);
  EXPECT_DOUBLE_EQ(Bandwidth::Gbps(200).ToGbps(), 200.0);
  EXPECT_DOUBLE_EQ(Bandwidth::GBps(25).ToGBps(), 25.0);
  // The factor-of-8 trap: 256 Gbps is 32 GB/s.
  EXPECT_DOUBLE_EQ(Bandwidth::Gbps(256).ToGBps(), 32.0);
}

TEST(BandwidthTest, ConversionRoundTrips) {
  // Every factory must invert through its matching accessor exactly: these
  // values have exact binary representations, so any deviation is a wrong
  // conversion factor, not float noise.
  for (const double v : {0.0, 1.0, 8.0, 12.5, 100.0, 256.0, 400.0}) {
    EXPECT_DOUBLE_EQ(Bandwidth::Gbps(v).ToGbps(), v) << v;
    EXPECT_DOUBLE_EQ(Bandwidth::GBps(v).ToGBps(), v) << v;
    EXPECT_DOUBLE_EQ(Bandwidth::BytesPerSec(v).bytes_per_sec(), v) << v;
    // Mbps -> Gbps is a factor of exactly 1000.
    EXPECT_DOUBLE_EQ(Bandwidth::Mbps(v * 1000.0).ToGbps(), v) << v;
  }
  // Cross-unit: 8 Gbps is exactly 1 GB/s in both directions.
  EXPECT_DOUBLE_EQ(Bandwidth::Gbps(8).ToGBps(), 1.0);
  EXPECT_DOUBLE_EQ(Bandwidth::GBps(1).ToGbps(), 8.0);
}

#ifdef MIHN_ENABLE_INVARIANT_CHECKS
TEST(BandwidthDeathTest, NegativeConstructionIsRejected) {
  // Rates are magnitudes: a negative input to any factory is a unit bug
  // upstream (e.g. a subtraction that should have been clamped), not a
  // representable bandwidth. IsZero() would otherwise mask it forever.
  EXPECT_DEATH(Bandwidth::BytesPerSec(-1.0), "MIHN_CHECK failed");
  EXPECT_DEATH(Bandwidth::Gbps(-0.5), "MIHN_CHECK failed");
  EXPECT_DEATH(Bandwidth::GBps(-2.0), "MIHN_CHECK failed");
  EXPECT_DEATH(Bandwidth::Mbps(-100.0), "MIHN_CHECK failed");
}

TEST(BandwidthDeathTest, NaNConstructionIsRejected) {
  EXPECT_DEATH(Bandwidth::BytesPerSec(std::numeric_limits<double>::quiet_NaN()),
               "MIHN_CHECK failed");
}
#endif  // MIHN_ENABLE_INVARIANT_CHECKS

TEST(BandwidthTest, OnlyTheZeroRateIsZero) {
  EXPECT_TRUE(Bandwidth::Zero().IsZero());
  EXPECT_FALSE(Bandwidth::Gbps(1).IsZero());
}

TEST(BandwidthTest, Arithmetic) {
  Bandwidth c = Bandwidth::GBps(10);
  c += Bandwidth::GBps(4);
  EXPECT_DOUBLE_EQ(c.ToGBps(), 14.0);
}

TEST(BandwidthTest, Comparisons) {
  EXPECT_LT(Bandwidth::Gbps(100), Bandwidth::GBps(100));
  EXPECT_EQ(Bandwidth::Gbps(8), Bandwidth::GBps(1));
}

TEST(BandwidthTest, ToStringPicksUnit) {
  EXPECT_EQ(Bandwidth::GBps(25).ToString(), "25.0GB/s");
  EXPECT_EQ(Bandwidth::Mbps(80).ToString(), "10.0MB/s");
}

}  // namespace
}  // namespace mihn::sim
