// Statistics primitives: a running mean/max and a log-bucketed histogram.
//
// Telemetry, the anomaly detectors, and every benchmark report through
// these. The histogram is HDR-style (logarithmic major buckets with linear
// sub-buckets) so that nanosecond latencies and multi-millisecond tail
// latencies coexist in one fixed-size structure with bounded relative error.

#ifndef MIHN_SRC_SIM_STATS_H_
#define MIHN_SRC_SIM_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace mihn::sim {

// Running mean and max: O(1) memory, with the numerically stable
// incremental mean of Welford's method.
class RunningStats {
 public:
  void Add(double x);

  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double max_ = 0.0;
};

// Log-bucketed histogram of non-negative values with ~1.6% relative error
// (64 linear sub-buckets per power of two). Records values up to 2^62.
class Histogram {
 public:
  Histogram();

  void Add(double value);

  int64_t count() const { return count_; }
  double mean() const;
  double max() const { return count_ > 0 ? max_ : 0.0; }

  // Value at quantile |q| in [0, 1]; e.g. Percentile(0.99) is p99.
  // Returns the representative (midpoint) value of the bucket containing
  // the q-th sample. Returns 0 for an empty histogram.
  double Percentile(double q) const;

  // Multi-line human-readable summary (count/mean/p50/p90/p99/p999/max).
  std::string Summary(const std::string& unit = "") const;

 private:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per octave.
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kOctaves = 56;
  static constexpr int kNumBuckets = kOctaves * kSubBuckets;

  static int BucketIndex(double value);
  static double BucketMidpoint(int index);

  std::vector<uint32_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace mihn::sim

#endif  // MIHN_SRC_SIM_STATS_H_
