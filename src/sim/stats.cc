#include "src/sim/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mihn::sim {

void RunningStats::Add(double x) {
  max_ = count_ == 0 ? x : std::max(max_, x);
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

int Histogram::BucketIndex(double value) {
  if (value < 1.0) {
    return 0;
  }
  int exp = 0;
  const double mant = std::frexp(value, &exp);  // value = mant * 2^exp, mant in [0.5, 1).
  const int octave = std::min(exp - 1, kOctaves - 1);
  const int sub = std::min(static_cast<int>((mant - 0.5) * 2.0 * kSubBuckets), kSubBuckets - 1);
  return octave * kSubBuckets + sub;
}

double Histogram::BucketMidpoint(int index) {
  const int octave = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  const double lo = std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
  const double hi = std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, octave);
  return (lo + hi) / 2.0;
}

void Histogram::Add(double value) {
  value = std::max(value, 0.0);
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[static_cast<size_t>(BucketIndex(value))];
}

double Histogram::mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }

double Histogram::Percentile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const int64_t target = std::min(
      count_ - 1, static_cast<int64_t>(q * static_cast<double>(count_)));
  int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[static_cast<size_t>(i)];
    if (seen > target) {
      // Clamp the representative value into the observed range so p0/p100
      // match min/max despite bucket quantization.
      return std::clamp(BucketMidpoint(i), min_, max_);
    }
  }
  return max_;
}

std::string Histogram::Summary(const std::string& unit) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%lld mean=%.1f%s p50=%.1f%s p90=%.1f%s p99=%.1f%s p999=%.1f%s max=%.1f%s",
                static_cast<long long>(count_), mean(), unit.c_str(), Percentile(0.50),
                unit.c_str(), Percentile(0.90), unit.c_str(), Percentile(0.99), unit.c_str(),
                Percentile(0.999), unit.c_str(), max(), unit.c_str());
  return buf;
}

}  // namespace mihn::sim
