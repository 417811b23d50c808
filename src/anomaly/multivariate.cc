#include "src/anomaly/multivariate.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

namespace mihn::anomaly {
namespace {

// Ridge added to the covariance diagonal: keeps the solve well-posed for
// constant or perfectly-correlated baselines.
constexpr double kRidge = 1e-9;

}  // namespace

MultivariateDetector::MultivariateDetector(size_t dims, double k, int warmup, double alpha)
    : dims_(std::max<size_t>(dims, 1)),
      k_(k),
      warmup_(warmup),
      alpha_(alpha),
      mean_(dims_, 0.0),
      cov_(dims_ * dims_, 0.0) {}

void MultivariateDetector::Reset() {
  seen_ = 0;
  std::fill(mean_.begin(), mean_.end(), 0.0);
  std::fill(cov_.begin(), cov_.end(), 0.0);
}

std::vector<double> MultivariateDetector::SolveCov(const std::vector<double>& b) const {
  const size_t n = dims_;
  // Augmented system [cov + ridge*(I*scale) | b].
  double trace = 0.0;
  for (size_t i = 0; i < n; ++i) {
    trace += cov_[i * n + i];
  }
  const double ridge = kRidge + 1e-9 * std::max(trace, 1.0);
  std::vector<double> a(cov_);
  for (size_t i = 0; i < n; ++i) {
    a[i * n + i] += ridge;
  }
  std::vector<double> x(b);
  // Gaussian elimination with partial pivoting.
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) {
    perm[i] = i;
  }
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[perm[r] * n + col]) > std::abs(a[perm[pivot] * n + col])) {
        pivot = r;
      }
    }
    std::swap(perm[col], perm[pivot]);
    std::swap(x[col], x[pivot]);
    const double diag = a[perm[col] * n + col];
    if (std::abs(diag) < 1e-30) {
      continue;  // Degenerate direction; ridge should prevent this.
    }
    for (size_t r = col + 1; r < n; ++r) {
      const double factor = a[perm[r] * n + col] / diag;
      if (factor == 0.0) {  // mihn-check: float-eq-ok(skip exact-zero elimination rows)
        continue;
      }
      for (size_t c = col; c < n; ++c) {
        a[perm[r] * n + c] -= factor * a[perm[col] * n + c];
      }
      x[r] -= factor * x[col];
    }
  }
  // Back substitution.
  std::vector<double> out(n, 0.0);
  for (size_t i = n; i-- > 0;) {
    double sum = x[i];
    for (size_t c = i + 1; c < n; ++c) {
      sum -= a[perm[i] * n + c] * out[c];
    }
    const double diag = a[perm[i] * n + i];
    out[i] = std::abs(diag) < 1e-30 ? 0.0 : sum / diag;
  }
  return out;
}

double MultivariateDetector::Distance(const std::vector<double>& values) const {
  if (seen_ == 0 || values.size() != dims_) {
    return 0.0;
  }
  std::vector<double> diff(dims_);
  for (size_t i = 0; i < dims_; ++i) {
    diff[i] = values[i] - mean_[i];
  }
  const std::vector<double> solved = SolveCov(diff);
  double d2 = 0.0;
  for (size_t i = 0; i < dims_; ++i) {
    d2 += diff[i] * solved[i];
  }
  return d2 > 0.0 ? std::sqrt(d2) : 0.0;
}

std::optional<Anomaly> MultivariateDetector::Observe(sim::TimeNs at,
                                                     const std::vector<double>& values) {
  if (values.size() != dims_) {
    return std::nullopt;
  }
  if (seen_ >= warmup_) {
    const double d = Distance(values);
    if (d > k_) {
      Anomaly a;
      a.at = at;
      a.value = d;
      a.score = d;
      a.detail = "mahalanobis distance";
      return a;  // Anomalous samples never update the baseline.
    }
  }
  // EW update of mean and covariance. During warmup, use 1/n weights so the
  // initial estimate is the plain sample mean/covariance.
  ++seen_;
  const double w = seen_ <= warmup_ ? 1.0 / seen_ : alpha_;
  std::vector<double> diff(dims_);
  for (size_t i = 0; i < dims_; ++i) {
    diff[i] = values[i] - mean_[i];
    mean_[i] += w * diff[i];
  }
  for (size_t i = 0; i < dims_; ++i) {
    for (size_t j = 0; j < dims_; ++j) {
      // Standard EW covariance recursion.
      cov_[i * dims_ + j] = (1.0 - w) * (cov_[i * dims_ + j] + w * diff[i] * diff[j]);
    }
  }
  return std::nullopt;
}

CrossMetricWatch::CrossMetricWatch(std::vector<std::string> metric_keys,
                                   MultivariateDetector detector)
    : keys_(std::move(metric_keys)), detector_(std::move(detector)) {}

std::vector<Anomaly> CrossMetricWatch::Scan(const telemetry::Collector& collector) {
  std::vector<Anomaly> fired;
  // Align by timestamp: collect (time -> values seen) across the panel.
  std::map<int64_t, std::vector<std::pair<size_t, double>>> by_time;
  for (size_t i = 0; i < keys_.size(); ++i) {
    const sim::TimeSeries* series = collector.Series(keys_[i]);
    if (series == nullptr) {
      continue;
    }
    for (size_t j = series->FirstAfter(last_seen_); j < series->size(); ++j) {
      const sim::TimePoint& p = series->At(j);
      by_time[p.time.nanos()].emplace_back(i, p.value);
    }
  }
  for (const auto& [t, entries] : by_time) {
    if (entries.size() != keys_.size()) {
      continue;  // Incomplete vector (some series missing this tick).
    }
    std::vector<double> values(keys_.size(), 0.0);
    for (const auto& [idx, value] : entries) {
      values[idx] = value;
    }
    const sim::TimeNs at = sim::TimeNs::Nanos(t);
    last_seen_ = std::max(last_seen_, at);
    if (auto anomaly = detector_.Observe(at, values)) {
      std::string joined;
      for (const std::string& key : keys_) {
        joined += (joined.empty() ? "" : "+") + key;
      }
      anomaly->metric = joined;
      anomaly->detail = "multivariate: " + anomaly->detail;
      fired.push_back(*anomaly);
    }
  }
  return fired;
}

}  // namespace mihn::anomaly
