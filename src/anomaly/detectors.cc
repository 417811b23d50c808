#include "src/anomaly/detectors.h"

#include <cmath>

namespace mihn::anomaly {

EwmaDetector::EwmaDetector(double alpha, double k, int warmup)
    : alpha_(alpha), k_(k), warmup_(warmup) {}

void EwmaDetector::Reset() {
  seen_ = 0;
  mean_ = 0.0;
  var_ = 0.0;
}

std::optional<Anomaly> EwmaDetector::Observe(sim::TimeNs at, double value) {
  if (seen_ == 0) {
    mean_ = value;
    var_ = 0.0;
    ++seen_;
    return std::nullopt;
  }
  double sigma = std::sqrt(var_);
  if (sigma <= 0.0) {
    // A perfectly flat baseline (common for idle-link counters): fall back
    // to a 1%-of-mean scale so a real change can still fire.
    sigma = std::abs(mean_) > 0.0 ? std::abs(mean_) * 0.01 : 1e-9;
  }
  const double deviation = std::abs(value - mean_);
  std::optional<Anomaly> fired;
  if (seen_ >= warmup_ && deviation > k_ * sigma) {
    Anomaly a;
    a.at = at;
    a.value = value;
    a.score = deviation / sigma;
    a.detail = "ewma deviation";
    fired = a;
    // Do not absorb the anomalous sample into the baseline; a sustained
    // shift keeps firing until the operator intervenes or Reset() is
    // called.
    return fired;
  }
  const double diff = value - mean_;
  mean_ += alpha_ * diff;
  var_ = (1.0 - alpha_) * (var_ + alpha_ * diff * diff);
  ++seen_;
  return fired;
}

}  // namespace mihn::anomaly
