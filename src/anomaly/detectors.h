// Online anomaly detectors (paper §3.1: "a platform for anomaly
// detection ... to analyze monitoring results holistically").
//
// A detector is a small streaming algorithm over one scalar metric: feed
// it (time, value) observations; it emits an Anomaly when it fires. The
// DetectorBank runs many of them over a Collector's series. The EWMA
// detector is the one the benches and the chaos campaigns attach; the
// Detector interface stays open so a bank can hold any streaming detector
// (the tests attach fakes through it).

#ifndef MIHN_SRC_ANOMALY_DETECTORS_H_
#define MIHN_SRC_ANOMALY_DETECTORS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace mihn::anomaly {

struct Anomaly {
  sim::TimeNs at;
  std::string metric;
  double value = 0.0;
  // Detector-specific severity (for the EWMA detector, sigmas). Higher = worse.
  double score = 0.0;
  std::string detail;
};

class Detector {
 public:
  virtual ~Detector() = default;

  // Feeds one observation; returns an anomaly if the detector fires on it.
  virtual std::optional<Anomaly> Observe(sim::TimeNs at, double value) = 0;

  virtual std::string name() const = 0;

  // Forgets all learned state.
  virtual void Reset() = 0;
};

// Exponentially-weighted moving average with a companion EW variance; fires
// when |value - ewma| exceeds k * ew_stddev after a warmup.
class EwmaDetector : public Detector {
 public:
  // |alpha| in (0,1]: weight of the newest sample. |k|: sigma multiplier.
  EwmaDetector(double alpha = 0.1, double k = 4.0, int warmup = 16);
  std::optional<Anomaly> Observe(sim::TimeNs at, double value) override;
  std::string name() const override { return "ewma"; }
  void Reset() override;

  double mean() const { return mean_; }

 private:
  double alpha_;
  double k_;
  int warmup_;
  int seen_ = 0;
  double mean_ = 0.0;
  double var_ = 0.0;
};

}  // namespace mihn::anomaly

#endif  // MIHN_SRC_ANOMALY_DETECTORS_H_
