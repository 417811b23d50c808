// Bounded time series: a ring of timestamped samples, grown on demand.
//
// The telemetry sampler appends one point per sampling tick per metric; the
// anomaly detectors read only the points that are new since their last
// scan (FirstAfter, then At). A bounded ring keeps memory flat for
// arbitrarily long runs — the paper's §3.1 Q2 storage dilemma is modelled
// explicitly: capacity is a knob, and overflow drops the oldest data
// (recorded in dropped()). Capacity is a bound, not an allocation: the ring
// grows as points arrive and wraps once it holds |capacity| points, so a
// series costs the points it retains.

#ifndef MIHN_SRC_SIM_TIME_SERIES_H_
#define MIHN_SRC_SIM_TIME_SERIES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace mihn::sim {

struct TimePoint {
  TimeNs time;
  double value;
};

class TimeSeries {
 public:
  // |capacity| is the maximum number of retained points (>= 1).
  explicit TimeSeries(size_t capacity = 4096);

  // Points must arrive in non-decreasing time order (FirstAfter relies on
  // it; invariant builds check it).
  void Append(TimeNs time, double value);

  size_t size() const { return buffer_.size(); }
  bool empty() const { return buffer_.empty(); }
  size_t capacity() const { return capacity_; }

  // Number of points evicted due to capacity overflow.
  uint64_t dropped() const { return dropped_; }

  // i-th retained point, oldest first. Precondition: i < size().
  const TimePoint& At(size_t i) const {
    const size_t index = head_ + i;
    return buffer_[index < buffer_.size() ? index : index - buffer_.size()];
  }

  const TimePoint& Latest() const { return At(size() - 1); }
  const TimePoint& Oldest() const { return At(0); }

  // Index of the oldest retained point with time > |t|, or size() if there
  // is none. Walks back from the newest point, so a reader that remembers
  // the last time it saw pays only for the points that are new since.
  size_t FirstAfter(TimeNs t) const;

 private:
  size_t capacity_;
  // Retained points. Grows to capacity_, then stays full and wraps.
  std::vector<TimePoint> buffer_;
  size_t head_ = 0;  // Index of the oldest element (0 until the ring wraps).
  uint64_t dropped_ = 0;
};

}  // namespace mihn::sim

#endif  // MIHN_SRC_SIM_TIME_SERIES_H_
