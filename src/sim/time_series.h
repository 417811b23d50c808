// Bounded time series: a ring of timestamped rows, grown on demand.
//
// A row is |width| values under one timestamp. The telemetry sampler
// appends one row per sampling tick: a width-1 series holds one metric,
// and the collector's frame holds every dense metric of a sample in one
// row. The anomaly detectors read only the rows that are new since their
// last scan (FirstAfter, then At). A bounded ring keeps memory flat for
// arbitrarily long runs — the paper's §3.1 Q2 storage dilemma is modelled
// explicitly: capacity is a knob, and overflow drops the oldest row
// (recorded in dropped()). Capacity is a bound, not an allocation: the ring
// grows as rows arrive and wraps once it holds |capacity| rows, so a
// series costs the rows it retains.

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
  // |capacity| is the maximum number of retained rows (>= 1), |width| the
  // number of values in a row.
  explicit TimeSeries(size_t capacity = 4096, size_t width = 1);

  // Appends a row at |time| and returns its width() values, which the
  // caller fills; they stay valid until the next append. Rows must arrive
  // in non-decreasing time order (FirstAfter relies on it; invariant builds
  // check it).
  double* AppendRow(TimeNs time);
  // A width-1 series' append.
  void Append(TimeNs time, double value) { AppendRow(time)[0] = value; }

  // Retained rows.
  size_t size() const { return times_.size(); }
  size_t width() const { return width_; }

  // Number of rows evicted due to capacity overflow.
  uint64_t dropped() const { return dropped_; }

  // Column |column| of the i-th retained row, oldest first.
  // Preconditions: i < size(), column < width().
  TimePoint At(size_t i, size_t column = 0) const {
    const size_t slot = Slot(i);
    return TimePoint{times_[slot], values_[slot * width_ + column]};
  }

  TimePoint Latest() const { return At(size() - 1); }

  // Index of the oldest retained row with time > |t|, or size() if there
  // is none. Walks back from the newest row, so a reader that remembers
  // the last time it saw pays only for the rows that are new since.
  size_t FirstAfter(TimeNs t) const {
    size_t i = size();
    while (i > 0 && times_[Slot(i - 1)] > t) {
      --i;
    }
    return i;
  }

 private:
  // Storage slot of the i-th retained row.
  size_t Slot(size_t i) const {
    const size_t slot = head_ + i;
    return slot < times_.size() ? slot : slot - times_.size();
  }

  size_t capacity_;
  size_t width_;
  // Retained rows: a timestamp each, and width_ values each in values_,
  // row-major in the same slot order. Both grow to capacity_ rows, then
  // stay full and wrap.
  std::vector<TimeNs> times_;
  std::vector<double> values_;
  size_t head_ = 0;  // Slot of the oldest row (0 until the ring wraps).
  uint64_t dropped_ = 0;
};

}  // namespace mihn::sim

#endif  // MIHN_SRC_SIM_TIME_SERIES_H_
