#include "src/sim/time_series.h"

#include <algorithm>

#include "src/core/check.h"

namespace mihn::sim {

TimeSeries::TimeSeries(size_t capacity, size_t width)
    : capacity_(std::max<size_t>(capacity, 1)), width_(width) {}

double* TimeSeries::AppendRow(TimeNs time) {
  MIHN_DCHECK(times_.empty() || time >= Latest().time);
  if (times_.size() < capacity_) {
    if (times_.size() == times_.capacity()) {
      // Double, but never hold storage for more than capacity_ rows.
      const size_t rows = std::min(capacity_, std::max<size_t>(8, 2 * times_.size()));
      times_.reserve(rows);
      values_.reserve(rows * width_);
    }
    times_.push_back(time);
    values_.resize(values_.size() + width_);
    return values_.data() + values_.size() - width_;
  }
  const size_t slot = head_;
  times_[slot] = time;
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  ++dropped_;
  return values_.data() + slot * width_;
}

}  // namespace mihn::sim
