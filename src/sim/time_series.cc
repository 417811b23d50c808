#include "src/sim/time_series.h"

#include <algorithm>

#include "src/core/check.h"

namespace mihn::sim {

TimeSeries::TimeSeries(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {}

void TimeSeries::Append(TimeNs time, double value) {
  MIHN_DCHECK(buffer_.empty() || time >= Latest().time);
  if (buffer_.size() < capacity_) {
    if (buffer_.size() == buffer_.capacity()) {
      // Double, but never hold storage for more than capacity_ points.
      buffer_.reserve(std::min(capacity_, std::max<size_t>(8, 2 * buffer_.size())));
    }
    buffer_.push_back(TimePoint{time, value});
    return;
  }
  buffer_[head_] = TimePoint{time, value};
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  ++dropped_;
}

size_t TimeSeries::FirstAfter(TimeNs t) const {
  size_t i = buffer_.size();
  while (i > 0 && At(i - 1).time > t) {
    --i;
  }
  return i;
}

}  // namespace mihn::sim
