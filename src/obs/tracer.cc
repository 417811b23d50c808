#include "src/obs/tracer.h"

// The ONLY translation unit in the repo allowed to read a real clock, and
// only on the opt-in profiling path (TraceConfig::profiling). Everything
// else must use sim::TimeNs. See DESIGN.md §7 for how these D2
// suppressions are scoped.
// mihn-check: nondet-ok(profiling-mode wall clock, opt-in, confined to the obs boundary)
#include <chrono>

namespace mihn::obs {
namespace {

int64_t WallNowNs() {
  // mihn-check: nondet-ok(profiling-mode wall clock; callers gate on config_.profiling)
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             // mihn-check: nondet-ok(profiling-mode wall clock; callers gate on config_.profiling)
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer* Tracer::Disabled() {
  // mihn-check: mutable-ok(inert sentinel: enabled_ is false forever, so every method is a no-op and the instance is effectively immutable)
  static Tracer inert;
  return &inert;
}

Tracer::Tracer(TraceConfig config, const sim::VirtualClock* clock)
    : config_(config), enabled_(config.enabled), clock_(clock) {
  if (enabled_) {
    // The one allocation of the tracer's lifetime. Zero-capacity rings
    // would make every record a drop; clamp to at least one slot.
    span_ring_.resize(config_.span_capacity > 0 ? config_.span_capacity : 1);
    counter_ring_.resize(config_.counter_capacity > 0 ? config_.counter_capacity : 1);
  }
}

void Tracer::StampBegin(Span& span) const {
  if (!enabled_) {
    return;
  }
  span.start = VirtualNow();
  if (config_.profiling) {
    span.wall_start_ns = WallNowNs();
  }
}

void Tracer::EndAndRecord(Span& span) {
  if (!enabled_) {
    return;
  }
  span.end = VirtualNow();
  if (config_.profiling) {
    span.wall_end_ns = WallNowNs();
  }
  if (spans_recorded_ >= span_ring_.size()) {
    ++dropped_spans_;  // The slot being overwritten held the oldest span.
  }
  span_ring_[span_next_] = span;
  span_next_ = (span_next_ + 1) % span_ring_.size();
  ++spans_recorded_;
}

void Tracer::RecordCounter(const char* category, const char* name, double value) {
  if (!enabled_) {
    return;
  }
  CounterSample sample;
  sample.name = name;
  sample.category = category;
  sample.at = VirtualNow();
  if (config_.profiling) {
    sample.wall_ns = WallNowNs();
  }
  sample.value = value;
  if (counters_recorded_ >= counter_ring_.size()) {
    ++dropped_counters_;
  }
  counter_ring_[counter_next_] = sample;
  counter_next_ = (counter_next_ + 1) % counter_ring_.size();
  ++counters_recorded_;
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  if (!enabled_ || spans_recorded_ == 0) {
    return out;
  }
  const size_t retained =
      spans_recorded_ < span_ring_.size() ? static_cast<size_t>(spans_recorded_)
                                          : span_ring_.size();
  out.reserve(retained);
  // Oldest first: the slot after the write cursor when full, slot 0 otherwise.
  const size_t first = spans_recorded_ < span_ring_.size() ? 0 : span_next_;
  for (size_t i = 0; i < retained; ++i) {
    out.push_back(span_ring_[(first + i) % span_ring_.size()]);
  }
  return out;
}

std::vector<CounterSample> Tracer::counters() const {
  std::vector<CounterSample> out;
  if (!enabled_ || counters_recorded_ == 0) {
    return out;
  }
  const size_t retained = counters_recorded_ < counter_ring_.size()
                              ? static_cast<size_t>(counters_recorded_)
                              : counter_ring_.size();
  out.reserve(retained);
  const size_t first = counters_recorded_ < counter_ring_.size() ? 0 : counter_next_;
  for (size_t i = 0; i < retained; ++i) {
    out.push_back(counter_ring_[(first + i) % counter_ring_.size()]);
  }
  return out;
}

void Tracer::Clear() {
  span_next_ = 0;
  counter_next_ = 0;
  spans_recorded_ = 0;
  counters_recorded_ = 0;
  dropped_spans_ = 0;
  dropped_counters_ = 0;
}

}  // namespace mihn::obs
