// Simulated-time primitives for the mihn discrete-event engine.
//
// All simulation time is expressed as TimeNs, a strongly-typed count of
// nanoseconds since simulation start. Nanosecond resolution matches the
// domain: intra-host fabric hops are tens to hundreds of nanoseconds
// (Figure 1 of the paper), so a 64-bit nanosecond clock gives ~292 years
// of range with no rounding on the quantities we care about.

#ifndef MIHN_SRC_SIM_TIME_H_
#define MIHN_SRC_SIM_TIME_H_

#include <compare>
#include <cstdint>
#include <limits>
#include <string>

namespace mihn::sim {

// A point in (or duration of) simulated time, in integer nanoseconds.
//
// TimeNs is used for both instants and durations; the arithmetic provided
// (instant + duration, instant - instant, and Scale() for a duration)
// covers both uses without a second type. Construct via the named factories:
//
//   TimeNs t = TimeNs::Micros(3) + TimeNs::Nanos(250);
class TimeNs {
 public:
  constexpr TimeNs() = default;

  // Named constructors.
  static constexpr TimeNs Nanos(int64_t n) { return TimeNs(n); }
  static constexpr TimeNs Micros(int64_t n) { return TimeNs(n * 1000); }
  static constexpr TimeNs Millis(int64_t n) { return TimeNs(n * 1000 * 1000); }
  static constexpr TimeNs Seconds(int64_t n) { return TimeNs(n * 1000 * 1000 * 1000); }
  // Fractional-second factory for rate-derived durations (e.g. bytes / bandwidth).
  static constexpr TimeNs FromSecondsF(double s) {
    return TimeNs(static_cast<int64_t>(s * 1e9));
  }
  static constexpr TimeNs Zero() { return TimeNs(0); }
  static constexpr TimeNs Max() { return TimeNs(std::numeric_limits<int64_t>::max()); }

  // Accessors.
  constexpr int64_t nanos() const { return ns_; }
  constexpr double ToMicrosF() const { return static_cast<double>(ns_) / 1e3; }
  constexpr double ToMillisF() const { return static_cast<double>(ns_) / 1e6; }
  constexpr double ToSecondsF() const { return static_cast<double>(ns_) / 1e9; }

  // Arithmetic.
  constexpr TimeNs operator+(TimeNs other) const { return TimeNs(ns_ + other.ns_); }
  constexpr TimeNs operator-(TimeNs other) const { return TimeNs(ns_ - other.ns_); }
  TimeNs& operator+=(TimeNs other) {
    ns_ += other.ns_;
    return *this;
  }

  constexpr auto operator<=>(const TimeNs&) const = default;

  // Human-readable rendering with an auto-selected unit, e.g. "3.25us".
  std::string ToString() const;

 private:
  explicit constexpr TimeNs(int64_t ns) : ns_(ns) {}

  int64_t ns_ = 0;
};

// Scales a duration by a floating-point factor, rounding to nanoseconds.
constexpr TimeNs Scale(TimeNs t, double factor) {
  return TimeNs::Nanos(static_cast<int64_t>(static_cast<double>(t.nanos()) * factor));
}

}  // namespace mihn::sim

#endif  // MIHN_SRC_SIM_TIME_H_
