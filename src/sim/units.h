// The bandwidth unit.
//
// The paper's Figure 1 mixes GB/s (memory and inter-socket fabrics) and
// Gbps (PCIe and Ethernet); a strong Bandwidth type avoids the classic
// factor-of-8 bug when the two meet.

#ifndef MIHN_SRC_SIM_UNITS_H_
#define MIHN_SRC_SIM_UNITS_H_

#include <compare>
#include <cstdint>
#include <string>

#include "src/core/check.h"

namespace mihn::sim {

// A data rate. Internally bytes/second (double; fluid model rates are
// fractional after max-min sharing).
class Bandwidth {
 public:
  constexpr Bandwidth() = default;

  // A rate is a magnitude: the named factories reject negative and NaN
  // inputs under invariant-check builds (v >= 0.0 is false for NaN).
  static constexpr Bandwidth BytesPerSec(double v) {
    MIHN_DCHECK(v >= 0.0);
    return Bandwidth(v);
  }
  // Network convention: 1 Gbps = 1e9 bits/s.
  static constexpr Bandwidth Gbps(double v) {
    MIHN_DCHECK(v >= 0.0);
    return Bandwidth(v * 1e9 / 8.0);
  }
  static constexpr Bandwidth Mbps(double v) {
    MIHN_DCHECK(v >= 0.0);
    return Bandwidth(v * 1e6 / 8.0);
  }
  // Memory convention: 1 GB/s = 1e9 bytes/s.
  static constexpr Bandwidth GBps(double v) {
    MIHN_DCHECK(v >= 0.0);
    return Bandwidth(v * 1e9);
  }
  static constexpr Bandwidth Zero() { return Bandwidth(0); }

  constexpr double bytes_per_sec() const { return bps_; }
  constexpr double ToGbps() const { return bps_ * 8.0 / 1e9; }
  constexpr double ToGBps() const { return bps_ / 1e9; }

  constexpr bool IsZero() const { return bps_ <= 0.0; }

  Bandwidth& operator+=(Bandwidth o) {
    bps_ += o.bps_;
    return *this;
  }

  constexpr auto operator<=>(const Bandwidth&) const = default;

  // Auto-unit rendering, e.g. "25.0GB/s" or "200.0Gbps".
  std::string ToString() const;

 private:
  explicit constexpr Bandwidth(double bps) : bps_(bps) {}

  double bps_ = 0.0;
};

}  // namespace mihn::sim

#endif  // MIHN_SRC_SIM_UNITS_H_
