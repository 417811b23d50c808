#include "src/fabric/config.h"

#include <algorithm>

namespace mihn::fabric {

double LatencyInflation(double rho) {
  rho = std::clamp(rho, 0.0, 0.999999);
  const double inflation = 1.0 + kCongestionAlpha * rho / (1.0 - rho);
  return std::min(inflation, kMaxLatencyInflation);
}

}  // namespace mihn::fabric
