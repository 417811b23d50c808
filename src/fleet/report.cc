#include "src/fleet/report.h"

#include <cstdio>
#include <sstream>

namespace mihn::fleet {
namespace {

// Fixed number format: deterministic, locale-independent (obs/export.cc).
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return std::string(buf);
}

std::string Int(int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return std::string(buf);
}

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t FnvFold(uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::string EncodeSample(const FleetSample& sample) {
  std::ostringstream out;
  out << "t=" << Int(sample.at.nanos()) << " bytes=" << Num(sample.total_bytes)
      << " rate=" << Num(sample.total_rate_bps) << " flows=" << Int(sample.total_active_flows)
      << " maxutil=" << Num(sample.max_host_utilization)
      << " xrate=" << Num(sample.inter_rate_bps)
      << " xmaxutil=" << Num(sample.inter_max_utilization)
      << " xflows=" << Int(sample.cross_host_flows);
  for (const HostSample& h : sample.hosts) {
    out << " |h" << Int(h.host) << " b=" << Num(h.bytes_total) << " r=" << Num(h.rate_total_bps)
        << " mu=" << Num(h.max_utilization) << " au=" << Num(h.mean_utilization)
        << " f=" << Int(h.active_flows) << " c=" << Int(h.congested_links);
  }
  return out.str();
}

uint64_t DigestSamples(const std::vector<FleetSample>& samples) {
  uint64_t h = kFnvOffset;
  for (const FleetSample& s : samples) {
    h = FnvFold(h, EncodeSample(s));
    h = FnvFold(h, "\n");
  }
  return h;
}

}  // namespace mihn::fleet
