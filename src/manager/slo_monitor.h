// SLO compliance monitor: closes the loop between the manager's promises
// and what the fabric actually delivered.
//
// Paper §3.2's goal is "predictable application performance"; a promise is
// only worth what you can verify. Every period, the monitor checks each
// allocation with attached flows:
//
//   * bandwidth — if the tenant is offering enough load (sum of its flows'
//     demands reaches the promise), delivered throughput must reach the
//     promise (within tolerance). An idle tenant is never flagged.
//   * latency — if the target carries a max_latency bound, the current
//     (congestion-inflated) path latency must respect it.
//
// Violations are timestamped and attributed; Compliance() summarizes per
// allocation. This is the operator's "are my guarantees real?" dashboard.

#ifndef MIHN_SRC_MANAGER_SLO_MONITOR_H_
#define MIHN_SRC_MANAGER_SLO_MONITOR_H_

#include <cstddef>
#include <deque>
#include <map>

#include "src/manager/manager.h"

namespace mihn::manager {

class SloMonitor {
 public:
  struct Config {
    sim::TimeNs period = sim::TimeNs::Millis(1);
    // Delivered bandwidth must reach promise * tolerance.
    double bandwidth_tolerance = 0.95;
    // Retained violation records; the oldest are evicted beyond this and
    // counted in violations_dropped() — mirrors sim::TimeSeries eviction
    // accounting so a violating allocation can't grow memory without bound
    // over a long campaign.
    size_t max_violations = 8192;
  };

  struct Violation {
    enum class Kind { kBandwidth, kLatency };
    sim::TimeNs at;
    AllocationId allocation = kInvalidAllocation;
    fabric::TenantId tenant = fabric::kNoTenant;
    Kind kind = Kind::kBandwidth;
    double expected = 0.0;  // Bytes/s or ns, per kind.
    double actual = 0.0;
  };

  SloMonitor(Manager& manager, fabric::Fabric& fabric)
      : SloMonitor(manager, fabric, Config{}) {}
  SloMonitor(Manager& manager, fabric::Fabric& fabric, Config config);
  // Cancels the check timer. The monitor must be destroyed before its
  // fabric's clock.
  ~SloMonitor();

  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  // Begins periodic checking. Idempotent.
  void Start();

  // One check pass right now (also what the timer runs).
  void CheckOnce();

  // Retained violations, oldest first (bounded by Config::max_violations).
  const std::deque<Violation>& violations() const { return violations_; }

  // Violations evicted from the front of violations() to honor the bound.
  uint64_t violations_dropped() const { return violations_dropped_; }

  // Total ever observed: violations().size() + violations_dropped().
  uint64_t violations_total() const {
    return violations_dropped_ + violations_.size();
  }

  // Fraction of checks an allocation passed (1.0 if never checked).
  double Compliance(AllocationId id) const;

  uint64_t checks_performed() const { return checks_; }

 private:
  struct Tally {
    uint64_t checked = 0;
    uint64_t passed = 0;
  };

  // Appends |v|, evicting the oldest record past Config::max_violations.
  void RecordViolation(const Violation& v);

  Manager& manager_;
  fabric::Fabric& fabric_;
  Config config_;
  std::deque<Violation> violations_;
  uint64_t violations_dropped_ = 0;
  std::map<AllocationId, Tally> tallies_;
  sim::EventHandle timer_;
  bool running_ = false;
  uint64_t checks_ = 0;
};

}  // namespace mihn::manager

#endif  // MIHN_SRC_MANAGER_SLO_MONITOR_H_
