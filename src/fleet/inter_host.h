// The fleet's inter-host network model: per-host access links into a
// top-of-rack switch and per-rack uplinks into a spine, shared by weighted
// max-min fairness.
//
// The paper scopes itself to the *intra*-host network, but its motivating
// observation — host resources shared without attribution or arbitration —
// repeats one level up: many hosts share a ToR, many ToRs share a spine.
// This model is deliberately coarse (four link classes, single-path
// routing) because its job is to couple the per-host fabrics into one
// fleet, not to reproduce a data-center fabric: a cross-host flow crosses
//
//   src host uplink -> [src rack uplink -> dst rack downlink] -> dst host
//   downlink
//
// (the bracketed rack hops only when the hosts sit in different racks) and
// competes with every other cross-host flow for those capacities under the
// exact same fabric::MaxMinSolver the intra-host fabric uses. A tick that
// only changes demands takes the solver's retained delta path; an added
// flow re-primes it from every slot.

#ifndef MIHN_SRC_FLEET_INTER_HOST_H_
#define MIHN_SRC_FLEET_INTER_HOST_H_

#include <cstdint>
#include <vector>

#include "src/fabric/max_min.h"
#include "src/sim/units.h"

namespace mihn::fleet {

// One direction of one modelled link, for telemetry aggregation.
struct InterHostLinkUse {
  // "host<h>.up", "host<h>.down", "rack<r>.up", "rack<r>.down".
  int host = -1;  // Valid for host links.
  int rack = -1;  // Valid for rack links (and set to RackOf(host) on host links).
  bool up = true;
  double capacity_bps = 0.0;
  double rate_bps = 0.0;
  double utilization = 0.0;  // rate / capacity in [0, 1].
};

// Each direction of a host's access link: 100GbE.
inline constexpr sim::Bandwidth kHostLinkCapacity = sim::Bandwidth::Gbps(100);

class InterHostNetwork {
 public:
  struct Config {
    int hosts = 1;
    int hosts_per_rack = 32;
    // Rack uplinks 4:1 oversubscribed by default at a full rack.
    sim::Bandwidth rack_up = sim::Bandwidth::Gbps(800);
    sim::Bandwidth rack_down = sim::Bandwidth::Gbps(800);
  };

  explicit InterHostNetwork(const Config& config);

  InterHostNetwork(const InterHostNetwork&) = delete;
  InterHostNetwork& operator=(const InterHostNetwork&) = delete;

  int racks() const { return racks_; }
  int RackOf(int host) const { return host / config_.hosts_per_rack; }

  // -- Flows -------------------------------------------------------------------
  // Adds a src -> dst flow (src != dst) and returns its slot. Slots are
  // stable for the network's lifetime; rates are read per slot after
  // Solve(), and a slot added since the last Solve() reads 0.
  int32_t AddFlow(int src_host, int dst_host, sim::Bandwidth demand, double weight = 1.0);
  void SetFlowDemand(int32_t slot, sim::Bandwidth demand);

  // Re-solves the shared allocation. After an add it re-primes the solver;
  // otherwise it takes the retained delta path. Either way the rates are
  // bit-identical to a full solve.
  void Solve();

  // Last solved rate of |slot|.
  sim::Bandwidth FlowRate(int32_t slot) const;

  // -- Telemetry ---------------------------------------------------------------
  // Per-link capacity/rate/utilization as of the last Solve(), in fixed
  // order: host0.up, host0.down, host1.up, ... then rack0.up, rack0.down,
  // rack1.up, ... — deterministic by construction.
  std::vector<InterHostLinkUse> SnapshotLinks() const;

 private:
  int32_t HostUpIndex(int host) const { return 2 * host; }
  int32_t HostDownIndex(int host) const { return 2 * host + 1; }
  int32_t RackUpIndex(int rack) const { return 2 * config_.hosts + 2 * rack; }
  int32_t RackDownIndex(int rack) const { return 2 * config_.hosts + 2 * rack + 1; }

  struct FlowRec {
    double demand = 0.0;
    double weight = 1.0;
    std::vector<int32_t> links;
  };

  Config config_;
  int racks_ = 0;
  std::vector<double> capacity_;   // By link index above.
  std::vector<double> link_rate_;  // Rebuilt from flow rates on Solve().
  std::vector<FlowRec> flows_;     // Slot-indexed; mirrors solver slots.
  fabric::MaxMinSolver solver_;
  bool reprime_ = true;  // An add since the last Solve(), or no Solve() yet.
};

}  // namespace mihn::fleet

#endif  // MIHN_SRC_FLEET_INTER_HOST_H_
