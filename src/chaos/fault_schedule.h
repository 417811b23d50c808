// Fault schedules: scripted, deterministic failure injection.
//
// The paper's §3.1 failure taxonomy — silent hardware degradation, link
// death, flapping connectivity, host misconfiguration — becomes a list of
// timed FaultSpec events. A FaultSchedule is purely declarative (link
// references are symbolic: a LinkKind plus an index into
// Topology::LinksOfKind, so the same schedule replays against any preset);
// Resolve() binds it to a concrete topology, and FaultInjector arms the
// resolved events against a live fabric via Simulation timers. Every
// injection also records a ground-truth window that the Scorer later joins
// against detector signals.

#ifndef MIHN_SRC_CHAOS_FAULT_SCHEDULE_H_
#define MIHN_SRC_CHAOS_FAULT_SCHEDULE_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"
#include "src/topology/topology.h"

namespace mihn::chaos {

enum class FaultKind {
  kDegrade,  // Capacity haircut (capacity_factor in (0,1)).
  kKill,     // Hard link death (capacity factor 0).
  kLatency,  // Silent latency inflation (extra_latency added per hop).
  kFlap,     // Periodic kill/clear with flap_period and flap_duty.
  kDdioOff,  // Host misconfiguration: DDIO disabled via Fabric::SetConfig.
};

std::string_view FaultKindName(FaultKind kind);

// One scripted fault. Symbolic: the target link is LinksOfKind(link_kind)
// [link_index] of whatever topology the schedule is resolved against.
struct FaultSpec {
  FaultKind kind = FaultKind::kKill;
  topology::LinkKind link_kind = topology::LinkKind::kInterSocket;
  int link_index = 0;       // Ignored for kDdioOff.
  sim::TimeNs at;           // Injection time.
  sim::TimeNs clear_at;     // <= at means "never cleared" (lasts to run end).
  double capacity_factor = 0.5;  // kDegrade only.
  sim::TimeNs extra_latency;     // kLatency only.
  sim::TimeNs flap_period;       // kFlap only; must be > 0.
  double flap_duty = 0.5;        // kFlap: fraction of each period spent dead.

  bool Cleared() const { return clear_at > at; }
};

// A FaultSpec bound to a concrete LinkId (kInvalidLink for kDdioOff).
struct ResolvedFault {
  FaultSpec spec;
  topology::LinkId link = topology::kInvalidLink;
};

// The ground truth the Scorer joins signals against: fault |index| of the
// schedule was active over [start, end). |hard| marks faults whose link
// capacity reaches zero at some point (kKill, kFlap).
struct GroundTruth {
  int index = 0;
  FaultKind kind = FaultKind::kKill;
  topology::LinkId link = topology::kInvalidLink;
  sim::TimeNs start;
  sim::TimeNs end;
  bool hard = false;
};

// An ordered list of FaultSpecs with builder helpers. Declarative only;
// nothing happens until the schedule is resolved and armed.
class FaultSchedule {
 public:
  FaultSchedule& Kill(topology::LinkKind kind, int index, sim::TimeNs at,
                      sim::TimeNs clear_at = sim::TimeNs::Zero());
  FaultSchedule& Degrade(topology::LinkKind kind, int index, double capacity_factor,
                         sim::TimeNs at, sim::TimeNs clear_at = sim::TimeNs::Zero());
  FaultSchedule& InflateLatency(topology::LinkKind kind, int index,
                                sim::TimeNs extra_latency, sim::TimeNs at,
                                sim::TimeNs clear_at = sim::TimeNs::Zero());
  FaultSchedule& Flap(topology::LinkKind kind, int index, sim::TimeNs flap_period,
                      double flap_duty, sim::TimeNs at,
                      sim::TimeNs clear_at = sim::TimeNs::Zero());
  FaultSchedule& DisableDdio(sim::TimeNs at, sim::TimeNs clear_at = sim::TimeNs::Zero());
  FaultSchedule& Add(FaultSpec spec);

  const std::vector<FaultSpec>& specs() const { return specs_; }

  // Binds every spec to a LinkId of |topo|. On a dangling reference (index
  // out of range for its kind), or on two faults whose windows overlap on
  // one link or on the DDIO setting, returns an empty vector and sets
  // |error|. Windows that only touch (one clears as the next starts) pass.
  std::vector<ResolvedFault> Resolve(const topology::Topology& topo,
                                     std::string* error) const;

 private:
  std::vector<FaultSpec> specs_;
};

// Arms a resolved schedule against a fabric: injection, clearing, and flap
// toggling all run as simulation events, so a campaign run is a pure
// function of (topology, workload, schedule, seed). Destroying the injector
// cancels its pending events; it must be destroyed before the fabric's
// clock.
class FaultInjector {
 public:
  // |run_duration| caps the ground-truth window of never-cleared faults.
  // A flap's duty must lie in [0, 1].
  FaultInjector(fabric::Fabric& fabric, std::vector<ResolvedFault> faults,
                sim::TimeNs run_duration);
  ~FaultInjector();

  // Pending events capture this injector.
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Schedules every fault's events. Call once, before running.
  void Arm();

  // Ground-truth windows, in schedule order (valid after construction).
  const std::vector<GroundTruth>& ground_truth() const { return ground_truth_; }

  // Total inject + clear operations applied to the fabric so far.
  uint64_t operations() const { return operations_; }

 private:
  void InjectAt(const ResolvedFault& fault);
  void ClearAt(const ResolvedFault& fault);
  void SetDdio(bool enabled);
  // One flap cycle: kill now, revive after duty * period, recurse until the
  // fault's clear time (or forever if never cleared).
  void FlapCycle(size_t fault_index);

  // The live events of one fault. |start| is the inject (or DDIO-off)
  // event, or a flap's next cycle; |revive| is a flap cycle's pending
  // clear, due no later than the next cycle; |clear| is the final clear
  // (or DDIO restore). A later cycle overwrites handles whose events fired.
  struct FaultEvents {
    sim::EventHandle start;
    sim::EventHandle revive;
    sim::EventHandle clear;
  };

  fabric::Fabric& fabric_;
  std::vector<ResolvedFault> faults_;
  sim::TimeNs run_duration_;
  std::vector<GroundTruth> ground_truth_;
  std::vector<FaultEvents> events_;  // One per fault.
  uint64_t operations_ = 0;
  bool armed_ = false;
  bool ddio_was_enabled_ = true;  // For restoring on kDdioOff clear.
};

}  // namespace mihn::chaos

#endif  // MIHN_SRC_CHAOS_FAULT_SCHEDULE_H_
