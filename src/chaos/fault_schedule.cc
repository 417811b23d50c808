#include "src/chaos/fault_schedule.h"

#include <cstdio>
#include <utility>

#include "src/core/check.h"
#include "src/obs/tracer.h"

namespace mihn::chaos {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDegrade:
      return "degrade";
    case FaultKind::kKill:
      return "kill";
    case FaultKind::kLatency:
      return "latency";
    case FaultKind::kFlap:
      return "flap";
    case FaultKind::kDdioOff:
      return "ddio_off";
  }
  return "unknown";
}

FaultSchedule& FaultSchedule::Kill(topology::LinkKind kind, int index, sim::TimeNs at,
                                   sim::TimeNs clear_at) {
  FaultSpec spec;
  spec.kind = FaultKind::kKill;
  spec.link_kind = kind;
  spec.link_index = index;
  spec.at = at;
  spec.clear_at = clear_at;
  return Add(spec);
}

FaultSchedule& FaultSchedule::Degrade(topology::LinkKind kind, int index,
                                      double capacity_factor, sim::TimeNs at,
                                      sim::TimeNs clear_at) {
  FaultSpec spec;
  spec.kind = FaultKind::kDegrade;
  spec.link_kind = kind;
  spec.link_index = index;
  spec.capacity_factor = capacity_factor;
  spec.at = at;
  spec.clear_at = clear_at;
  return Add(spec);
}

FaultSchedule& FaultSchedule::InflateLatency(topology::LinkKind kind, int index,
                                             sim::TimeNs extra_latency, sim::TimeNs at,
                                             sim::TimeNs clear_at) {
  FaultSpec spec;
  spec.kind = FaultKind::kLatency;
  spec.link_kind = kind;
  spec.link_index = index;
  spec.extra_latency = extra_latency;
  spec.at = at;
  spec.clear_at = clear_at;
  return Add(spec);
}

FaultSchedule& FaultSchedule::Flap(topology::LinkKind kind, int index,
                                   sim::TimeNs flap_period, double flap_duty,
                                   sim::TimeNs at, sim::TimeNs clear_at) {
  FaultSpec spec;
  spec.kind = FaultKind::kFlap;
  spec.link_kind = kind;
  spec.link_index = index;
  spec.flap_period = flap_period;
  spec.flap_duty = flap_duty;
  spec.at = at;
  spec.clear_at = clear_at;
  return Add(spec);
}

FaultSchedule& FaultSchedule::DisableDdio(sim::TimeNs at, sim::TimeNs clear_at) {
  FaultSpec spec;
  spec.kind = FaultKind::kDdioOff;
  spec.at = at;
  spec.clear_at = clear_at;
  return Add(spec);
}

FaultSchedule& FaultSchedule::Add(FaultSpec spec) {
  specs_.push_back(spec);
  return *this;
}

std::vector<ResolvedFault> FaultSchedule::Resolve(const topology::Topology& topo,
                                                  std::string* error) const {
  std::vector<ResolvedFault> resolved;
  resolved.reserve(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    const FaultSpec& spec = specs_[i];
    ResolvedFault fault;
    fault.spec = spec;
    if (spec.kind != FaultKind::kDdioOff) {
      const std::vector<topology::LinkId> links = topo.LinksOfKind(spec.link_kind);
      if (spec.link_index < 0 || static_cast<size_t>(spec.link_index) >= links.size()) {
        if (error != nullptr) {
          char buf[128];
          std::snprintf(buf, sizeof(buf),
                        "fault %zu: no %s link with index %d (topology has %zu)", i,
                        std::string(topology::LinkKindName(spec.link_kind)).c_str(),
                        spec.link_index, links.size());
          *error = buf;
        }
        return {};
      }
      fault.link = links[static_cast<size_t>(spec.link_index)];
    }
    resolved.push_back(fault);
  }
  return resolved;
}

FaultInjector::FaultInjector(fabric::Fabric& fabric, std::vector<ResolvedFault> faults,
                             sim::TimeNs run_duration)
    : fabric_(fabric),
      faults_(std::move(faults)),
      run_duration_(run_duration),
      events_(faults_.size()) {
  ground_truth_.reserve(faults_.size());
  for (size_t i = 0; i < faults_.size(); ++i) {
    const FaultSpec& spec = faults_[i].spec;
    // A longer duty would leave a revive pending past the next cycle.
    MIHN_CHECK(spec.kind != FaultKind::kFlap ||
               (spec.flap_duty >= 0.0 && spec.flap_duty <= 1.0));
    GroundTruth truth;
    truth.index = static_cast<int>(i);
    truth.kind = spec.kind;
    truth.link = faults_[i].link;
    truth.start = spec.at;
    truth.end = spec.Cleared() ? spec.clear_at : run_duration_;
    truth.hard = spec.kind == FaultKind::kKill || spec.kind == FaultKind::kFlap;
    ground_truth_.push_back(truth);
  }
}

FaultInjector::~FaultInjector() {
  for (FaultEvents& events : events_) {
    events.start.Cancel();
    events.revive.Cancel();
    events.clear.Cancel();
  }
}

void FaultInjector::Arm() {
  if (armed_) {
    return;
  }
  armed_ = true;
  sim::Simulation& sim = fabric_.simulation();
  for (size_t i = 0; i < faults_.size(); ++i) {
    const ResolvedFault& fault = faults_[i];
    FaultEvents& events = events_[i];
    switch (fault.spec.kind) {
      case FaultKind::kKill:
      case FaultKind::kDegrade:
      case FaultKind::kLatency:
        events.start = sim.ScheduleAt(
            fault.spec.at, [this, i] { InjectAt(faults_[i]); }, "chaos.inject");
        if (fault.spec.Cleared()) {
          events.clear = sim.ScheduleAt(
              fault.spec.clear_at, [this, i] { ClearAt(faults_[i]); }, "chaos.clear");
        }
        break;
      case FaultKind::kFlap:
        events.start = sim.ScheduleAt(fault.spec.at, [this, i] { FlapCycle(i); }, "chaos.flap");
        // The cycle only schedules toggles strictly before the stop time,
        // so one terminal clear leaves the link healthy afterwards.
        if (fault.spec.Cleared()) {
          events.clear = sim.ScheduleAt(
              fault.spec.clear_at, [this, i] { ClearAt(faults_[i]); }, "chaos.clear");
        }
        break;
      case FaultKind::kDdioOff:
        events.start = sim.ScheduleAt(
            fault.spec.at,
            [this] {
              fabric::FabricConfig config = fabric_.config();
              ddio_was_enabled_ = config.ddio_enabled;
              config.ddio_enabled = false;
              fabric_.SetConfig(config);
              ++operations_;
            },
            "chaos.ddio_off");
        if (fault.spec.Cleared()) {
          events.clear = sim.ScheduleAt(
              fault.spec.clear_at,
              [this] {
                fabric::FabricConfig config = fabric_.config();
                config.ddio_enabled = ddio_was_enabled_;
                fabric_.SetConfig(config);
                ++operations_;
              },
              "chaos.ddio_restore");
        }
        break;
    }
  }
}

void FaultInjector::InjectAt(const ResolvedFault& fault) {
  fabric::LinkFault injected;
  switch (fault.spec.kind) {
    case FaultKind::kKill:
    case FaultKind::kFlap:
      injected.capacity_factor = 0.0;
      break;
    case FaultKind::kDegrade:
      injected.capacity_factor = fault.spec.capacity_factor;
      break;
    case FaultKind::kLatency:
      injected.extra_latency = fault.spec.extra_latency;
      break;
    case FaultKind::kDdioOff:
      return;  // Handled via SetConfig, never through the fault table.
  }
  MIHN_TRACE_SPAN(span, fabric_.tracer(), "chaos", "chaos.inject");
  span.Arg("link", static_cast<double>(fault.link));
  span.Arg("capacity_factor", injected.capacity_factor);
  fabric_.InjectLinkFault(fault.link, injected);
  ++operations_;
  MIHN_TRACE_COUNTER(fabric_.tracer(), "chaos", "chaos.injector_ops", operations_);
}

void FaultInjector::ClearAt(const ResolvedFault& fault) {
  MIHN_TRACE_SPAN(span, fabric_.tracer(), "chaos", "chaos.clear");
  span.Arg("link", static_cast<double>(fault.link));
  fabric_.ClearLinkFault(fault.link);
  ++operations_;
  MIHN_TRACE_COUNTER(fabric_.tracer(), "chaos", "chaos.injector_ops", operations_);
}

void FaultInjector::FlapCycle(size_t fault_index) {
  const ResolvedFault& fault = faults_[fault_index];
  sim::Simulation& sim = fabric_.simulation();
  const sim::TimeNs now = sim.Now();
  const sim::TimeNs stop =
      fault.spec.Cleared() ? fault.spec.clear_at : run_duration_;
  if (now >= stop) {
    return;
  }
  InjectAt(fault);
  const double period_ns = static_cast<double>(fault.spec.flap_period.nanos());
  const sim::TimeNs revive =
      now + sim::TimeNs::Nanos(static_cast<int64_t>(period_ns * fault.spec.flap_duty));
  FaultEvents& events = events_[fault_index];
  if (revive < stop) {
    events.revive = sim.ScheduleAt(
        revive, [this, fault_index] { ClearAt(faults_[fault_index]); }, "chaos.flap.revive");
  }
  const sim::TimeNs next = now + fault.spec.flap_period;
  if (next < stop) {
    events.start = sim.ScheduleAt(
        next, [this, fault_index] { FlapCycle(fault_index); }, "chaos.flap");
  }
}

}  // namespace mihn::chaos
