#include "src/chaos/fault_schedule.h"

#include <string>
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

namespace {

// A spec of |kind| over [at, clear_at), on link |index| of |link_kind|.
FaultSpec MakeSpec(FaultKind kind, topology::LinkKind link_kind, int index, sim::TimeNs at,
                   sim::TimeNs clear_at) {
  FaultSpec spec;
  spec.kind = kind;
  spec.link_kind = link_kind;
  spec.link_index = index;
  spec.at = at;
  spec.clear_at = clear_at;
  return spec;
}

// Two windows overlap unless one clears no later than the other starts; a
// fault that never clears is open-ended.
bool Overlap(const FaultSpec& a, const FaultSpec& b) {
  return (!a.Cleared() || b.at < a.clear_at) && (!b.Cleared() || a.at < b.clear_at);
}

}  // namespace

FaultSchedule& FaultSchedule::Kill(topology::LinkKind kind, int index, sim::TimeNs at,
                                   sim::TimeNs clear_at) {
  return Add(MakeSpec(FaultKind::kKill, kind, index, at, clear_at));
}

FaultSchedule& FaultSchedule::Degrade(topology::LinkKind kind, int index,
                                      double capacity_factor, sim::TimeNs at,
                                      sim::TimeNs clear_at) {
  FaultSpec spec = MakeSpec(FaultKind::kDegrade, kind, index, at, clear_at);
  spec.capacity_factor = capacity_factor;
  return Add(spec);
}

FaultSchedule& FaultSchedule::InflateLatency(topology::LinkKind kind, int index,
                                             sim::TimeNs extra_latency, sim::TimeNs at,
                                             sim::TimeNs clear_at) {
  FaultSpec spec = MakeSpec(FaultKind::kLatency, kind, index, at, clear_at);
  spec.extra_latency = extra_latency;
  return Add(spec);
}

FaultSchedule& FaultSchedule::Flap(topology::LinkKind kind, int index,
                                   sim::TimeNs flap_period, double flap_duty,
                                   sim::TimeNs at, sim::TimeNs clear_at) {
  FaultSpec spec = MakeSpec(FaultKind::kFlap, kind, index, at, clear_at);
  spec.flap_period = flap_period;
  spec.flap_duty = flap_duty;
  return Add(spec);
}

FaultSchedule& FaultSchedule::DisableDdio(sim::TimeNs at, sim::TimeNs clear_at) {
  return Add(MakeSpec(FaultKind::kDdioOff, topology::LinkKind::kInterSocket, 0, at, clear_at));
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
    const std::string target = spec.kind == FaultKind::kDdioOff
                                   ? "the DDIO setting"
                                   : std::string(topology::LinkKindName(spec.link_kind)) +
                                         " link " + std::to_string(spec.link_index);
    std::string problem;
    ResolvedFault fault{spec};
    if (spec.kind != FaultKind::kDdioOff) {
      const std::vector<topology::LinkId> links = topo.LinksOfKind(spec.link_kind);
      if (spec.link_index < 0 || static_cast<size_t>(spec.link_index) >= links.size()) {
        problem = "no " + target + " (topology has " + std::to_string(links.size()) + ")";
      } else {
        fault.link = links[static_cast<size_t>(spec.link_index)];
      }
    }
    // The fabric holds one fault per link and one config, so a second
    // fault on a target would overwrite the first one's state mid-window.
    for (size_t j = 0; problem.empty() && j < resolved.size(); ++j) {
      if (resolved[j].link == fault.link && Overlap(resolved[j].spec, spec)) {
        problem = "overlaps fault " + std::to_string(j) + " on " + target;
      }
    }
    if (!problem.empty()) {
      if (error != nullptr) {
        *error = "fault " + std::to_string(i) + ": " + problem;
      }
      return {};
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
  // Every final clear is scheduled before any start: events at one time
  // fire in the order they were scheduled, so where one fault clears as the
  // next on its target starts, the clear lands first. A flap cycle only
  // schedules toggles strictly before its stop time, so its terminal clear
  // leaves the link healthy afterwards.
  for (size_t i = 0; i < faults_.size(); ++i) {
    const FaultSpec& spec = faults_[i].spec;
    if (!spec.Cleared()) {
      continue;
    }
    if (spec.kind == FaultKind::kDdioOff) {
      events_[i].clear = sim.ScheduleAt(
          spec.clear_at, [this] { SetDdio(ddio_was_enabled_); }, "chaos.ddio_restore");
    } else {
      events_[i].clear = sim.ScheduleAt(
          spec.clear_at, [this, i] { ClearAt(faults_[i]); }, "chaos.clear");
    }
  }
  for (size_t i = 0; i < faults_.size(); ++i) {
    const FaultSpec& spec = faults_[i].spec;
    switch (spec.kind) {
      case FaultKind::kKill:
      case FaultKind::kDegrade:
      case FaultKind::kLatency:
        events_[i].start =
            sim.ScheduleAt(spec.at, [this, i] { InjectAt(faults_[i]); }, "chaos.inject");
        break;
      case FaultKind::kFlap:
        events_[i].start = sim.ScheduleAt(spec.at, [this, i] { FlapCycle(i); }, "chaos.flap");
        break;
      case FaultKind::kDdioOff:
        events_[i].start = sim.ScheduleAt(
            spec.at,
            [this] {
              ddio_was_enabled_ = fabric_.config().ddio_enabled;
              SetDdio(false);
            },
            "chaos.ddio_off");
        break;
    }
  }
}

void FaultInjector::SetDdio(bool enabled) {
  fabric::FabricConfig config = fabric_.config();
  config.ddio_enabled = enabled;
  fabric_.SetConfig(config);
  ++operations_;
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
  const sim::TimeNs stop = ground_truth_[fault_index].end;
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
