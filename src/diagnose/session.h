// Operator diagnostic session (paper §3.1: "a set of diagnostic tools for
// debugging purposes, such as ping, traceroute, iperf, and wireshark in
// inter-host networks").
//
// A Session binds the diagnostic toolbox to one fabric once, instead of
// every probe re-taking a fabric::Fabric& (the pre-Session free-function
// API is retired; mihn-check D8 keeps its header banned):
//
//   diagnose::Session dx(fabric);
//   auto ping = dx.Ping(gpu0, ssd1);
//   auto trace = dx.Trace(gpu0, ssd1);
//   std::cout << dx.Render(trace);
//
// Every result embeds a common ProbeReport header — endpoints, virtual
// issue timestamp, reachability, resolved path — so tooling can treat
// heterogeneous probe results uniformly (log them, diff them, attach them
// to anomaly reports). Probes record "diagnose" spans on the fabric's
// tracer when tracing is enabled.
//
//   Ping    — latency probe between any two components (ping).
//   Trace   — per-hop latency/utilization breakdown (traceroute).
//   Perf    — achievable-bandwidth probe using a real elastic probe flow
//             that competes like application traffic (iperf).
//   Capture — live flow-table capture with filters (wireshark).
//
// Every tool is instantaneous: the fluid model is deterministic, so "what
// would a probe see right now" is directly computable, and no probe
// advances the clock.

#ifndef MIHN_SRC_DIAGNOSE_SESSION_H_
#define MIHN_SRC_DIAGNOSE_SESSION_H_

#include <optional>
#include <string>
#include <vector>

#include "src/fabric/fabric.h"

namespace mihn::diagnose {

// Common header shared by every probe result: who was probed, when (virtual
// time), whether they were reachable, and along which path.
struct ProbeReport {
  topology::ComponentId src = topology::kInvalidComponent;
  topology::ComponentId dst = topology::kInvalidComponent;
  sim::TimeNs issued_at;        // Virtual time the probe was issued.
  bool reachable = false;
  topology::Path path;          // Empty when unreachable.
};

// One hop of a Trace breakdown.
struct HopReport {
  std::string from;
  std::string to;
  topology::LinkKind kind = topology::LinkKind::kIntraSocket;
  sim::TimeNs base_latency;     // Spec latency (no congestion, no faults).
  sim::TimeNs current_latency;  // With congestion inflation + fault extras.
  double utilization = 0.0;
  sim::Bandwidth capacity;      // Effective capacity right now.
  bool faulted = false;
};

struct PingReport {
  ProbeReport probe;
  sim::TimeNs latency;          // One probe, right now.
};

struct TraceReport {
  ProbeReport probe;
  std::vector<HopReport> hops;
  sim::TimeNs total_base;
  sim::TimeNs total_current;
};

struct PerfReport {
  ProbeReport probe;
  // Rate the probe flow achieved instantaneously on start.
  sim::Bandwidth initial_rate;
};

// Capture filter (wireshark-style).
struct FlowFilter {
  std::optional<fabric::TenantId> tenant;
  std::optional<fabric::TrafficClass> klass;
  // Only flows crossing this link (either direction).
  std::optional<topology::LinkId> link;
  // Minimum current rate.
  sim::Bandwidth min_rate = sim::Bandwidth::Zero();
};

struct CaptureReport {
  // src/dst are kInvalidComponent: a capture is table-wide, not a probe
  // between endpoints. issued_at still stamps when it was taken.
  ProbeReport probe;
  std::vector<fabric::FlowInfo> flows;  // Ordered by descending rate.
};

// The diagnostic toolbox, bound to one fabric. Cheap to construct (holds
// only the reference); a long-lived Session per operator console is the
// intended shape. The fabric must outlive the session.
class Session {
 public:
  explicit Session(fabric::Fabric& fabric) : fabric_(fabric) {}

  // -- Ping --------------------------------------------------------------------
  // Latency of a |probe_bytes| packet src -> dst along the current
  // shortest path, under current congestion: Fabric::PacketLatency, the
  // price SendPacket charges. Does not perturb the fabric.
  PingReport Ping(topology::ComponentId src, topology::ComponentId dst,
                  int64_t probe_bytes = 64);

  // -- Trace -------------------------------------------------------------------
  // Per-hop breakdown src -> dst. The intra-host traceroute: shows exactly
  // which hop contributes the latency (and whether it is congestion or a
  // fault).
  TraceReport Trace(topology::ComponentId src, topology::ComponentId dst);

  // -- Perf --------------------------------------------------------------------
  // Instantaneous bandwidth probe: starts an elastic kProbe flow, reads
  // its fair-share rate, and removes it — zero simulated time elapses, but
  // the measurement reflects real contention (the probe competes max-min
  // like any flow, exactly as iperf perturbs a production network).
  PerfReport Perf(topology::ComponentId src, topology::ComponentId dst);

  // -- Capture -----------------------------------------------------------------
  // Captures the current flow table (every fluid flow, including spill
  // companions), filtered. Ordered by descending rate.
  CaptureReport Capture(const FlowFilter& filter = {});

  // -- Rendering ---------------------------------------------------------------
  // Multi-line rendering, one hop per line.
  std::string Render(const TraceReport& trace) const { return RenderTraceReport(trace); }
  // One line per captured flow: id, tenant, class, rate, path.
  std::string Render(const CaptureReport& capture) const;

  // Pure formatters, usable without a Session instance.
  static std::string RenderTraceReport(const TraceReport& trace);
  static std::string RenderFlowTable(const topology::Topology& topo,
                                     const std::vector<fabric::FlowInfo>& flows);


 private:
  // Resolves the common header (stamp, route) for a src->dst probe.
  ProbeReport MakeProbe(topology::ComponentId src, topology::ComponentId dst);

  fabric::Fabric& fabric_;
};

}  // namespace mihn::diagnose

#endif  // MIHN_SRC_DIAGNOSE_SESSION_H_
