// mihn_obs: structured tracing for the simulator and the manageability
// layers (spans + counters, bounded memory, near-zero cost when disabled).
//
// Why the simulator needs its own tracing layer: the paper's whole point is
// that intra-host fabrics are unobservable (§3.1) — and a simulator of one
// is just as opaque when bench_isolation or the arbiter misbehaves. The
// Tracer answers "which solve / placement / quantum did what, and when"
// without printf archaeology.
//
// Design rules (see DESIGN.md §7):
//
//  * Dual timestamps. Every record carries the deterministic virtual
//    sim::TimeNs. Wall-clock stamps are taken ONLY in the opt-in profiling
//    mode (TraceConfig::profiling) — the single place this repo touches a
//    real clock, confined behind this boundary and annotated per mihn-check
//    rule D2. With profiling off, a trace is a pure function of
//    (topology, workload, seed): byte-identical across runs.
//  * Bounded memory. Spans and counters land in fixed-capacity ring
//    buffers allocated once at construction; overflow evicts the oldest
//    record and increments a drop counter. A disabled tracer allocates
//    nothing at all.
//  * Near-zero disabled cost. The MIHN_TRACE_SPAN / MIHN_TRACE_COUNTER
//    macros compile to a single branch on the cached |enabled_| flag.
//    Instrumented components default their tracer pointer to
//    Tracer::Disabled() (a process-wide inert instance), so the macros
//    never need a null check.
//  * Static names. Span/counter names and categories are string literals
//    recorded by pointer: no allocation, no hashing, deterministic export.
//
// Export (Chrome trace-event JSON loadable in chrome://tracing / Perfetto,
// plus a compact text summary) lives in src/obs/export.h.

#ifndef MIHN_SRC_OBS_TRACER_H_
#define MIHN_SRC_OBS_TRACER_H_

#include <cstdint>
#include <vector>

#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace mihn::obs {

struct TraceConfig {
  // Master switch. Everything below is inert when false.
  bool enabled = false;
  // Opt-in wall-clock profiling: spans/counters additionally carry
  // steady-clock nanosecond stamps and the Chrome export lays events out on
  // the wall timeline (where does *real* time go?) instead of the virtual
  // one. Nondeterministic by nature — never enable in differential or
  // golden-file tests.
  bool profiling = false;
  // Ring-buffer capacities (records, not bytes). Oldest records are
  // evicted on overflow; dropped counts are reported by the tracer.
  size_t span_capacity = 1 << 14;
  size_t counter_capacity = 1 << 14;
};

// One numeric annotation on a span ("flows" = 1200, "rounds" = 3, ...).
struct SpanArg {
  const char* key = nullptr;
  double value = 0.0;
};

inline constexpr size_t kMaxSpanArgs = 4;

// A completed span. |name| and |category| are static string literals owned
// by the instrumentation site.
struct Span {
  const char* name = nullptr;
  const char* category = nullptr;
  sim::TimeNs start;            // Virtual, always valid.
  sim::TimeNs end;              // Virtual, always valid.
  int64_t wall_start_ns = 0;    // Profiling mode only, else 0.
  int64_t wall_end_ns = 0;      // Profiling mode only, else 0.
  uint32_t num_args = 0;
  SpanArg args[kMaxSpanArgs];
};

// One counter sample.
struct CounterSample {
  const char* name = nullptr;
  const char* category = nullptr;
  sim::TimeNs at;            // Virtual, always valid.
  int64_t wall_ns = 0;       // Profiling mode only, else 0.
  double value = 0.0;
};

// Span + counter recorder. Bind one per HostNetwork (or standalone for
// benches); hand instrumented components a pointer via their set_tracer().
// Single-owner, like the simulation it observes: an enabled tracer is
// driven by one thread at a time (the inert Disabled() instance is only
// ever read).
class Tracer {
 public:
  // The process-wide inert tracer: never enabled, never records, never
  // allocates. Components default their tracer pointer to this so
  // instrumentation sites need no null checks.
  static Tracer* Disabled();

  // A disabled, unbound tracer (records nothing, allocates nothing).
  Tracer() = default;

  // |clock| supplies virtual timestamps (pass the Simulation — or any
  // sim::VirtualClock, e.g. a ReferenceSimulation in differential tests);
  // may be null for standalone use (e.g. a pure-solver bench), in which
  // case virtual stamps are zero and only profiling mode yields a usable
  // timeline. Buffers are allocated here iff |config.enabled|.
  explicit Tracer(TraceConfig config, const sim::VirtualClock* clock = nullptr);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  bool profiling() const { return config_.profiling; }
  const TraceConfig& config() const { return config_; }

  // Rebinds the virtual clock source (used when a tracer outlives or
  // predates its simulation).
  void BindSimulation(const sim::VirtualClock* clock) { clock_ = clock; }

  // -- Recording (macro entry points) -----------------------------------------
  // Fills |span|'s start stamps. No-op when disabled.
  void StampBegin(Span& span) const;
  // Fills |span|'s end stamps and pushes it into the ring. No-op when
  // disabled.
  void EndAndRecord(Span& span);
  // Records one counter sample. No-op when disabled.
  void RecordCounter(const char* category, const char* name, double value);

  // -- Drained views (export / tests) -----------------------------------------
  // Retained records, oldest first. Copies; intended for export time, not
  // hot paths.
  std::vector<Span> spans() const;
  std::vector<CounterSample> counters() const;

  uint64_t spans_recorded() const { return spans_recorded_; }
  uint64_t counters_recorded() const { return counters_recorded_; }
  uint64_t dropped_spans() const { return dropped_spans_; }
  uint64_t dropped_counters() const { return dropped_counters_; }

  // Bytes held by the ring buffers — zero for a disabled tracer (the
  // "allocates nothing" contract, asserted by tests/obs/tracer_test.cc).
  size_t allocated_bytes() const {
    return span_ring_.capacity() * sizeof(Span) +
           counter_ring_.capacity() * sizeof(CounterSample);
  }

  // Discards all retained records (capacity is kept).
  void Clear();

 private:
  sim::TimeNs VirtualNow() const {
    return clock_ != nullptr ? clock_->VirtualNow() : sim::TimeNs::Zero();
  }

  const TraceConfig config_{};
  const bool enabled_ = false;  // Cached: the one flag the macros branch on.
  const sim::VirtualClock* clock_ = nullptr;

  // Ring buffers: fixed capacity reserved at construction, wrap-around
  // writes, no steady-state allocation.
  std::vector<Span> span_ring_;
  std::vector<CounterSample> counter_ring_;
  size_t span_next_ = 0;  // Next write slot.
  size_t counter_next_ = 0;
  uint64_t spans_recorded_ = 0;
  uint64_t counters_recorded_ = 0;
  uint64_t dropped_spans_ = 0;
  uint64_t dropped_counters_ = 0;
};

// Scope guard: opens a span at construction, records it at destruction.
// Prefer the MIHN_TRACE_SPAN macro. |tracer| must be non-null (use
// Tracer::Disabled() for "off"); the constructor is a single branch on the
// cached enabled flag when tracing is off.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, const char* category, const char* name)
      : tracer_(tracer->enabled() ? tracer : nullptr) {
    if (tracer_ != nullptr) {
      span_.name = name;
      span_.category = category;
      tracer_->StampBegin(span_);
    }
  }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  ~SpanGuard() {
    if (tracer_ != nullptr) {
      tracer_->EndAndRecord(span_);
    }
  }

  // Attaches a numeric annotation (at most kMaxSpanArgs stick). No-op when
  // the span is inactive.
  void Arg(const char* key, double value) {
    if (tracer_ != nullptr && span_.num_args < kMaxSpanArgs) {
      span_.args[span_.num_args++] = SpanArg{key, value};
    }
  }

  bool active() const { return tracer_ != nullptr; }

 private:
  Tracer* tracer_;  // Null when the span is inactive.
  Span span_;
};

#define MIHN_OBS_CONCAT_INNER_(a, b) a##b
#define MIHN_OBS_CONCAT_(a, b) MIHN_OBS_CONCAT_INNER_(a, b)

// Traces the rest of the enclosing scope as one span. |tracer| is an
// obs::Tracer* that must not be null (default members to
// obs::Tracer::Disabled()). Cost when tracing is off: one branch on the
// cached enabled flag. The declared guard is named after |var| so
// instrumentation can attach args:
//
//   MIHN_TRACE_SPAN(span, tracer_, "fabric", "fabric.solve");
//   span.Arg("flows", static_cast<double>(flows_.size()));
#define MIHN_TRACE_SPAN(var, tracer, category, name) \
  ::mihn::obs::SpanGuard var((tracer), (category), (name))

// Anonymous variant when no args are attached.
#define MIHN_TRACE_SCOPE(tracer, category, name)                                    \
  ::mihn::obs::SpanGuard MIHN_OBS_CONCAT_(mihn_trace_scope_, __LINE__)((tracer), \
                                                                       (category), (name))

// Records one counter sample. Same single-branch contract as above.
#define MIHN_TRACE_COUNTER(tracer, category, name, value)                           \
  do {                                                                              \
    if ((tracer)->enabled()) {                                                      \
      (tracer)->RecordCounter((category), (name), static_cast<double>(value));      \
    }                                                                               \
  } while (0)

}  // namespace mihn::obs

#endif  // MIHN_SRC_OBS_TRACER_H_
