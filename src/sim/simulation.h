// The discrete-event simulation engine.
//
// Simulation owns the virtual clock and the pending-event queue. Components
// schedule closures at absolute or relative virtual times; Run() drains the
// queue in (time, insertion-order) order, advancing the clock to each
// event's timestamp. Ties are broken by insertion order, which makes runs
// fully deterministic.
//
// Internals (this is the hot path bounding every simulated scenario — see
// DESIGN.md §5): events live in a pooled slab (src/sim/event_pool.h) and
// carry a move-only small-buffer callback (src/sim/inline_fn.h); the queue
// is a binary heap of 24-byte entries (src/sim/event_queue.h) that a
// cancel leaves at once, so only live events are ever queued; periodic
// events re-arm their own pooled slot in place. Steady-state dispatch —
// schedule, fire, cancel, re-arm — performs zero heap allocations (proven
// by tests/sim/engine_alloc_test.cc). The previous
// std::function + priority_queue engine is preserved verbatim as
// ReferenceSimulation (src/sim/reference_simulation.h); a differential test
// drives both with identical scripts and asserts identical firing sequences
// and byte-identical trace exports.

#ifndef MIHN_SRC_SIM_SIMULATION_H_
#define MIHN_SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <vector>

#include "src/core/check.h"
#include "src/sim/event_pool.h"
#include "src/sim/event_queue.h"
#include "src/sim/inline_fn.h"
#include "src/sim/random.h"
#include "src/sim/time.h"

namespace mihn::sim {

// Read-only view of a virtual clock. Both Simulation and
// ReferenceSimulation implement it; obs::Tracer stamps records through this
// interface so it can observe either engine.
class VirtualClock {
 public:
  virtual ~VirtualClock() = default;
  virtual TimeNs VirtualNow() const = 0;
};

// Observer of event execution, for tracing/profiling (see src/obs/). The
// interface lives here — not in obs — so the leaf sim library stays free of
// upward dependencies; obs provides the Tracer-backed implementation and
// HostNetwork installs it. Callbacks fire synchronously around each event;
// with no observer installed the engine pays one pointer test per event.
class EventObserver {
 public:
  virtual ~EventObserver() = default;
  // |label| is the scheduling site's static tag (null for unlabeled
  // events); |queue_depth| counts events still pending, the fired one
  // excluded.
  virtual void OnEventBegin(const char* label, TimeNs now, size_t queue_depth) = 0;
  virtual void OnEventEnd(const char* label, TimeNs now) = 0;
};

// The event loop. A simulation is single-threaded by design (determinism)
// and has exactly one owner; parallel runners (fleet hosts, chaos trials)
// each drive their own instance. Event callbacks and observer hooks may
// re-enter the engine: schedule, cancel, stop, or read the clock.
class Simulation : public VirtualClock {
 public:
  using Handle = EventHandle;  // For code generic over engine type.

  // |seed| roots every Rng stream forked through ForkRng().
  explicit Simulation(uint64_t seed = 1);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current virtual time.
  TimeNs Now() const { return now_; }
  TimeNs VirtualNow() const override { return Now(); }

  // Schedules |fn| to run at absolute virtual time |at|. Scheduling in the
  // past (before Now()) is clamped to Now(): the event fires "immediately"
  // but still through the queue, preserving run-to-completion semantics.
  // |label| (a static string literal, or null) tags the event for the
  // EventObserver — it is never copied. Templated on the callable so the
  // closure is constructed directly in its pooled slot (an EventFn argument
  // collapses to a move).
  template <typename F>
  EventHandle ScheduleAt(TimeNs at, F&& fn, const char* label = nullptr) {
    if (at < now_) {
      at = now_;
    }
    const uint32_t index = pool_.Allocate(std::forward<F>(fn), label, 0);
    queue_.Push({at, next_seq_++, index});
    return EventHandle(&pool_, index, pool_.generation(index));
  }

  // Schedules |fn| to run |delay| after Now().
  template <typename F>
  EventHandle ScheduleAfter(TimeNs delay, F&& fn, const char* label = nullptr) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn), label);
  }

  // Schedules |fn| every |period| starting at Now() + period, until the
  // returned handle is cancelled or the simulation stops. |period| must be
  // positive. The callback is stored once and the pooled slot re-armed in
  // place per firing — no per-firing closure.
  template <typename F>
  EventHandle SchedulePeriodic(TimeNs period, F&& fn, const char* label = nullptr) {
    MIHN_CHECK(period > TimeNs::Zero());
    const uint32_t index = pool_.Allocate(std::forward<F>(fn), label, EventPool::kPeriodic);
    pool_.payload(index).period = period;
    queue_.Push({now_ + period, next_seq_++, index});
    return EventHandle(&pool_, index, pool_.generation(index));
  }

  // Installs (or, with null, removes) the event observer. The observer
  // must outlive the simulation or be removed first.
  void SetEventObserver(EventObserver* observer) { observer_ = observer; }

  // Runs until the queue is empty or Stop() is called. Returns the final
  // virtual time.
  TimeNs Run();

  // Runs until virtual time reaches |deadline| (events at exactly |deadline|
  // are executed), the queue empties, or Stop() is called. When no event is
  // left at or before |deadline| the clock advances to it, so RunUntil
  // composes sequentially; after Stop() it stays at the stopping event's
  // time, so a later run never moves it backwards.
  TimeNs RunUntil(TimeNs deadline);

  // RunUntil(Now() + duration).
  TimeNs RunFor(TimeNs duration);

  // Makes Run()/RunUntil() return after the current event completes. Safe
  // to call from inside a callback.
  void Stop() { stopped_ = true; }

  // Registers a hook fired whenever the simulation is about to advance the
  // virtual clock past the current timestamp — including when the event
  // queue drains or a RunUntil() deadline cuts execution short. Components
  // that coalesce same-timestamp work (e.g. the fabric's lazy rate
  // recompute) use this as their "end of timestamp" flush point: all
  // mutations within one timestamp are settled exactly once before any
  // later-time event observes them. Hooks must be idempotent; they may
  // schedule new events (scheduling re-runs the advance decision). Cancel
  // via the returned handle; a cancelled hook is compacted out lazily.
  EventHandle AddPreAdvanceHook(EventFn fn);

  // Number of events executed so far (for tests and engine benchmarks).
  uint64_t events_executed() const { return events_executed_; }

  // Number of events currently pending (pre-advance hooks not counted).
  size_t pending_events() const { return queue_.size(); }

  // Pool slab high-water mark (tests/benchmarks).
  size_t event_pool_capacity() const { return pool_.capacity(); }

  // Pre-sizes the event pool and queue for |n| concurrent pending events,
  // making steady-state dispatch allocation-free from the first event
  // instead of after organic high-water warm-up. Optional; sized workloads
  // (benchmarks, the allocation test) call it up front.
  void ReserveEvents(size_t n) {
    pool_.Reserve(n);
    queue_.Reserve(n);
  }

  // Derives a deterministic named random stream from the root seed.
  Rng ForkRng(uint64_t stream_id) const { return root_rng_.Fork(stream_id); }

 private:
  // Pops and executes the next event due at or before |deadline|. Returns
  // false, having executed nothing, when no such event is left. Fires
  // pre-advance hooks before the clock moves past now_ (and before
  // concluding nothing is due), then looks at the queue again: a hook may
  // have cancelled or re-timed the event the caller saw. Run() passes
  // TimeNs::Max(), i.e. no deadline.
  bool Step(TimeNs deadline);

  // Post-callback bookkeeping for a fired slot: re-arm a live periodic in
  // place or retire the slot (the callback never leaves its slot).
  void FinishFired(uint32_t index, bool periodic);

  // Runs all live pre-advance hooks.
  // Returns true if any hook scheduled a new event (the caller must
  // re-evaluate what to run next).
  bool FirePreAdvanceHooks();

  TimeNs now_ = TimeNs::Zero();
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  bool stopped_ = false;
  EventQueue queue_;
  EventPool pool_{&queue_};
  // Pool slot indices.
  std::vector<uint32_t> pre_advance_hooks_;
  EventObserver* observer_ = nullptr;
  Rng root_rng_;
};

}  // namespace mihn::sim

#endif  // MIHN_SRC_SIM_SIMULATION_H_
