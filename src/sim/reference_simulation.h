// ReferenceSimulation: the pre-pooling event engine, preserved as the
// semantics oracle for Simulation (the same role SolveMaxMinReference plays
// for MaxMinSolver — see DESIGN.md §5).
//
// This is the original engine verbatim: per-event std::function closures, a
// shared_ptr<bool> cancellation flag per event, a binary std::priority_queue
// that copies the event (re-allocating the closure) on every top(), and
// periodics that re-arm by scheduling a fresh capturing closure per firing.
// Keep it dumb — its value is being obviously correct and expensive.
// tests/sim/engine_differential_test.cc drives this and the pooled engine
// with identical seeded scripts and asserts identical (label, time, order)
// firing sequences and byte-identical Chrome-trace exports;
// tests/sim/engine_contract_test.cc runs the behavioral contract suite
// against both. bench_event_engine measures the gap.
//
// The deliberate deltas from the historical code: pending_events() and the
// observer's queue_depth report the exact live count (cancelled-but-
// unpopped entries excluded, via an O(n) scan — reference-grade cost), so
// both engines expose identical observable state, and SchedulePeriodic
// rejects a non-positive period as the pooled engine does.

#ifndef MIHN_SRC_SIM_REFERENCE_SIMULATION_H_
#define MIHN_SRC_SIM_REFERENCE_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace mihn::sim {

class ReferenceSimulation : public VirtualClock {
 public:
  // Cancellation handle: the original shared-flag design. Copyable;
  // cancelling any copy cancels the event; a default handle is inert.
  class Handle {
   public:
    Handle() = default;

    void Cancel() {
      if (cancelled_) {
        *cancelled_ = true;
      }
    }

    bool IsCancelled() const { return cancelled_ && *cancelled_; }

   private:
    friend class ReferenceSimulation;
    explicit Handle(std::shared_ptr<bool> flag) : cancelled_(std::move(flag)) {}

    std::shared_ptr<bool> cancelled_;
  };

  explicit ReferenceSimulation(uint64_t seed = 1);

  ReferenceSimulation(const ReferenceSimulation&) = delete;
  ReferenceSimulation& operator=(const ReferenceSimulation&) = delete;

  TimeNs Now() const { return now_; }
  TimeNs VirtualNow() const override { return now_; }

  Handle ScheduleAt(TimeNs at, std::function<void()> fn, const char* label = nullptr);
  Handle ScheduleAfter(TimeNs delay, std::function<void()> fn,
                       const char* label = nullptr);
  Handle SchedulePeriodic(TimeNs period, std::function<void()> fn,
                          const char* label = nullptr);

  void SetEventObserver(EventObserver* observer) { observer_ = observer; }

  TimeNs Run();
  TimeNs RunUntil(TimeNs deadline);
  TimeNs RunFor(TimeNs duration);
  void Stop() { stopped_ = true; }

  Handle AddPreAdvanceHook(std::function<void()> fn);

  uint64_t events_executed() const { return events_executed_; }

  // Exact live pending count (cancelled entries excluded), by scan.
  size_t pending_events() const;

  Rng ForkRng(uint64_t stream_id) const { return root_rng_.Fork(stream_id); }

 private:
  struct Event {
    TimeNs at;
    uint64_t seq;  // Insertion order; breaks timestamp ties deterministically.
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;
    const char* label;  // Static scheduling-site tag for the observer.
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) {
        return a.at > b.at;
      }
      return a.seq > b.seq;
    }
  };
  // Exposes the underlying container for the exact-live-count scan.
  struct Queue : std::priority_queue<Event, std::vector<Event>, EventLater> {
    using priority_queue::c;
  };

  // As Simulation::Step: runs the next event due at or before |deadline|.
  bool Step(TimeNs deadline);
  void ArmPeriodic(TimeNs period, std::shared_ptr<std::function<void()>> fn,
                   std::shared_ptr<bool> flag, const char* label);
  bool FirePreAdvanceHooks();

  TimeNs now_ = TimeNs::Zero();
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  bool stopped_ = false;
  Queue queue_;
  std::vector<std::pair<std::shared_ptr<bool>, std::function<void()>>> pre_advance_hooks_;
  EventObserver* observer_ = nullptr;
  Rng root_rng_;
};

}  // namespace mihn::sim

#endif  // MIHN_SRC_SIM_REFERENCE_SIMULATION_H_
