// Behavioral contract suite for the event engines.
//
// Every test here runs twice — once against the pooled Simulation, once
// against ReferenceSimulation — via a typed suite. The contract is the
// engine semantics both must satisfy: (time, insertion-order) dispatch,
// past-clamping, run-to-completion, pre-advance hook timing, cancellation,
// and the exact-live-count pending_events() rule. A behavior asserted here
// is a behavior the differential test can rely on being engine-independent.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/sim/reference_simulation.h"
#include "src/sim/simulation.h"

namespace mihn::sim {
namespace {

template <typename Engine>
class EngineContractTest : public ::testing::Test {
 protected:
  Engine sim_;
  std::vector<std::string> order_;

  void Mark(const char* tag) { order_.emplace_back(tag); }
};

using EngineTypes = ::testing::Types<Simulation, ReferenceSimulation>;

class EngineNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, Simulation>) {
      return "Pooled";
    } else {
      return "Reference";
    }
  }
};

TYPED_TEST_SUITE(EngineContractTest, EngineTypes, EngineNames);

TYPED_TEST(EngineContractTest, FiresInTimeThenInsertionOrder) {
  auto& sim = this->sim_;
  sim.ScheduleAt(TimeNs::Nanos(20), [&] { this->Mark("b"); });
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { this->Mark("a"); });
  sim.ScheduleAt(TimeNs::Nanos(20), [&] { this->Mark("c"); });  // Tie: after b.
  sim.Run();
  EXPECT_EQ(this->order_, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(sim.Now(), TimeNs::Nanos(20));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TYPED_TEST(EngineContractTest, PastSchedulingClampsToNow) {
  auto& sim = this->sim_;
  sim.ScheduleAt(TimeNs::Nanos(100), [&] {
    this->Mark("outer");
    // In the past relative to now=100: clamps to 100, fires this timestamp.
    sim.ScheduleAt(TimeNs::Nanos(5), [&] { this->Mark("clamped"); });
  });
  sim.ScheduleAt(TimeNs::Nanos(200), [&] { this->Mark("later"); });
  sim.Run();
  EXPECT_EQ(this->order_, (std::vector<std::string>{"outer", "clamped", "later"}));
}

TYPED_TEST(EngineContractTest, CancelPreventsExecution) {
  auto& sim = this->sim_;
  auto h = sim.ScheduleAt(TimeNs::Nanos(10), [&] { this->Mark("cancelled"); });
  sim.ScheduleAt(TimeNs::Nanos(20), [&] { this->Mark("kept"); });
  h.Cancel();
  sim.Run();
  EXPECT_EQ(this->order_, (std::vector<std::string>{"kept"}));
  EXPECT_EQ(sim.events_executed(), 1u);
}

// Satellite regression: pending_events() must report the exact live count
// immediately after a Cancel, before any Step pops the tombstone. The old
// engine counted lazily-deleted entries until they surfaced at the top of
// the heap.
TYPED_TEST(EngineContractTest, PendingEventsExcludesCancelledBeforeNextStep) {
  auto& sim = this->sim_;
  auto a = sim.ScheduleAt(TimeNs::Nanos(10), [] {});
  sim.ScheduleAt(TimeNs::Nanos(20), [] {});
  sim.ScheduleAt(TimeNs::Nanos(30), [] {});
  EXPECT_EQ(sim.pending_events(), 3u);
  a.Cancel();
  EXPECT_EQ(sim.pending_events(), 2u);  // No Step has run yet.
  (void)sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TYPED_TEST(EngineContractTest, CancelFromWithinOwnCallbackIsBenign) {
  auto& sim = this->sim_;
  typename TypeParam::Handle self;
  self = sim.ScheduleAt(TimeNs::Nanos(10), [&] {
    this->Mark("fired");
    self.Cancel();  // Already executing: must not corrupt engine state.
  });
  sim.ScheduleAt(TimeNs::Nanos(20), [&] { this->Mark("after"); });
  sim.Run();
  EXPECT_EQ(this->order_, (std::vector<std::string>{"fired", "after"}));
}

TYPED_TEST(EngineContractTest, PeriodicFiresOnCadence) {
  auto& sim = this->sim_;
  int fired = 0;
  std::vector<int64_t> at;
  sim.SchedulePeriodic(TimeNs::Nanos(10), [&] {
    ++fired;
    at.push_back(sim.Now().nanos());
  });
  sim.RunUntil(TimeNs::Nanos(35));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(at, (std::vector<int64_t>{10, 20, 30}));
  EXPECT_EQ(sim.Now(), TimeNs::Nanos(35));
}

TYPED_TEST(EngineContractTest, PeriodicCancelledMidCallbackStopsRearming) {
  auto& sim = this->sim_;
  int fired = 0;
  typename TypeParam::Handle h;
  h = sim.SchedulePeriodic(TimeNs::Nanos(10), [&] {
    ++fired;
    if (fired == 3) {
      h.Cancel();  // Cancel from inside the periodic's own firing.
    }
  });
  sim.RunUntil(TimeNs::Nanos(1000));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TYPED_TEST(EngineContractTest, PeriodicCancelledExternallyStopsRearming) {
  auto& sim = this->sim_;
  int fired = 0;
  auto h = sim.SchedulePeriodic(TimeNs::Nanos(10), [&] { ++fired; });
  sim.ScheduleAt(TimeNs::Nanos(25), [&] { h.Cancel(); });
  sim.RunUntil(TimeNs::Nanos(1000));
  EXPECT_EQ(fired, 2);  // t=10, t=20; cancelled at t=25.
}

TYPED_TEST(EngineContractTest, RunUntilExecutesEventsAtDeadline) {
  auto& sim = this->sim_;
  sim.ScheduleAt(TimeNs::Nanos(50), [&] { this->Mark("at_deadline"); });
  sim.ScheduleAt(TimeNs::Nanos(51), [&] { this->Mark("past_deadline"); });
  sim.RunUntil(TimeNs::Nanos(50));
  EXPECT_EQ(this->order_, (std::vector<std::string>{"at_deadline"}));
  EXPECT_EQ(sim.Now(), TimeNs::Nanos(50));
  sim.Run();
  EXPECT_EQ(this->order_.back(), "past_deadline");
}

TYPED_TEST(EngineContractTest, StopHaltsAfterCurrentEvent) {
  auto& sim = this->sim_;
  sim.ScheduleAt(TimeNs::Nanos(10), [&] {
    this->Mark("one");
    sim.Stop();
  });
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { this->Mark("two"); });
  sim.Run();
  EXPECT_EQ(this->order_, (std::vector<std::string>{"one"}));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TYPED_TEST(EngineContractTest, HookFiresBeforeEachClockAdvance) {
  auto& sim = this->sim_;
  sim.AddPreAdvanceHook([&] { this->Mark("hook"); });
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { this->Mark("e10"); });
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { this->Mark("e10b"); });
  sim.ScheduleAt(TimeNs::Nanos(20), [&] { this->Mark("e20"); });
  sim.Run();
  // One hook firing per distinct timestamp boundary: before advancing to 10,
  // before advancing 10 -> 20, and before concluding the queue is empty.
  EXPECT_EQ(this->order_,
            (std::vector<std::string>{"hook", "e10", "e10b", "hook", "e20", "hook"}));
}

// ISSUE edge case: a pre-advance hook scheduling exactly at the RunUntil
// deadline. The deadline is inclusive, so the hook-scheduled event must
// execute within the same RunUntil call.
TYPED_TEST(EngineContractTest, HookSchedulingAtRunUntilDeadlineExecutes) {
  auto& sim = this->sim_;
  bool armed = false;
  sim.AddPreAdvanceHook([&] {
    if (!armed && sim.Now() == TimeNs::Nanos(10)) {
      armed = true;
      sim.ScheduleAt(TimeNs::Nanos(40), [&] { this->Mark("hook_scheduled"); });
    }
  });
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { this->Mark("e10"); });
  sim.RunUntil(TimeNs::Nanos(40));
  EXPECT_EQ(this->order_, (std::vector<std::string>{"e10", "hook_scheduled"}));
  EXPECT_EQ(sim.Now(), TimeNs::Nanos(40));
}

// ISSUE edge case: ScheduleAt in the past during a hook. Clamps to now_ and
// fires before the clock advances — the hook's timestamp is not yet closed.
TYPED_TEST(EngineContractTest, HookSchedulingInPastFiresAtCurrentTimestamp) {
  auto& sim = this->sim_;
  bool armed = false;
  sim.AddPreAdvanceHook([&] {
    if (!armed && sim.Now() == TimeNs::Nanos(10)) {
      armed = true;
      sim.ScheduleAt(TimeNs::Nanos(3), [&] { this->Mark("clamped"); });
    }
  });
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { this->Mark("e10"); });
  sim.ScheduleAt(TimeNs::Nanos(20), [&] { this->Mark("e20"); });
  sim.Run();
  EXPECT_EQ(this->order_, (std::vector<std::string>{"e10", "clamped", "e20"}));
}

TYPED_TEST(EngineContractTest, CancelledHookNeverFiresAgain) {
  auto& sim = this->sim_;
  int hook_fired = 0;
  auto h = sim.AddPreAdvanceHook([&] { ++hook_fired; });
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { h.Cancel(); });
  sim.ScheduleAt(TimeNs::Nanos(20), [] {});
  sim.Run();
  // Hook fires before advancing to t=10 only; cancelled before the 10 -> 20
  // boundary.
  EXPECT_EQ(hook_fired, 1);
}

// The fabric's flush hook takes this path on every re-solve: it cancels the
// pending completion before the clock reaches it.
TYPED_TEST(EngineContractTest, HookCancellingTheNextEventPreventsIt) {
  auto& sim = this->sim_;
  typename TypeParam::Handle next;
  bool armed = false;
  sim.AddPreAdvanceHook([&] {
    if (!armed && sim.Now() == TimeNs::Nanos(10)) {
      armed = true;
      next.Cancel();  // Due next, at t=20.
    }
  });
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { this->Mark("e10"); });
  next = sim.ScheduleAt(TimeNs::Nanos(20), [&] { this->Mark("e20"); });
  sim.ScheduleAt(TimeNs::Nanos(30), [&] { this->Mark("e30"); });
  sim.Run();
  EXPECT_TRUE(armed);
  EXPECT_EQ(this->order_, (std::vector<std::string>{"e10", "e30"}));
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

// When a hook cancels the event RunUntil was about to run, the next one may
// lie past the deadline: it stays pending for a later run.
TYPED_TEST(EngineContractTest, HookCancellingTheNextEventKeepsTheDeadline) {
  auto& sim = this->sim_;
  typename TypeParam::Handle first;
  sim.AddPreAdvanceHook([&] { first.Cancel(); });
  first = sim.ScheduleAt(TimeNs::Nanos(10), [&] { this->Mark("e10"); });
  sim.ScheduleAt(TimeNs::Nanos(50), [&] { this->Mark("e50"); });
  EXPECT_EQ(sim.RunUntil(TimeNs::Nanos(20)), TimeNs::Nanos(20));
  EXPECT_TRUE(this->order_.empty());
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.RunUntil(TimeNs::Nanos(60)), TimeNs::Nanos(60));
  EXPECT_EQ(this->order_, (std::vector<std::string>{"e50"}));
  EXPECT_EQ(sim.events_executed(), 1u);
}

TYPED_TEST(EngineContractTest, RunUntilComposesSequentially) {
  auto& sim = this->sim_;
  int fired = 0;
  sim.SchedulePeriodic(TimeNs::Nanos(7), [&] { ++fired; });
  sim.RunUntil(TimeNs::Nanos(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), TimeNs::Nanos(10));
  sim.RunFor(TimeNs::Nanos(10));  // To t=20: fires at 14.
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), TimeNs::Nanos(20));
}

// Stop() inside RunUntil leaves the clock at the stopping event: jumping to
// the deadline would let the next run fire an earlier event and move the
// clock backwards.
TYPED_TEST(EngineContractTest, StopInsideRunUntilKeepsClockMonotone) {
  auto& sim = this->sim_;
  std::vector<TimeNs> seen;
  sim.ScheduleAt(TimeNs::Nanos(10), [&] {
    seen.push_back(sim.Now());
    sim.Stop();
  });
  sim.ScheduleAt(TimeNs::Nanos(20), [&] { seen.push_back(sim.Now()); });
  EXPECT_EQ(sim.RunUntil(TimeNs::Nanos(100)), TimeNs::Nanos(10));
  EXPECT_EQ(sim.Now(), TimeNs::Nanos(10));
  seen.push_back(sim.Now());
  sim.Run();
  seen.push_back(sim.Now());
  EXPECT_EQ(seen, (std::vector<TimeNs>{TimeNs::Nanos(10), TimeNs::Nanos(10), TimeNs::Nanos(20),
                                       TimeNs::Nanos(20)}));
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

// A zero period would re-fire at one timestamp forever and a negative one
// would run the clock backwards, so both are fatal at the scheduling site.
TYPED_TEST(EngineContractTest, NonPositivePeriodIsFatal) {
  auto& sim = this->sim_;
  sim.RunUntil(TimeNs::Nanos(100));
  EXPECT_DEATH(sim.SchedulePeriodic(TimeNs::Zero(), [] {}), "period > TimeNs::Zero");
  EXPECT_DEATH(sim.SchedulePeriodic(TimeNs::Nanos(-30), [] {}), "period > TimeNs::Zero");
}

TYPED_TEST(EngineContractTest, DefaultHandleIsInert) {
  auto& sim = this->sim_;
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { this->Mark("e10"); });
  typename TypeParam::Handle h;
  h.Cancel();  // Must be a no-op.
  h.Cancel();
  sim.Run();
  EXPECT_EQ(this->order_, (std::vector<std::string>{"e10"}));
}

// A handle outlives its event: once A has fired, the pooled engine hands
// A's slot to the next event B under a new generation, and A's old handle
// must not reach B.
TYPED_TEST(EngineContractTest, FiredHandleCannotCancelTheNextEventInItsSlot) {
  auto& sim = this->sim_;
  auto a = sim.ScheduleAt(TimeNs::Nanos(10), [&] { this->Mark("a"); });
  sim.RunUntil(TimeNs::Nanos(20));
  sim.ScheduleAt(TimeNs::Nanos(30), [&] { this->Mark("b"); });
  a.Cancel();
  sim.Run();
  EXPECT_EQ(this->order_, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

}  // namespace
}  // namespace mihn::sim
