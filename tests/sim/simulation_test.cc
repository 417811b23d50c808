#include "src/sim/simulation.h"

#include <gtest/gtest.h>

#include <vector>

namespace mihn::sim {
namespace {

TEST(SimulationTest, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.Now(), TimeNs::Zero());
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulationTest, RunAdvancesClockToEventTimes) {
  Simulation sim;
  std::vector<int64_t> fired_at;
  sim.ScheduleAt(TimeNs::Nanos(100), [&] { fired_at.push_back(sim.Now().nanos()); });
  sim.ScheduleAt(TimeNs::Nanos(50), [&] { fired_at.push_back(sim.Now().nanos()); });
  sim.ScheduleAt(TimeNs::Nanos(200), [&] { fired_at.push_back(sim.Now().nanos()); });
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<int64_t>{50, 100, 200}));
  EXPECT_EQ(sim.Now(), TimeNs::Nanos(200));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulationTest, TiesFireInInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { order.push_back(1); });
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { order.push_back(2); });
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, ScheduleAfterIsRelative) {
  Simulation sim;
  TimeNs inner_fire = TimeNs::Zero();
  sim.ScheduleAt(TimeNs::Micros(1), [&] {
    sim.ScheduleAfter(TimeNs::Micros(2), [&] { inner_fire = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_fire, TimeNs::Micros(3));
}

TEST(SimulationTest, SchedulingInThePastClampsToNow) {
  Simulation sim;
  TimeNs fired = TimeNs::Max();
  sim.ScheduleAt(TimeNs::Micros(5), [&] {
    sim.ScheduleAt(TimeNs::Micros(1), [&] { fired = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(fired, TimeNs::Micros(5));
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  EventHandle h = sim.ScheduleAt(TimeNs::Nanos(10), [&] { fired = true; });
  h.Cancel();
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, CancelCopyCancelsOriginal) {
  Simulation sim;
  bool fired = false;
  EventHandle h = sim.ScheduleAt(TimeNs::Nanos(10), [&] { fired = true; });
  EventHandle copy = h;
  copy.Cancel();
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulationTest, DefaultHandleIsInert) {
  Simulation sim;
  bool fired = false;
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { fired = true; });
  EventHandle h;
  h.Cancel();  // Must not crash, nor touch a scheduled event.
  h.Cancel();
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulationTest, PeriodicFiresRepeatedlyUntilCancelled) {
  Simulation sim;
  int fires = 0;
  EventHandle h = sim.SchedulePeriodic(TimeNs::Micros(1), [&] {
    ++fires;
    if (fires == 5) {
      h.Cancel();
    }
  });
  sim.RunUntil(TimeNs::Millis(1));
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(sim.Now(), TimeNs::Millis(1));
}

TEST(SimulationTest, PeriodicPeriodIsExact) {
  Simulation sim;
  std::vector<int64_t> times;
  EventHandle h = sim.SchedulePeriodic(TimeNs::Nanos(250), [&] {
    times.push_back(sim.Now().nanos());
  });
  sim.RunUntil(TimeNs::Nanos(1000));
  h.Cancel();
  EXPECT_EQ(times, (std::vector<int64_t>{250, 500, 750, 1000}));
}

TEST(SimulationTest, RunUntilAdvancesClockWhenQueueEmpty) {
  Simulation sim;
  sim.RunUntil(TimeNs::Micros(7));
  EXPECT_EQ(sim.Now(), TimeNs::Micros(7));
}

TEST(SimulationTest, RunUntilDoesNotExecuteLaterEvents) {
  Simulation sim;
  bool late_fired = false;
  sim.ScheduleAt(TimeNs::Micros(10), [&] { late_fired = true; });
  sim.RunUntil(TimeNs::Micros(5));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.Now(), TimeNs::Micros(5));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_TRUE(late_fired);
}

TEST(SimulationTest, RunUntilExecutesEventsAtDeadline) {
  Simulation sim;
  bool fired = false;
  sim.ScheduleAt(TimeNs::Micros(5), [&] { fired = true; });
  sim.RunUntil(TimeNs::Micros(5));
  EXPECT_TRUE(fired);
}

TEST(SimulationTest, RunForComposes) {
  Simulation sim;
  sim.RunFor(TimeNs::Micros(3));
  sim.RunFor(TimeNs::Micros(4));
  EXPECT_EQ(sim.Now(), TimeNs::Micros(7));
}

TEST(SimulationTest, StopHaltsRun) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleAt(TimeNs::Nanos(1), [&] {
    ++fired;
    sim.Stop();
  });
  sim.ScheduleAt(TimeNs::Nanos(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  // A subsequent Run resumes.
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, EventsCanScheduleManyNestedEvents) {
  Simulation sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 1000) {
      sim.ScheduleAfter(TimeNs::Nanos(1), chain);
    }
  };
  sim.ScheduleAt(TimeNs::Zero(), chain);
  sim.Run();
  EXPECT_EQ(count, 1000);
  EXPECT_EQ(sim.Now(), TimeNs::Nanos(999));
}

TEST(SimulationTest, PreAdvanceHookFiresBetweenTimestampsNotWithin) {
  Simulation sim;
  std::vector<int> order;
  sim.AddPreAdvanceHook([&] { order.push_back(-1); });
  // Two events at t=10 (one timestamp), one at t=20.
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { order.push_back(1); });
  sim.ScheduleAt(TimeNs::Nanos(10), [&] { order.push_back(2); });
  sim.ScheduleAt(TimeNs::Nanos(20), [&] { order.push_back(3); });
  sim.Run();
  // Hook: before advancing to 10, between 10 and 20, and when the queue
  // drains — never between the two t=10 events.
  EXPECT_EQ(order, (std::vector<int>{-1, 1, 2, -1, 3, -1}));
}

TEST(SimulationTest, PreAdvanceHookMayScheduleEvents) {
  Simulation sim;
  int flushed = 0;
  bool event_ran = false;
  sim.AddPreAdvanceHook([&] {
    if (flushed == 0) {
      ++flushed;
      sim.ScheduleAfter(TimeNs::Nanos(5), [&] { event_ran = true; });
    }
  });
  sim.ScheduleAt(TimeNs::Nanos(10), [] {});
  sim.Run();
  EXPECT_TRUE(event_ran);  // Hook-scheduled event executed, not dropped.
}

TEST(SimulationTest, PreAdvanceHookFiresBeforeRunUntilClampsClock) {
  Simulation sim;
  TimeNs hook_time = TimeNs::Nanos(-1);
  sim.AddPreAdvanceHook([&] { hook_time = sim.Now(); });
  sim.ScheduleAt(TimeNs::Nanos(10), [] {});
  sim.ScheduleAt(TimeNs::Nanos(500), [] {});  // Beyond the deadline.
  sim.RunUntil(TimeNs::Nanos(100));
  // The flush happened at t=10 (the last executed timestamp), before the
  // clock was advanced to the deadline.
  EXPECT_EQ(hook_time, TimeNs::Nanos(10));
  EXPECT_EQ(sim.Now(), TimeNs::Nanos(100));
}

TEST(SimulationTest, CancelledPreAdvanceHookStopsFiring) {
  Simulation sim;
  int fired = 0;
  EventHandle handle = sim.AddPreAdvanceHook([&] { ++fired; });
  sim.ScheduleAt(TimeNs::Nanos(10), [] {});
  sim.Run();
  const int fired_before = fired;
  EXPECT_GT(fired_before, 0);
  handle.Cancel();
  sim.ScheduleAt(TimeNs::Nanos(20), [] {});
  sim.Run();
  EXPECT_EQ(fired, fired_before);
}

// Cancel frees the slot and the queue entry at once, however far ahead the
// event was due: a schedule-then-cancel loop reuses one slot and leaves
// nothing queued.
TEST(SimulationTest, CancelFreesItsSlotAtOnce) {
  Simulation sim;
  for (int i = 0; i < 10000; ++i) {
    EventHandle h = sim.ScheduleAfter(TimeNs::Seconds(1), [] {});
    h.Cancel();
  }
  EXPECT_EQ(sim.event_pool_capacity(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulationTest, ForkRngIsDeterministicPerSeed) {
  Simulation a(99);
  Simulation b(99);
  EXPECT_EQ(a.ForkRng(5).NextU64(), b.ForkRng(5).NextU64());
  Simulation c(100);
  EXPECT_NE(a.ForkRng(5).NextU64(), c.ForkRng(5).NextU64());
}

}  // namespace
}  // namespace mihn::sim
