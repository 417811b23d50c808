#include "src/obs/tracer.h"

#include <gtest/gtest.h>

#include "src/sim/simulation.h"

namespace mihn::obs {
namespace {

using sim::TimeNs;

TraceConfig Enabled(size_t span_cap = 1 << 14, size_t counter_cap = 1 << 14) {
  TraceConfig config;
  config.enabled = true;
  config.span_capacity = span_cap;
  config.counter_capacity = counter_cap;
  return config;
}

// The core contract: a disabled tracer records nothing and allocates
// nothing — the macros are a single branch on the cached flag.
TEST(TracerTest, DisabledRecordsNothingAllocatesNothing) {
  Tracer tracer;  // Default: disabled.
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.allocated_bytes(), 0u);

  {
    MIHN_TRACE_SPAN(span, &tracer, "test", "test.span");
    span.Arg("ignored", 1.0);
    EXPECT_FALSE(span.active());
  }
  MIHN_TRACE_COUNTER(&tracer, "test", "test.counter", 42);

  EXPECT_EQ(tracer.dropped_spans(), 0u);
  EXPECT_EQ(tracer.dropped_counters(), 0u);
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(tracer.counters().empty());
  EXPECT_EQ(tracer.allocated_bytes(), 0u);  // Still nothing.
}

TEST(TracerTest, DisabledConfigWithCapacitiesStillAllocatesNothing) {
  TraceConfig config;
  config.enabled = false;
  config.span_capacity = 1 << 20;
  config.counter_capacity = 1 << 20;
  Tracer tracer(config);
  EXPECT_EQ(tracer.allocated_bytes(), 0u);
}

TEST(TracerTest, DisabledSingletonIsInert) {
  Tracer* inert = Tracer::Disabled();
  ASSERT_NE(inert, nullptr);
  EXPECT_EQ(inert, Tracer::Disabled());  // Process-wide instance.
  EXPECT_FALSE(inert->enabled());
  MIHN_TRACE_COUNTER(Tracer::Disabled(), "test", "test.counter", 1);
  EXPECT_TRUE(inert->counters().empty());
}

TEST(TracerTest, RecordsSpanWithArgsAndVirtualStamps) {
  sim::Simulation sim;
  Tracer tracer(Enabled(), &sim);
  EXPECT_GT(tracer.allocated_bytes(), 0u);

  sim.ScheduleAt(TimeNs::Micros(7), [&] {
    MIHN_TRACE_SPAN(span, &tracer, "fabric", "fabric.solve");
    EXPECT_TRUE(span.active());
    span.Arg("flows", 12.0);
    span.Arg("rounds", 3.0);
  });
  sim.Run();

  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "fabric.solve");
  EXPECT_STREQ(spans[0].category, "fabric");
  EXPECT_EQ(spans[0].start, TimeNs::Micros(7));
  EXPECT_EQ(spans[0].end, TimeNs::Micros(7));
  ASSERT_EQ(spans[0].num_args, 2u);
  EXPECT_STREQ(spans[0].args[0].key, "flows");
  EXPECT_EQ(spans[0].args[0].value, 12.0);
  EXPECT_EQ(spans[0].args[1].value, 3.0);
  // Profiling off: no wall stamps.
  EXPECT_EQ(spans[0].wall_start_ns, 0);
  EXPECT_EQ(spans[0].wall_end_ns, 0);
}

TEST(TracerTest, ArgsBeyondCapacityAreDropped) {
  Tracer tracer(Enabled());
  {
    MIHN_TRACE_SPAN(span, &tracer, "t", "t.s");
    for (int i = 0; i < 10; ++i) {
      span.Arg("k", static_cast<double>(i));
    }
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].num_args, kMaxSpanArgs);
}

TEST(TracerTest, SpanRingWrapsOldestFirstAndCountsDrops) {
  Tracer tracer(Enabled(/*span_cap=*/4));
  for (int i = 0; i < 10; ++i) {
    MIHN_TRACE_SPAN(span, &tracer, "t", "t.s");
    span.Arg("i", static_cast<double>(i));
  }
  EXPECT_EQ(tracer.dropped_spans(), 6u);
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Retained: the newest 4, oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[static_cast<size_t>(i)].args[0].value, 6.0 + i);
  }
}

TEST(TracerTest, CounterRingWrapsOldestFirstAndCountsDrops) {
  Tracer tracer(Enabled(1 << 14, /*counter_cap=*/3));
  for (int i = 0; i < 8; ++i) {
    MIHN_TRACE_COUNTER(&tracer, "t", "t.c", i);
  }
  EXPECT_EQ(tracer.dropped_counters(), 5u);
  const auto counters = tracer.counters();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].value, 5.0);
  EXPECT_EQ(counters[1].value, 6.0);
  EXPECT_EQ(counters[2].value, 7.0);
}

TEST(TracerTest, ProfilingModeStampsWallClock) {
  TraceConfig config = Enabled();
  config.profiling = true;
  Tracer tracer(config);
  {
    MIHN_TRACE_SPAN(span, &tracer, "t", "t.s");
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GT(spans[0].wall_start_ns, 0);
  EXPECT_GE(spans[0].wall_end_ns, spans[0].wall_start_ns);

  MIHN_TRACE_COUNTER(&tracer, "t", "t.c", 1);
  ASSERT_EQ(tracer.counters().size(), 1u);
  EXPECT_GT(tracer.counters()[0].wall_ns, 0);
}

TEST(TracerTest, ClearDiscardsRecordsButKeepsCapacity) {
  Tracer tracer(Enabled(/*span_cap=*/8));
  for (int i = 0; i < 5; ++i) {
    MIHN_TRACE_SCOPE(&tracer, "t", "t.s");
  }
  MIHN_TRACE_COUNTER(&tracer, "t", "t.c", 1);
  const size_t bytes = tracer.allocated_bytes();
  EXPECT_GT(bytes, 0u);

  tracer.Clear();
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_TRUE(tracer.counters().empty());
  EXPECT_EQ(tracer.allocated_bytes(), bytes);

  // Still records after a clear.
  {
    MIHN_TRACE_SCOPE(&tracer, "t", "t.s");
  }
  EXPECT_EQ(tracer.spans().size(), 1u);
}

TEST(TracerTest, ClocklessTracerStampsZeroVirtualTime) {
  sim::Simulation sim;
  Tracer standalone(Enabled());  // No clock: virtual stamps are zero.
  Tracer bound(Enabled(), &sim);
  sim.ScheduleAt(TimeNs::Micros(3), [&] {
    MIHN_TRACE_COUNTER(&standalone, "t", "t.c", 1);
    MIHN_TRACE_COUNTER(&bound, "t", "t.c", 1);
  });
  sim.Run();
  EXPECT_EQ(standalone.counters()[0].at, TimeNs::Zero());
  EXPECT_EQ(bound.counters()[0].at, TimeNs::Micros(3));
}

}  // namespace
}  // namespace mihn::obs
