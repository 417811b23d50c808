#include "src/workload/trace.h"

#include <gtest/gtest.h>

#include "src/host/host_network.h"

namespace mihn::workload {
namespace {

using sim::TimeNs;

HostNetwork::Options Quiet() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

std::vector<TraceEvent> SampleTrace() {
  return {
      {TimeNs::Millis(1), "ssd0", "s0.mc0.dimm0", 1'000'000, 1, false},
      {TimeNs::Millis(2), "nic0", "s0", 2'000'000, 2, true},
      {TimeNs::Millis(3), "gpu0", "s0.mc0.dimm1", 500'000, 1, false},
  };
}

TEST(TraceTest, CsvRoundTrip) {
  const auto events = SampleTrace();
  const std::string csv = TraceToCsv(events);
  const TraceParseResult parsed = TraceFromCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.events, events);
  // An untagged event writes tenant -1 (kNoTenant) and must read back.
  const std::vector<TraceEvent> untagged = {
      {TimeNs::Zero(), "nic0", "s0", 0, fabric::kNoTenant, false}};
  EXPECT_EQ(TraceFromCsv(TraceToCsv(untagged)).events, untagged);
}

TEST(TraceTest, ParseErrors) {
  EXPECT_NE(TraceFromCsv("").error, "");
  EXPECT_NE(TraceFromCsv("wrong,header\n").error, "");
  EXPECT_NE(TraceFromCsv("at_ns,src,dst,bytes,tenant,ddio\n1,2,3\n").error, "");
  EXPECT_NE(TraceFromCsv("at_ns,src,dst,bytes,tenant,ddio\nabc,a,b,1,1,0\n").error, "");
  // Error cites the line.
  EXPECT_NE(TraceFromCsv("at_ns,src,dst,bytes,tenant,ddio\n1,a,b,1,1,0\nxx,a,b\n")
                .error.find("line 3"),
            std::string::npos);
  // Numbers are whole tokens; at_ns and bytes are >= 0, tenant >= -1
  // (kNoTenant), ddio 0 or 1.
  struct Case {
    const char* row;
    const char* expect;
  };
  const Case cases[] = {
      {"1junk,a,b,1,1,0", "line 2: bad at_ns"}, {"-1,a,b,1,1,0", "line 2: bad at_ns"},
      {"1,a,b,5x,1,0", "line 2: bad bytes"},    {"1,a,b,-5,1,0", "line 2: bad bytes"},
      {"1,a,b,1,2y,0", "line 2: bad tenant"},   {"1,a,b,1,-2,0", "line 2: bad tenant"},
      {"1,a,b,1,1,2", "line 2: bad ddio"},      {"1,a,b,1,1,yes", "line 2: bad ddio"},
  };
  for (const Case& c : cases) {
    const std::string csv = std::string("at_ns,src,dst,bytes,tenant,ddio\n") + c.row + "\n";
    EXPECT_NE(TraceFromCsv(csv).error.find(c.expect), std::string::npos)
        << c.row << " -> " << TraceFromCsv(csv).error;
  }
}

TEST(TraceTest, ReplayIssuesAllTransfers) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  TraceReplayer::Config config;
  config.events = SampleTrace();
  TraceReplayer replayer(host.fabric(), config);
  replayer.Start();
  host.RunFor(TimeNs::Millis(100));
  EXPECT_EQ(replayer.issued(), 3);
  EXPECT_EQ(replayer.skipped(), 0);
  EXPECT_EQ(replayer.completed(), 3);
  EXPECT_GT(replayer.sojourn_us().mean(), 0.0);
}

TEST(TraceTest, ReplayRespectsTimestamps) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  TraceReplayer::Config config;
  config.events = {{TimeNs::Millis(5), "ssd0", "s0.mc0.dimm0", 100, 1, false}};
  TraceReplayer replayer(host.fabric(), config);
  replayer.Start();
  host.RunFor(TimeNs::Millis(4));
  EXPECT_EQ(replayer.issued(), 0);
  host.RunFor(TimeNs::Millis(2));
  EXPECT_EQ(replayer.issued(), 1);
}

TEST(TraceTest, TimeScaleStretchesTheSchedule) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  TraceReplayer::Config config;
  config.events = {{TimeNs::Millis(5), "ssd0", "s0.mc0.dimm0", 100, 1, false}};
  config.time_scale = 2.0;
  TraceReplayer replayer(host.fabric(), config);
  replayer.Start();
  host.RunFor(TimeNs::Millis(9));
  EXPECT_EQ(replayer.issued(), 0);
  host.RunFor(TimeNs::Millis(2));
  EXPECT_EQ(replayer.issued(), 1);
}

TEST(TraceTest, UnknownComponentsAreSkippedNotFatal) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  TraceReplayer::Config config;
  config.events = {{TimeNs::Millis(1), "nope", "s0", 100, 1, false},
                   {TimeNs::Millis(2), "ssd0", "s0.mc0.dimm0", 100, 1, false}};
  TraceReplayer replayer(host.fabric(), config);
  replayer.Start();
  host.RunFor(TimeNs::Millis(50));
  EXPECT_EQ(replayer.skipped(), 1);
  EXPECT_EQ(replayer.issued(), 1);
}

TEST(TraceTest, StopCancelsRemainingEvents) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  TraceReplayer::Config config;
  config.events = SampleTrace();
  TraceReplayer replayer(host.fabric(), config);
  replayer.Start();
  host.RunFor(TimeNs::Micros(1500));  // Only the first event has fired.
  replayer.Stop();
  host.RunFor(TimeNs::Millis(50));
  EXPECT_EQ(replayer.issued(), 1);
}

TEST(TraceTest, DdioFlagCarriesThrough) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  fabric::FabricConfig tiny_cache;
  tiny_cache.way_bytes = 10 * 1024;
  tiny_cache.ddio_ways = 1;
  host.fabric().SetConfig(tiny_cache);
  TraceReplayer::Config config;
  // A large elastic-duration DDIO write: spill appears while in flight.
  config.events = {{TimeNs::Millis(1), "nic0", "s0", 500'000'000, 7, true}};
  TraceReplayer replayer(host.fabric(), config);
  replayer.Start();
  host.RunFor(TimeNs::Millis(5));
  EXPECT_LT(host.fabric().CacheStats(host.server().sockets[0]).hit_rate, 1.0);
}

}  // namespace
}  // namespace mihn::workload
