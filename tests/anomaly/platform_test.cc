// Tests for the assembled anomaly platform: DetectorBank over Collector
// series, congestion root-cause analysis, and the misconfiguration checker.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/anomaly/bank.h"
#include "src/anomaly/misconfig.h"
#include "src/anomaly/root_cause.h"
#include "src/host/host_network.h"
#include "src/workload/sources.h"

namespace mihn::anomaly {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

HostNetwork::Options Quiet() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

// Fires whenever a value exceeds |high|: the simplest detector a bank can
// hold, so these tests exercise the bank and not a detector's statistics.
class AboveDetector : public Detector {
 public:
  explicit AboveDetector(double high) : high_(high) {}
  std::optional<Anomaly> Observe(TimeNs at, double value) override {
    if (value <= high_) {
      return std::nullopt;
    }
    Anomaly a;
    a.at = at;
    a.value = value;
    a.score = value - high_;
    a.detail = "above threshold";
    return a;
  }
  std::string name() const override { return "above"; }
  void Reset() override {}

 private:
  double high_;
};

TEST(DetectorBankTest, FiresOnUtilizationStep) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  telemetry::Collector::Config tconfig;
  tconfig.period = TimeNs::Millis(1);
  telemetry::Collector collector(host.fabric(), tconfig);
  collector.Start();

  const auto path = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  const topology::DirectedLink hop = path.hops[0];
  DetectorBank bank;
  bank.Attach(telemetry::Collector::LinkUtilKey(hop.link, hop.forward),
              std::make_unique<AboveDetector>(0.8));

  host.RunFor(TimeNs::Millis(10));
  EXPECT_TRUE(bank.Scan(collector).empty());

  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  host.RunFor(TimeNs::Millis(10));
  const auto fired = bank.Scan(collector);
  ASSERT_FALSE(fired.empty());
  EXPECT_EQ(fired.front().metric, telemetry::Collector::LinkUtilKey(hop.link, hop.forward));
  EXPECT_NE(fired.front().detail.find("threshold"), std::string::npos);
  EXPECT_EQ(bank.log().size(), fired.size());
}

TEST(DetectorBankTest, ScanDoesNotReprocessOldPoints) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  telemetry::Collector::Config tconfig;
  tconfig.period = TimeNs::Millis(1);
  telemetry::Collector collector(host.fabric(), tconfig);
  collector.Start();

  workload::StreamSource::Config bulk;
  bulk.src = host.server().ssds[0];
  bulk.dst = host.server().dimms[0];
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();

  const auto path = *host.fabric().Route(host.server().ssds[0], host.server().dimms[0]);
  DetectorBank bank;
  bank.Attach(telemetry::Collector::LinkUtilKey(path.hops[0].link, path.hops[0].forward),
              std::make_unique<AboveDetector>(0.5));
  host.RunFor(TimeNs::Millis(5));
  const size_t first = bank.Scan(collector).size();
  EXPECT_GT(first, 0u);
  // No new samples -> no new anomalies.
  EXPECT_TRUE(bank.Scan(collector).empty());
  host.RunFor(TimeNs::Millis(3));
  EXPECT_EQ(bank.Scan(collector).size(), 3u);
}

// Records every point the bank feeds it; never fires.
class RecordingDetector : public Detector {
 public:
  explicit RecordingDetector(std::vector<sim::TimePoint>* seen) : seen_(seen) {}
  std::optional<Anomaly> Observe(TimeNs at, double value) override {
    seen_->push_back({at, value});
    return std::nullopt;
  }
  std::string name() const override { return "recording"; }
  void Reset() override {}

 private:
  std::vector<sim::TimePoint>* seen_;
};

std::vector<int64_t> Millis(const std::vector<sim::TimePoint>& points) {
  std::vector<int64_t> out;
  for (const sim::TimePoint& p : points) {
    out.push_back(p.time.nanos() / 1'000'000);
  }
  return out;
}

TEST(DetectorBankTest, MoreNewPointsThanCapacityAreEachSeenOnceInOrder) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  telemetry::Collector::Config tconfig;
  tconfig.period = TimeNs::Millis(1);
  tconfig.series_capacity = 4;
  telemetry::Collector collector(host.fabric(), tconfig);
  collector.Start();

  std::vector<sim::TimePoint> seen;
  DetectorBank bank;
  bank.Attach(telemetry::Collector::LinkUtilKey(0, true),
              std::make_unique<RecordingDetector>(&seen));
  host.RunFor(TimeNs::Millis(2));
  bank.Scan(collector);
  EXPECT_EQ(Millis(seen), (std::vector<int64_t>{1, 2}));

  // Ten new points into a 4-point ring: the scan sees the 4 retained ones.
  seen.clear();
  host.RunFor(TimeNs::Millis(10));
  bank.Scan(collector);
  EXPECT_EQ(Millis(seen), (std::vector<int64_t>{9, 10, 11, 12}));

  seen.clear();
  host.RunFor(TimeNs::Millis(1));
  bank.Scan(collector);
  EXPECT_EQ(Millis(seen), (std::vector<int64_t>{13}));
}

TEST(DetectorBankTest, KeyThatAppearsAfterAttachIsPickedUp) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  telemetry::Collector::Config tconfig;
  tconfig.period = TimeNs::Millis(1);
  telemetry::Collector collector(host.fabric(), tconfig);
  collector.Start();

  const auto path = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  const std::string key =
      telemetry::Collector::TenantRateKey(path.hops[0].link, path.hops[0].forward, 5);
  std::vector<sim::TimePoint> seen;
  DetectorBank bank;
  bank.Attach(key, std::make_unique<RecordingDetector>(&seen));
  host.RunFor(TimeNs::Millis(3));
  bank.Scan(collector);
  EXPECT_FALSE(collector.Series(key));
  EXPECT_TRUE(seen.empty());

  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.tenant = 5;
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  host.RunFor(TimeNs::Millis(3));
  bank.Scan(collector);
  EXPECT_EQ(Millis(seen), (std::vector<int64_t>{4, 5, 6}));
  EXPECT_GT(seen.back().value, 0.0);
}

TEST(DetectorBankTest, SecondSampleAtOneTimeIsNotFedAgain) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  telemetry::Collector collector(host.fabric(), telemetry::Collector::Config{});
  const std::string key = telemetry::Collector::LinkUtilKey(0, true);
  std::vector<sim::TimePoint> seen;
  DetectorBank bank;
  bank.Attach(key, std::make_unique<RecordingDetector>(&seen));

  // Two samples at t=0 with no scan between: both are new.
  collector.SampleOnce();
  collector.SampleOnce();
  bank.Scan(collector);
  EXPECT_EQ(seen.size(), 2u);

  // A third sample at t=0 after that scan is not later than the last point
  // fed, so the next scan skips it.
  collector.SampleOnce();
  bank.Scan(collector);
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(collector.Series(key)->size(), 3u);

  host.RunFor(TimeNs::Millis(1));
  collector.SampleOnce();
  bank.Scan(collector);
  EXPECT_EQ(Millis(seen), (std::vector<int64_t>{0, 0, 1}));
}

TEST(DetectorBankTest, OneBankScansTwoCollectors) {
  sim::Simulation sim;
  HostNetwork idle(sim, Quiet());
  HostNetwork busy(sim, Quiet());
  telemetry::Collector::Config tconfig;
  tconfig.period = TimeNs::Millis(1);
  telemetry::Collector idle_collector(idle.fabric(), tconfig);
  telemetry::Collector busy_collector(busy.fabric(), tconfig);
  idle_collector.Start();
  busy_collector.Start();

  const auto& server = busy.server();
  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  workload::StreamSource stream(busy.fabric(), bulk);
  stream.Start();
  const topology::DirectedLink hop = busy.fabric().Route(bulk.src, bulk.dst)->hops[0];
  const std::string key = telemetry::Collector::LinkUtilKey(hop.link, hop.forward);

  std::vector<sim::TimePoint> seen;
  DetectorBank bank;
  bank.Attach(key, std::make_unique<RecordingDetector>(&seen));
  sim.RunFor(TimeNs::Millis(2));
  bank.Scan(idle_collector);
  ASSERT_EQ(Millis(seen), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(seen.back().value, 0.0);

  // The same attachment reads the other collector's series from there on.
  seen.clear();
  sim.RunFor(TimeNs::Millis(2));
  bank.Scan(busy_collector);
  ASSERT_EQ(Millis(seen), (std::vector<int64_t>{3, 4}));
  const auto busy_series = busy_collector.Series(key);
  EXPECT_EQ(seen.back().value, busy_series->At(busy_series->size() - 1).value);
  EXPECT_GT(seen.back().value, 0.0);

  seen.clear();
  sim.RunFor(TimeNs::Millis(1));
  bank.Scan(idle_collector);
  ASSERT_EQ(Millis(seen), (std::vector<int64_t>{5}));
  EXPECT_EQ(seen.back().value, 0.0);
}

TEST(RootCauseTest, QuietFabricHasNoCongestion) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  RootCauseAnalyzer analyzer(host.fabric());
  EXPECT_TRUE(analyzer.FindCongestedLinks().empty());
}

TEST(RootCauseTest, BlamesDominantTenant) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  workload::StreamSource::Config big;
  big.src = server.ssds[0];
  big.dst = server.dimms[0];
  big.tenant = 11;
  big.weight = 3.0;
  workload::StreamSource hog(host.fabric(), big);
  hog.Start();
  workload::StreamSource::Config small;
  small.src = server.gpus[0];
  small.dst = server.dimms[0];
  small.tenant = 22;
  workload::StreamSource minor(host.fabric(), small);
  minor.Start();

  RootCauseAnalyzer analyzer(host.fabric(), 0.9);
  const auto reports = analyzer.FindCongestedLinks();
  ASSERT_FALSE(reports.empty());
  // The most utilized congested link names tenant 11 first.
  ASSERT_FALSE(reports.front().tenants.empty());
  EXPECT_EQ(reports.front().tenants.front().tenant, 11);
  const std::string rendered = analyzer.Render(reports.front());
  EXPECT_NE(rendered.find("congested"), std::string::npos);
  EXPECT_NE(rendered.find("tenant 11"), std::string::npos);
  // The report for the shared bottleneck names both tenants with 11 first.
  bool found_shared = false;
  for (const auto& report : reports) {
    if (report.tenants.size() >= 2) {
      found_shared = true;
      EXPECT_EQ(report.tenants[0].tenant, 11);
      EXPECT_GT(report.tenants[0].share, report.tenants[1].share);
      EXPECT_NEAR(report.tenants[0].share + report.tenants[1].share, 1.0, 1e-6);
    }
  }
  EXPECT_TRUE(found_shared);
}

TEST(RootCauseTest, FlagsSpillAsUnintendedConsumption) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  // Tiny DDIO -> heavy spill onto the memory bus.
  fabric::FabricConfig config;
  config.way_bytes = 50 * 1024;
  config.ddio_ways = 1;
  host.fabric().SetConfig(config);

  fabric::FlowSpec write;
  write.path = *host.fabric().Route(server.nics[0], server.sockets[0]);
  write.ddio_write = true;
  write.tenant = 9;
  host.fabric().StartFlow(write);

  // Find the memory-bus hop carrying spill.
  RootCauseAnalyzer analyzer(host.fabric(), 0.0);  // Report every loaded link.
  bool saw_spill = false;
  for (const auto& report : analyzer.FindCongestedLinks()) {
    if (report.spill_fraction > 0.9) {
      saw_spill = true;
      EXPECT_EQ(report.dominant_class, fabric::TrafficClass::kSpill);
      // Attribution still points at the causing tenant.
      ASSERT_FALSE(report.tenants.empty());
      EXPECT_EQ(report.tenants.front().tenant, 9);
    }
  }
  EXPECT_TRUE(saw_spill);
}

TEST(MisconfigTest, CleanDefaultConfigIsQuiet) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  MisconfigChecker checker(host.fabric());
  EXPECT_TRUE(checker.Check().empty());
}

TEST(MisconfigTest, FlagsSmallPayloadSize) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  fabric::FabricConfig config;
  config.max_payload_bytes = 128;
  host.fabric().SetConfig(config);
  MisconfigChecker checker(host.fabric());
  const auto findings = checker.Check();
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings.front().knob, "max_payload_bytes");
  EXPECT_EQ(findings.front().severity, Finding::Severity::kWarning);
  // 64 B is critical.
  config.max_payload_bytes = 64;
  host.fabric().SetConfig(config);
  EXPECT_EQ(checker.Check().front().severity, Finding::Severity::kCritical);
}

TEST(MisconfigTest, FlagsOrderingIommuAndModeration) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  fabric::FabricConfig config;
  config.relaxed_ordering = false;
  config.iommu_enabled = true;
  config.interrupt_moderation = sim::TimeNs::Micros(50);
  host.fabric().SetConfig(config);
  MisconfigChecker checker(host.fabric());
  const auto findings = checker.Check();
  std::set<std::string> knobs;
  for (const auto& f : findings) {
    knobs.insert(f.knob);
  }
  EXPECT_TRUE(knobs.contains("relaxed_ordering"));
  EXPECT_TRUE(knobs.contains("iommu_enabled"));
  EXPECT_TRUE(knobs.contains("interrupt_moderation"));
  // Warnings sort before infos.
  EXPECT_EQ(findings.front().severity, Finding::Severity::kWarning);
}

TEST(MisconfigTest, FlagsDdioThrashingFromObservedStats) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  fabric::FabricConfig config;
  config.way_bytes = 50 * 1024;
  config.ddio_ways = 1;
  host.fabric().SetConfig(config);
  fabric::FlowSpec write;
  write.path = *host.fabric().Route(server.nics[0], server.sockets[0]);
  write.ddio_write = true;
  host.fabric().StartFlow(write);

  MisconfigChecker checker(host.fabric());
  const auto findings = checker.Check();
  bool found = false;
  for (const auto& f : findings) {
    if (f.knob == "ddio_ways") {
      found = true;
      EXPECT_NE(f.message.find("thrashing"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(checker.Render().find("ddio_ways"), std::string::npos);
}

TEST(MisconfigTest, FlagsDdioDisabledUnderIoLoad) {
  sim::Simulation sim;
  HostNetwork host(sim, Quiet());
  const auto& server = host.server();
  fabric::FabricConfig config;
  config.ddio_enabled = false;
  host.fabric().SetConfig(config);
  fabric::FlowSpec write;
  write.path = *host.fabric().Route(server.nics[0], server.sockets[0]);
  write.ddio_write = true;
  host.fabric().StartFlow(write);
  MisconfigChecker checker(host.fabric());
  bool found = false;
  for (const auto& f : checker.Check()) {
    if (f.knob == "ddio_enabled") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace mihn::anomaly
