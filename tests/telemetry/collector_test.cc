#include "src/telemetry/collector.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "src/anomaly/bank.h"
#include "src/host/host_network.h"
#include "src/workload/sources.h"

namespace mihn::telemetry {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

HostNetwork::Options NoAutoStart() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

TEST(CollectorTest, SamplesPeriodically) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  Collector collector(host.fabric(), config);
  collector.Start();
  host.RunFor(TimeNs::Millis(10));
  EXPECT_EQ(collector.samples_taken(), 10u);
  host.RunFor(TimeNs::Millis(10));
  EXPECT_EQ(collector.samples_taken(), 20u);
}

TEST(CollectorTest, DestroyedCollectorCancelsItsTimer) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const size_t before = sim.pending_events();
  {
    Collector collector(host.fabric(), Collector::Config{});
    collector.Start();
    EXPECT_EQ(sim.pending_events(), before + 1);
  }
  // No sampling tick is left bound to the dead collector.
  EXPECT_EQ(sim.pending_events(), before);
}

TEST(CollectorTest, RecordsUtilizationOfActiveLink) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  Collector collector(host.fabric(), config);

  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.demand = Bandwidth::GBps(5);
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();

  collector.Start();
  host.RunFor(TimeNs::Millis(5));

  const auto path = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  const topology::DirectedLink hop = path.hops[0];
  const auto util = collector.Series(Collector::LinkUtilKey(hop.link, hop.forward));
  ASSERT_TRUE(util);
  EXPECT_EQ(util->size(), 5u);
  EXPECT_GT(util->At(util->size() - 1).value, 0.1);
}

TEST(CollectorTest, ThroughputSeriesIncludesPacketTraffic) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  Collector collector(host.fabric(), config);
  collector.Start();

  // Only packet traffic: 1000 x 1 KiB packets per ms on nic0 -> s0. The
  // fluid rate_bps stays 0, but the byte-delta throughput sees it.
  const auto path = *host.fabric().Route(server.nics[0], server.sockets[0]);
  host.simulation().SchedulePeriodic(TimeNs::Micros(1), [&] {
    fabric::PacketSpec pkt;
    pkt.path = &path;
    pkt.bytes = 1024;
    host.fabric().SendPacket(std::move(pkt));
  });
  host.RunFor(TimeNs::Millis(10));

  const topology::DirectedLink hop = path.hops[0];
  const auto rate = collector.Series(Collector::LinkRateKey(hop.link, hop.forward));
  const auto thpt = collector.Series(Collector::LinkThroughputKey(hop.link, hop.forward));
  ASSERT_TRUE(rate);
  ASSERT_TRUE(thpt);
  EXPECT_DOUBLE_EQ(rate->At(rate->size() - 1).value, 0.0);
  // ~1 KiB/us = ~1.024 GB/s.
  EXPECT_NEAR(thpt->At(thpt->size() - 1).value, 1.024e9, 0.05e9);
}

TEST(CollectorTest, ThroughputMatchesFluidRateForFlows) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  Collector collector(host.fabric(), config);
  collector.Start();
  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.demand = Bandwidth::GBps(5);
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  host.RunFor(TimeNs::Millis(5));
  const auto path = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  const topology::DirectedLink hop = path.hops[0];
  const auto thpt = collector.Series(Collector::LinkThroughputKey(hop.link, hop.forward));
  ASSERT_TRUE(thpt);
  EXPECT_NEAR(thpt->At(thpt->size() - 1).value, 5e9, 1e7);
}

TEST(CollectorTest, FineModeHasPerTenantSeries) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  Collector::Config config;
  config.granularity = Granularity::kFine;
  Collector collector(host.fabric(), config);

  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.tenant = 42;
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  collector.SampleOnce();

  const auto path = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  const topology::DirectedLink hop = path.hops[0];
  const auto tenant_rate = collector.Series(Collector::TenantRateKey(hop.link, hop.forward, 42));
  ASSERT_TRUE(tenant_rate);
  EXPECT_GT(tenant_rate->At(tenant_rate->size() - 1).value, 0.0);
  // Cache series exist in fine mode.
  EXPECT_TRUE(collector.Series(Collector::CacheHitKey(server.sockets[0])));
}

TEST(CollectorTest, CoarseModeOmitsTenantsAndClampsPeriod) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  Collector::Config config;
  config.granularity = Granularity::kCoarse;
  config.period = TimeNs::Micros(10);  // Far below the hardware floor.
  Collector collector(host.fabric(), config);
  collector.Start();
  host.RunFor(kCoarseMinPeriod - TimeNs::Nanos(1));
  EXPECT_EQ(collector.samples_taken(), 0u);  // The 10 us period was floored.
  host.RunFor(TimeNs::Nanos(1));
  EXPECT_EQ(collector.samples_taken(), 1u);

  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.tenant = 42;
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  collector.SampleOnce();

  const auto path = *host.fabric().Route(server.ssds[0], server.dimms[0]);
  const topology::DirectedLink hop = path.hops[0];
  EXPECT_FALSE(collector.Series(Collector::TenantRateKey(hop.link, hop.forward, 42)));
  EXPECT_FALSE(collector.Series(Collector::CacheHitKey(server.sockets[0])));
  // Aggregate series still exist.
  EXPECT_TRUE(collector.Series(Collector::LinkUtilKey(hop.link, hop.forward)));
}

TEST(CollectorTest, FineHasMoreSeriesThanCoarse) {
  auto series_count = [](Granularity g) {
    sim::Simulation sim;
    HostNetwork host(sim, NoAutoStart());
    workload::StreamSource::Config bulk;
    bulk.src = host.server().ssds[0];
    bulk.dst = host.server().dimms[0];
    bulk.tenant = 1;
    workload::StreamSource stream(host.fabric(), bulk);
    stream.Start();
    Collector::Config config;
    config.granularity = g;
    Collector collector(host.fabric(), config);
    collector.SampleOnce();
    return collector.series_count();
  };
  EXPECT_GT(series_count(Granularity::kFine), series_count(Granularity::kCoarse));
}

TEST(CollectorTest, ReportingInjectsMonitorTraffic) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  ASSERT_NE(server.monitor_store, topology::kInvalidComponent);
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  config.report_to = server.monitor_store;
  Collector collector(host.fabric(), config);
  collector.Start();
  host.RunFor(TimeNs::Millis(10));
  EXPECT_GT(collector.bytes_reported(), 0);
  // The monitor-store link carries kMonitor-class bytes.
  const auto path = *host.fabric().Route(server.sockets[0], server.monitor_store);
  const auto snap = host.fabric().Snapshot(path.hops[0]);
  EXPECT_GT(snap.bytes_by_class[static_cast<size_t>(fabric::TrafficClass::kMonitor)], 0.0);
  EXPECT_DOUBLE_EQ(
      snap.bytes_by_class[static_cast<size_t>(fabric::TrafficClass::kMonitor)],
      static_cast<double>(collector.bytes_reported()));
}

TEST(CollectorTest, NoReportingWhenUnset) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  Collector::Config config;
  Collector collector(host.fabric(), config);
  collector.Start();
  host.RunFor(TimeNs::Millis(5));
  EXPECT_EQ(collector.bytes_reported(), 0);
}

TEST(CollectorTest, StoragePressureDropsOldPoints) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  config.series_capacity = 4;
  Collector collector(host.fabric(), config);
  collector.Start();
  host.RunFor(TimeNs::Millis(10));
  EXPECT_GT(collector.total_dropped_points(), 0u);
  for (const auto& key : collector.Keys()) {
    EXPECT_LE(collector.Series(key)->size(), 4u);
  }
}

TEST(CollectorTest, KeysAreStableSchema) {
  EXPECT_EQ(Collector::LinkUtilKey(3, true), "link/3/fwd/util");
  EXPECT_EQ(Collector::LinkRateKey(3, false), "link/3/rev/rate");
  EXPECT_EQ(Collector::TenantRateKey(0, true, 7), "link/0/fwd/tenant/7/rate");
  EXPECT_EQ(Collector::CacheHitKey(2), "socket/2/cache_hit");
  EXPECT_EQ(Collector::ClassRateKey(1, true, fabric::TrafficClass::kSpill),
            "link/1/fwd/class/spill/rate");
}

TEST(CollectorTest, SeriesLookupMissReturnsNull) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  Collector collector(host.fabric(), Collector::Config{});
  EXPECT_FALSE(collector.Series("nope"));
  EXPECT_TRUE(collector.Keys().empty());
}

// FNV-1a 64 over raw bytes.
uint64_t Fold(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}
uint64_t Fold(uint64_t h, const std::string& s) { return Fold(h, s.data(), s.size() + 1); }
uint64_t Fold(uint64_t h, uint64_t v) { return Fold(h, &v, sizeof(v)); }
uint64_t Fold(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return Fold(h, bits);
}

// The pinned telemetry scenario: a seeded host sampled finely every 1 ms
// into 64-point rings (so they wrap), with per-tenant, per-class and
// socket-cache series (a DDIO writer), packet throughput, a tenant whose
// series first appear mid-run, and an EWMA bank on every link-util key
// plus one late key, scanned every ms. One extra sample lands on an
// already-sampled time, with a scan on each side.
struct PinnedRun {
  uint64_t digest = 0xcbf29ce484222325ull;
  size_t keys = 0;
  uint64_t dropped = 0;
  size_t anomalies = 0;
  size_t late_points = 0;
  bool has_class_key = false;
  bool has_cache_key = false;
};

PinnedRun RunPinnedScenario() {
  sim::Simulation sim(11);
  HostNetwork::Options options = NoAutoStart();
  // A small DDIO (2 x 64 KiB ways), so the writer's bursts spill.
  options.fabric.ddio_ways = 2;
  options.fabric.way_bytes = 64 * 1024;
  HostNetwork host(sim, options);
  const auto& server = host.server();
  fabric::Fabric& fabric = host.fabric();
  Collector::Config config;
  config.period = TimeNs::Millis(1);
  config.granularity = Granularity::kFine;
  config.series_capacity = 64;
  Collector collector(fabric, config);

  workload::StreamSource::Config steady;
  steady.src = server.ssds[0];
  steady.dst = server.dimms[0];
  steady.demand = Bandwidth::GBps(5);
  steady.tenant = 1;
  workload::StreamSource steady_stream(fabric, steady);
  steady_stream.Start();

  workload::BurstySource::Config ddio;
  ddio.src = server.nics[0];
  ddio.dst = server.sockets[0];
  ddio.on_demand = Bandwidth::GBps(40);
  ddio.mean_on = TimeNs::Millis(7);
  ddio.mean_off = TimeNs::Millis(9);
  ddio.ddio_write = true;
  ddio.tenant = 2;
  workload::BurstySource ddio_writer(fabric, ddio);
  ddio_writer.Start();

  const auto packet_path = *fabric.Route(server.nics[1], server.sockets[1]);
  host.simulation().SchedulePeriodic(TimeNs::Micros(20), [&] {
    fabric::PacketSpec pkt;
    pkt.path = &packet_path;
    pkt.bytes = 4096;
    fabric.SendPacket(std::move(pkt));
  });

  workload::StreamSource::Config late;
  late.src = server.ssds[1];
  late.dst = server.dimms[1];
  late.demand = Bandwidth::GBps(3);
  late.tenant = 3;
  workload::StreamSource late_stream(fabric, late);
  const topology::DirectedLink late_hop = fabric.Route(late.src, late.dst)->hops[0];
  const std::string late_key = Collector::TenantRateKey(late_hop.link, late_hop.forward, 3);

  anomaly::DetectorBank bank;
  for (const topology::Link& link : host.topo().links()) {
    for (const bool forward : {true, false}) {
      bank.Attach(Collector::LinkUtilKey(link.id, forward),
                  std::make_unique<anomaly::EwmaDetector>());
    }
  }
  bank.Attach(late_key, std::make_unique<anomaly::EwmaDetector>(0.2, 3.0, 4));

  collector.Start();
  for (int ms = 1; ms <= 160; ++ms) {
    if (ms == 70) {
      late_stream.Start();
    }
    if (ms == 120) {
      late_stream.Stop();
    }
    host.RunFor(TimeNs::Millis(1));
    bank.Scan(collector);
    if (ms == 100) {
      collector.SampleOnce();  // Same virtual time as the timer's sample.
      bank.Scan(collector);
    }
  }

  PinnedRun run;
  for (const std::string& key : collector.Keys()) {
    const auto series = collector.Series(key);
    run.digest = Fold(run.digest, key);
    run.digest = Fold(run.digest, series->series->dropped());
    for (size_t i = 0; i < series->size(); ++i) {
      run.digest = Fold(run.digest, static_cast<uint64_t>(series->At(i).time.nanos()));
      run.digest = Fold(run.digest, series->At(i).value);
    }
    ++run.keys;
    run.dropped += series->series->dropped();
    run.has_class_key |= key.find("/class/spill/") != std::string::npos;
    run.has_cache_key |= key.find("/cache_hit") != std::string::npos;
  }
  for (const anomaly::Anomaly& a : bank.log()) {
    run.digest = Fold(run.digest, static_cast<uint64_t>(a.at.nanos()));
    run.digest = Fold(run.digest, a.metric);
    run.digest = Fold(run.digest, a.value);
    run.digest = Fold(run.digest, a.score);
    run.digest = Fold(run.digest, a.detail);
  }
  run.anomalies = bank.log().size();
  const auto late_series = collector.Series(late_key);
  run.late_points = late_series ? late_series->size() : 0;
  return run;
}

TEST(CollectorTest, SeriesAndAnomaliesMatchPinnedGolden) {
  const PinnedRun run = RunPinnedScenario();
  // Guard against the golden degenerating: rings wrapped, every key family
  // appeared, the late tenant's series exists, and the bank fired.
  EXPECT_GT(run.dropped, 0u);
  EXPECT_TRUE(run.has_class_key);
  EXPECT_TRUE(run.has_cache_key);
  EXPECT_GT(run.late_points, 0u);
  EXPECT_GT(run.anomalies, 0u);
  EXPECT_EQ(run.keys, 351u);
  EXPECT_EQ(run.digest, 0x7902bbd5ead5cfe6ull);
}

}  // namespace
}  // namespace mihn::telemetry
