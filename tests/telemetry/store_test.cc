// Differential test of the collector's metric store.
//
// The store keeps the dense metrics of a sample as one frame row and the
// tenant and class rates as sparse series. The oracle here is the store it
// replaced, rebuilt from its semantics: one capped ring per key, fed from
// Fabric::Snapshot() of every directed link and CacheStats() of every
// socket. After every sample, the keys, each series point for point (time
// and value bits), the drop counts and the per-tick metric count must agree,
// and a fixed list of malformed or foreign keys must stay absent.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/host/host_network.h"
#include "src/sim/random.h"
#include "src/telemetry/collector.h"
#include "src/workload/sources.h"

namespace mihn::telemetry {
namespace {

using sim::Bandwidth;
using sim::TimeNs;

// One key's ring: drop-oldest at |capacity| points, drops counted.
struct OracleRing {
  std::deque<sim::TimePoint> points;
  uint64_t dropped = 0;
};

// The per-key store, sampled the way the collector samples.
class OracleStore {
 public:
  OracleStore(fabric::Fabric& fabric, Granularity granularity, size_t capacity)
      : fabric_(fabric),
        fine_(granularity == Granularity::kFine),
        capacity_(capacity),
        prev_bytes_(2 * fabric.topo().link_count(), 0.0) {}

  void Sample() {
    ++samples_;
    last_tick_metrics_ = 0;
    const TimeNs now = fabric_.simulation().Now();
    const double dt = (now - last_sample_).ToSecondsF();
    for (const topology::Link& link : fabric_.topo().links()) {
      for (const bool forward : {true, false}) {
        const topology::DirectedLink d{link.id, forward};
        const fabric::LinkSnapshot snap = fabric_.Snapshot(d);
        double& prev = prev_bytes_[static_cast<size_t>(topology::DirectedIndex(d))];
        Put(now, Collector::LinkUtilKey(link.id, forward), snap.utilization);
        Put(now, Collector::LinkRateKey(link.id, forward), snap.rate_bps);
        Put(now, Collector::LinkBytesKey(link.id, forward), snap.bytes_total);
        Put(now, Collector::LinkThroughputKey(link.id, forward),
            (dt > 0.0 && samples_ > 1) ? (snap.bytes_total - prev) / dt : 0.0);
        prev = snap.bytes_total;
        if (!fine_) {
          continue;
        }
        for (const auto& [tenant, rate] : snap.rate_by_tenant_bps) {
          Put(now, Collector::TenantRateKey(link.id, forward, tenant), rate);
        }
        for (int k = 0; k < fabric::kNumTrafficClasses; ++k) {
          const double rate = snap.rate_by_class_bps[static_cast<size_t>(k)];
          const auto klass = static_cast<fabric::TrafficClass>(k);
          if (rate > 0.0) {
            Put(now, Collector::ClassRateKey(link.id, forward, klass), rate);
          }
        }
      }
    }
    if (fine_) {
      for (const topology::ComponentId socket :
           fabric_.topo().ComponentsOfKind(topology::ComponentKind::kCpuSocket)) {
        const fabric::SocketCacheStats stats = fabric_.CacheStats(socket);
        Put(now, Collector::CacheHitKey(socket), stats.hit_rate);
        Put(now, Collector::CacheSpillKey(socket), stats.spill_rate_bps);
      }
    }
    last_sample_ = now;
  }

  const std::map<std::string, OracleRing>& rings() const { return rings_; }
  size_t last_tick_metrics() const { return last_tick_metrics_; }
  uint64_t total_dropped() const {
    uint64_t dropped = 0;
    for (const auto& [key, ring] : rings_) {
      dropped += ring.dropped;
    }
    return dropped;
  }

 private:
  void Put(TimeNs now, const std::string& key, double value) {
    OracleRing& ring = rings_[key];
    ring.points.push_back({now, value});
    if (ring.points.size() > capacity_) {
      ring.points.pop_front();
      ++ring.dropped;
    }
    ++last_tick_metrics_;
  }

  fabric::Fabric& fabric_;
  bool fine_;
  size_t capacity_;
  std::vector<double> prev_bytes_;  // By directed index.
  std::map<std::string, OracleRing> rings_;
  uint64_t samples_ = 0;
  TimeNs last_sample_;
  size_t last_tick_metrics_ = 0;
};

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Index of the oldest point later than |t|, as TimeSeries::FirstAfter
// defines it.
size_t FirstAfter(const std::deque<sim::TimePoint>& points, TimeNs t) {
  size_t i = 0;
  while (i < points.size() && points[i].time <= t) {
    ++i;
  }
  return i;
}

// Holds |collector| to |oracle|: keys, counts, and every retained point.
void ExpectSameStore(const Collector& collector, const OracleStore& oracle,
                     const std::vector<std::string>& absent) {
  std::vector<std::string> keys;
  for (const auto& [key, ring] : oracle.rings()) {
    keys.push_back(key);
  }
  ASSERT_EQ(collector.Keys(), keys);
  EXPECT_EQ(collector.series_count(), keys.size());
  EXPECT_EQ(collector.total_dropped_points(), oracle.total_dropped());
  EXPECT_EQ(collector.last_tick_metrics(), oracle.last_tick_metrics());
  for (const auto& [key, ring] : oracle.rings()) {
    const auto view = collector.Series(key);
    ASSERT_TRUE(view) << key;
    ASSERT_EQ(view->series->dropped(), ring.dropped) << key;
    ASSERT_EQ(view->size(), ring.points.size()) << key;
    for (size_t i = 0; i < ring.points.size(); ++i) {
      const sim::TimePoint point = view->At(i);
      ASSERT_EQ(point.time, ring.points[i].time) << key << " point " << i;
      ASSERT_EQ(Bits(point.value), Bits(ring.points[i].value))
          << key << " point " << i << ": " << point.value << " vs " << ring.points[i].value;
    }
    const TimeNs middle = ring.points[ring.points.size() / 2].time;
    ASSERT_EQ(view->FirstAfter(middle), FirstAfter(ring.points, middle)) << key;
    ASSERT_EQ(view->FirstAfter(TimeNs::Nanos(-1)), 0u) << key;
  }
  for (const std::string& key : absent) {
    EXPECT_FALSE(collector.Series(key)) << key;
  }
}

// Keys the string-keyed store never held: malformed spellings of real
// keys, ids outside the topology, and ids of the wrong component kind.
std::vector<std::string> AbsentKeys(const HostNetwork& host) {
  const std::string past_last = std::to_string(host.topo().link_count());
  return {
      "link/03/fwd/util",
      "link/3/fwd/util/",
      "link/-1/fwd/util",
      "link/+3/fwd/util",
      "link/3/fwd/utilization",
      "link/3/fw/util",
      "link/3//fwd/util",
      "link/3",
      "link/",
      "link/" + past_last + "/fwd/util",
      "link/" + past_last + "/rev/thpt",
      "link/18446744073709551616/fwd/util",  // 2^64: overflows the parse.
      "link/10000000000000000003/fwd/util",  // 20 digits, past the last link.
      "link/00000000000000000003/fwd/util",  // 20 digits, value 3.
      "socket/" + std::to_string(host.server().dimms[0]) + "/cache_hit",
      "socket/" + std::to_string(host.server().nics[0]) + "/cache_spill",
      "socket/0" + std::to_string(host.server().sockets[0]) + "/cache_hit",
      "socket/" + std::to_string(host.server().sockets[0]) + "/cache_hit/",
      "socket/" + std::to_string(host.server().sockets[0]) + "/util",
      "nope",
      "",
  };
}

// The differential scenario: a seeded host with a steady tenant, a DDIO
// writer whose bursts spill (spill class and cache series), packet traffic,
// and four tenants that join and leave at seeded times, sampled every ms
// by a fine and a coarse collector, each with its oracle. Capacities 1, 3
// and 64 all wrap within the run; ms 90 takes a second sample at the same
// virtual time.
void RunDifferential(uint64_t seed, size_t capacity) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", capacity " + std::to_string(capacity));
  sim::Simulation sim(seed);
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  options.fabric.ddio_ways = 2;
  options.fabric.way_bytes = 64 * 1024;
  HostNetwork host(sim, options);
  const auto& server = host.server();
  fabric::Fabric& fabric = host.fabric();

  Collector::Config config;
  config.series_capacity = capacity;
  config.granularity = Granularity::kFine;
  Collector fine(fabric, config);
  config.granularity = Granularity::kCoarse;
  Collector coarse(fabric, config);
  OracleStore fine_oracle(fabric, Granularity::kFine, capacity);
  OracleStore coarse_oracle(fabric, Granularity::kCoarse, capacity);

  const std::vector<std::string> absent = AbsentKeys(host);
  // Before the first sample nothing exists, not even the dense keys.
  std::vector<std::string> everything = absent;
  everything.push_back(Collector::LinkUtilKey(0, true));
  everything.push_back(Collector::CacheHitKey(server.sockets[0]));
  for (const Collector* collector : {&fine, &coarse}) {
    EXPECT_TRUE(collector->Keys().empty());
    EXPECT_EQ(collector->series_count(), 0u);
    EXPECT_EQ(collector->total_dropped_points(), 0u);
    for (const std::string& key : everything) {
      EXPECT_FALSE(collector->Series(key)) << key;
    }
  }
  // A coarse collector has no socket columns.
  std::vector<std::string> coarse_absent = absent;
  for (const topology::ComponentId socket : server.sockets) {
    coarse_absent.push_back(Collector::CacheHitKey(socket));
    coarse_absent.push_back(Collector::CacheSpillKey(socket));
  }

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
  sim.SchedulePeriodic(TimeNs::Micros(20), [&] {
    fabric::PacketSpec pkt;
    pkt.path = &packet_path;
    pkt.bytes = 4096;
    fabric.SendPacket(std::move(pkt));
  });

  // Tenants 3..6 join and leave at seeded times, from seeded sources.
  struct Visit {
    int start_ms;
    int stop_ms;
    std::unique_ptr<workload::StreamSource> stream;
  };
  std::vector<Visit> visits;
  sim::Rng rng = sim.ForkRng(77);
  const std::vector<topology::ComponentId> sources = {server.ssds[1], server.gpus[0],
                                                      server.gpus[1], server.nics[1]};
  for (fabric::TenantId tenant = 3; tenant <= 6; ++tenant) {
    workload::StreamSource::Config visit;
    visit.src = sources[static_cast<size_t>(rng.UniformInt(0, 3))];
    visit.dst = server.dimms[static_cast<size_t>(rng.UniformInt(0, 1))];
    visit.demand = Bandwidth::GBps(static_cast<double>(rng.UniformInt(1, 8)));
    visit.tenant = tenant;
    const int start = static_cast<int>(rng.UniformInt(5, 100));
    const int stop = start + static_cast<int>(rng.UniformInt(5, 60));
    visits.push_back({start, stop, std::make_unique<workload::StreamSource>(fabric, visit)});
  }

  auto sample_and_compare = [&] {
    fine.SampleOnce();
    fine_oracle.Sample();
    coarse.SampleOnce();
    coarse_oracle.Sample();
    ExpectSameStore(fine, fine_oracle, absent);
    ExpectSameStore(coarse, coarse_oracle, coarse_absent);
  };
  for (int ms = 1; ms <= 150; ++ms) {
    for (Visit& v : visits) {
      if (ms == v.start_ms) {
        v.stream->Start();
      }
      if (ms == v.stop_ms) {
        v.stream->Stop();
      }
    }
    host.RunFor(TimeNs::Millis(1));
    sample_and_compare();
    if (ms == 90) {
      sample_and_compare();  // Same virtual time.
    }
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  // The run reached what it is meant to cover.
  EXPECT_GT(fine.total_dropped_points(), 0u);
  EXPECT_GT(coarse.total_dropped_points(), 0u);
  EXPECT_GT(fine.series_count(), coarse.series_count());
  bool spill = false;
  for (const auto& [key, ring] : fine_oracle.rings()) {
    spill |= key.find("/class/spill/") != std::string::npos;
  }
  EXPECT_TRUE(spill);
}

// A topology may be one socket and no link: the coarse frame then has no
// column, so the store holds no series, as the per-key store held none.
TEST(CollectorStoreTest, LinklessTopologyHasOnlySocketSeries) {
  topology::Topology topo;
  const topology::ComponentId socket =
      topo.AddComponent(topology::ComponentKind::kCpuSocket, "s0");
  sim::Simulation sim;
  fabric::Fabric fabric(sim, topo);
  Collector::Config config;
  Collector fine(fabric, config);
  config.granularity = Granularity::kCoarse;
  Collector coarse(fabric, config);
  OracleStore fine_oracle(fabric, Granularity::kFine, config.series_capacity);
  OracleStore coarse_oracle(fabric, Granularity::kCoarse, config.series_capacity);
  for (int i = 0; i < 3; ++i) {
    sim.RunFor(TimeNs::Millis(1));
    fine.SampleOnce();
    fine_oracle.Sample();
    coarse.SampleOnce();
    coarse_oracle.Sample();
  }
  ExpectSameStore(fine, fine_oracle, {Collector::LinkUtilKey(0, true)});
  ExpectSameStore(coarse, coarse_oracle, {Collector::CacheHitKey(socket)});
  EXPECT_EQ(fine.series_count(), 2u);
  EXPECT_EQ(coarse.series_count(), 0u);
}

TEST(CollectorStoreTest, MatchesPerKeyStoreAtCapacityOne) { RunDifferential(5, 1); }
TEST(CollectorStoreTest, MatchesPerKeyStoreAtCapacityThree) { RunDifferential(6, 3); }
TEST(CollectorStoreTest, MatchesPerKeyStoreAtCapacitySixtyFour) { RunDifferential(7, 64); }

}  // namespace
}  // namespace mihn::telemetry
