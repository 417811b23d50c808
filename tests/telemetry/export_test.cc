#include "src/telemetry/export.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "src/host/host_network.h"
#include "src/workload/sources.h"

namespace mihn::telemetry {
namespace {

HostNetwork::Options NoAutoStart() {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  return options;
}

TEST(ExportTest, WritesHeaderAndRows) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  Collector::Config config;
  config.period = sim::TimeNs::Millis(1);
  Collector collector(host.fabric(), config);
  collector.Start();
  host.RunFor(sim::TimeNs::Millis(3));

  std::ostringstream out;
  const size_t rows = WriteCsv(collector, out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("time_ns,metric,value\n"), std::string::npos);
  EXPECT_GT(rows, 0u);
  // Row count == total retained points.
  size_t expected = 0;
  for (const auto& key : collector.Keys()) {
    expected += collector.Series(key)->size();
  }
  EXPECT_EQ(rows, expected);
  // Line count = rows + header.
  size_t lines = 0;
  for (const char c : csv) {
    lines += c == '\n' ? 1 : 0;
  }
  EXPECT_EQ(lines, rows + 1);
}

TEST(ExportTest, KeyFilterRestrictsOutput) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  Collector collector(host.fabric(), Collector::Config{});
  collector.SampleOnce();
  const std::string key = Collector::LinkUtilKey(0, true);
  std::ostringstream out;
  const size_t rows = WriteCsv(collector, out, {key});
  EXPECT_EQ(rows, 1u);
  EXPECT_NE(out.str().find(key), std::string::npos);
  EXPECT_EQ(out.str().find("link/1/"), std::string::npos);
}

TEST(ExportTest, UnknownKeysSkipped) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  Collector collector(host.fabric(), Collector::Config{});
  collector.SampleOnce();
  std::ostringstream out;
  EXPECT_EQ(WriteCsv(collector, out, {"no/such/key"}), 0u);
}

TEST(ExportTest, EmptyCollectorWritesHeaderOnly) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  Collector collector(host.fabric(), Collector::Config{});
  std::ostringstream out;
  EXPECT_EQ(WriteCsv(collector, out), 0u);
  EXPECT_EQ(out.str(), "time_ns,metric,value\n");
}

TEST(ExportTest, ValuesRoundTripBitExact) {
  sim::Simulation sim;
  HostNetwork host(sim, NoAutoStart());
  const auto& server = host.server();
  workload::StreamSource::Config bulk;
  bulk.src = server.ssds[0];
  bulk.dst = server.dimms[0];
  bulk.tenant = 1;
  workload::StreamSource stream(host.fabric(), bulk);
  stream.Start();
  Collector::Config config;
  config.period = sim::TimeNs::Millis(1);
  Collector collector(host.fabric(), config);
  collector.Start();
  host.RunFor(sim::TimeNs::Millis(5));

  std::ostringstream out;
  const size_t rows = WriteCsv(collector, out);
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);  // Header.
  std::string key;
  size_t index = 0;
  size_t parsed = 0;
  size_t mismatched = 0;
  std::string first_mismatch;
  while (std::getline(in, line)) {
    const size_t first = line.find(',');
    const size_t last = line.rfind(',');
    ASSERT_NE(first, last) << line;
    const int64_t time_ns = std::strtoll(line.substr(0, first).c_str(), nullptr, 10);
    const std::string row_key = line.substr(first + 1, last - first - 1);
    const double value = std::strtod(line.substr(last + 1).c_str(), nullptr);
    index = row_key == key ? index + 1 : 0;
    key = row_key;
    const sim::TimeSeries* series = collector.Series(key);
    ASSERT_NE(series, nullptr) << key;
    ASSERT_LT(index, series->size()) << key;
    const sim::TimePoint& stored = series->At(index);
    EXPECT_EQ(time_ns, stored.time.nanos()) << key;
    uint64_t parsed_bits = 0;
    uint64_t stored_bits = 0;
    std::memcpy(&parsed_bits, &value, sizeof(value));
    std::memcpy(&stored_bits, &stored.value, sizeof(stored.value));
    if (parsed_bits != stored_bits && mismatched++ == 0) {
      first_mismatch = line;
    }
    ++parsed;
  }
  EXPECT_EQ(parsed, rows);
  EXPECT_EQ(mismatched, 0u) << "first: " << first_mismatch;
}

}  // namespace
}  // namespace mihn::telemetry
