#include "perfbench/measure.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mihn::perfbench {
namespace {

double Load1() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

}  // namespace

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

MachineRecord StartMachineRecord() {
  MachineRecord record;
  record.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  cpu_set_t set;
  CPU_ZERO(&set);
  record.cores_available =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : record.nproc;
  record.load1_before = Load1();
  return record;
}

void FinishMachineRecord(MachineRecord& record, int64_t wall_start_ns, int64_t cpu_start_ns) {
  record.load1_after = Load1();
  record.wall_s = static_cast<double>(WallNs() - wall_start_ns) / 1e9;
  record.cpu_s = static_cast<double>(ProcessCpuNs() - cpu_start_ns) / 1e9;
}

std::string MachineRecordJson(const MachineRecord& record) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %d, \"cores_available\": %d, \"load1_before\": %.2f, "
                "\"load1_after\": %.2f, \"wall_s\": %.4f, \"cpu_s\": %.4f}",
                record.nproc, record.cores_available, record.load1_before, record.load1_after,
                record.wall_s, record.cpu_s);
  return buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // Nearest rank, with a small epsilon so q*n that is integral in exact
  // arithmetic (0.9 * 100) does not round up to the next rank.
  const auto rank = static_cast<int64_t>(std::ceil(q * n - 1e-9));
  const int64_t index = std::clamp<int64_t>(rank - 1, 0, static_cast<int64_t>(values.size()) - 1);
  return values[static_cast<size_t>(index)];
}

int64_t MinSamplesFor(double q) {
  return static_cast<int64_t>(std::ceil(static_cast<double>(kTailSamples) / (1.0 - q) - 1e-9));
}

bool PercentileResolved(size_t n, double q) {
  return static_cast<int64_t>(n) >= MinSamplesFor(q);
}

int64_t CoveredNs(const std::vector<Interval>& children, Interval window) {
  // Sweep in start order, counting each nanosecond once: |frontier| is the
  // end of the union counted so far, so overlapping children add only the
  // part past it. An early child that starts before the window but reaches
  // into it still counts.
  int64_t covered = 0;
  int64_t frontier = window.start;  // Everything before this is counted.
  for (const Interval& child : children) {
    if (child.start >= window.end) {
      break;
    }
    const int64_t begin = std::max(child.start, frontier);
    const int64_t end = std::min(child.end, window.end);
    if (end > begin) {
      covered += end - begin;
      frontier = end;
    }
  }
  return covered;
}

int64_t SelfNs(Interval parent, const std::vector<Interval>& children) {
  return parent.length() - CoveredNs(children, parent);
}

Digest& Digest::Add(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ULL;
  }
  return *this;
}

Digest& Digest::AddBytes(std::string_view bytes) {
  for (const char c : bytes) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;
  }
  return *this;
}

Digest& Digest::Add(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return Add(bits);
}

bool DigestLedger::Record(const std::string& key, uint64_t value) {
  const auto [it, inserted] = reference_.emplace(key, value);
  if (inserted || it->second == value) {
    return true;
  }
  ++mismatches_;
  return false;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // %.17g keeps every digit a double carries; non-finite values would
    // not be JSON, so they are reported as 0 (and never expected).
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace mihn::perfbench
