// perfbench measurement helpers: clocks, the machine record, order
// statistics, interval self time, output digests and the result line.
//
// Everything here is library-independent so perfbench_selftest can check it
// without building a workload. Times are int64 nanoseconds on the same
// steady clock obs::Tracer stamps profiling spans with, so benchmark-side
// intervals and library spans can be subtracted from each other.

#ifndef MIHN_PERFBENCH_MEASURE_H_
#define MIHN_PERFBENCH_MEASURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mihn::perfbench {

// -- Clocks --------------------------------------------------------------------
int64_t WallNs();        // steady_clock, as obs::Tracer's profiling stamps.
int64_t ProcessCpuNs();  // CLOCK_PROCESS_CPUTIME_ID: every thread's CPU time.

// -- Machine record ------------------------------------------------------------
// What the run actually got from the machine: a run on fewer cores than it
// asked for, or on a loaded box, is visible next to its numbers.
struct MachineRecord {
  int nproc = 0;            // Online CPUs.
  int cores_available = 0;  // CPUs in this process's sched_getaffinity mask.
  double load1_before = 0.0;
  double load1_after = 0.0;
  double wall_s = 0.0;  // Process lifetime covered by the record.
  double cpu_s = 0.0;   // Process CPU time over the same span.
};
MachineRecord StartMachineRecord();
void FinishMachineRecord(MachineRecord& record, int64_t wall_start_ns, int64_t cpu_start_ns);
std::string MachineRecordJson(const MachineRecord& record);

// ru_maxrss of this process, in MiB (KiB resolution).
double PeakRssMb();

// -- Order statistics ------------------------------------------------------------
// Nearest-rank percentile: the smallest sample with at least q*n samples at
// or below it. |values| need not be sorted. 0 for an empty set.
double Percentile(std::vector<double> values, double q);

// The reporting rule for tails: a percentile q is only reported when at
// least kTailSamples samples lie beyond it, i.e. n*(1-q) >= kTailSamples.
inline constexpr int64_t kTailSamples = 10;
int64_t MinSamplesFor(double q);
bool PercentileResolved(size_t n, double q);

// -- Interval self time -------------------------------------------------------------
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
  int64_t length() const { return end > start ? end - start : 0; }
};

// Length of |window| covered by the union of |children| (which may overlap
// each other and stick out of the window). |children| must be sorted by
// start.
int64_t CoveredNs(const std::vector<Interval>& children, Interval window);

// Self time of |parent|: its length minus the part its children cover.
int64_t SelfNs(Interval parent, const std::vector<Interval>& children);

// -- Output digests --------------------------------------------------------------------
// FNV-1a 64 over bytes, or over 64-bit words (doubles by bit pattern), the
// same hash family as fleet::DigestSamples.
class Digest {
 public:
  Digest& Add(uint64_t word);
  Digest& Add(double value);
  Digest& AddBytes(std::string_view bytes);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

// Named output digests that must agree: the first value recorded under a
// key is the reference, every later one is compared with it. A mismatch
// is remembered (and counted as a failed step by the workload).
class DigestLedger {
 public:
  // Returns false when |value| differs from the key's reference.
  bool Record(const std::string& key, uint64_t value);
  int mismatches() const { return mismatches_; }
  const std::map<std::string, uint64_t>& reference() const { return reference_; }

 private:
  std::map<std::string, uint64_t> reference_;
  int mismatches_ = 0;
};

std::string Hex(uint64_t value);

// -- Result line ----------------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The benchmark's last stdout line:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace mihn::perfbench

#endif  // MIHN_PERFBENCH_MEASURE_H_
