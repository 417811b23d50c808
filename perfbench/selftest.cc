// perfbench_selftest: checks the benchmark's own helpers — the percentile
// and its sample-count rule, interval self time, and the digest compare.
// Run through `python3 perfbench/run.py --self-test`; exits non-zero on the
// first failed expectation.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "perfbench/measure.h"

namespace {

using namespace mihn::perfbench;

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest.cc:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(...) Expect((__VA_ARGS__), #__VA_ARGS__, __LINE__)

void PercentileTest() {
  EXPECT(Percentile({}, 0.5) == 0.0);
  EXPECT(Percentile({7.0}, 0.9) == 7.0);
  // Nearest rank on 1..10: p50 is the 5th value, p90 the 9th, p100 the max.
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) {  // Unsorted input.
    ten.push_back(i);
  }
  EXPECT(Percentile(ten, 0.5) == 5.0);
  EXPECT(Percentile(ten, 0.9) == 9.0);
  EXPECT(Percentile(ten, 1.0) == 10.0);
  EXPECT(Percentile(ten, 0.0) == 1.0);
  // q*n integral in exact arithmetic but not in binary (0.9 * 100).
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  EXPECT(Percentile(hundred, 0.9) == 90.0);
  EXPECT(Percentile(hundred, 0.99) == 99.0);
  // The tail rule: ten samples must lie beyond the reported percentile.
  EXPECT(MinSamplesFor(0.5) == 20);
  EXPECT(MinSamplesFor(0.9) == 100);
  EXPECT(MinSamplesFor(0.99) == 1000);
  EXPECT(!PercentileResolved(99, 0.9));
  EXPECT(PercentileResolved(100, 0.9));
  EXPECT(PercentileResolved(20, 0.5));
  EXPECT(!PercentileResolved(19, 0.5));
}

void SelfTimeTest() {
  const Interval parent{100, 200};
  EXPECT(SelfNs(parent, {}) == 100);
  // Disjoint children inside the parent.
  EXPECT(SelfNs(parent, {{110, 120}, {150, 170}}) == 70);
  // Overlapping children count their union once.
  EXPECT(SelfNs(parent, {{110, 140}, {120, 130}, {135, 150}}) == 60);
  // Children sticking out of the parent are clipped to it.
  EXPECT(SelfNs(parent, {{50, 110}, {190, 260}}) == 80);
  // A child spanning the whole parent leaves no self time.
  EXPECT(SelfNs(parent, {{0, 1000}}) == 0);
  // Children wholly outside contribute nothing.
  EXPECT(SelfNs(parent, {{0, 50}, {200, 300}}) == 100);
  EXPECT(CoveredNs({{110, 120}, {115, 130}}, parent) == 20);
  EXPECT(Interval{5, 3}.length() == 0);
}

void DigestTest() {
  // FNV-1a 64 reference vectors.
  EXPECT(Digest().AddBytes("").value() == 0xcbf29ce484222325ULL);
  EXPECT(Digest().AddBytes("a").value() == 0xaf63dc4c8601ec8cULL);
  EXPECT(Digest().AddBytes("foobar").value() == 0x85944171f73967e8ULL);
  // Order and value sensitivity.
  EXPECT(Digest().Add(uint64_t{1}).Add(uint64_t{2}).value() !=
         Digest().Add(uint64_t{2}).Add(uint64_t{1}).value());
  EXPECT(Digest().Add(0.5).value() != Digest().Add(-0.5).value());
  EXPECT(Hex(0xabcULL) == "0000000000000abc");

  DigestLedger ledger;
  EXPECT(ledger.Record("fleet", 42));  // First value is the reference.
  EXPECT(ledger.Record("fleet", 42));
  EXPECT(ledger.Record("host", 7));    // Keys are independent.
  EXPECT(ledger.mismatches() == 0);
  EXPECT(!ledger.Record("fleet", 43));
  EXPECT(ledger.mismatches() == 1);
  EXPECT(ledger.reference().at("fleet") == 42);  // A mismatch never rebases.
}

void ResultJsonTest() {
  EXPECT(ResultJson(true, 3, 0, {{"setup_s", 0.25, "s"}, {"step_ms_p50", 1.5, "ms"}}) ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": "
         "{\"value\": 0.25, \"unit\": \"s\"}, \"step_ms_p50\": {\"value\": 1.5, \"unit\": "
         "\"ms\"}}}");
}

}  // namespace

int main() {
  PercentileTest();
  SelfTimeTest();
  DigestTest();
  ResultJsonTest();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
