// Shared helpers for the experiment benchmarks: fixed-width table printing
// so every bench emits the rows/series its paper counterpart reports, and
// the harness of the three trajectory benches (bench_fleet,
// bench_solver_scaling, bench_event_engine): their one flag, perfbench's
// clocks, one repeat rule and one BENCH_*.json writer.

#ifndef MIHN_BENCH_BENCH_UTIL_H_
#define MIHN_BENCH_BENCH_UTIL_H_

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/measure.h"
#include "src/core/json.h"

namespace mihn::bench {

// Prints "== title ==" with a short description underneath.
inline void Banner(const std::string& title, const std::string& description) {
  std::printf("\n== %s ==\n", title.c_str());
  if (!description.empty()) {
    std::printf("%s\n", description.c_str());
  }
}

// Left-aligned fixed-width columns; call Header once, then Row per line.
class Table {
 public:
  explicit Table(std::vector<std::pair<std::string, int>> columns)
      : columns_(std::move(columns)) {
    for (const auto& [name, width] : columns_) {
      std::printf("%-*s", width, name.c_str());
    }
    std::printf("\n");
    int total = 0;
    for (const auto& [name, width] : columns_) {
      total += width;
    }
    std::printf("%s\n", std::string(static_cast<size_t>(total), '-').c_str());
  }

  // Values must match the column count; each printed left-aligned.
  void Row(const std::vector<std::string>& values) {
    for (size_t i = 0; i < values.size() && i < columns_.size(); ++i) {
      std::printf("%-*s", columns_[i].second, values[i].c_str());
    }
    std::printf("\n");
  }

 private:
  std::vector<std::pair<std::string, int>> columns_;
};

inline std::string Fmt(const char* format, ...) {
  char buf[160];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

// -- Trajectory-bench harness ----------------------------------------------------

// The one flag: true for --smoke (reduced grid, one repeat), false for no
// argument. Anything else prints the usage line and exits 2 before any row
// runs, so a typo never rewrites a committed BENCH_*.json.
inline bool SmokeFlag(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && std::string_view(argv[1]) != "--smoke")) {
    std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
    std::exit(2);
  }
  return argc == 2;
}

// Wall and process-CPU nanoseconds, on perfbench's clocks: the wall clock
// is the steady clock obs::Tracer stamps profiling spans with, and CPU time
// sums every thread of the process, so CPU/wall shows how many cores a
// pooled run really kept busy.
struct Timing {
  double wall_ns = 0.0;
  double cpu_ns = 0.0;

  Timing& operator+=(const Timing& other) {
    wall_ns += other.wall_ns;
    cpu_ns += other.cpu_ns;
    return *this;
  }
};

// |timing| spread over |count| operations: per tick, solve or event.
inline Timing Per(const Timing& timing, double count) {
  return {timing.wall_ns / count, timing.cpu_ns / count};
}

template <typename Body>
Timing Time(Body&& body) {
  // The CPU clock is a system call; read it outside the wall interval.
  const int64_t cpu0 = perfbench::ProcessCpuNs();
  const int64_t wall0 = perfbench::WallNs();
  body();
  const int64_t wall1 = perfbench::WallNs();
  const int64_t cpu1 = perfbench::ProcessCpuNs();
  return {static_cast<double>(wall1 - wall0), static_cast<double>(cpu1 - cpu0)};
}

// The repeat rule behind every number a speed gate reads. |repeat| runs
// each side of a gate once, the sides in alternation, and returns a
// std::array of their Timings. It runs 3 times on the full grid and once
// under --smoke; each side's fastest wall time counts, with the CPU time of
// that same repeat. Alternation puts both sides of a gate under the same
// neighbours, and the minimum drops the repeats a neighbour slowed, which
// a mean would fold in.
template <typename Repeat>
auto Fastest(bool smoke, Repeat&& repeat) {
  auto best = repeat();
  for (int r = 1; r < (smoke ? 1 : 3); ++r) {
    const auto timings = repeat();
    for (size_t side = 0; side < best.size(); ++side) {
      if (timings[side].wall_ns < best[side].wall_ns) {
        best[side] = timings[side];
      }
    }
  }
  return best;
}

// One JSON object's fields in insertion order. Every scalar goes through
// core::json: numbers as "%.9g", integers as "%lld", strings escaped.
class Fields {
 public:
  Fields& Num(std::string_view key, double value) { return Add(key, core::json::Num(value)); }
  Fields& Int(std::string_view key, int64_t value) { return Add(key, core::json::Int(value)); }
  Fields& Str(std::string_view key, std::string_view value) {
    return Add(key, core::json::Str(value));
  }
  Fields& Bool(std::string_view key, bool value) { return Add(key, value ? "true" : "false"); }

  // The "key": value pairs, joined by |separator|.
  std::string Join(std::string_view separator) const {
    std::string out;
    for (size_t i = 0; i < pairs_.size(); ++i) {
      out += i == 0 ? std::string_view() : separator;
      out += pairs_[i];
    }
    return out;
  }

 private:
  Fields& Add(std::string_view key, const std::string& value) {
    std::string pair = core::json::Str(key);
    pair += ": ";
    pair += value;
    pairs_.push_back(std::move(pair));
    return *this;
  }

  std::vector<std::string> pairs_;
};

// A BENCH_*.json file: the header fields one per line, then "results" with
// one row per line, each in the order it was added.
class JsonReport {
 public:
  Fields& header() { return header_; }
  Fields& AddRow() { return rows_.emplace_back(); }

  // Writes |path| in the working directory and says so on stdout; on
  // failure says so on stderr and returns false.
  bool Write(const std::string& path) const {
    std::string text = "{\n  ";
    text += header_.Join(",\n  ");
    text += ",\n  \"results\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      text += "    {";
      text += rows_[i].Join(", ");
      text += i + 1 < rows_.size() ? "},\n" : "}\n";
    }
    text += "  ]\n}\n";
    std::ofstream out(path);
    out << text;
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("\nwrote %s\n", path.c_str());
    return true;
  }

 private:
  Fields header_;
  std::vector<Fields> rows_;
};

}  // namespace mihn::bench

#endif  // MIHN_BENCH_BENCH_UTIL_H_
