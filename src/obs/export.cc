#include "src/obs/export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/json.h"

namespace mihn::obs {
namespace {

// Span and counter names are static literals under our control, but they
// are escaped anyway so the export never emits invalid JSON.
using core::json::Escape;
using core::json::Num;

// Microsecond timestamp with nanosecond resolution kept exact.
std::string MicrosTs(int64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lld.%03d", static_cast<long long>(ns / 1000),
                static_cast<int>(ns % 1000 < 0 ? -(ns % 1000) : ns % 1000));
  return std::string(buf);
}

// Track (tid) per category, assigned in sorted-name order so the mapping —
// and therefore the file — is stable across runs.
std::map<std::string, int> AssignTracks(const std::vector<Span>& spans,
                                        const std::vector<CounterSample>& counters) {
  std::map<std::string, int> tracks;
  for (const Span& s : spans) {
    tracks.emplace(s.category != nullptr ? s.category : "", 0);
  }
  for (const CounterSample& c : counters) {
    tracks.emplace(c.category != nullptr ? c.category : "", 0);
  }
  int tid = 0;
  for (auto& [name, id] : tracks) {
    id = tid++;
  }
  return tracks;
}

}  // namespace

void WriteChromeTrace(const Tracer& tracer, std::ostream& out) {
  const std::vector<Span> spans = tracer.spans();
  const std::vector<CounterSample> counters = tracer.counters();
  const bool wall = tracer.profiling();

  // Profiling timelines are rebased to the first stamp so `ts` stays small.
  int64_t wall_base = 0;
  if (wall) {
    bool seen = false;
    for (const Span& s : spans) {
      if (!seen || s.wall_start_ns < wall_base) {
        wall_base = s.wall_start_ns;
        seen = true;
      }
    }
    for (const CounterSample& c : counters) {
      if (!seen || c.wall_ns < wall_base) {
        wall_base = c.wall_ns;
        seen = true;
      }
    }
  }

  const std::map<std::string, int> tracks = AssignTracks(spans, counters);

  out << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  bool first = true;
  auto sep = [&first, &out]() {
    if (!first) {
      out << ",\n";
    }
    first = false;
  };

  sep();
  out << R"({"name": "process_name", "ph": "M", "pid": 0, "tid": 0, )"
      << R"("args": {"name": "mihn)" << (wall ? " (wall-clock profile)" : " (virtual time)")
      << "\"}}";
  for (const auto& [name, tid] : tracks) {
    sep();
    out << R"({"name": "thread_name", "ph": "M", "pid": 0, "tid": )" << tid
        << R"(, "args": {"name": ")" << Escape(name) << "\"}}";
  }

  for (const Span& s : spans) {
    const int tid = tracks.at(s.category != nullptr ? s.category : "");
    const int64_t start = wall ? s.wall_start_ns - wall_base : s.start.nanos();
    const int64_t end = wall ? s.wall_end_ns - wall_base : s.end.nanos();
    sep();
    out << R"({"name": ")" << Escape(s.name) << R"(", "cat": ")"
        << Escape(s.category) << R"(", "ph": "X", "pid": 0, "tid": )" << tid
        << R"(, "ts": )" << MicrosTs(start) << R"(, "dur": )"
        << MicrosTs(end >= start ? end - start : 0);
    out << R"(, "args": {)";
    for (uint32_t a = 0; a < s.num_args; ++a) {
      if (a > 0) {
        out << ", ";
      }
      out << '"' << Escape(s.args[a].key) << "\": " << Num(s.args[a].value);
    }
    if (wall) {
      // Keep the deterministic virtual stamp visible on wall timelines so
      // profile events can be cross-referenced with a virtual-time trace.
      if (s.num_args > 0) {
        out << ", ";
      }
      out << R"("vts_ns": )" << s.start.nanos();
    }
    out << "}}";
  }

  for (const CounterSample& c : counters) {
    const int tid = tracks.at(c.category != nullptr ? c.category : "");
    const int64_t at = wall ? c.wall_ns - wall_base : c.at.nanos();
    sep();
    out << R"({"name": ")" << Escape(c.name) << R"(", "cat": ")"
        << Escape(c.category) << R"(", "ph": "C", "pid": 0, "tid": )" << tid
        << R"(, "ts": )" << MicrosTs(at) << R"(, "args": {"value": )" << Num(c.value)
        << "}}";
  }

  out << "\n]\n}\n";
}

std::string ChromeTraceJson(const Tracer& tracer) {
  std::ostringstream out;
  WriteChromeTrace(tracer, out);
  return out.str();
}

bool WriteChromeTraceFile(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteChromeTrace(tracer, out);
  return static_cast<bool>(out);
}

std::string Summary(const Tracer& tracer) {
  struct SpanStats {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t max_ns = 0;
  };
  struct CounterStats {
    uint64_t count = 0;
    double last = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  const bool wall = tracer.profiling();
  std::map<std::string, SpanStats> span_stats;
  for (const Span& s : tracer.spans()) {
    SpanStats& st = span_stats[s.name != nullptr ? s.name : ""];
    const int64_t dur =
        wall ? s.wall_end_ns - s.wall_start_ns : (s.end - s.start).nanos();
    ++st.count;
    st.total_ns += dur;
    st.max_ns = std::max(st.max_ns, dur);
  }
  std::map<std::string, CounterStats> counter_stats;
  for (const CounterSample& c : tracer.counters()) {
    CounterStats& st = counter_stats[c.name != nullptr ? c.name : ""];
    if (st.count == 0) {
      st.min = st.max = c.value;
    }
    ++st.count;
    st.last = c.value;
    st.min = std::min(st.min, c.value);
    st.max = std::max(st.max, c.value);
  }

  std::ostringstream out;
  out << "trace summary (" << (wall ? "wall-clock" : "virtual") << " time)\n";
  if (!span_stats.empty()) {
    out << "  spans:\n";
    for (const auto& [name, st] : span_stats) {
      const double mean_us =
          st.count > 0 ? static_cast<double>(st.total_ns) / static_cast<double>(st.count) / 1e3
                       : 0.0;
      out << "    " << name << ": n=" << st.count << " total="
          << sim::TimeNs::Nanos(st.total_ns).ToString()
          << " mean=" << Num(mean_us) << "us max="
          << sim::TimeNs::Nanos(st.max_ns).ToString() << "\n";
    }
  }
  if (!counter_stats.empty()) {
    out << "  counters:\n";
    for (const auto& [name, st] : counter_stats) {
      out << "    " << name << ": n=" << st.count << " last=" << Num(st.last)
          << " min=" << Num(st.min) << " max=" << Num(st.max) << "\n";
    }
  }
  if (tracer.dropped_spans() > 0 || tracer.dropped_counters() > 0) {
    out << "  dropped: spans=" << tracer.dropped_spans()
        << " counters=" << tracer.dropped_counters() << "\n";
  }
  if (span_stats.empty() && counter_stats.empty()) {
    out << "  (no records)\n";
  }
  return out.str();
}

}  // namespace mihn::obs
