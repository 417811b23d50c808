#include "src/workload/trace.h"

#include <sstream>
#include <utility>

#include "src/core/read_number.h"

namespace mihn::workload {

std::string TraceToCsv(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  out << "at_ns,src,dst,bytes,tenant,ddio\n";
  for (const TraceEvent& e : events) {
    out << e.at.nanos() << "," << e.src << "," << e.dst << "," << e.bytes << "," << e.tenant
        << "," << (e.ddio_write ? 1 : 0) << "\n";
  }
  return out.str();
}

TraceParseResult TraceFromCsv(std::string_view text) {
  TraceParseResult result;
  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  bool saw_header = false;
  auto fail = [&](const std::string& message) {
    result.error = "line " + std::to_string(line_no) + ": " + message;
    return result;
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (!saw_header) {
      if (line != "at_ns,src,dst,bytes,tenant,ddio") {
        return fail("missing trace header");
      }
      saw_header = true;
      continue;
    }
    std::istringstream fields(line);
    std::string field;
    std::vector<std::string> parts;
    while (std::getline(fields, field, ',')) {
      parts.push_back(field);
    }
    if (parts.size() != 6) {
      return fail("expected 6 fields, got " + std::to_string(parts.size()));
    }
    int64_t at_ns = 0;
    TraceEvent event;
    int ddio = 0;
    if (!core::ReadNumber(parts[0], &at_ns) || at_ns < 0) {
      return fail("bad at_ns '" + parts[0] + "' (want an integer >= 0)");
    }
    if (!core::ReadNumber(parts[3], &event.bytes) || event.bytes < 0) {
      return fail("bad bytes '" + parts[3] + "' (want an integer >= 0)");
    }
    if (!core::ReadNumber(parts[4], &event.tenant) || event.tenant < fabric::kNoTenant) {
      return fail("bad tenant '" + parts[4] + "' (want an integer >= -1)");
    }
    if (!core::ReadNumber(parts[5], &ddio) || (ddio != 0 && ddio != 1)) {
      return fail("bad ddio '" + parts[5] + "' (want 0 or 1)");
    }
    event.at = sim::TimeNs::Nanos(at_ns);
    event.src = parts[1];
    event.dst = parts[2];
    event.ddio_write = ddio == 1;
    result.events.push_back(std::move(event));
  }
  if (!saw_header) {
    result.error = "empty trace";
  }
  return result;
}

TraceReplayer::TraceReplayer(fabric::Fabric& fabric, Config config)
    : fabric_(fabric), config_(std::move(config)) {}

void TraceReplayer::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  ++generation_;
  const uint64_t gen = generation_;
  sim::Simulation& sim = fabric_.simulation();
  pending_.clear();
  pending_.reserve(config_.events.size());
  for (const TraceEvent& event : config_.events) {
    const sim::TimeNs offset = Scale(event.at, config_.time_scale);
    pending_.push_back(sim.ScheduleAfter(offset, [this, &event, gen] {
      if (gen != generation_) {
        return;
      }
      const auto src = fabric_.topo().FindComponent(event.src);
      const auto dst = fabric_.topo().FindComponent(event.dst);
      auto path = (src && dst) ? fabric_.Route(*src, *dst) : std::nullopt;
      if (!path) {
        ++skipped_;
        return;
      }
      const sim::TimeNs issued_at = fabric_.simulation().Now();
      fabric::TransferSpec spec;
      spec.flow.path = std::move(*path);
      spec.flow.tenant = event.tenant;
      spec.flow.ddio_write = event.ddio_write;
      spec.bytes = event.bytes;
      spec.on_complete = [this, issued_at, gen](const fabric::TransferResult&) {
        if (gen == generation_) {
          sojourn_us_.Add((fabric_.simulation().Now() - issued_at).ToMicrosF());
        }
      };
      ++issued_;
      fabric_.StartTransfer(std::move(spec));
    }));
  }
}

void TraceReplayer::Stop() {
  running_ = false;
  ++generation_;
  for (sim::EventHandle& handle : pending_) {
    handle.Cancel();
  }
  pending_.clear();
}

}  // namespace mihn::workload
