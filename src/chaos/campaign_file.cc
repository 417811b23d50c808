#include "src/chaos/campaign_file.h"

#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/read_file.h"
#include "src/core/read_number.h"
#include "src/topology/component.h"
#include "src/topology/link.h"

namespace mihn::chaos {
namespace {

using core::ReadNumber;

std::optional<topology::ComponentKind> ParseComponentKind(const std::string& name) {
  static constexpr topology::ComponentKind kKinds[] = {
      topology::ComponentKind::kCpuSocket,    topology::ComponentKind::kMemoryController,
      topology::ComponentKind::kDimm,         topology::ComponentKind::kPcieRootPort,
      topology::ComponentKind::kPcieSwitch,   topology::ComponentKind::kNic,
      topology::ComponentKind::kGpu,          topology::ComponentKind::kNvmeSsd,
      topology::ComponentKind::kFpga,         topology::ComponentKind::kExternalHost,
      topology::ComponentKind::kMonitorStore, topology::ComponentKind::kCxlMemory,
  };
  for (const topology::ComponentKind kind : kKinds) {
    if (name == topology::ComponentKindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

std::optional<topology::LinkKind> ParseLinkKind(const std::string& name) {
  static constexpr topology::LinkKind kKinds[] = {
      topology::LinkKind::kInterSocket,    topology::LinkKind::kIntraSocket,
      topology::LinkKind::kPcieSwitchUp,   topology::LinkKind::kPcieSwitchDown,
      topology::LinkKind::kInterHost,      topology::LinkKind::kPcieRootLink,
      topology::LinkKind::kDeviceInternal, topology::LinkKind::kCxl,
  };
  for (const topology::LinkKind kind : kKinds) {
    if (name == topology::LinkKindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

bool Fail(std::string* error, int line, const std::string& what) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "line %d: %s", line, what.c_str());
  *error = buf;
  return false;
}

// A fault window [at_ms, clear_ms): clear_ms 0 means "never clears";
// otherwise the fault must clear after it starts. Both ends stay within
// the virtual-time ceiling.
bool CheckWindow(int64_t at_ms, int64_t clear_ms, int line_no, const std::string& what,
                 std::string* error) {
  if (at_ms < 0 || at_ms > kMaxCampaignMs) {
    return Fail(error, line_no, what + ": at_ms must lie in [0, " +
                                    std::to_string(kMaxCampaignMs) + "]");
  }
  if (clear_ms != 0 && (clear_ms <= at_ms || clear_ms > kMaxCampaignMs)) {
    return Fail(error, line_no,
                what + ": clear_ms must be 0 (never) or in (at_ms, " +
                    std::to_string(kMaxCampaignMs) + "]");
  }
  return true;
}

// "fault <verb> ..." — everything but ddio_off shares the link reference
// and the [at_ms, clear_ms] window prefix.
bool ParseFault(std::istringstream& in, int line_no, CampaignConfig* config,
                std::string* error) {
  std::string verb;
  if (!(in >> verb)) {
    return Fail(error, line_no, "fault: missing kind");
  }
  const std::string what = "fault " + verb;
  if (verb == "ddio_off") {
    int64_t at_ms = 0;
    int64_t clear_ms = 0;
    if (!ReadNumber(in, &at_ms) || !ReadNumber(in, &clear_ms)) {
      return Fail(error, line_no, "fault ddio_off: want <at_ms> <clear_ms>");
    }
    if (!CheckWindow(at_ms, clear_ms, line_no, what, error)) {
      return false;
    }
    config->schedule.DisableDdio(sim::TimeNs::Millis(at_ms),
                                 sim::TimeNs::Millis(clear_ms));
    return true;
  }

  std::string kind_name;
  int index = 0;
  int64_t at_ms = 0;
  int64_t clear_ms = 0;
  if (!(in >> kind_name) || !ReadNumber(in, &index) || !ReadNumber(in, &at_ms) ||
      !ReadNumber(in, &clear_ms)) {
    return Fail(error, line_no, what + ": want <link_kind> <index> <at_ms> <clear_ms>");
  }
  const std::optional<topology::LinkKind> kind = ParseLinkKind(kind_name);
  if (!kind) {
    return Fail(error, line_no, "unknown link kind '" + kind_name + "'");
  }
  if (!CheckWindow(at_ms, clear_ms, line_no, what, error)) {
    return false;
  }
  const sim::TimeNs at = sim::TimeNs::Millis(at_ms);
  const sim::TimeNs clear = sim::TimeNs::Millis(clear_ms);

  if (verb == "kill") {
    config->schedule.Kill(*kind, index, at, clear);
    return true;
  }
  if (verb == "degrade") {
    double factor = 0.5;
    if (!ReadNumber(in, &factor)) {
      return Fail(error, line_no, "fault degrade: missing <capacity_factor>");
    }
    if (factor < 0.0 || factor > 1.0) {
      return Fail(error, line_no, "fault degrade: capacity_factor must lie in [0, 1]");
    }
    config->schedule.Degrade(*kind, index, factor, at, clear);
    return true;
  }
  if (verb == "latency") {
    int64_t extra_us = 0;
    if (!ReadNumber(in, &extra_us)) {
      return Fail(error, line_no, "fault latency: want an integer <extra_us>");
    }
    if (extra_us < 0 || extra_us > kMaxCampaignMs * 1000) {
      return Fail(error, line_no, "fault latency: extra_us must lie in [0, " +
                                      std::to_string(kMaxCampaignMs * 1000) + "]");
    }
    config->schedule.InflateLatency(*kind, index, sim::TimeNs::Micros(extra_us), at,
                                    clear);
    return true;
  }
  if (verb == "flap") {
    int64_t period_us = 0;
    double duty = 0.5;
    if (!ReadNumber(in, &period_us) || !ReadNumber(in, &duty)) {
      return Fail(error, line_no, "fault flap: want <period_us> <duty>");
    }
    if (period_us <= 0 || period_us > kMaxCampaignMs * 1000) {
      return Fail(error, line_no, "fault flap: period_us must lie in (0, " +
                                      std::to_string(kMaxCampaignMs * 1000) + "]");
    }
    if (duty <= 0.0 || duty > 1.0) {
      return Fail(error, line_no, "fault flap: duty must lie in (0, 1]");
    }
    config->schedule.Flap(*kind, index, sim::TimeNs::Micros(period_us), duty, at, clear);
    return true;
  }
  return Fail(error, line_no, "unknown fault kind '" + verb + "'");
}

bool ParseStream(std::istringstream& in, int line_no, CampaignConfig* config,
                 std::string* error) {
  std::string src_kind;
  std::string dst_kind;
  StreamSpec spec;
  double demand_gbps = 0.0;
  double slo_gbps = 0.0;
  if (!(in >> src_kind) || !ReadNumber(in, &spec.src_index) || !(in >> dst_kind) ||
      !ReadNumber(in, &spec.dst_index) || !ReadNumber(in, &demand_gbps) ||
      !ReadNumber(in, &slo_gbps)) {
    return Fail(error, line_no,
                "stream: want <src_kind> <i> <dst_kind> <j> <demand_gbps> <slo_gbps>");
  }
  if (demand_gbps < 0.0 || slo_gbps < 0.0) {
    return Fail(error, line_no, "stream: demand_gbps and slo_gbps must be non-negative");
  }
  const auto src = ParseComponentKind(src_kind);
  const auto dst = ParseComponentKind(dst_kind);
  if (!src || !dst) {
    return Fail(error, line_no,
                "unknown component kind '" + (src ? dst_kind : src_kind) + "'");
  }
  spec.src_kind = *src;
  spec.dst_kind = *dst;
  spec.demand = sim::Bandwidth::Gbps(demand_gbps);
  spec.slo = sim::Bandwidth::Gbps(slo_gbps);
  std::string flag;
  if (in >> flag) {
    if (flag != "ddio") {
      return Fail(error, line_no, "unknown stream flag '" + flag + "'");
    }
    spec.ddio_write = true;
  }
  config->streams.push_back(spec);
  return true;
}

}  // namespace

std::optional<HostNetwork::Preset> ParsePresetName(std::string_view name) {
  if (name == "commodity_two_socket") {
    return HostNetwork::Preset::kCommodityTwoSocket;
  }
  if (name == "dgx_class") {
    return HostNetwork::Preset::kDgxClass;
  }
  if (name == "edge_node") {
    return HostNetwork::Preset::kEdgeNode;
  }
  return std::nullopt;
}

bool ParseCampaignText(std::string_view text, CampaignConfig* config,
                       std::string* error) {
  std::istringstream lines{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream in(line);
    std::string directive;
    if (!(in >> directive)) {
      continue;  // Blank or comment-only line.
    }
    if (directive == "preset") {
      std::string name;
      if (!(in >> name)) {
        return Fail(error, line_no, "preset: missing name");
      }
      const std::optional<HostNetwork::Preset> preset = ParsePresetName(name);
      if (!preset) {
        return Fail(error, line_no, "unknown preset '" + name + "'");
      }
      config->preset = *preset;
    } else if (directive == "recovery") {
      std::string name;
      if (!(in >> name)) {
        return Fail(error, line_no, "recovery: missing policy name");
      }
      const std::optional<RecoveryPolicy> policy = ParseRecoveryPolicy(name);
      if (!policy) {
        return Fail(error, line_no,
                    "unknown recovery policy '" + name +
                        "' (want repair, reroute_only, restart_only, or none)");
      }
      config->recovery = *policy;
    } else if (directive == "trials") {
      if (!ReadNumber(in, &config->trials) || config->trials < 1) {
        return Fail(error, line_no, "trials: want a positive count");
      }
    } else if (directive == "seed") {
      if (!ReadNumber(in, &config->base_seed)) {
        return Fail(error, line_no, "seed: want a non-negative integer");
      }
    } else if (directive == "duration_ms") {
      int64_t ms = 0;
      if (!ReadNumber(in, &ms) || ms < 1 || ms > kMaxCampaignMs) {
        return Fail(error, line_no, "duration_ms: want an integer in [1, " +
                                        std::to_string(kMaxCampaignMs) + "]");
      }
      config->duration = sim::TimeNs::Millis(ms);
    } else if (directive == "tick_us") {
      int64_t us = 0;
      if (!ReadNumber(in, &us) || us < 1 || us > kMaxCampaignMs * 1000) {
        return Fail(error, line_no, "tick_us: want a positive integer within the ceiling");
      }
      config->tick = sim::TimeNs::Micros(us);
    } else if (directive == "telemetry_us") {
      int64_t us = 0;
      if (!ReadNumber(in, &us) || us < 1 || us > kMaxCampaignMs * 1000) {
        return Fail(error, line_no, "telemetry_us: want a positive integer within the ceiling");
      }
      config->telemetry_period = sim::TimeNs::Micros(us);
    } else if (directive == "grace_ms") {
      int64_t ms = 0;
      if (!ReadNumber(in, &ms) || ms < 0 || ms > kMaxCampaignMs) {
        return Fail(error, line_no, "grace_ms: want a non-negative integer within the ceiling");
      }
      config->scoring.grace = sim::TimeNs::Millis(ms);
    } else if (directive == "convergence_ticks") {
      if (!ReadNumber(in, &config->scoring.convergence_ticks) ||
          config->scoring.convergence_ticks < 1) {
        return Fail(error, line_no, "convergence_ticks: want a positive count");
      }
    } else if (directive == "stream") {
      if (!ParseStream(in, line_no, config, error)) {
        return false;
      }
    } else if (directive == "fault") {
      if (!ParseFault(in, line_no, config, error)) {
        return false;
      }
    } else {
      return Fail(error, line_no, "unknown directive '" + directive + "'");
    }
    // Every directive ends at its last argument: a leftover token is a
    // typo or a unit slip, never something to ignore.
    std::string extra;
    if (in >> extra) {
      return Fail(error, line_no, directive + ": unexpected trailing '" + extra + "'");
    }
  }
  return true;
}

bool LoadCampaignFile(const std::string& path, CampaignConfig* config,
                      std::string* error) {
  std::string text;
  if (!core::ReadBoundedFile(path, &text, error)) {
    return false;
  }
  return ParseCampaignText(text, config, error);
}

}  // namespace mihn::chaos
