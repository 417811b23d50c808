#include "src/chaos/campaign_file.h"

#include <functional>
#include <istream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "src/chaos/sweep.h"
#include "src/core/read_file.h"
#include "src/core/read_number.h"
#include "src/topology/component.h"
#include "src/topology/link.h"

namespace mihn::chaos {
namespace {

using core::ReadNumber;

// The units of the format's time arguments: *_ms and *_us.
constexpr sim::TimeNs kMs = sim::TimeNs::Millis(1);
constexpr sim::TimeNs kUs = sim::TimeNs::Micros(1);

bool Fail(std::string* error, std::string what) {
  *error = std::move(what);
  return false;
}

// Parses one directive's arguments from |in|; false, with |*error| set, if malformed.
using DirectiveParser =
    std::function<bool(const std::string& directive, std::istream& in, std::string* error)>;

// The line loop of both formats: one directive per line, '#' starts a
// comment, and blank lines are skipped. A failing line's error gains its
// "line N: " prefix. Every directive ends at its last argument: a leftover
// token is a typo or a unit slip, never something to ignore.
bool ReadDirectives(std::string_view text, const DirectiveParser& parse, std::string* error) {
  std::istringstream lines{std::string(text)};
  std::string line;
  for (int line_no = 1; std::getline(lines, line); ++line_no) {
    std::istringstream in(line.substr(0, line.find('#')));
    std::string directive;
    if (!(in >> directive)) {
      continue;  // Blank or comment-only line.
    }
    std::string what;
    std::string extra;
    if (parse(directive, in, &what) && in >> extra) {
      what = directive + ": unexpected trailing '" + extra + "'";
    }
    if (!what.empty()) {
      return Fail(error, "line " + std::to_string(line_no) + ": " + what);
    }
  }
  return true;
}

// A whole number of |unit|s in [lo, the virtual-time ceiling].
bool ReadTime(std::istream& in, const std::string& name, int64_t lo, sim::TimeNs unit,
              sim::TimeNs* out, std::string* error) {
  const int64_t hi = sim::TimeNs::Millis(kMaxCampaignMs).nanos() / unit.nanos();
  int64_t count = 0;
  if (!ReadNumber(in, &count) || count < lo || count > hi) {
    return Fail(error, name + ": want an integer in [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + "]");
  }
  *out = sim::TimeNs::Nanos(count * unit.nanos());
  return true;
}

bool ReadCount(std::istream& in, const std::string& directive, int* out, std::string* error) {
  if (!ReadNumber(in, out) || *out < 1) {
    return Fail(error, directive + ": want a positive count");
  }
  return true;
}

// The directives both formats share, each read and bounded here alone.
bool ReadPreset(std::istream& in, HostNetwork::Preset* out, std::string* error) {
  std::string name;
  if (!(in >> name)) {
    return Fail(error, "preset: missing name");
  }
  const std::optional<HostNetwork::Preset> preset = ParsePresetName(name);
  if (!preset) {
    return Fail(error, "unknown preset '" + name + "'");
  }
  *out = *preset;
  return true;
}

// A campaign's "recovery" or a sweep's "policy".
bool ReadPolicy(std::istream& in, const std::string& directive, RecoveryPolicy* out,
                std::string* error) {
  std::string name;
  if (!(in >> name)) {
    return Fail(error, directive + ": missing policy name");
  }
  const std::optional<RecoveryPolicy> policy = ParseRecoveryPolicy(name);
  if (!policy) {
    return Fail(error, directive + ": unknown policy '" + name +
                           "' (want repair, reroute_only, restart_only, or none)");
  }
  *out = *policy;
  return true;
}

bool ReadSeed(std::istream& in, uint64_t* out, std::string* error) {
  return ReadNumber(in, out) || Fail(error, "seed: want a non-negative integer");
}

bool ReadDuration(std::istream& in, sim::TimeNs* out, std::string* error) {
  return ReadTime(in, "duration_ms", 1, kMs, out, error);
}

// A fault window [at_ms, clear_ms): clear_ms 0 means "never clears";
// otherwise the fault must clear after it starts.
bool ReadWindow(std::istream& in, const std::string& what, sim::TimeNs* at, sim::TimeNs* clear,
                std::string* error) {
  if (!ReadTime(in, what + ": at_ms", 0, kMs, at, error) ||
      !ReadTime(in, what + ": clear_ms", 0, kMs, clear, error)) {
    return false;
  }
  if (*clear != sim::TimeNs::Zero() && *clear <= *at) {
    return Fail(error, what + ": clear_ms must be 0 (never) or in (at_ms, " +
                           std::to_string(kMaxCampaignMs) + "]");
  }
  return true;
}

std::optional<FaultKind> ParseFaultKind(std::string_view name) {
  for (const FaultKind kind : {FaultKind::kDegrade, FaultKind::kKill, FaultKind::kLatency,
                               FaultKind::kFlap, FaultKind::kDdioOff}) {
    if (name == FaultKindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

// "fault <kind> [<link_kind> <index>] <at_ms> <clear_ms> [<args>]": every
// kind but ddio_off names a link, and degrade, latency and flap take their
// own arguments after the window.
bool ParseFault(std::istream& in, CampaignConfig* config, std::string* error) {
  std::string verb;
  if (!(in >> verb)) {
    return Fail(error, "fault: missing kind");
  }
  const std::optional<FaultKind> fault = ParseFaultKind(verb);
  if (!fault) {
    return Fail(error, "unknown fault kind '" + verb + "'");
  }
  const std::string what = "fault " + verb;
  std::optional<topology::LinkKind> kind;
  int index = 0;
  if (*fault != FaultKind::kDdioOff) {
    std::string kind_name;
    if (!(in >> kind_name) || !ReadNumber(in, &index)) {
      return Fail(error, what + ": want <link_kind> <index> <at_ms> <clear_ms>");
    }
    kind = topology::ParseLinkKind(kind_name);
    if (!kind) {
      return Fail(error, "unknown link kind '" + kind_name + "'");
    }
  }
  sim::TimeNs at;
  sim::TimeNs clear;
  if (!ReadWindow(in, what, &at, &clear, error)) {
    return false;
  }
  switch (*fault) {
    case FaultKind::kDdioOff:
      config->schedule.DisableDdio(at, clear);
      return true;
    case FaultKind::kKill:
      config->schedule.Kill(*kind, index, at, clear);
      return true;
    case FaultKind::kDegrade: {
      double factor = 0.5;
      if (!ReadNumber(in, &factor) || factor < 0.0 || factor > 1.0) {
        return Fail(error, what + ": want a capacity_factor in [0, 1]");
      }
      config->schedule.Degrade(*kind, index, factor, at, clear);
      return true;
    }
    case FaultKind::kLatency: {
      sim::TimeNs extra;
      if (!ReadTime(in, what + ": extra_us", 0, kUs, &extra, error)) {
        return false;
      }
      config->schedule.InflateLatency(*kind, index, extra, at, clear);
      return true;
    }
    case FaultKind::kFlap: {
      sim::TimeNs period;
      double duty = 0.5;
      if (!ReadTime(in, what + ": period_us", 1, kUs, &period, error)) {
        return false;
      }
      if (!ReadNumber(in, &duty) || duty <= 0.0 || duty > 1.0) {
        return Fail(error, what + ": want a duty in (0, 1]");
      }
      config->schedule.Flap(*kind, index, period, duty, at, clear);
      return true;
    }
  }
  return true;
}

bool ParseStream(std::istream& in, CampaignConfig* config, std::string* error) {
  std::string src_kind;
  std::string dst_kind;
  StreamSpec spec;
  double demand_gbps = 0.0;
  double slo_gbps = 0.0;
  if (!(in >> src_kind) || !ReadNumber(in, &spec.src_index) || !(in >> dst_kind) ||
      !ReadNumber(in, &spec.dst_index) || !ReadNumber(in, &demand_gbps) ||
      !ReadNumber(in, &slo_gbps)) {
    return Fail(error, "stream: want <src_kind> <i> <dst_kind> <j> <demand_gbps> <slo_gbps>");
  }
  if (demand_gbps < 0.0 || slo_gbps < 0.0) {
    return Fail(error, "stream: demand_gbps and slo_gbps must be non-negative");
  }
  const auto src = topology::ParseComponentKind(src_kind);
  const auto dst = topology::ParseComponentKind(dst_kind);
  if (!src || !dst) {
    return Fail(error, "unknown component kind '" + (src ? dst_kind : src_kind) + "'");
  }
  spec.src_kind = *src;
  spec.dst_kind = *dst;
  spec.demand = sim::Bandwidth::Gbps(demand_gbps);
  spec.slo = sim::Bandwidth::Gbps(slo_gbps);
  std::string flag;
  if (in >> flag) {
    if (flag != "ddio") {
      return Fail(error, "unknown stream flag '" + flag + "'");
    }
    spec.ddio_write = true;
  }
  config->streams.push_back(spec);
  return true;
}

}  // namespace

std::optional<HostNetwork::Preset> ParsePresetName(std::string_view name) {
  for (const HostNetwork::Preset preset :
       {HostNetwork::Preset::kCommodityTwoSocket, HostNetwork::Preset::kDgxClass,
        HostNetwork::Preset::kEdgeNode}) {
    if (name == PresetName(preset)) {
      return preset;
    }
  }
  return std::nullopt;
}

bool ParseCampaignText(std::string_view text, CampaignConfig* config,
                       std::string* error) {
  return ReadDirectives(
      text,
      [config](const std::string& directive, std::istream& in, std::string* what) {
        if (directive == "preset") {
          return ReadPreset(in, &config->preset, what);
        }
        if (directive == "recovery") {
          return ReadPolicy(in, directive, &config->recovery, what);
        }
        if (directive == "trials") {
          return ReadCount(in, directive, &config->trials, what);
        }
        if (directive == "seed") {
          return ReadSeed(in, &config->base_seed, what);
        }
        if (directive == "duration_ms") {
          return ReadDuration(in, &config->duration, what);
        }
        if (directive == "tick_us") {
          return ReadTime(in, directive, 1, kUs, &config->tick, what);
        }
        if (directive == "telemetry_us") {
          return ReadTime(in, directive, 1, kUs, &config->telemetry_period, what);
        }
        if (directive == "grace_ms") {
          return ReadTime(in, directive, 0, kMs, &config->scoring.grace, what);
        }
        if (directive == "convergence_ticks") {
          return ReadCount(in, directive, &config->scoring.convergence_ticks, what);
        }
        if (directive == "stream") {
          return ParseStream(in, config, what);
        }
        if (directive == "fault") {
          return ParseFault(in, config, what);
        }
        return Fail(what, "unknown directive '" + directive + "'");
      },
      error);
}

bool LoadCampaignFile(const std::string& path, CampaignConfig* config,
                      std::string* error) {
  std::string text;
  if (!core::ReadBoundedFile(path, &text, error)) {
    return false;
  }
  return ParseCampaignText(text, config, error);
}

bool ParseSweepText(std::string_view text, const std::string& base_dir,
                    SweepConfig* config, std::string* error) {
  const bool read = ReadDirectives(
      text,
      [&](const std::string& directive, std::istream& in, std::string* what) {
        if (directive == "campaign") {
          SweepConfig::CampaignAxis axis;
          std::string path;
          if (!(in >> axis.name >> path)) {
            return Fail(what, "campaign: want <name> <path>");
          }
          const std::string resolved =
              (path.front() == '/' || base_dir.empty()) ? path : base_dir + "/" + path;
          std::string load_error;
          if (!LoadCampaignFile(resolved, &axis.config, &load_error)) {
            return Fail(what, "campaign " + axis.name + ": " + load_error);
          }
          config->campaigns.push_back(std::move(axis));
          return true;
        }
        if (directive == "scale") {
          double scale = 0.0;
          if (!ReadNumber(in, &scale) || !(scale > 0.0)) {
            return Fail(what, "scale: want a positive multiplier");
          }
          config->fault_scales.push_back(scale);
          return true;
        }
        if (directive == "preset") {
          return ReadPreset(in, &config->presets.emplace_back(), what);
        }
        if (directive == "policy") {
          return ReadPolicy(in, directive, &config->policies.emplace_back(), what);
        }
        if (directive == "trials") {
          return ReadCount(in, directive, &config->trials, what);
        }
        if (directive == "seed") {
          config->has_seed = true;
          return ReadSeed(in, &config->seed, what);
        }
        if (directive == "duration_ms") {
          return ReadDuration(in, &config->duration, what);
        }
        return Fail(what, "unknown directive '" + directive + "'");
      },
      error);
  if (read && config->campaigns.empty()) {
    return Fail(error, "sweep defines no campaigns (want at least one 'campaign <name> <path>')");
  }
  return read;
}

bool LoadSweepFile(const std::string& path, SweepConfig* config, std::string* error) {
  std::string text;
  if (!core::ReadBoundedFile(path, &text, error)) {
    return false;
  }
  const size_t slash = path.find_last_of('/');
  const std::string base_dir = slash == std::string::npos ? "" : path.substr(0, slash);
  return ParseSweepText(text, base_dir, config, error);
}

}  // namespace mihn::chaos
