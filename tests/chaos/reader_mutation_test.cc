// Seeded grammar mutation of the two committed chaos files, one reader
// each: tokens deleted, duplicated and swapped, bytes flipped, numbers made
// negative, huge or non-numeric. Every mutant must either fail with an
// error ("line N: ..." for a line-level one) or parse into a config inside
// the reader's own bounds, and an accepted campaign must resolve against
// its preset or say why not. The per-trial event budget is not covered:
// an accepted mutant is parsed and resolved here, never run.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/chaos/campaign_file.h"
#include "src/chaos/sweep.h"
#include "src/core/read_file.h"
#include "src/core/read_number.h"
#include "src/sim/random.h"
#include "src/topology/presets.h"

namespace mihn::chaos {
namespace {

using sim::TimeNs;

constexpr int kCasesPerReader = 6000;
constexpr int kMaxReportedFailures = 5;

std::string CampaignsDir() { return MIHN_CHAOS_CAMPAIGNS_DIR; }

std::string ReadCommitted(const std::string& name) {
  std::string text;
  std::string error;
  EXPECT_TRUE(core::ReadBoundedFile(CampaignsDir() + "/" + name, &text, &error)) << error;
  return text;
}

// A file as lines of whitespace-separated tokens; rendering joins them with
// single spaces, which no directive can tell apart from the original.
using Document = std::vector<std::vector<std::string>>;

Document Tokenize(const std::string& text) {
  Document doc(1);
  std::string token;
  for (const char c : text + "\n") {
    if (c == ' ' || c == '\t' || c == '\n') {
      if (!token.empty()) {
        doc.back().push_back(std::move(token));
        token.clear();
      }
      if (c == '\n') {
        doc.emplace_back();
      }
    } else {
      token.push_back(c);
    }
  }
  return doc;
}

std::string Render(const Document& doc) {
  std::string text;
  for (const std::vector<std::string>& line : doc) {
    for (size_t i = 0; i < line.size(); ++i) {
      text += (i == 0 ? "" : " ") + line[i];
    }
    text += "\n";
  }
  return text;
}

// The position of a uniformly drawn token, or {-1, -1} in an empty document.
std::pair<int, int> PickToken(const Document& doc, sim::Rng& rng) {
  std::vector<std::pair<int, int>> positions;
  for (size_t l = 0; l < doc.size(); ++l) {
    for (size_t t = 0; t < doc[l].size(); ++t) {
      positions.emplace_back(static_cast<int>(l), static_cast<int>(t));
    }
  }
  if (positions.empty()) {
    return {-1, -1};
  }
  return positions[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(positions.size()) - 1))];
}

// A number turned negative, huge, fractional or into no number at all.
std::string PerturbNumber(const std::string& token, sim::Rng& rng) {
  const std::vector<std::string> replacements = {
      "-" + token, "-1", "0", "1", "0.5", "1e308", "99999999999999999999",
      "9223372036854775807", "2147483648", "nan", "inf", "x", "1e3", "0x10", token + "junk"};
  return replacements[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(replacements.size()) - 1))];
}

// Applies one to three mutations to |text|.
std::string Mutate(const std::string& text, sim::Rng& rng) {
  Document doc = Tokenize(text);
  int flips = 0;
  const int64_t count = rng.UniformInt(1, 3);
  for (int64_t m = 0; m < count; ++m) {
    const auto [line, index] = PickToken(doc, rng);
    if (line < 0) {
      break;
    }
    std::vector<std::string>& tokens = doc[static_cast<size_t>(line)];
    const auto at = tokens.begin() + index;
    double number = 0.0;
    switch (rng.UniformInt(0, 4)) {
      case 0:
        tokens.erase(at);
        break;
      case 1: {
        const std::string copy = *at;
        tokens.insert(at, copy);
        break;
      }
      case 2: {
        const auto [other_line, other_index] = PickToken(doc, rng);
        std::swap(*at, doc[static_cast<size_t>(other_line)][static_cast<size_t>(other_index)]);
        break;
      }
      case 3:
        if (core::ReadNumber(std::string_view(*at), &number)) {
          *at = PerturbNumber(*at, rng);
        } else {
          tokens.erase(at);
        }
        break;
      default:
        ++flips;
        break;
    }
  }
  std::string mutant = Render(doc);
  for (int f = 0; f < flips && !mutant.empty(); ++f) {
    const auto byte = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(mutant.size()) - 1));
    mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << rng.UniformInt(0, 7)));
  }
  return mutant;
}

// "line N: ..." with N a line of |text|.
bool IsLineError(const std::string& error, const std::string& text) {
  int line = 0;
  const size_t colon = error.find(": ");
  if (error.rfind("line ", 0) != 0 || colon == std::string::npos ||
      !core::ReadNumber(std::string_view(error).substr(5, colon - 5), &line)) {
    return false;
  }
  int lines = 1;
  for (const char c : text) {
    lines += c == '\n' ? 1 : 0;
  }
  return line >= 1 && line <= lines;
}

bool WithinCeiling(TimeNs t, TimeNs lo) {
  return t >= lo && t <= TimeNs::Millis(kMaxCampaignMs);
}

// Empty when |config| lies inside the campaign reader's bounds, otherwise
// the first bound it breaks.
std::string CampaignBoundsViolation(const CampaignConfig& config) {
  if (config.trials < 1 || config.scoring.convergence_ticks < 1) {
    return "count below 1";
  }
  if (!WithinCeiling(config.duration, TimeNs::Millis(1)) ||
      !WithinCeiling(config.tick, TimeNs::Micros(1)) ||
      !WithinCeiling(config.telemetry_period, TimeNs::Micros(1)) ||
      !WithinCeiling(config.scoring.grace, TimeNs::Zero())) {
    return "time setting outside its range";
  }
  for (const StreamSpec& stream : config.streams) {
    if (!(stream.demand.ToGbps() >= 0.0) || !(stream.slo.ToGbps() >= 0.0)) {
      return "negative stream rate";
    }
  }
  for (const FaultSpec& spec : config.schedule.specs()) {
    const bool window_ok = WithinCeiling(spec.at, TimeNs::Zero()) &&
                           (spec.Cleared() ? spec.clear_at <= TimeNs::Millis(kMaxCampaignMs)
                                           : spec.clear_at == TimeNs::Zero());
    if (!window_ok) {
      return "fault window outside the ceiling";
    }
    if (spec.kind == FaultKind::kDegrade &&
        !(spec.capacity_factor >= 0.0 && spec.capacity_factor <= 1.0)) {
      return "degrade factor outside [0, 1]";
    }
    if (spec.kind == FaultKind::kFlap &&
        (!(spec.flap_duty > 0.0 && spec.flap_duty <= 1.0) ||
         !WithinCeiling(spec.flap_period, TimeNs::Micros(1)))) {
      return "flap duty or period outside its range";
    }
    if (spec.kind == FaultKind::kLatency &&
        !WithinCeiling(spec.extra_latency, TimeNs::Zero())) {
      return "latency outside the ceiling";
    }
  }
  return "";
}

const topology::Server& PresetServer(HostNetwork::Preset preset) {
  static const topology::Server kCommodity = topology::CommodityTwoSocket();
  static const topology::Server kDgx = topology::DgxClass();
  static const topology::Server kEdge = topology::EdgeNode();
  switch (preset) {
    case HostNetwork::Preset::kDgxClass:
      return kDgx;
    case HostNetwork::Preset::kEdgeNode:
      return kEdge;
    case HostNetwork::Preset::kCommodityTwoSocket:
      break;
  }
  return kCommodity;
}

// Empty when an accepted campaign resolves against its preset, or fails to
// with an error and no faults.
std::string ResolveViolation(const CampaignConfig& config) {
  std::string error;
  const std::vector<ResolvedFault> resolved =
      config.schedule.Resolve(PresetServer(config.preset).topo, &error);
  if (error.empty() ? resolved.size() == config.schedule.specs().size() : resolved.empty()) {
    return "";
  }
  return "resolve returned " + std::to_string(resolved.size()) + " faults with error '" +
         error + "'";
}

TEST(ReaderMutationTest, CampaignMutantsFailCleanlyOrStayInBounds) {
  const std::string original = ReadCommitted("demo.chaos");
  sim::Rng rng(0xc4a05);
  int accepted = 0;
  int failures = 0;
  for (int i = 0; i < kCasesPerReader && failures < kMaxReportedFailures; ++i) {
    const std::string text = Mutate(original, rng);
    CampaignConfig config;
    std::string error;
    std::string violation;
    if (!ParseCampaignText(text, &config, &error)) {
      violation = IsLineError(error, text) ? "" : "error without a line: '" + error + "'";
    } else {
      ++accepted;
      violation = CampaignBoundsViolation(config);
      if (violation.empty()) {
        violation = ResolveViolation(config);
      }
    }
    if (!violation.empty()) {
      ++failures;
      ADD_FAILURE() << "mutant " << i << ": " << violation << "\n" << text;
    }
  }
  // Both outcomes occur, so neither branch of the check is vacuous.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCasesPerReader);
}

TEST(ReaderMutationTest, SweepMutantsFailCleanlyOrStayInBounds) {
  const std::string original = ReadCommitted("policy_grid.chaos");
  sim::Rng rng(0x5eef);
  int accepted = 0;
  int failures = 0;
  for (int i = 0; i < kCasesPerReader && failures < kMaxReportedFailures; ++i) {
    const std::string text = Mutate(original, rng);
    SweepConfig config;
    std::string error;
    std::string violation;
    if (!ParseSweepText(text, CampaignsDir(), &config, &error)) {
      const bool clean = IsLineError(error, text) || error.rfind("sweep defines no", 0) == 0;
      violation = clean ? "" : "unexpected error: '" + error + "'";
    } else {
      ++accepted;
      if (config.campaigns.empty() || config.trials < 0 ||
          !(config.duration == TimeNs::Zero() ||
            WithinCeiling(config.duration, TimeNs::Millis(1)))) {
        violation = "sweep override outside its range";
      }
      for (const double scale : config.fault_scales) {
        violation += scale > 0.0 ? "" : "non-positive scale";
      }
      for (const SweepConfig::CampaignAxis& axis : config.campaigns) {
        violation += CampaignBoundsViolation(axis.config) + ResolveViolation(axis.config);
      }
    }
    if (!violation.empty()) {
      ++failures;
      ADD_FAILURE() << "mutant " << i << ": " << violation << "\n" << text;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kCasesPerReader);
}

}  // namespace
}  // namespace mihn::chaos
