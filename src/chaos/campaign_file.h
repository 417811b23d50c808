// Text format for campaign configs — what tools/mihn_chaos runs and what
// CI commits as the demo grid. campaign_file.cc reads the sweep format
// (sweep.h) with the same line loop, and parses each directive the two
// share (preset, recovery or policy, trials, seed, duration_ms) once.
//
// Line-based, one directive per line, '#' comments, blank lines ignored:
//
//   preset commodity_two_socket        # or dgx_class, edge_node
//   trials 3
//   seed 42
//   duration_ms 100
//   tick_us 1000
//   telemetry_us 1000
//   grace_ms 5
//   convergence_ticks 3
//   recovery repair                    # or reroute_only, restart_only, none
//   stream <src_kind> <i> <dst_kind> <j> <demand_gbps> <slo_gbps> [ddio]
//   fault kill     <link_kind> <i> <at_ms> <clear_ms>
//   fault degrade  <link_kind> <i> <at_ms> <clear_ms> <capacity_factor>
//   fault latency  <link_kind> <i> <at_ms> <clear_ms> <extra_us>
//   fault flap     <link_kind> <i> <at_ms> <clear_ms> <period_us> <duty>
//   fault ddio_off <at_ms> <clear_ms>
//
// Component and link kinds use the canonical ComponentKindName /
// LinkKindName spellings ("nic", "gpu", "cpu_socket", "pcie_switch_up",
// ...). A clear_ms of 0 means the fault lasts to the end of the run;
// otherwise it must exceed at_ms. An slo_gbps of 0 makes the stream
// best-effort (no intent submitted).
//
// Validation is strict and happens here, at the boundary: every number
// must be the whole token (no "1e300" read as 1), nothing may follow a
// directive's last argument, demands and SLOs are non-negative, a degrade
// factor lies in [0, 1], a flap has a positive period and a duty in
// (0, 1], and every time — duration, fault window, tick, latency — stays
// within kMaxCampaignMs of virtual time.

#ifndef MIHN_SRC_CHAOS_CAMPAIGN_FILE_H_
#define MIHN_SRC_CHAOS_CAMPAIGN_FILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/chaos/campaign.h"

namespace mihn::chaos {

// The virtual-time ceiling of a campaign file: 60 s. A trial simulates
// every event of its run, so a longer duration (or a fault time or period
// beyond it) is a budget mistake, not a scenario.
inline constexpr int64_t kMaxCampaignMs = 60'000;

// Canonical preset-name parsing ("commodity_two_socket", "dgx_class",
// "edge_node"), shared by the campaign and sweep grammars.
std::optional<HostNetwork::Preset> ParsePresetName(std::string_view name);

// Parses |text| into |config| (on top of its current values, so callers
// can pre-seed defaults). Returns false and sets |error| ("line N: ...")
// on the first malformed directive.
bool ParseCampaignText(std::string_view text, CampaignConfig* config,
                       std::string* error);

// Reads and parses |path|. Returns false on I/O or parse failure.
bool LoadCampaignFile(const std::string& path, CampaignConfig* config,
                      std::string* error);

}  // namespace mihn::chaos

#endif  // MIHN_SRC_CHAOS_CAMPAIGN_FILE_H_
