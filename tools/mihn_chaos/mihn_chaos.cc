// mihn_chaos: run a deterministic fault-injection campaign — or a ranked
// policy sweep — from a .chaos config file and emit the JSON report.
//
//   mihn_chaos <campaign.chaos> [-o report.json] [--trials N] [--seed N]
//              [--workers N]
//   mihn_chaos --grid <sweep.chaos> [-o report.json] [--trials N]
//              [--seed N] [--workers N]
//
// Without -o the report goes to stdout. --workers N fans trials over a
// worker pool; reports are byte-identical at every worker count (0 =
// serial). Exit codes: 0 on success, 1 on a usage/parse/setup error, 2
// when a campaign ran but a hard (link-death) fault went undetected — so
// CI can gate on "the anomaly stack caught every kill we injected". In
// --grid mode a cell whose campaign fails setup also exits 1.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "src/chaos/campaign.h"
#include "src/chaos/campaign_file.h"
#include "src/chaos/executor.h"
#include "src/chaos/report.h"
#include "src/chaos/sweep.h"
#include "src/core/read_number.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <campaign.chaos> [-o report.json] [--trials N] [--seed N] "
               "[--workers N]\n"
               "       %s --grid <sweep.chaos> [-o report.json] [--trials N] [--seed N] "
               "[--workers N]\n",
               argv0, argv0);
  return 1;
}

// Strict flag-value parsing: the whole value must be the number (see
// core::ReadNumber), and garbage or out-of-domain values are hard errors
// (exit 1), never silently zero.
bool FlagPositiveInt(const char* flag, const char* value, int* out) {
  if (!mihn::core::ReadNumber(value, out) || *out < 1) {
    std::fprintf(stderr, "mihn_chaos: %s wants a positive integer, got '%s'\n", flag,
                 value);
    return false;
  }
  return true;
}

bool FlagNonNegativeInt(const char* flag, const char* value, int* out) {
  if (!mihn::core::ReadNumber(value, out) || *out < 0) {
    std::fprintf(stderr, "mihn_chaos: %s wants a non-negative integer, got '%s'\n", flag,
                 value);
    return false;
  }
  return true;
}

bool FlagUint64(const char* flag, const char* value, uint64_t* out) {
  if (!mihn::core::ReadNumber(value, out)) {
    std::fprintf(stderr, "mihn_chaos: %s wants an unsigned integer, got '%s'\n", flag,
                 value);
    return false;
  }
  return true;
}

int RunCampaign(const std::string& path, const std::string& out_path, int trials,
                uint64_t seed, bool have_seed, int workers) {
  mihn::chaos::CampaignConfig config;
  std::string error;
  if (!mihn::chaos::LoadCampaignFile(path, &config, &error)) {
    std::fprintf(stderr, "mihn_chaos: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  if (trials > 0) {
    config.trials = trials;
  }
  if (have_seed) {
    config.base_seed = seed;
  }

  mihn::chaos::Campaign campaign(std::move(config));
  mihn::chaos::TrialExecutor executor(workers);
  const mihn::chaos::CampaignResult result =
      workers > 1 ? campaign.Run(executor) : campaign.Run();
  if (!result.ok()) {
    std::fprintf(stderr, "mihn_chaos: campaign failed: %s\n", result.error.c_str());
    return 1;
  }

  if (out_path.empty()) {
    std::fputs(mihn::chaos::CampaignReportJson(result).c_str(), stdout);
  } else if (!mihn::chaos::WriteCampaignReport(result, out_path)) {
    std::fprintf(stderr, "mihn_chaos: cannot write %s\n", out_path.c_str());
    return 1;
  }

  std::fprintf(stderr,
               "mihn_chaos: %d trial(s), %d/%d faults detected (%d/%d hard), "
               "precision %.3f, mean detection latency %.3f ms\n",
               result.trials_completed, result.detected_total, result.faults_total,
               result.hard_detected_total, result.hard_faults_total, result.precision,
               result.mean_detection_latency_ms);
  return result.hard_detected_total == result.hard_faults_total ? 0 : 2;
}

int RunGrid(const std::string& path, const std::string& out_path, int trials,
            uint64_t seed, bool have_seed, int workers) {
  mihn::chaos::SweepConfig config;
  std::string error;
  if (!mihn::chaos::LoadSweepFile(path, &config, &error)) {
    std::fprintf(stderr, "mihn_chaos: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  if (trials > 0) {
    config.trials = trials;
  }
  if (have_seed) {
    config.seed = seed;
    config.has_seed = true;
  }

  mihn::chaos::Sweep sweep(std::move(config));
  mihn::chaos::TrialExecutor executor(workers);
  const mihn::chaos::SweepResult result = sweep.Run(executor);
  if (!result.ok()) {
    std::fprintf(stderr, "mihn_chaos: sweep failed: %s\n", result.error.c_str());
    return 1;
  }

  if (out_path.empty()) {
    std::fputs(mihn::chaos::SweepReportJson(result).c_str(), stdout);
  } else if (!mihn::chaos::WriteSweepReport(result, out_path)) {
    std::fprintf(stderr, "mihn_chaos: cannot write %s\n", out_path.c_str());
    return 1;
  }

  for (const mihn::chaos::SweepCellResult& cell : result.cells) {
    if (!cell.result.ok()) {
      std::fprintf(stderr, "mihn_chaos: cell %d (%s) failed: %s\n", cell.index,
                   cell.campaign.c_str(), cell.result.error.c_str());
    }
  }
  if (!result.ranking.empty()) {
    const mihn::chaos::SweepCellResult& best =
        result.cells[static_cast<size_t>(result.ranking.front())];
    std::fprintf(stderr,
                 "mihn_chaos: swept %d cell(s); best: campaign=%s preset=%s "
                 "scale=%g policy=%s (hard recall %.3f, mean recovery %.3f ms)\n",
                 static_cast<int>(result.cells.size()), best.campaign.c_str(),
                 best.preset.c_str(), best.fault_scale,
                 std::string(mihn::chaos::RecoveryPolicyName(best.policy)).c_str(),
                 best.result.hard_recall, best.result.mean_recovery_ms);
  }
  return result.all_cells_ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string out_path;
  bool grid = false;
  int trials_override = 0;
  uint64_t seed_override = 0;
  bool have_seed_override = false;
  int workers = 0;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "-o") == 0 || std::strcmp(arg, "--out") == 0) {
      if (++i >= argc) {
        return Usage(argv[0]);
      }
      out_path = argv[i];
    } else if (std::strcmp(arg, "--grid") == 0) {
      if (++i >= argc) {
        return Usage(argv[0]);
      }
      grid = true;
      config_path = argv[i];
    } else if (std::strcmp(arg, "--trials") == 0) {
      if (++i >= argc) {
        return Usage(argv[0]);
      }
      if (!FlagPositiveInt("--trials", argv[i], &trials_override)) {
        return 1;
      }
    } else if (std::strcmp(arg, "--seed") == 0) {
      if (++i >= argc) {
        return Usage(argv[0]);
      }
      if (!FlagUint64("--seed", argv[i], &seed_override)) {
        return 1;
      }
      have_seed_override = true;
    } else if (std::strcmp(arg, "--workers") == 0) {
      if (++i >= argc) {
        return Usage(argv[0]);
      }
      if (!FlagNonNegativeInt("--workers", argv[i], &workers)) {
        return 1;
      }
    } else if (arg[0] != '-' && config_path.empty()) {
      config_path = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (config_path.empty()) {
    return Usage(argv[0]);
  }

  return grid ? RunGrid(config_path, out_path, trials_override, seed_override,
                        have_seed_override, workers)
              : RunCampaign(config_path, out_path, trials_override, seed_override,
                            have_seed_override, workers);
}
