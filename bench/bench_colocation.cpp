// E2 — KV + ML co-location (paper §2's motivating scenario): "the traffic
// of the remote key-value store application may traverse the same PCIe
// root port and the memory bus and therefore suffer from high latency".
// Three phases: KV alone, KV + unpaced trainer, KV + trainer paced by the
// manager-style bandwidth cap.

#include "bench/bench_util.h"
#include "src/host/host_network.h"
#include "src/workload/kv_client.h"
#include "src/workload/ml_trainer.h"

namespace {

using namespace mihn;

struct PhaseResult {
  double p50 = 0, p99 = 0, p999 = 0;
  double kops = 0;
  double trainer_iters_per_sec = 0;
};

PhaseResult RunPhase(bool trainer_on, double pace_gbps) {
  HostNetwork::Options options;
  options.autostart = HostNetwork::Autostart::kNone;
  sim::Simulation sim;
  HostNetwork host(sim, options);
  const auto& server = host.server();

  workload::KvClient::Config kv_config;
  kv_config.client = server.external_hosts[0];
  kv_config.server = server.sockets[0];
  kv_config.concurrency = 4;
  kv_config.tenant = 1;
  workload::KvClient kv(host.fabric(), kv_config);
  kv.Start();

  workload::MlTrainer::Config ml_config;
  ml_config.data_source = server.dimms[0];  // Behind s0: shares rp0 with nic0.
  ml_config.gpu = server.gpus[0];
  ml_config.batch_bytes = 128LL * 1024 * 1024;
  ml_config.compute_time = sim::TimeNs::Millis(2);
  ml_config.tenant = 2;
  if (pace_gbps > 0) {
    ml_config.load_demand = sim::Bandwidth::GBps(pace_gbps);
  }
  workload::MlTrainer trainer(host.fabric(), ml_config);
  if (trainer_on) {
    trainer.Start();
  }

  const sim::TimeNs window = sim::TimeNs::Millis(200);
  host.RunFor(window);

  PhaseResult result;
  result.p50 = kv.latency_us().Percentile(0.5);
  result.p99 = kv.latency_us().Percentile(0.99);
  result.p999 = kv.latency_us().Percentile(0.999);
  result.kops = kv.OpsPerSecond() / 1000.0;
  result.trainer_iters_per_sec =
      static_cast<double>(trainer.iterations()) / window.ToSecondsF();
  return result;
}

}  // namespace

int main() {
  bench::Banner("E2: KV / ML-training co-location",
                "remote KV latency with a co-located trainer loading batches over the "
                "shared PCIe root port + memory bus");

  bench::Table table({{"phase", 26},
                      {"kv p50 us", 11},
                      {"kv p99 us", 11},
                      {"kv p999 us", 12},
                      {"kv kops/s", 11},
                      {"ml iters/s", 12}});

  const PhaseResult alone = RunPhase(false, 0);
  table.Row({"kv alone", bench::Fmt("%.1f", alone.p50), bench::Fmt("%.1f", alone.p99),
             bench::Fmt("%.1f", alone.p999), bench::Fmt("%.0f", alone.kops), "-"});

  const PhaseResult contended = RunPhase(true, 0);
  table.Row({"kv + trainer (unpaced)", bench::Fmt("%.1f", contended.p50),
             bench::Fmt("%.1f", contended.p99), bench::Fmt("%.1f", contended.p999),
             bench::Fmt("%.0f", contended.kops),
             bench::Fmt("%.0f", contended.trainer_iters_per_sec)});

  const PhaseResult paced = RunPhase(true, 8.0);
  table.Row({"kv + trainer (paced 8GB/s)", bench::Fmt("%.1f", paced.p50),
             bench::Fmt("%.1f", paced.p99), bench::Fmt("%.1f", paced.p999),
             bench::Fmt("%.0f", paced.kops),
             bench::Fmt("%.0f", paced.trainer_iters_per_sec)});

  std::printf("\nexpected shape: the unpaced trainer inflates KV latency (it saturates the\n"
              "shared PCIe uplink during each batch load); pacing the trainer trades a\n"
              "modest iteration-rate loss for most of the KV latency recovery.\n");
  return 0;
}
