// Control-plane scaling under many-client open-loop load (ISSUE: sharded
// cmd directory). A fleet of 1200 clients offers Poisson mopen->mread->
// mclose sessions at a fixed rate chosen to saturate a single cmd: the
// paper's one-manager layout completes only what its serve loop can admit,
// while sharding the directory 2/4/8 ways multiplies the admission rate
// until the offered load (or the app node's shared NIC) is the limit.
//
// Sessions move 1 KiB of phantom data each, so the shared application-node
// link stays far from saturation and the measured knee is the directory,
// not the data plane. Reported per shard count: offered/completed session
// rates, mopen/mread latency histograms, and per-shard peak in-flight
// depth; plus the 1->8 completed-throughput scaling ratio the acceptance
// gate checks. All exported values are integers, byte-identical per seed.
// The simulator's own host-side cost (events, host ns/event, peak queue
// depth, peak live detached tasks) goes to stderr only, so the exports stay
// byte-identical across hosts.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "apps/loadgen.hpp"
#include "bench_util.hpp"

namespace {

using dodo::Bytes64;
using dodo::kSecond;
using dodo::operator""_KiB;
using dodo::operator""_MiB;

constexpr int kClients = 1200;
constexpr double kOfferedPerSec = 32000.0;
constexpr std::uint64_t kSeed = 42;

dodo::cluster::ClusterConfig cluster_config(int shards) {
  dodo::cluster::ClusterConfig cfg;
  cfg.imd_hosts = 16;
  cfg.cmd_shards = shards;
  cfg.imd_pool = 32_MiB;
  // Keep-alive idles during the window: every client holds regions on
  // every shard, so ping volume would otherwise grow with the shard count
  // and charge the shared app-node link for traffic that is not admission.
  cfg.cmd.keepalive_interval = 30 * kSecond;
  cfg.materialize = false;  // phantom data; loadgen reads with null buffers
  cfg.record_spans = false;
  cfg.telemetry.sample_interval = dodo::millis(250.0);
  cfg.seed = kSeed;
  return cfg;
}

dodo::apps::LoadgenConfig loadgen_config() {
  dodo::apps::LoadgenConfig lc;
  lc.clients = kClients;
  lc.offered_rate = kOfferedPerSec;
  lc.duration = 2 * kSecond;
  lc.slots_per_client = 4;
  lc.region = 8_KiB;
  lc.read_len = 256;
  lc.seed = kSeed;
  return lc;
}

std::map<int, double> g_completed_per_sec;

void BM_Loadgen(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  auto& exporter = dodo::bench::json_exporter("loadgen");
  dodo::apps::LoadgenReport rep;
  double dur_s = 0;
  for (auto _ : state) {
    dodo::cluster::Cluster c(cluster_config(shards));
    const dodo::apps::LoadgenConfig lc = loadgen_config();
    dur_s = dodo::to_seconds(lc.duration);
    dodo::apps::LoadGenerator gen(c, lc);
    rep = {};
    const std::uint64_t events_before = c.sim().events_processed();
    const auto host_start = std::chrono::steady_clock::now();
    c.run_app([&](dodo::cluster::Cluster&) -> dodo::sim::Co<void> {
      co_await gen.run(&rep);
    });
    const double host_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - host_start)
            .count());
    const std::uint64_t events = c.sim().events_processed() - events_before;
    std::fprintf(stderr,
                 "loadgen shards=%d host: %llu events, %.0f ns/event, peak "
                 "queue depth %zu, peak detached tasks %zu\n",
                 shards, static_cast<unsigned long long>(events),
                 events > 0 ? host_ns / static_cast<double>(events) : 0.0,
                 c.sim().peak_queue_depth(), c.sim().peak_detached_tasks());
    const std::string p = "shards" + std::to_string(shards) + ".";
    exporter.record_timeline(c, "shards" + std::to_string(shards));
    exporter.absorb(rep.snapshot().prefixed(p));
    exporter.absorb(c.metrics_snapshot().prefixed(p));
    exporter.set_scalar(
        p + "offered_per_sec",
        std::llround(static_cast<double>(rep.offered) / dur_s));
    exporter.set_scalar(
        p + "completed_per_sec",
        std::llround(static_cast<double>(rep.completed) / dur_s));
  }
  const double completed_rate = static_cast<double>(rep.completed) / dur_s;
  g_completed_per_sec[shards] = completed_rate;
  if (shards == 8 && g_completed_per_sec.count(1) != 0) {
    exporter.set_milli("loadgen.scaling_1_to_8",
                       completed_rate / g_completed_per_sec[1]);
  }
  state.counters["offered_per_s"] = static_cast<double>(rep.offered) / dur_s;
  state.counters["completed_per_s"] = completed_rate;
  state.counters["failed"] = static_cast<double>(rep.failed);

  dodo::bench::print_header_once(
      "Loadgen: open-loop session throughput vs cmd shards",
      "shards  clients  offered/s  completed/s  failed");
  std::printf("%6d %8d %10.0f %12.0f %7llu\n", shards, kClients,
              static_cast<double>(rep.offered) / dur_s, completed_rate,
              static_cast<unsigned long long>(rep.failed));
  std::fflush(stdout);
}

}  // namespace

BENCHMARK(BM_Loadgen)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Iterations(1);

BENCHMARK_MAIN();
