// Serving-layer benchmark: open-loop Poisson load against the src/serve/
// stack (router + admission control + spread-placed ServeReplica actors).
// Three experiments, all latency-accounted from each request's *scheduled*
// arrival so a stalled router cannot hide its tail (no coordinated
// omission):
//
//   1. QPS ladder, fixed replica set (autoscaler off): walk offered load
//      upward and report the highest rate whose p99 holds the SLO with
//      negligible shedding — the sustained-QPS-at-SLO figure.
//   2. The same ladder with the autoscaler on: capacity follows demand, so
//      the sustained rate should extend past the fixed set's knee.
//   3. Mid-run node kill (autoscaler on): kill a replica's node under load
//      and measure the recovery window — time from the kill until the
//      sliding-window p99 is back under the SLO with traffic flowing.
//
// Emits BENCH_serving.json. --smoke runs one short ladder point plus a
// node-kill pass and exits nonzero on SLO/recovery failure (wired into
// scripts/run_tier1.sh). The pre-v2 Table-3 Ray-vs-REST comparison lives on
// in raylib/serving + baselines/rest_serving.
#include <cstdio>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "serve/autoscaler.h"
#include "serve/load_gen.h"
#include "serve/replica.h"
#include "serve/router.h"

namespace ray {
namespace {

constexpr int64_t kSloUs = 200'000;    // p99 target all experiments defend
constexpr int64_t kServiceUs = 2'000;  // simulated model evaluation time

std::unique_ptr<Cluster> MakeCluster(int num_nodes) {
  ClusterConfig config;
  config.num_nodes = num_nodes;
  config.scheduler.total_resources = ResourceSet::Cpu(4);
  config.scheduler.heartbeat_interval_us = 10'000;
  config.monitor.miss_threshold = 5;  // 50ms detection bound
  config.net.control_latency_us = 5;
  auto cluster = std::make_unique<Cluster>(config);
  serve::RegisterServeSupport(*cluster);
  return cluster;
}

serve::RouterConfig MakeRouterConfig() {
  serve::RouterConfig config;
  config.slo_us = kSloUs;
  config.replica_service_us = kServiceUs;
  return config;
}

struct LadderPoint {
  double offered_qps = 0;
  serve::LoadGenReport report;
  int replicas_at_end = 0;
  bool slo_held = false;
};

// One ladder point on a fresh cluster: `replicas` fixed when `autoscale` is
// off, otherwise the autoscaler starts from 1 and follows the load.
LadderPoint RunPoint(double qps, double seconds, bool autoscale, int replicas, int max_replicas) {
  auto cluster = MakeCluster(4);
  serve::Router router(Ray::OnNode(*cluster, 0), MakeRouterConfig());
  RAY_CHECK(router.Start(autoscale ? 1 : replicas).ok());
  std::unique_ptr<serve::Autoscaler> autoscaler;
  if (autoscale) {
    serve::AutoscalerConfig as;
    as.slo_us = kSloUs;
    as.min_replicas = 1;
    as.max_replicas = max_replicas;
    as.tick_us = 50'000;
    as.up_cooldown_us = 100'000;
    autoscaler = std::make_unique<serve::Autoscaler>(&router, as);
  }
  serve::LoadGenConfig load;
  load.qps = qps;
  load.duration_us = static_cast<int64_t>(seconds * 1e6);
  load.threads = 2;
  LadderPoint point;
  point.offered_qps = qps;
  point.report = serve::RunOpenLoopLoad(router, load);
  point.replicas_at_end = router.NumHealthyReplicas();
  double shed_frac = point.report.offered > 0
                         ? static_cast<double>(point.report.shed) / point.report.offered
                         : 0.0;
  point.slo_held =
      point.report.p99_ms <= static_cast<double>(kSloUs) / 1e3 && shed_frac <= 0.01;
  if (autoscaler) {
    autoscaler->Stop();
  }
  router.Stop();
  return point;
}

void AddLadderRow(bench::BenchJson& json, const char* row, const LadderPoint& p) {
  json.AddRow(row, {{"offered_qps", p.offered_qps},
                    {"achieved_qps", p.report.achieved_qps},
                    {"p50_ms", p.report.p50_ms},
                    {"p99_ms", p.report.p99_ms},
                    {"p999_ms", p.report.p999_ms},
                    {"shed", static_cast<double>(p.report.shed)},
                    {"timed_out", static_cast<double>(p.report.timed_out)},
                    {"sessions", static_cast<double>(p.report.sessions_touched)},
                    {"replicas_at_end", static_cast<double>(p.replicas_at_end)},
                    {"slo_held", p.slo_held ? 1.0 : 0.0}});
}

struct KillResult {
  serve::LoadGenReport report;
  double recovery_ms = -1.0;  // -1: never recovered inside the run
  int healthy_at_end = 0;
};

// Node-kill pass: 3 spread replicas under steady load, one replica's node
// killed mid-run. Recovery = window p99 back under the SLO with traffic
// flowing and the lost replica re-adopted after actor recovery.
KillResult RunNodeKill(double qps, double seconds) {
  auto cluster = MakeCluster(4);
  serve::RouterConfig config = MakeRouterConfig();
  config.replica_service_us = 10'000;
  config.request_timeout_us = 300'000;
  serve::Router router(Ray::OnNode(*cluster, 0), config);
  RAY_CHECK(router.Start(3).ok());
  serve::AutoscalerConfig as;
  as.slo_us = kSloUs;
  as.min_replicas = 3;
  as.max_replicas = 4;
  serve::Autoscaler autoscaler(&router, as);

  serve::LoadGenConfig load;
  load.qps = qps;
  load.duration_us = static_cast<int64_t>(seconds * 1e6);
  load.threads = 2;
  KillResult result;
  std::thread load_thread([&] { result.report = serve::RunOpenLoopLoad(router, load); });

  SleepMicros(load.duration_us / 4);
  NodeId victim;
  auto replicas = cluster->tables().serve.GetReplicas(serve::kReplicaGroup);
  RAY_CHECK(replicas.ok());
  for (const auto& r : *replicas) {
    if (r.node != cluster->node(0).id()) {
      victim = r.node;
      break;
    }
  }
  RAY_CHECK(!victim.IsNil());
  int64_t kill_us = NowMicros();
  cluster->KillNode(victim);
  while (NowMicros() - kill_us < load.duration_us) {
    auto snap = router.latency().Snap(NowMicros());
    if (NowMicros() - kill_us > 300'000 && snap->Count() > 20 &&
        snap->Percentile(99.0) < static_cast<double>(kSloUs) && router.NumHealthyReplicas() >= 3) {
      result.recovery_ms = static_cast<double>(NowMicros() - kill_us) / 1e3;
      break;
    }
    SleepMicros(20'000);
  }
  load_thread.join();
  result.healthy_at_end = router.NumHealthyReplicas();
  autoscaler.Stop();
  router.Stop();
  return result;
}

}  // namespace
}  // namespace ray

int main(int argc, char** argv) {
  using namespace ray;
  bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  bench::Banner("serving", "open-loop SLO serving: sustained QPS, autoscaling, node-kill recovery",
                "millions of user sessions -> seeded session-id space; p99 SLO 200ms, 2ms model");
  double seconds = bench::QuickMode() || smoke ? 1.5 : 2.5;

  bench::BenchJson json("serving");
  json.Set("version", 2)
      .Set("note",
           "v2 replaces the Table-3 REST comparison (still available via raylib/serving + "
           "baselines/rest_serving) with the open-loop serving harness: Poisson arrivals on a "
           "pre-committed schedule, latency from scheduled arrival (no coordinated omission), "
           "admission fast-reject, spread replicas, SLO autoscaling, node-kill recovery.")
      .Set("slo_p99_ms", static_cast<double>(kSloUs) / 1e3)
      .Set("service_ms", static_cast<double>(kServiceUs) / 1e3)
      .Set("drive_seconds", seconds);

  if (smoke) {
    LadderPoint p = RunPoint(150, seconds, /*autoscale=*/false, /*replicas=*/2, 4);
    AddLadderRow(json, "ladder_fixed", p);
    std::printf("smoke ladder: %.0f qps -> p99 %.1fms (slo %s), %llu shed, %llu sessions\n",
                p.offered_qps, p.report.p99_ms, p.slo_held ? "held" : "MISSED",
                static_cast<unsigned long long>(p.report.shed),
                static_cast<unsigned long long>(p.report.sessions_touched));
    KillResult k = RunNodeKill(100, 4.0);
    json.Set("nodekill_recovery_ms", k.recovery_ms)
        .Set("nodekill_timed_out", static_cast<double>(k.report.timed_out))
        .Set("nodekill_completed", static_cast<double>(k.report.completed));
    json.Write();
    std::printf("smoke node-kill: recovery %.0fms, %llu/%llu completed, %llu timed out\n",
                k.recovery_ms, static_cast<unsigned long long>(k.report.completed),
                static_cast<unsigned long long>(k.report.admitted),
                static_cast<unsigned long long>(k.report.timed_out));
    if (!p.slo_held) {
      std::fprintf(stderr, "smoke FAIL: p99 %.1fms missed the %.0fms SLO at %.0f qps\n",
                   p.report.p99_ms, static_cast<double>(kSloUs) / 1e3, p.offered_qps);
      return 1;
    }
    if (k.recovery_ms < 0) {
      std::fprintf(stderr, "smoke FAIL: p99 never recovered under the SLO after the node kill\n");
      return 1;
    }
    if (k.report.completed == 0) {
      std::fprintf(stderr, "smoke FAIL: node-kill run completed zero requests\n");
      return 1;
    }
    return 0;
  }

  const double ladder[] = {100, 200, 400, 800};

  std::printf("-- QPS ladder, fixed 2 replicas (autoscaler off) --\n");
  std::printf("%-10s %-12s %-9s %-9s %-8s %-9s %-9s\n", "offered", "achieved", "p50ms", "p99ms",
              "shed", "replicas", "SLO");
  double sustained_fixed = 0;
  for (double qps : ladder) {
    LadderPoint p = RunPoint(qps, seconds, false, 2, 4);
    AddLadderRow(json, "ladder_fixed", p);
    if (p.slo_held) {
      sustained_fixed = qps;
    }
    std::printf("%-10.0f %-12.0f %-9.1f %-9.1f %-8llu %-9d %-9s\n", p.offered_qps,
                p.report.achieved_qps, p.report.p50_ms, p.report.p99_ms,
                static_cast<unsigned long long>(p.report.shed), p.replicas_at_end,
                p.slo_held ? "held" : "missed");
  }

  std::printf("\n-- QPS ladder, autoscaler on (1..4 replicas) --\n");
  std::printf("%-10s %-12s %-9s %-9s %-8s %-9s %-9s\n", "offered", "achieved", "p50ms", "p99ms",
              "shed", "replicas", "SLO");
  double sustained_auto = 0;
  for (double qps : ladder) {
    LadderPoint p = RunPoint(qps, seconds, true, 1, 4);
    AddLadderRow(json, "ladder_autoscaled", p);
    if (p.slo_held) {
      sustained_auto = qps;
    }
    std::printf("%-10.0f %-12.0f %-9.1f %-9.1f %-8llu %-9d %-9s\n", p.offered_qps,
                p.report.achieved_qps, p.report.p50_ms, p.report.p99_ms,
                static_cast<unsigned long long>(p.report.shed), p.replicas_at_end,
                p.slo_held ? "held" : "missed");
  }

  std::printf("\n-- mid-run node kill (3 spread replicas, autoscaler floor 3) --\n");
  KillResult k = RunNodeKill(120, 5.0);
  std::printf("recovery window: %.0fms; %llu/%llu completed, %llu timed out, %llu rerouted, "
              "healthy at end %d\n",
              k.recovery_ms, static_cast<unsigned long long>(k.report.completed),
              static_cast<unsigned long long>(k.report.admitted),
              static_cast<unsigned long long>(k.report.timed_out),
              static_cast<unsigned long long>(k.report.rerouted), k.healthy_at_end);

  json.Set("sustained_qps_fixed", sustained_fixed)
      .Set("sustained_qps_autoscaled", sustained_auto)
      .Set("nodekill_qps", 120)
      .Set("nodekill_recovery_ms", k.recovery_ms)
      .Set("nodekill_timed_out", static_cast<double>(k.report.timed_out))
      .Set("nodekill_rerouted", static_cast<double>(k.report.rerouted))
      .Set("nodekill_completed", static_cast<double>(k.report.completed))
      .Set("nodekill_healthy_at_end", static_cast<double>(k.healthy_at_end));
  json.Write();
  return 0;
}
