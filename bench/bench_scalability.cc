// Fig. 8b: end-to-end scalability. The paper drives an embarrassingly
// parallel load of empty tasks and observes near-linear throughput growth to
// 1.8M tasks/s at 100 nodes, enabled by the sharded GCS and bottom-up
// scheduling. On this machine (see banner) we use the paper's own sizing
// argument — 5ms single-core tasks (Section 2 footnote), scaled to 2ms — so
// per-task control-plane cost (lineage writes, scheduling, location
// publishes) is visible rather than amortized away by execution time. Two
// ablations from DESIGN.md follow: forcing every submission through the
// global scheduler (bottom-up off), and GCS shard count. Results land in
// BENCH_scalability.json (throughput, submit-latency percentiles, config).
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/metrics.h"
#include "runtime/api.h"

namespace ray {
namespace {

constexpr int kTaskMs = 2;

int SleepTask(int ms) {
  SleepMicros(static_cast<int64_t>(ms) * 1000);
  return ms;
}

struct RunResult {
  double tasks_per_s = 0;
  // Injection rate: tasks submitted / time until the last driver finished its
  // submit loop. With leasing this decouples from completion throughput —
  // submission no longer waits on the scheduler or the GCS.
  double submit_tasks_per_s = 0;
  // Driver-side ray.Call latency (task submission path), microseconds.
  double submit_p50_us = 0;
  double submit_p95_us = 0;
  double submit_p99_us = 0;
  // Direct-transport accounting (0 when leasing is disabled).
  uint64_t direct_submits = 0;
  uint64_t lease_fallbacks = 0;
  uint64_t leases_granted = 0;
  uint64_t leases_revoked = 0;
  uint64_t leases_revoked_busy = 0;
};

RunResult RunThroughput(int num_nodes, int tasks_per_node, int task_ms, bool always_forward,
                        int gcs_shards, bool enable_leasing = true) {
  ClusterConfig config;
  config.num_nodes = num_nodes;
  config.scheduler.total_resources = ResourceSet::Cpu(4);
  config.scheduler.num_workers = 4;
  config.scheduler.spillover_queue_threshold = 1u << 20;  // keep tasks local
  config.scheduler.always_forward_to_global = always_forward;
  config.scheduler.enable_leasing = enable_leasing;
  config.gcs.num_shards = gcs_shards;
  config.num_global_schedulers = 2;
  config.net.control_latency_us = 20;
  // Throughput runs oversubscribe small CI hosts; a saturated core can starve
  // heartbeat threads past the default window and mass false deaths wreck the
  // measurement. Detection latency is bench_failure_recovery's job, not ours.
  config.monitor.miss_threshold = 50;
  Cluster cluster(config);
  cluster.RegisterFunction("sleep_task", &SleepTask);
  SleepMicros(30'000);  // first heartbeats

  // One driver per node submits its share bottom-up (the paper's drivers
  // run on every node; nested submission achieves the same distribution).
  Histogram submit_lat_us;
  Histogram submit_loop_s;  // each driver's whole submit loop; the slowest ends injection
  Timer timer;
  std::vector<std::thread> drivers;
  for (int n = 0; n < num_nodes; ++n) {
    drivers.emplace_back([&, n] {
      Ray ray = Ray::OnNode(cluster, n);
      std::vector<ObjectRef<int>> refs;
      refs.reserve(tasks_per_node);
      for (int t = 0; t < tasks_per_node; ++t) {
        Timer call_timer;
        refs.push_back(ray.Call<int>("sleep_task", task_ms));
        submit_lat_us.Observe(static_cast<double>(call_timer.ElapsedMicros()));
      }
      submit_loop_s.Observe(timer.ElapsedSeconds());
      for (auto& ref : refs) {
        auto r = ray.Get(ref, 300'000'000);
        RAY_CHECK(r.ok()) << r.status().ToString();
      }
    });
  }
  for (auto& d : drivers) {
    d.join();
  }
  double seconds = timer.ElapsedSeconds();
  RunResult result;
  result.tasks_per_s = static_cast<double>(num_nodes) * tasks_per_node / seconds;
  double submit_seconds = submit_loop_s.Max();
  result.submit_tasks_per_s =
      submit_seconds > 0 ? static_cast<double>(num_nodes) * tasks_per_node / submit_seconds : 0;
  result.submit_p50_us = submit_lat_us.Percentile(50.0);
  result.submit_p95_us = submit_lat_us.Percentile(95.0);
  result.submit_p99_us = submit_lat_us.Percentile(99.0);
  for (int n = 0; n < num_nodes; ++n) {
    result.direct_submits += cluster.node(n).transport().NumDirectSubmits();
    result.lease_fallbacks += cluster.node(n).transport().NumFallbacks();
    result.leases_granted += cluster.node(n).scheduler().NumLeasesGranted();
    result.leases_revoked += cluster.node(n).scheduler().NumLeasesRevoked();
    result.leases_revoked_busy += cluster.node(n).scheduler().NumBusyLeasesRevoked();
  }
  return result;
}

// Leased-vs-routed ablation on empty tasks: with task_ms=0 the submit path
// IS the workload, so this isolates what direct task transport buys over
// per-task scheduler routing + synchronous lineage writes.
void AddSmallTaskRow(bench::BenchJson& json, const char* row, int nodes, const RunResult& r) {
  json.AddRow(row, {{"nodes", static_cast<double>(nodes)},
                    {"tasks_per_s", r.tasks_per_s},
                    {"submit_tasks_per_s", r.submit_tasks_per_s},
                    {"submit_p50_us", r.submit_p50_us},
                    {"submit_p95_us", r.submit_p95_us},
                    {"submit_p99_us", r.submit_p99_us},
                    {"direct_submits", static_cast<double>(r.direct_submits)},
                    {"lease_fallbacks", static_cast<double>(r.lease_fallbacks)},
                    {"leases_granted", static_cast<double>(r.leases_granted)},
                    {"leases_revoked", static_cast<double>(r.leases_revoked)},
                    {"leases_revoked_busy", static_cast<double>(r.leases_revoked_busy)}});
}

void RunSmallTaskAblation(bench::BenchJson& json, int per_node, const std::vector<int>& node_counts) {
  std::printf("\n-- small-task ablation (task_ms=0): leased (direct transport) vs routed --\n");
  std::printf("(submit t/s = injection rate; done t/s = end-to-end completions, bounded on this\n");
  std::printf(" host by the simulator's chain-replication CPU, which both variants share)\n");
  std::printf("%-6s %-15s %-15s %-9s %-12s %-12s %-11s %-8s\n", "nodes", "submit t/s (L)",
              "submit t/s (R)", "submit x", "done t/s(L)", "done t/s(R)", "p50us(L/R)", "direct%");
  for (int nodes : node_counts) {
    RunResult leased = RunThroughput(nodes, per_node, 0, false, 4, true);
    RunResult routed = RunThroughput(nodes, per_node, 0, false, 4, false);
    double total_tasks = static_cast<double>(nodes) * per_node;
    double direct_frac = leased.direct_submits / total_tasks;
    char p50[32];
    std::snprintf(p50, sizeof(p50), "%.0f/%.0f", leased.submit_p50_us, routed.submit_p50_us);
    std::printf("%-6d %-15.0f %-15.0f %-9.1f %-12.0f %-12.0f %-11s %-8.1f\n", nodes,
                leased.submit_tasks_per_s, routed.submit_tasks_per_s,
                leased.submit_tasks_per_s / routed.submit_tasks_per_s, leased.tasks_per_s,
                routed.tasks_per_s, p50, 100.0 * direct_frac);
    AddSmallTaskRow(json, "smalltask_leased", nodes, leased);
    AddSmallTaskRow(json, "smalltask_routed", nodes, routed);
  }
}

}  // namespace
}  // namespace ray

int main(int argc, char** argv) {
  using namespace ray;
  bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  bench::Banner("Figure 8b", "task throughput vs cluster size (+ scheduling/GCS ablations)",
                "nodes 10-100 -> 1-16; 4 workers/node; 2ms tasks (paper's 5ms-task sizing argument, scaled)");
  int per_node = bench::QuickMode() || smoke ? 100 : 300;
  bench::BenchJson json("scalability");
  json.Set("version", 2)
      .Set("note",
           "v2 adds the small-task (task_ms=0) leased-vs-routed ablation: 'leased' = direct "
           "task transport (worker leases + async lineage), 'routed' = per-task scheduler path "
           "(enable_leasing=false). On a single-core host end-to-end completions are bounded by "
           "the simulator's chain-replication CPU, shared by both variants; the submit-path win "
           "shows in submit_p50_us (per-call cost) and per-driver capability 1e6/submit_p50_us.")
      .Set("task_ms", kTaskMs)
      .Set("tasks_per_node", per_node)
      .Set("workers_per_node", 4)
      .Set("gcs_shards", 4)
      .Set("control_latency_us", 20);

  if (smoke) {
    // CI variant: one leased-vs-routed pair on a small cluster, asserting the
    // direct path actually carried the leased run.
    RunResult leased = RunThroughput(2, per_node, 0, false, 4, true);
    RunResult routed = RunThroughput(2, per_node, 0, false, 4, false);
    std::printf("smoke: leased %.0f submit/s, %.0f done/s (p50 %.1fus, %llu direct / %llu "
                "fallback)  routed %.0f submit/s, %.0f done/s (p50 %.1fus)\n",
                leased.submit_tasks_per_s, leased.tasks_per_s, leased.submit_p50_us,
                static_cast<unsigned long long>(leased.direct_submits),
                static_cast<unsigned long long>(leased.lease_fallbacks), routed.submit_tasks_per_s,
                routed.tasks_per_s, routed.submit_p50_us);
    AddSmallTaskRow(json, "smalltask_leased", 2, leased);
    AddSmallTaskRow(json, "smalltask_routed", 2, routed);
    json.Write();
    if (leased.direct_submits == 0) {
      std::fprintf(stderr, "smoke FAIL: leased run made zero direct submits\n");
      return 1;
    }
    if (routed.direct_submits != 0) {
      std::fprintf(stderr, "smoke FAIL: routed run used the direct path\n");
      return 1;
    }
    // Lease-churn sanity: the leased run must have granted leases, and the
    // idle-first pressure revoker must not have shredded them — a steady
    // small-task run on an uncontended cluster should revoke at most a
    // handful (idle-timeout reaping at the tail), never a multiple of the
    // grants.
    if (leased.leases_granted == 0) {
      std::fprintf(stderr, "smoke FAIL: leased run granted zero leases\n");
      return 1;
    }
    if (leased.leases_revoked > leased.leases_granted) {
      std::fprintf(stderr,
                   "smoke FAIL: leases revoked (%llu) exceed granted (%llu) - revocation churn\n",
                   static_cast<unsigned long long>(leased.leases_revoked),
                   static_cast<unsigned long long>(leased.leases_granted));
      return 1;
    }
    // Pressure-revocation hysteresis: a steady leased run never starves the
    // ready queue long enough to cross the dwell window, so the busy-lease
    // escalation must not fire at all. Any nonzero count here means transient
    // ready-queue blips are tearing down hot pipelines again.
    if (leased.leases_revoked_busy != 0) {
      std::fprintf(stderr,
                   "smoke FAIL: %llu busy leases revoked under steady load - dwell gate broken\n",
                   static_cast<unsigned long long>(leased.leases_revoked_busy));
      return 1;
    }
    return 0;
  }

  std::printf("-- throughput scaling (bottom-up scheduling, 4 GCS shards) --\n");
  std::printf("%-8s %-14s %-10s %-12s %-12s\n", "nodes", "tasks/s", "speedup", "submit p50us",
              "submit p99us");
  double base = 0;
  for (int nodes : {1, 2, 4, 8, 16}) {
    RunResult r = RunThroughput(nodes, per_node, kTaskMs, false, 4);
    if (nodes == 1) {
      base = r.tasks_per_s;
    }
    std::printf("%-8d %-14.0f %-10.2f %-12.0f %-12.0f\n", nodes, r.tasks_per_s,
                r.tasks_per_s / base, r.submit_p50_us, r.submit_p99_us);
    json.AddRow("scaling", {{"nodes", static_cast<double>(nodes)},
                            {"tasks_per_s", r.tasks_per_s},
                            {"speedup", r.tasks_per_s / base},
                            {"submit_p50_us", r.submit_p50_us},
                            {"submit_p95_us", r.submit_p95_us},
                            {"submit_p99_us", r.submit_p99_us}});
  }

  // Short tasks make per-task scheduling overhead visible (with long tasks
  // the extra global hop amortizes away).
  std::printf("\n-- ablation: bottom-up vs always-global scheduling (8 nodes, 5ms tasks) --\n");
  RunResult bottom_up = RunThroughput(8, per_node, 5, false, 4);
  RunResult global_only = RunThroughput(8, per_node, 5, true, 4);
  std::printf("bottom-up: %.0f tasks/s   always-global: %.0f tasks/s   (bottom-up %.2fx)\n",
              bottom_up.tasks_per_s, global_only.tasks_per_s,
              bottom_up.tasks_per_s / global_only.tasks_per_s);
  json.Set("ablation_bottom_up_tasks_per_s", bottom_up.tasks_per_s);
  json.Set("ablation_always_global_tasks_per_s", global_only.tasks_per_s);

  std::printf("\n-- ablation: GCS shard count (8 nodes) --\n");
  for (int shards : {1, 2, 8}) {
    RunResult r = RunThroughput(8, per_node, kTaskMs, false, shards);
    std::printf("shards=%d: %.0f tasks/s\n", shards, r.tasks_per_s);
    json.AddRow("shard_ablation",
                {{"shards", static_cast<double>(shards)}, {"tasks_per_s", r.tasks_per_s}});
  }

  // Empty tasks expose the submit path itself; more per node so each point
  // runs long enough to measure (an empty task costs ~no execution time).
  int per_small = bench::QuickMode() ? 500 : 2000;
  json.Set("smalltask_tasks_per_node", per_small);
  RunSmallTaskAblation(json, per_small, {1, 2, 4, 8, 16});
  json.Write();
  return 0;
}
