// Failure detection and recovery latency. Four measurements:
//   1. time-to-detect: kill a node, poll the liveness view until the
//      heartbeat monitor declares it dead, across (interval x threshold)
//      detector settings. The acceptance bar is median detection within 2x
//      the configured bound interval*threshold.
//   2. time-to-recover a lost Fig. 11a chain: kill every holder of a task
//      chain's intermediate results and time the get() that transparently
//      rebuilds them from lineage.
//   3. time-to-recover a checkpointed actor: kill its node and time the next
//      method call (creation re-run + checkpoint restore + tail replay).
//   4. GCS chain kill/rejoin latency spike (the Fig. 10a view): max
//      client-observed latency through a chain-member kill.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "gcs/chain.h"
#include "runtime/api.h"

namespace ray {
namespace {

int Increment(int x) { return x + 1; }

class Counter {
 public:
  int Add(int x) {
    total_ += x;
    return total_;
  }
  int Total() { return total_; }
  void SaveCheckpoint(Writer& w) const { Put(w, total_); }
  void RestoreCheckpoint(Reader& r) { total_ = Take<int>(r); }

 private:
  int total_ = 0;
};

ClusterConfig BaseConfig(int nodes, int64_t heartbeat_us, int threshold) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.scheduler.total_resources = ResourceSet::Cpu(2);
  config.scheduler.heartbeat_interval_us = heartbeat_us;
  config.monitor.miss_threshold = threshold;
  config.net.latency_us = 10;
  config.net.control_latency_us = 5;
  return config;
}

// Median microseconds from KillNode to the liveness view flipping, over
// `trials` kills in one cluster (each kill gets a replacement node first so
// the population never drains).
double MeasureDetectLatency(int64_t heartbeat_us, int threshold, int trials,
                            ray::bench::BenchJson* json) {
  auto cluster = std::make_unique<Cluster>(BaseConfig(2 + trials, heartbeat_us, threshold));
  SleepMicros(4 * heartbeat_us);  // everyone heartbeats at least once
  Histogram detect_us;
  for (int t = 0; t < trials; ++t) {
    NodeId victim = cluster->node(static_cast<size_t>(1 + t)).id();
    int64_t killed_at = NowMicros();
    cluster->KillNode(victim);
    while (cluster->liveness().IsAlive(victim)) {
      SleepMicros(100);
    }
    detect_us.Observe(static_cast<double>(NowMicros() - killed_at));
  }
  double median = detect_us.Percentile(50.0);
  double bound = static_cast<double>(heartbeat_us * threshold);
  std::printf("  interval=%-6lld threshold=%d  bound=%6.1fms  median detect=%6.1fms  (%.2fx)\n",
              static_cast<long long>(heartbeat_us), threshold, bound / 1000.0, median / 1000.0,
              median / bound);
  json->AddRow("detect", {{"heartbeat_interval_us", static_cast<double>(heartbeat_us)},
                          {"miss_threshold", static_cast<double>(threshold)},
                          {"bound_us", bound},
                          {"median_detect_us", median},
                          {"p100_detect_us", detect_us.Max()},
                          {"ratio", median / bound}});
  return median / bound;
}

double MeasureChainRecovery() {
  auto cluster = std::make_unique<Cluster>(BaseConfig(4, 5'000, 3));
  cluster->RegisterFunction("inc", &Increment);
  Ray ray = Ray::OnNode(*cluster, 0);
  std::vector<ObjectRef<int>> chain;
  auto ref = ray.Call<int>("inc", 0);
  chain.push_back(ref);
  for (int i = 1; i < 10; ++i) {
    ref = ray.Call<int>("inc", ref);
    chain.push_back(ref);
  }
  auto warm = ray.Get(ref, 20'000'000);
  RAY_CHECK(warm.ok() && *warm == 10);

  for (size_t i = 1; i < 4; ++i) {
    cluster->KillNode(i);
  }
  cluster->AddNode();
  cluster->AddNode();
  for (const auto& r : chain) {
    cluster->node(0).store().DeleteLocal(r.id());
  }
  Timer t;
  auto again = ray.Get(ref, 60'000'000);
  double us = static_cast<double>(t.ElapsedMicros());
  RAY_CHECK(again.ok() && *again == 10);
  return us;
}

double MeasureActorRecovery() {
  ClusterConfig config = BaseConfig(2, 5'000, 3);
  config.actor_checkpoint_interval = 5;
  auto cluster = std::make_unique<Cluster>(config);
  cluster->RegisterActorClass<Counter>("Counter");
  cluster->RegisterActorMethod("Counter", "Add", &Counter::Add);
  cluster->RegisterActorMethod("Counter", "Total", &Counter::Total);
  NodeId home = cluster->AddNodeWithResources(ResourceSet{{"CPU", 2}, {"tag", 1}});
  cluster->AddNodeWithResources(ResourceSet{{"CPU", 2}, {"tag", 1}});
  Ray ray = Ray::OnNode(*cluster, 0);
  ActorHandle acc = ray.CreateActor("Counter", ResourceSet{{"CPU", 1}, {"tag", 1}});
  for (int i = 0; i < 20; ++i) {
    acc.Call<int>("Add", 1);
  }
  auto warm = ray.Get(acc.Call<int>("Total"), 20'000'000);
  RAY_CHECK(warm.ok() && *warm == 20);

  cluster->KillNode(home);
  Timer t;
  auto after = ray.Get(acc.Call<int>("Total"), 60'000'000);
  double us = static_cast<double>(t.ElapsedMicros());
  RAY_CHECK(after.ok() && *after == 20);
  return us;
}

double MeasureGcsKillSpike(double run_seconds) {
  gcs::ChainConfig config;
  config.num_replicas = 2;
  config.hop_latency_us = 25;
  config.failure_detection_us = 8000;
  gcs::ChainShard chain(config);
  const std::string value(512, 'v');
  double kill_at = run_seconds * 0.4;
  double max_us = 0;
  Timer wall;
  bool killed = false;
  uint64_t seq = 0;
  while (wall.ElapsedSeconds() < run_seconds) {
    if (!killed && wall.ElapsedSeconds() >= kill_at) {
      chain.KillReplica(0);
      killed = true;
    }
    std::string key = "key" + std::to_string(seq++ % 1000);
    Timer w;
    chain.Put(key, value);
    max_us = std::max(max_us, static_cast<double>(w.ElapsedMicros()));
    Timer r;
    auto got = chain.Get(key);
    max_us = std::max(max_us, static_cast<double>(r.ElapsedMicros()));
    RAY_CHECK(got.ok());
  }
  return max_us;
}

}  // namespace
}  // namespace ray

int main() {
  using namespace ray;
  bench::Banner("Failure detection & recovery",
                "time-to-detect vs (interval x threshold); time-to-recover chain / actor; "
                "GCS chain kill spike",
                "single process; detector settings scaled to ms-range heartbeats");

  bench::BenchJson json("failure_recovery");
  int trials = bench::QuickMode() ? 2 : 5;

  std::printf("time-to-detect (median over %d kills):\n", trials);
  struct Setting {
    int64_t interval_us;
    int threshold;
  };
  std::vector<Setting> settings = {{5'000, 3}, {10'000, 5}, {20'000, 5}};
  if (bench::QuickMode()) {
    settings.resize(1);
  }
  double worst_ratio = 0;
  for (const Setting& s : settings) {
    worst_ratio =
        std::max(worst_ratio, MeasureDetectLatency(s.interval_us, s.threshold, trials, &json));
  }
  std::printf("worst median/bound ratio: %.2fx (acceptance: <= 2x)\n\n", worst_ratio);

  double chain_us = MeasureChainRecovery();
  std::printf("chain reconstruction (10 lost intermediates): %.1fms\n", chain_us / 1000.0);
  double actor_us = MeasureActorRecovery();
  std::printf("checkpointed actor recovery (20 calls, ckpt@5): %.1fms\n", actor_us / 1000.0);
  double spike_us = MeasureGcsKillSpike(bench::QuickMode() ? 0.8 : 2.0);
  std::printf("GCS chain kill spike: max client latency %.1fms (paper: < 30ms)\n",
              spike_us / 1000.0);

  json.Set("worst_detect_ratio", worst_ratio)
      .Set("chain_recover_us", chain_us)
      .Set("actor_recover_us", actor_us)
      .Set("gcs_kill_spike_us", spike_us);
  json.Write();
  return 0;
}
