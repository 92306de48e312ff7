// End-to-end tests for the serving layer (src/serve/): spread placement of
// replicas, SLO maintenance under open-loop load, fast-reject admission
// control past saturation, SLO-driven autoscaling, and liveness-driven
// failover after a mid-run node kill. Timing knobs are env-overridable so
// the sanitizer gates can widen detection windows for their slowdown.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <unordered_set>

#include "common/clock.h"
#include "runtime/api.h"
#include "serve/autoscaler.h"
#include "serve/load_gen.h"
#include "serve/replica.h"
#include "serve/router.h"

namespace ray {
namespace {

int64_t EnvInt(const char* name, int64_t fallback) {
  if (const char* env = std::getenv(name); env != nullptr) {
    return std::strtoll(env, nullptr, 10);
  }
  return fallback;
}

// Sanitizer gates widen the SLO: under TSan/ASan the point is the race and
// memory check, not the latency figures.
int64_t TestSloUs() { return EnvInt("RAY_SERVE_SLO_US", 200'000); }

std::unique_ptr<Cluster> MakeServingCluster(int num_nodes) {
  ClusterConfig config;
  config.num_nodes = num_nodes;
  config.scheduler.total_resources = ResourceSet::Cpu(4);
  // 50ms default detection bound; sanitizer gates widen it (their slowdown
  // must never starve a live node's heartbeat thread into a false death).
  config.scheduler.heartbeat_interval_us = EnvInt("RAY_SERVE_HEARTBEAT_US", 10'000);
  config.monitor.miss_threshold = static_cast<int>(EnvInt("RAY_SERVE_MISS_THRESHOLD", 5));
  config.net.control_latency_us = 5;
  auto cluster = std::make_unique<Cluster>(config);
  serve::RegisterServeSupport(*cluster);
  return cluster;
}

size_t DistinctReplicaNodes(Cluster& cluster, const std::string& group) {
  auto replicas = cluster.tables().serve.GetReplicas(group);
  if (!replicas.ok()) {
    return 0;
  }
  std::unordered_set<NodeId> nodes;
  for (const auto& r : *replicas) {
    nodes.insert(r.node);
  }
  return nodes.size();
}

TEST(ServingTest, SpreadPlacementLandsReplicasOnDistinctNodes) {
  auto cluster = MakeServingCluster(4);
  serve::RouterConfig config;
  config.slo_us = TestSloUs();
  serve::Router router(Ray::OnNode(*cluster, 0), config);
  ASSERT_TRUE(router.Start(4).ok());
  // Four replicas over four nodes: the spread rank (fewest current group
  // members per node) must land exactly one on each.
  EXPECT_EQ(DistinctReplicaNodes(*cluster, serve::kReplicaGroup), 4u);
  router.Stop();
  // Stop() retires the group's membership records.
  auto after = cluster->tables().serve.GetReplicas(serve::kReplicaGroup);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->empty());
}

TEST(ServingTest, SloHeldUnderSteadyLoad) {
  auto cluster = MakeServingCluster(3);
  serve::RouterConfig config;
  config.slo_us = TestSloUs();
  config.replica_service_us = 2'000;
  serve::Router router(Ray::OnNode(*cluster, 0), config);
  ASSERT_TRUE(router.Start(2).ok());

  serve::LoadGenConfig load;
  load.qps = 80;
  load.duration_us = 2'000'000;
  load.threads = 2;
  serve::LoadGenReport report = serve::RunOpenLoopLoad(router, load);

  EXPECT_GT(report.offered, 100u);
  // Light steady load on two replicas: nothing sheds, nothing times out,
  // and the p99 (measured from scheduled arrival) holds the SLO.
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.timed_out, 0u);
  EXPECT_EQ(report.completed, report.admitted);
  EXPECT_LT(report.p99_ms, static_cast<double>(config.slo_us) / 1e3);
  router.Stop();
}

TEST(ServingTest, AdmissionShedsWithFastRejectPastSaturation) {
  auto cluster = MakeServingCluster(2);
  serve::RouterConfig config;
  config.slo_us = TestSloUs();
  config.replica_service_us = 20'000;  // one replica caps out at ~50 qps
  serve::Router router(Ray::OnNode(*cluster, 0), config);
  ASSERT_TRUE(router.Start(1).ok());

  serve::LoadGenConfig load;
  load.qps = 1'000;  // ~20x a replica's serial capacity
  load.duration_us = 1'000'000;
  load.threads = 2;
  serve::LoadGenReport report = serve::RunOpenLoopLoad(router, load);

  // Every offered request was either admitted or shed — the router never
  // hangs a caller (the open-loop generator finished its schedule at all
  // only because Submit never blocks).
  EXPECT_EQ(report.offered, report.admitted + report.shed);
  EXPECT_GT(report.shed, report.offered / 2) << "saturated router must shed most load";
  EXPECT_GT(report.admitted, 0u);
  // Fast-reject: shedding is an atomics read, not a queue traversal. The
  // bound is generous for sanitizer builds; the real cost is sub-microsecond.
  EXPECT_LT(report.shed_p99_us, static_cast<double>(EnvInt("RAY_SERVE_SHED_P99_US", 20'000)));
  // After the drain, every admitted request was accounted for.
  EXPECT_EQ(router.NumOutstanding(), 0);
  EXPECT_EQ(report.admitted, report.completed + report.timed_out);
  router.Stop();
}

TEST(ServingTest, AutoscalerScalesUpOnLoadStepAndBackDownOnDrain) {
  auto cluster = MakeServingCluster(3);
  serve::RouterConfig config;
  config.slo_us = TestSloUs();
  config.replica_service_us = 5'000;  // one replica caps out at ~200 qps
  serve::Router router(Ray::OnNode(*cluster, 0), config);
  ASSERT_TRUE(router.Start(1).ok());

  serve::AutoscalerConfig as_config;
  as_config.slo_us = config.slo_us;
  as_config.tick_us = 50'000;
  as_config.min_replicas = 1;
  as_config.max_replicas = 4;
  as_config.up_cooldown_us = 100'000;
  as_config.down_cooldown_us = 400'000;
  serve::Autoscaler autoscaler(&router, as_config);

  // Load step well past one replica's capacity: the published window shows
  // shedding / SLO pressure and the autoscaler adds capacity.
  serve::LoadGenConfig load;
  load.qps = 400;
  load.duration_us = 3'000'000;
  load.threads = 2;
  serve::LoadGenReport report = serve::RunOpenLoopLoad(router, load);

  EXPECT_GE(autoscaler.NumScaleUps(), 1u);
  int peak = router.NumHealthyReplicas();
  EXPECT_GE(peak, 2);
  // The added capacity must have actually absorbed load beyond one
  // replica's serial rate.
  EXPECT_GT(report.completed, 250u);

  // Drain: with the window empty and utilization at zero, the slow path
  // removes replicas one at a time back toward the floor.
  int64_t deadline = NowMicros() + EnvInt("RAY_SERVE_SCALE_DOWN_BOUND_US", 10'000'000);
  while (NowMicros() < deadline &&
         (autoscaler.NumScaleDowns() < 1 || router.NumHealthyReplicas() >= peak)) {
    SleepMicros(50'000);
  }
  EXPECT_GE(autoscaler.NumScaleDowns(), 1u);
  EXPECT_LT(router.NumHealthyReplicas(), peak);
  autoscaler.Stop();
  router.Stop();
}

TEST(ServingTest, NodeKillReroutesWithinBoundedWindow) {
  auto cluster = MakeServingCluster(4);
  serve::RouterConfig config;
  config.slo_us = TestSloUs();
  config.replica_service_us = 10'000;
  config.request_timeout_us = 300'000;
  serve::Router router(Ray::OnNode(*cluster, 0), config);
  ASSERT_TRUE(router.Start(3).ok());
  ASSERT_GE(DistinctReplicaNodes(*cluster, serve::kReplicaGroup), 3u);

  serve::LoadGenConfig load;
  load.qps = 120;
  load.duration_us = 4'000'000;
  load.threads = 2;
  serve::LoadGenReport report;
  std::thread load_thread([&] { report = serve::RunOpenLoopLoad(router, load); });

  SleepMicros(1'000'000);
  // Kill a node hosting a replica (never the driver's home node).
  auto replicas = cluster->tables().serve.GetReplicas(serve::kReplicaGroup);
  ASSERT_TRUE(replicas.ok());
  NodeId victim;
  for (const auto& r : *replicas) {
    if (r.node != cluster->node(0).id()) {
      victim = r.node;
      break;
    }
  }
  ASSERT_FALSE(victim.IsNil());
  int64_t kill_us = NowMicros();
  cluster->KillNode(victim);

  // The recovery bound this test asserts: within it, the windowed p99 must
  // be back under the SLO with traffic flowing, and the killed replica must
  // have been re-adopted after actor recovery landed it on a live node.
  const int64_t bound_us = EnvInt("RAY_SERVE_RECOVERY_BOUND_US", 3'000'000);
  bool recovered = false;
  while (NowMicros() - kill_us < bound_us) {
    auto snap = router.latency().Snap(NowMicros());
    if (NowMicros() - kill_us > 500'000 && snap->Count() > 20 &&
        snap->Percentile(99.0) < static_cast<double>(config.slo_us) &&
        router.NumHealthyReplicas() >= 3) {
      recovered = true;
      break;
    }
    SleepMicros(50'000);
  }
  EXPECT_TRUE(recovered) << "p99 did not recover under the SLO within "
                         << bound_us / 1000 << "ms of the kill (healthy="
                         << router.NumHealthyReplicas() << ")";

  load_thread.join();
  EXPECT_EQ(report.offered, report.admitted + report.shed);
  // The kill may time out a handful of in-flight requests, never a
  // meaningful fraction of the run.
  EXPECT_LE(report.timed_out, report.offered / 20);
  EXPECT_GT(report.completed, report.offered * 4 / 5);
  router.Stop();
}

}  // namespace
}  // namespace ray
