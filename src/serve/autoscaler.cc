#include "serve/autoscaler.h"

#include <algorithm>
#include <cmath>

#include "common/clock.h"
#include "common/logging.h"

namespace ray {
namespace serve {

namespace {
// Capacity planning point: the utilization each replica is sized for.
constexpr double kTargetUtilization = 0.7;
// Scale down only with p99 under this share of the SLO...
constexpr double kScaleDownP99Fraction = 0.5;
// ...and utilization under this.
constexpr double kScaleDownUtilization = 0.4;
// Ignore metrics blobs older than this.
constexpr int64_t kMetricsStaleUs = 1'000'000;
// Don't trust a p99 of 3 requests.
constexpr uint64_t kMinWindowSamples = 20;
}  // namespace

Autoscaler::Autoscaler(Router* router, const AutoscalerConfig& config)
    : router_(router), config_(config) {
  thread_ = std::thread([this] { Loop(); });
}

Autoscaler::~Autoscaler() { Stop(); }

void Autoscaler::Stop() {
  {
    MutexLock lock(mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
    cv_.NotifyAll();
  }
  if (thread_.joinable()) {
    thread_.join();
  }
}

void Autoscaler::Loop() {
  for (;;) {
    {
      const int64_t deadline_us = NowMicros() + config_.tick_us;
      MutexLock lock(mu_);
      while (!stop_) {
        if (!cv_.WaitUntilMicros(mu_, deadline_us)) {
          break;
        }
      }
      if (stop_) {
        return;
      }
    }
    Evaluate(NowMicros());
  }
}

void Autoscaler::Evaluate(int64_t now) {
  int healthy = router_->NumHealthyReplicas();
  int total = router_->NumReplicas();
  // Floor first: capacity lost to a node kill is restored even when the
  // metrics blob is stale (the router may be too busy failing over to
  // publish on time). Count starting replicas (total includes them) so one
  // breach doesn't stack creations tick after tick while they come up.
  if (total < config_.min_replicas) {
    if (now - last_up_us_ >= config_.up_cooldown_us) {
      for (int i = total; i < config_.min_replicas; ++i) {
        router_->AddReplica();
        scale_ups_.Add();
      }
      last_up_us_ = now;
    }
    return;
  }
  auto blob = router_->cluster().tables().serve.GetMetrics(kReplicaGroup);
  if (!blob.ok()) {
    return;  // router has not published yet
  }
  ServeMetrics m = ServeMetrics::Deserialize(*blob);
  if (now - m.published_us > kMetricsStaleUs) {
    return;
  }
  double service_s = std::max(1.0, m.service_ema_us) / 1e6;
  // Demand the group should absorb: what it served plus what it shed.
  double demand_qps = m.window_qps + m.window_shed_per_s;
  int capacity_target = static_cast<int>(
      std::ceil(demand_qps * service_s / kTargetUtilization));
  int target = std::clamp(capacity_target, config_.min_replicas, config_.max_replicas);

  bool trustworthy_p99 = m.window_completed >= kMinWindowSamples;
  bool slo_breached = trustworthy_p99 && m.window_p99_us > static_cast<double>(config_.slo_us);
  bool shedding = m.window_shed_per_s > 0.5;
  if (slo_breached || shedding) {
    // Latency is the symptom, capacity the cure: force at least one more
    // replica than we have even if the utilization math disagrees.
    target = std::clamp(std::max(target, healthy + 1), config_.min_replicas,
                        config_.max_replicas);
  }

  if (target > total) {
    if (now - last_up_us_ < config_.up_cooldown_us) {
      return;
    }
    for (int i = total; i < target; ++i) {
      router_->AddReplica();
      scale_ups_.Add();
    }
    last_up_us_ = now;
    return;
  }
  if (target < healthy) {
    // Scale down one at a time, only when comfortably under the SLO and
    // under-utilized, behind the long cooldown.
    double util = demand_qps * service_s / std::max(1, healthy);
    bool comfortable = trustworthy_p99
                           ? m.window_p99_us <
                                 kScaleDownP99Fraction * static_cast<double>(config_.slo_us)
                           : m.window_qps < 1.0;  // idle group: no samples is comfort enough
    if (comfortable && util < kScaleDownUtilization &&
        now - last_down_us_ >= config_.down_cooldown_us &&
        now - last_up_us_ >= config_.down_cooldown_us) {
      router_->RemoveReplica();
      scale_downs_.Add();
      last_down_us_ = now;
    }
  }
}

}  // namespace serve
}  // namespace ray
