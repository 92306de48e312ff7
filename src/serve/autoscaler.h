// SLO-driven replica autoscaling. The controller is deliberately decoupled
// from the router: it reads the ServeMetrics blob the router publishes to
// the GCS Serve Table (never the router's in-memory state), so it sees
// exactly what an off-node controller would see, and it acts through the
// router's two control verbs (AddReplica / RemoveReplica).
//
// Policy, evaluated each tick against the published window:
//   * Capacity target: replicas needed to serve the observed demand
//     (completed + shed rate) at 70% utilization of a replica's serial
//     service rate (1 / service_ema).
//   * SLO pressure: windowed p99 above the SLO, or any shedding, forces the
//     target at least one above the current healthy count — latency is the
//     symptom, capacity is the cure.
//   * Hysteresis: scale-ups apply the full deficit at once (an SLO breach is
//     urgent) behind a short cooldown; scale-downs remove one replica at a
//     time behind a long cooldown and only when p99 is comfortably under
//     the SLO, so a load dip doesn't gut the fleet.
#ifndef RAY_SERVE_AUTOSCALER_H_
#define RAY_SERVE_AUTOSCALER_H_

#include <cstdint>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/sync.h"
#include "serve/router.h"

namespace ray {
namespace serve {

struct AutoscalerConfig {
  int64_t slo_us = 200'000;          // the p99 target being defended
  int64_t tick_us = 100'000;
  int min_replicas = 1;
  int max_replicas = 16;
  int64_t up_cooldown_us = 300'000;
  int64_t down_cooldown_us = 2'000'000;
};

class Autoscaler {
 public:
  Autoscaler(Router* router, const AutoscalerConfig& config);
  ~Autoscaler();

  Autoscaler(const Autoscaler&) = delete;
  Autoscaler& operator=(const Autoscaler&) = delete;

  void Stop();

  uint64_t NumScaleUps() const { return scale_ups_.Value(); }
  uint64_t NumScaleDowns() const { return scale_downs_.Value(); }

 private:
  void Loop();
  void Evaluate(int64_t now);

  Router* router_;
  AutoscalerConfig config_;

  Counter scale_ups_;
  Counter scale_downs_;
  int64_t last_up_us_ = 0;    // loop-thread only
  int64_t last_down_us_ = 0;  // loop-thread only

  std::thread thread_;
  Mutex mu_{"Autoscaler.mu"};
  CondVar cv_;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace serve
}  // namespace ray

#endif  // RAY_SERVE_AUTOSCALER_H_
