// Serving-layer statistics: a sliding-window latency reservoir for the
// autoscaler's windowed-p99 policy, and the ServeMetrics blob routers
// publish to the GCS Serve Table each stats tick. Latencies are measured
// from the request's *scheduled* arrival time (open-loop), so queueing
// behind a slow replica — or behind admission — is charged to the request
// rather than silently deferred (no coordinated omission).
#ifndef RAY_SERVE_STATS_H_
#define RAY_SERVE_STATS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/sync.h"

namespace ray {
namespace serve {

// Sliding-window latency samples plus all-time aggregates. Thread-safe; the
// window is pruned on every Observe and Snapshot, so memory is bounded by
// window length x completion rate.
class LatencyWindow {
 public:
  explicit LatencyWindow(int64_t window_us) : window_us_(window_us) {}

  void Observe(int64_t done_us, int64_t latency_us);

  struct Snapshot {
    uint64_t window_count = 0;
    double window_p50_us = 0.0;
    double window_p99_us = 0.0;
    uint64_t total_count = 0;
  };
  Snapshot Snap(int64_t now_us) const;

  // Percentile over every sample ever observed (bounded reservoir of the
  // most recent 1M samples). p in [0, 100].
  double TotalPercentile(double p) const;

 private:
  struct Sample {
    int64_t done_us;
    int64_t latency_us;
  };

  void Prune(int64_t now_us) const;

  int64_t window_us_;
  mutable Mutex mu_{"LatencyWindow.mu"};
  mutable std::deque<Sample> window_ GUARDED_BY(mu_);
  std::vector<int64_t> all_ GUARDED_BY(mu_);
  uint64_t total_count_ GUARDED_BY(mu_) = 0;
};

// The metrics blob a router publishes to ServeTable::PublishMetrics. The GCS
// stores it opaquely; only serve-layer code (autoscaler) deserializes it.
struct ServeMetrics {
  int64_t published_us = 0;
  uint64_t window_completed = 0;
  double window_p50_us = 0.0;
  double window_p99_us = 0.0;
  double window_qps = 0.0;
  double window_shed_per_s = 0.0;
  double service_ema_us = 0.0;
  int64_t inflight = 0;
  int64_t queued = 0;
  int64_t healthy_replicas = 0;

  std::string Serialize() const;
  static ServeMetrics Deserialize(const std::string& bytes);
};

}  // namespace serve
}  // namespace ray

#endif  // RAY_SERVE_STATS_H_
