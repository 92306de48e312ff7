// Serving-layer statistics: sliding-window latency histograms for the
// autoscaler's windowed-p99 policy, and the ServeMetrics blob routers
// publish to the GCS Serve Table each stats tick. Latencies are measured
// from the request's *scheduled* arrival time (open-loop), so queueing
// behind a slow replica — or behind admission — is charged to the request
// rather than silently deferred (no coordinated omission).
#ifndef RAY_SERVE_STATS_H_
#define RAY_SERVE_STATS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/sync.h"

namespace ray {
namespace serve {

// Latency over a sliding window, plus all time. The window is kSlices
// histograms, each holding the samples that completed in one window_us /
// kSlices slice; a slot is cleared when a newer slice reuses it, so a
// snapshot covers the last window_us to within one slice. Memory is fixed.
// Thread-safe.
class LatencyWindow {
 public:
  explicit LatencyWindow(int64_t window_us) : slice_us_(window_us / kSlices), slices_(kSlices) {}

  void Observe(int64_t done_us, int64_t latency_us);

  // The samples that completed within the window ending at `now_us`.
  std::unique_ptr<Histogram> Snap(int64_t now_us) const;

  // Every sample ever observed.
  const Histogram& total() const { return total_; }

 private:
  static constexpr int64_t kSlices = 10;
  struct Slice {
    int64_t index = -1;  // done_us / slice_us_ of the samples it holds
    Histogram latency;
  };

  const int64_t slice_us_;
  mutable Mutex mu_{"LatencyWindow.mu"};
  std::vector<Slice> slices_ GUARDED_BY(mu_);  // 640 KB, so on the heap
  Histogram total_;
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
