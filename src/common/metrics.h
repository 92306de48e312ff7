// Lightweight metrics used by both the schedulers (exponential averaging of
// task duration / transfer bandwidth, Section 4.2.2) and the benchmark
// harness (latency histograms with percentile extraction). Also hosts the
// process-wide control-plane instrumentation (GCS batch sizes, publish queue
// depth, lock-wait EMAs) added for the task-submission fast path.
#ifndef RAY_COMMON_METRICS_H_
#define RAY_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"

namespace ray {

// Exponentially-weighted moving average; thread-safe.
class Ema {
 public:
  explicit Ema(double alpha = 0.2) : alpha_(alpha) {}

  void Observe(double sample);
  double Value() const;
  bool HasValue() const;
  void Reset();

 private:
  mutable Mutex mu_{"Ema.mu"};
  double alpha_;
  double value_ GUARDED_BY(mu_) = 0.0;
  bool has_value_ GUARDED_BY(mu_) = false;
};

// Latency histogram storing raw samples (bounded reservoir) for percentiles.
class Histogram {
 public:
  explicit Histogram(size_t max_samples = 1 << 20) : max_samples_(max_samples) {}

  void Observe(double sample);
  size_t Count() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  // p in [0, 100].
  double Percentile(double p) const;
  double Sum() const;

 private:
  mutable Mutex mu_{"Histogram.mu"};
  size_t max_samples_;
  size_t count_ GUARDED_BY(mu_) = 0;
  double sum_ GUARDED_BY(mu_) = 0.0;
  double min_ GUARDED_BY(mu_) = 0.0;
  double max_ GUARDED_BY(mu_) = 0.0;
  std::vector<double> samples_ GUARDED_BY(mu_);
};

// Monotonic counter; lock-free.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous level (queue depths, in-flight counts) with a high-watermark;
// lock-free.
class Gauge {
 public:
  void Add(int64_t n = 1);
  void Sub(int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

// Process-wide counters for the control-plane fast path. One instance per
// process (every Gcs / LocalScheduler in a simulated cluster shares it): the
// benches read it to show where submit-path time goes.
struct ControlPlaneMetrics {
  static ControlPlaneMetrics& Instance();

  // Group-committed GCS writes: ops coalesced per chain replication round.
  Ema gcs_batch_size{0.05};
  Counter gcs_batch_rounds;
  Counter gcs_batched_ops;

  // Async pub-sub: events queued but not yet delivered.
  Gauge publish_queue_depth;
  Counter publishes_delivered;

  // Microseconds spent acquiring the local scheduler's hot locks.
  Ema dispatch_lock_wait_us{0.05};
  Ema deps_lock_wait_us{0.05};

  void Reset();
};

}  // namespace ray

#endif  // RAY_COMMON_METRICS_H_
