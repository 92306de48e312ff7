// Lightweight metrics used by both the schedulers (exponential averaging of
// task duration / transfer bandwidth, Section 4.2.2) and every latency report
// (the one histogram, and the one percentile definition). Also hosts the
// process-wide control-plane instrumentation (GCS batch sizes, publish queue
// depth, lock-wait EMAs) added for the task-submission fast path.
#ifndef RAY_COMMON_METRICS_H_
#define RAY_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>

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

// Fixed-memory latency histogram: 64 octaves, [2^-20, 2^44), of 128 equal
// sub-buckets each, 64 KB of counters. Observe is a few relaxed atomic
// operations: no lock, no allocation, no stored sample. Count, Sum, Min and
// Max are exact. Percentile(p) is the midpoint, clamped to [Min, Max], of the
// bucket holding the sample of rank floor(p/100 * (Count - 1)): within 1/256
// (0.4%) of that sample. Samples below about 1e-6 (0 and negatives too)
// count as 0; those above 2^44 share the top bucket. A fiber's whole stack
// is 64 KB, so code that may run on one (tasks, actor methods) must not
// declare a Histogram local.
class Histogram {
 public:
  void Observe(double sample);
  // Adds every sample `other` holds. Not atomic against `other`'s observers.
  void Merge(const Histogram& other);
  // Forgets every sample. Not atomic against concurrent observers.
  void Reset();

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  // Mean, Min, Max and Percentile (p in [0, 100]) are 0 when empty.
  double Mean() const { return Count() == 0 ? 0.0 : Sum() / static_cast<double>(Count()); }
  double Min() const { return Count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed); }
  double Max() const { return Count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed); }
  double Percentile(double p) const;

 private:
  static constexpr int kSubBucketBits = 7;
  static constexpr int kMinExponent = -20;
  static constexpr size_t kNumBuckets = size_t{64} << kSubBucketBits;
  // A sample's bucket is its bits >> kKeyShift, less kFirstKey.
  static constexpr int kKeyShift = 52 - kSubBucketBits;
  static constexpr uint64_t kFirstKey = uint64_t{1023 + kMinExponent} << kSubBucketBits;

  static size_t BucketOf(double sample);
  static double Midpoint(size_t bucket);

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
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
