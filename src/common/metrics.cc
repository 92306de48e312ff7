#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <functional>

namespace ray {

namespace {

// Lock-free running extreme: stores `value` if it beats what is there.
template <typename T, typename Beats>
void Extend(std::atomic<T>& extreme, T value, Beats beats) {
  T seen = extreme.load(std::memory_order_relaxed);
  while (beats(value, seen) &&
         !extreme.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Ema::Observe(double sample) {
  MutexLock lock(mu_);
  if (!has_value_) {
    value_ = sample;
    has_value_ = true;
  } else {
    value_ = alpha_ * sample + (1.0 - alpha_) * value_;
  }
}

double Ema::Value() const {
  MutexLock lock(mu_);
  return value_;
}

bool Ema::HasValue() const {
  MutexLock lock(mu_);
  return has_value_;
}

void Ema::Reset() {
  MutexLock lock(mu_);
  value_ = 0.0;
  has_value_ = false;
}

void Histogram::Observe(double sample) {
  Extend(min_, sample, std::less<>());
  Extend(max_, sample, std::greater<>());
  buckets_[BucketOf(sample)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (uint64_t n = other.buckets_[i].load(std::memory_order_relaxed); n != 0) {
      buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
  }
  count_.fetch_add(other.Count(), std::memory_order_relaxed);
  sum_.fetch_add(other.Sum(), std::memory_order_relaxed);
  Extend(min_, other.min_.load(std::memory_order_relaxed), std::less<>());
  Extend(max_, other.max_.load(std::memory_order_relaxed), std::greater<>());
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

double Histogram::Percentile(double p) const {
  uint64_t n = Count();
  if (n == 0) {
    return 0.0;
  }
  auto rank = static_cast<uint64_t>(std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(n - 1));
  // Relaxed updates may land out of order: if the buckets hold fewer samples
  // than Count, the walk ends at the top bucket, which clamps to Max.
  size_t bucket = 0;
  for (uint64_t seen = 0; bucket + 1 < kNumBuckets; ++bucket) {
    seen += buckets_[bucket].load(std::memory_order_relaxed);
    if (seen > rank) {
      break;
    }
  }
  return std::min(std::max(Midpoint(bucket), Min()), Max());
}

// A positive double's bits are its biased exponent, then its mantissa, so its
// bits above the top kSubBucketBits of the mantissa number the log-linear
// buckets in order; bucket 0 starts at 2^kMinExponent.
size_t Histogram::BucketOf(double sample) {
  if (!(sample >= std::bit_cast<double>(kFirstKey << kKeyShift))) {
    return 0;  // NaN too
  }
  uint64_t key = std::bit_cast<uint64_t>(sample) >> kKeyShift;
  return std::min<uint64_t>(key - kFirstKey, kNumBuckets - 1);
}

double Histogram::Midpoint(size_t bucket) {
  if (bucket == 0) {
    return 0.0;  // holds everything below 2^-20 (1 + 1/128)
  }
  // The bucket's lower edge plus half its width: the next mantissa bit.
  return std::bit_cast<double>((bucket + kFirstKey) << kKeyShift | uint64_t{1} << (kKeyShift - 1));
}

void Gauge::Add(int64_t n) {
  Extend(max_, value_.fetch_add(n, std::memory_order_relaxed) + n, std::greater<>());
}

void Gauge::Reset() {
  value_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

ControlPlaneMetrics& ControlPlaneMetrics::Instance() {
  static ControlPlaneMetrics instance;
  return instance;
}

void ControlPlaneMetrics::Reset() {
  gcs_batch_size.Reset();
  gcs_batch_rounds.Reset();
  gcs_batched_ops.Reset();
  publish_queue_depth.Reset();
  publishes_delivered.Reset();
  dispatch_lock_wait_us.Reset();
  deps_lock_wait_us.Reset();
}

}  // namespace ray
