#include "common/metrics.h"

#include <algorithm>
#include <cmath>

namespace ray {

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
  MutexLock lock(mu_);
  if (count_ == 0) {
    min_ = max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  sum_ += sample;
  if (samples_.size() < max_samples_) {
    samples_.push_back(sample);
  } else {
    // Reservoir sampling keeps percentiles unbiased under overflow.
    size_t idx = static_cast<size_t>(std::fmod(sample * 1e9 + count_ * 2654435761.0, count_));
    if (idx < samples_.size()) {
      samples_[idx] = sample;
    }
  }
}

size_t Histogram::Count() const {
  MutexLock lock(mu_);
  return count_;
}

double Histogram::Mean() const {
  MutexLock lock(mu_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::Min() const {
  MutexLock lock(mu_);
  return min_;
}

double Histogram::Max() const {
  MutexLock lock(mu_);
  return max_;
}

double Histogram::Sum() const {
  MutexLock lock(mu_);
  return sum_;
}

double Histogram::Percentile(double p) const {
  MutexLock lock(mu_);
  if (samples_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void Gauge::Add(int64_t n) {
  int64_t now = value_.fetch_add(n, std::memory_order_relaxed) + n;
  int64_t seen = max_.load(std::memory_order_relaxed);
  while (now > seen && !max_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
  }
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
