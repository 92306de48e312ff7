#include "serve/stats.h"

#include <algorithm>

#include "common/serialization.h"

namespace ray {
namespace serve {

namespace {
constexpr size_t kMaxAllSamples = 1 << 20;

double PercentileOf(std::vector<int64_t>& v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t idx = static_cast<size_t>(rank);
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return static_cast<double>(v[idx]);
}
}  // namespace

void LatencyWindow::Prune(int64_t now_us) const {
  while (!window_.empty() && window_.front().done_us < now_us - window_us_) {
    window_.pop_front();
  }
}

void LatencyWindow::Observe(int64_t done_us, int64_t latency_us) {
  MutexLock lock(mu_);
  window_.push_back({done_us, latency_us});
  Prune(done_us);
  ++total_count_;
  if (all_.size() < kMaxAllSamples) {
    all_.push_back(latency_us);
  } else {
    // Overwrite pseudo-randomly so the reservoir stays representative.
    all_[total_count_ % kMaxAllSamples] = latency_us;
  }
}

LatencyWindow::Snapshot LatencyWindow::Snap(int64_t now_us) const {
  MutexLock lock(mu_);
  Prune(now_us);
  Snapshot s;
  s.window_count = window_.size();
  s.total_count = total_count_;
  if (!window_.empty()) {
    std::vector<int64_t> lat;
    lat.reserve(window_.size());
    for (const Sample& smp : window_) {
      lat.push_back(smp.latency_us);
    }
    s.window_p50_us = PercentileOf(lat, 50.0);
    s.window_p99_us = PercentileOf(lat, 99.0);
  }
  return s;
}

double LatencyWindow::TotalPercentile(double p) const {
  MutexLock lock(mu_);
  std::vector<int64_t> copy = all_;
  lock.Unlock();
  return PercentileOf(copy, p);
}

std::string ServeMetrics::Serialize() const {
  Writer w;
  w.WritePod<int64_t>(published_us);
  w.WritePod<uint64_t>(window_completed);
  w.WritePod<double>(window_p50_us);
  w.WritePod<double>(window_p99_us);
  w.WritePod<double>(window_qps);
  w.WritePod<double>(window_shed_per_s);
  w.WritePod<double>(service_ema_us);
  w.WritePod<int64_t>(inflight);
  w.WritePod<int64_t>(queued);
  w.WritePod<int64_t>(healthy_replicas);
  return w.Finish()->ToString();
}

ServeMetrics ServeMetrics::Deserialize(const std::string& bytes) {
  Reader r(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  ServeMetrics m;
  m.published_us = r.ReadPod<int64_t>();
  m.window_completed = r.ReadPod<uint64_t>();
  m.window_p50_us = r.ReadPod<double>();
  m.window_p99_us = r.ReadPod<double>();
  m.window_qps = r.ReadPod<double>();
  m.window_shed_per_s = r.ReadPod<double>();
  m.service_ema_us = r.ReadPod<double>();
  m.inflight = r.ReadPod<int64_t>();
  m.queued = r.ReadPod<int64_t>();
  m.healthy_replicas = r.ReadPod<int64_t>();
  return m;
}

}  // namespace serve
}  // namespace ray
