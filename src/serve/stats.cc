#include "serve/stats.h"

#include "common/serialization.h"

namespace ray {
namespace serve {

void LatencyWindow::Observe(int64_t done_us, int64_t latency_us) {
  total_.Observe(static_cast<double>(latency_us));
  int64_t index = done_us / slice_us_;
  MutexLock lock(mu_);
  Slice& slice = slices_[index % kSlices];
  if (slice.index > index) {
    return;  // the slot already holds a newer slice: this sample left the window
  }
  if (slice.index < index) {
    slice.latency.Reset();
    slice.index = index;
  }
  slice.latency.Observe(static_cast<double>(latency_us));
}

std::unique_ptr<Histogram> LatencyWindow::Snap(int64_t now_us) const {
  int64_t now_index = now_us / slice_us_;
  auto window = std::make_unique<Histogram>();
  MutexLock lock(mu_);
  for (const Slice& slice : slices_) {
    if (slice.index > now_index - kSlices && slice.index <= now_index) {
      window->Merge(slice.latency);
    }
  }
  return window;
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
