#include "net/sim_network.h"

#include <algorithm>

#include "common/clock.h"
#include "common/sync.h"
#include "trace/trace.h"

namespace ray {

SimNetwork::SimNetwork(const NetConfig& config) : config_(config) {
  completion_thread_ = std::thread([this] { CompletionLoop(); });
}

SimNetwork::~SimNetwork() {
  {
    MutexLock lock(async_mu_);
    stop_ = true;
    // Pending callbacks are dropped: owners (PullManager, blocking shims)
    // are destroyed before the network, so nobody is left to hear them.
    due_.clear();
    pending_.clear();
    async_cv_.NotifyAll();
  }
  completion_thread_.join();
}

int64_t SimNetwork::EstimateTransferMicros(uint64_t bytes, int streams) const {
  double bw = std::min(config_.link_bandwidth_bytes_s,
                       config_.per_stream_bandwidth_bytes_s * std::max(1, streams));
  return config_.latency_us + static_cast<int64_t>(static_cast<double>(bytes) / bw * 1e6);
}

int64_t SimNetwork::ReserveNic(const NodeId& node, int64_t now_us, int64_t duration_us) {
  MutexLock lock(mu_);
  int64_t& free_at = nic_free_at_us_[node];
  int64_t start = std::max(now_us, free_at);
  free_at = start + duration_us;
  return free_at;
}

int64_t SimNetwork::NicBacklogMicros(const NodeId& node) const {
  MutexLock lock(mu_);
  auto it = nic_free_at_us_.find(node);
  if (it == nic_free_at_us_.end()) {
    return 0;
  }
  return std::max<int64_t>(0, it->second - NowMicros());
}

void SimNetwork::ReleaseNic(const NodeId& node, int64_t start_us, int64_t end_us, int64_t now_us) {
  if (end_us <= start_us) {
    return;  // small transfer: no reservation was taken
  }
  MutexLock lock(mu_);
  auto it = nic_free_at_us_.find(node);
  // Only roll back if ours is still the last reservation on this NIC; later
  // reservations queued behind a cancelled one keep their (pessimistic)
  // start times — an accepted approximation.
  if (it != nic_free_at_us_.end() && it->second == end_us) {
    it->second = std::max(now_us, start_us);
  }
}

void SimNetwork::SetChaosSeed(uint64_t seed) {
  {
    MutexLock lock(chaos_mu_);
    chaos_rng_ = Rng(seed);
  }
  chaos_enabled_.store(true, std::memory_order_release);
}

void SimNetwork::DisableChaos() { chaos_enabled_.store(false, std::memory_order_release); }

void SimNetwork::SetDropProbability(double p) {
  MutexLock lock(chaos_mu_);
  chaos_drop_p_ = p;
}

void SimNetwork::SetPartitioned(const NodeId& a, const NodeId& b, bool on) {
  MutexLock lock(chaos_mu_);
  if (on) {
    partitioned_[a].insert(b);
    partitioned_[b].insert(a);
  } else {
    partitioned_[a].erase(b);
    partitioned_[b].erase(a);
  }
}

void SimNetwork::SetNodeBandwidthScale(const NodeId& node, double scale) {
  MutexLock lock(chaos_mu_);
  if (scale >= 1.0 || scale <= 0.0) {
    bandwidth_scale_.erase(node);
  } else {
    bandwidth_scale_[node] = scale;
  }
}

void SimNetwork::SetJitterMaxMicros(int64_t us) {
  MutexLock lock(chaos_mu_);
  chaos_jitter_max_us_ = us;
}

SimNetwork::ChaosVerdict SimNetwork::JudgeChaos(const NodeId& from, const NodeId& to) {
  ChaosVerdict v;
  MutexLock lock(chaos_mu_);
  if (auto p = partitioned_.find(from); p != partitioned_.end() && p->second.count(to) > 0) {
    v.drop = true;
    return v;
  }
  if (chaos_drop_p_ > 0.0 && chaos_rng_.Uniform() < chaos_drop_p_) {
    v.drop = true;
    return v;
  }
  if (chaos_jitter_max_us_ > 0) {
    v.jitter_us = chaos_rng_.UniformInt(0, chaos_jitter_max_us_);
  }
  for (const NodeId& end : {from, to}) {
    if (auto s = bandwidth_scale_.find(end); s != bandwidth_scale_.end()) {
      v.bw_scale = std::min(v.bw_scale, s->second);
    }
  }
  return v;
}

uint64_t SimNetwork::TransferAsync(const NodeId& from, const NodeId& to, uint64_t bytes,
                                   int streams, const ObjectId& object, TransferCallback cb) {
  uint64_t token;
  {
    MutexLock lock(async_mu_);
    token = next_token_++;
  }
  if (from == to) {
    cb(Status::Ok());  // intra-node: shared memory, no wire
    return token;
  }
  if (IsDead(from) || IsDead(to)) {
    cb(Status::NodeDead("transfer endpoint dead"));
    return token;
  }
  int64_t chaos_extra_us = 0;
  if (chaos_enabled_.load(std::memory_order_acquire)) {
    ChaosVerdict v = JudgeChaos(from, to);
    if (v.drop) {
      // kUnavailable, not kNodeDead: a lost packet must look like a flaky
      // link, never like a corpse — liveness decisions belong to the
      // heartbeat detector alone.
      cb(Status::Unavailable("chaos: transfer dropped"));
      return token;
    }
    chaos_extra_us = v.jitter_us;
    if (v.bw_scale < 1.0) {
      // Stretch serialization time by the throttle; jitter pads the tail.
      chaos_extra_us += static_cast<int64_t>(
          static_cast<double>(EstimateTransferMicros(bytes, streams) - config_.latency_us) *
          (1.0 / v.bw_scale - 1.0));
    }
  }
  num_transfers_.fetch_add(1, std::memory_order_relaxed);
  total_bytes_.fetch_add(bytes, std::memory_order_relaxed);

  int64_t wire_us = EstimateTransferMicros(bytes, streams) - config_.latency_us + chaos_extra_us;
  int64_t now = NowMicros();
  Pending p;
  p.from = from;
  p.to = to;
  p.object = object;
  p.bytes = bytes;
  p.scheduled_us = now;
  p.cb = std::move(cb);
  if (bytes <= kSmallTransferBytes) {
    // Control-sized messages interleave with bulk streams packet-by-packet;
    // they do not queue behind megabytes of in-flight data, so they skip the
    // NIC reservation and pay only propagation + their own serialization.
    p.done_us = now + wire_us + config_.latency_us;
  } else {
    // Serialization occupies both NICs; completion is the later of the two.
    p.nic_from_end_us = ReserveNic(from, now, wire_us);
    p.nic_from_start_us = p.nic_from_end_us - wire_us;
    p.nic_to_end_us = ReserveNic(to, now, wire_us);
    p.nic_to_start_us = p.nic_to_end_us - wire_us;
    p.done_us = std::max(p.nic_from_end_us, p.nic_to_end_us) + config_.latency_us;
  }
  {
    MutexLock lock(async_mu_);
    if (stop_) {
      return token;  // shutting down; drop
    }
    due_.emplace(p.done_us, token);
    pending_.emplace(token, std::move(p));
    async_cv_.NotifyAll();
  }
  return token;
}

void SimNetwork::Complete(Pending&& p) {
  // A transfer can be interrupted by either endpoint dying mid-flight; the
  // receiver loses the bytes, the sender stops serving them.
  Status status = Status::Ok();
  if (IsDead(p.to)) {
    status = Status::NodeDead("receiver died during transfer");
  } else if (IsDead(p.from)) {
    status = Status::NodeDead("sender died during transfer");
  }
  // Per-chunk wire span, keyed by the object being pulled (the blocking shim
  // passes a nil object and wraps its own kTransfer span instead).
  if (!p.object.IsNil()) {
    auto& tracer = trace::Tracer::Instance();
    if (tracer.ShouldRecordInfra()) {
      tracer.Emit(trace::Stage::kChunkTransfer, p.scheduled_us, p.done_us - p.scheduled_us,
                  TaskId(), p.object, p.to, p.from, p.bytes);
    }
  }
  p.cb(status);
}

void SimNetwork::CompletionLoop() {
  MutexLock lock(async_mu_);
  while (true) {
    if (stop_) {
      return;
    }
    if (due_.empty()) {
      async_cv_.Wait(async_mu_);
      continue;
    }
    int64_t due = due_.begin()->first;
    if (NowMicros() < due) {
      // Wait out the wire time on the cv. A newly scheduled transfer
      // notifies it and re-enters this check with a possibly earlier due.
      async_cv_.WaitUntilMicros(async_mu_, due);
      continue;
    }
    uint64_t token = due_.begin()->second;
    due_.erase(due_.begin());
    auto it = pending_.find(token);
    if (it == pending_.end()) {
      continue;  // cancelled between due and dispatch
    }
    Pending p = std::move(it->second);
    pending_.erase(it);
    running_token_ = token;
    lock.Unlock();
    Complete(std::move(p));
    lock.Lock();
    running_token_ = 0;
    async_cv_.NotifyAll();  // unblock CancelTransfer barriers
  }
}

bool SimNetwork::CancelTransfer(uint64_t token) {
  if (token == 0) {
    return false;
  }
  Pending p;
  {
    MutexLock lock(async_mu_);
    auto it = pending_.find(token);
    if (it == pending_.end()) {
      // Already completed (or never queued). If its callback is mid-flight on
      // the completion thread, wait it out so the caller can tear down state.
      while (running_token_ == token) {
        async_cv_.Wait(async_mu_);
      }
      return false;
    }
    p = std::move(it->second);
    pending_.erase(it);
    auto range = due_.equal_range(p.done_us);
    for (auto d = range.first; d != range.second; ++d) {
      if (d->second == token) {
        due_.erase(d);
        break;
      }
    }
  }
  cancelled_transfers_.fetch_add(1, std::memory_order_relaxed);
  int64_t now = NowMicros();
  ReleaseNic(p.from, p.nic_from_start_us, p.nic_from_end_us, now);
  ReleaseNic(p.to, p.nic_to_start_us, p.nic_to_end_us, now);
  return true;
}

Status SimNetwork::Transfer(const NodeId& from, const NodeId& to, uint64_t bytes, int streams) {
  if (from == to) {
    return Status::Ok();  // intra-node: shared memory, no wire
  }
  if (IsDead(from) || IsDead(to)) {
    return Status::NodeDead("transfer endpoint dead");
  }
  trace::Span span(trace::Stage::kTransfer, TaskId(), ObjectId(), to, from, bytes);
  Notification done;
  Status result;
  TransferAsync(from, to, bytes, streams, ObjectId(), [&](Status s) {
    result = std::move(s);
    done.Notify();
  });
  done.Wait();
  return result;
}

Status SimNetwork::ControlRpc(const NodeId& from, const NodeId& to) {
  if (IsDead(from) || IsDead(to)) {
    return Status::NodeDead("rpc endpoint dead");
  }
  int64_t jitter_us = 0;
  if (from != to && chaos_enabled_.load(std::memory_order_acquire)) {
    ChaosVerdict v = JudgeChaos(from, to);
    if (v.drop) {
      return Status::Unavailable("chaos: rpc dropped");
    }
    jitter_us = v.jitter_us;
  }
  if (from != to) {
    SleepMicros(config_.control_latency_us + jitter_us);
  }
  return Status::Ok();
}

Status SimNetwork::SchedulerHop(const NodeId& from, const NodeId& to) {
  RAY_RETURN_NOT_OK(ControlRpc(from, to));
  SleepMicros(extra_scheduler_latency_us_.load(std::memory_order_relaxed));
  return Status::Ok();
}

void SimNetwork::SetNodeDead(const NodeId& node, bool dead) {
  WriterMutexLock lock(dead_mu_);
  if (dead) {
    dead_.insert(node);
  } else {
    dead_.erase(node);
  }
}

bool SimNetwork::IsDead(const NodeId& node) const {
  ReaderMutexLock lock(dead_mu_);
  return dead_.count(node) > 0;
}

}  // namespace ray
