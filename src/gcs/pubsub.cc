#include "gcs/pubsub.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace ray {
namespace gcs {

PubSub::PubSub(int num_workers) {
  workers_.reserve(static_cast<size_t>(std::max(0, num_workers)));
  for (int i = 0; i < num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    Worker* raw = worker.get();
    worker->thread = std::thread([this, raw] { WorkerLoop(*raw); });
    workers_.push_back(std::move(worker));
  }
}

PubSub::~PubSub() {
  shutdown_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    {
      MutexLock lock(worker->mu);
      worker->cv.NotifyAll();
    }
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

uint64_t PubSub::Subscribe(const std::string& key, Callback callback) {
  auto sub = std::make_shared<Subscription>();
  uint64_t token = next_token_.fetch_add(1);
  sub->token = token;
  sub->callback = std::move(callback);
  Bucket& bucket = BucketFor(key);
  {
    WriterMutexLock lock(bucket.mu);
    bucket.subs[key].push_back(std::move(sub));
  }
  num_subscriptions_.fetch_add(1, std::memory_order_relaxed);
  total_subscribes_.fetch_add(1, std::memory_order_relaxed);
  return token;
}

void PubSub::Unsubscribe(const std::string& key, uint64_t token) {
  std::shared_ptr<Subscription> removed;
  Bucket& bucket = BucketFor(key);
  {
    WriterMutexLock lock(bucket.mu);
    auto it = bucket.subs.find(key);
    if (it == bucket.subs.end()) {
      return;
    }
    auto& subs = it->second;
    for (auto sit = subs.begin(); sit != subs.end(); ++sit) {
      if ((*sit)->token == token) {
        removed = *sit;
        subs.erase(sit);
        break;
      }
    }
    if (subs.empty()) {
      bucket.subs.erase(it);
    }
  }
  if (!removed) {
    return;
  }
  num_subscriptions_.fetch_sub(1, std::memory_order_relaxed);
  removed->active.store(false, std::memory_order_release);
  if (removed->running_on.load(std::memory_order_acquire) == std::this_thread::get_id()) {
    // Called from inside this subscription's own callback: the delivery we
    // would wait for is us, and it cannot fire again once active is false.
    return;
  }
  // Wait out an in-flight delivery so the callback provably never runs after
  // this returns (callers routinely free callback-captured state next).
  MutexLock wait(removed->run_mu);
}

void PubSub::Deliver(const std::string& key, const std::string& value) {
  std::vector<std::shared_ptr<Subscription>> targets;
  {
    const Bucket& bucket = BucketFor(key);
    ReaderMutexLock lock(bucket.mu);
    auto it = bucket.subs.find(key);
    if (it == bucket.subs.end()) {
      return;
    }
    targets.assign(it->second.begin(), it->second.end());
  }
  for (const auto& sub : targets) {
    if (!sub->active.load(std::memory_order_acquire)) {
      continue;
    }
    MutexLock run(sub->run_mu);
    if (!sub->active.load(std::memory_order_acquire)) {
      continue;  // unsubscribed while we acquired the run lock
    }
    sub->running_on.store(std::this_thread::get_id(), std::memory_order_release);
    sub->callback(key, value);
    sub->running_on.store(std::thread::id(), std::memory_order_release);
  }
  ControlPlaneMetrics::Instance().publishes_delivered.Add(1);
}

void PubSub::Publish(const std::string& key, const std::string& value) {
  if (workers_.empty()) {
    Deliver(key, value);
    return;
  }
  {
    // No listener: drop the event here rather than copy it into a worker
    // queue. The caller publishes after the write committed, so a Subscribe
    // that wins the bucket lock after this check returns after the commit,
    // and the subscriber's read after subscribing sees the value.
    const Bucket& bucket = BucketFor(key);
    ReaderMutexLock lock(bucket.mu);
    if (bucket.subs.find(key) == bucket.subs.end()) {
      return;
    }
  }
  Worker& worker = *workers_[Hash(key) % workers_.size()];
  MutexLock lock(worker.mu);
  worker.queue.emplace_back(key, value);
  // Counted before the worker can pop it, so the gauge never reads below 0.
  ControlPlaneMetrics::Instance().publish_queue_depth.Add(1);
  worker.cv.NotifyOne();
}

void PubSub::WorkerLoop(Worker& worker) {
  for (;;) {
    std::pair<std::string, std::string> event;
    {
      MutexLock lock(worker.mu);
      while (worker.queue.empty() && !shutdown_.load(std::memory_order_acquire)) {
        worker.cv.Wait(worker.mu);
      }
      if (worker.queue.empty()) {
        return;  // shutdown with nothing left to deliver
      }
      event = std::move(worker.queue.front());
      worker.queue.pop_front();
      worker.busy = true;
    }
    Deliver(event.first, event.second);
    ControlPlaneMetrics::Instance().publish_queue_depth.Sub(1);
    {
      MutexLock lock(worker.mu);
      worker.busy = false;
      if (worker.queue.empty()) {
        worker.cv.NotifyAll();  // wake Drain
      }
    }
  }
}

void PubSub::Drain() {
  for (auto& worker : workers_) {
    MutexLock lock(worker->mu);
    while (!worker->queue.empty() || worker->busy) {
      worker->cv.Wait(worker->mu);
    }
  }
}

size_t PubSub::QueueDepth() const {
  size_t depth = 0;
  for (const auto& worker : workers_) {
    MutexLock lock(worker->mu);
    depth += worker->queue.size();
  }
  return depth;
}

size_t PubSub::NumSubscriptions() const { return num_subscriptions_.load(std::memory_order_relaxed); }

uint64_t PubSub::TotalSubscribes() const {
  return total_subscribes_.load(std::memory_order_relaxed);
}

}  // namespace gcs
}  // namespace ray
