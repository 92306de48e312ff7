// Sharded pub-sub registry with an async publish pool. The seed GCS kept one
// global subscriber mutex and ran every callback synchronously on the
// writer's thread, so a slow subscriber stalled every chain commit. Here:
//
//   - Subscribers are hashed across kNumBuckets buckets, each under a
//     reader-writer lock, so Subscribe/Unsubscribe on different keys never
//     contend and publishing takes only shared locks.
//   - Publish returns at once, copying and queueing nothing, when the key has
//     no subscription; almost every GCS write is to such a key. Otherwise it
//     enqueues to one of W worker threads chosen by hashing the key, so all
//     events for a key are delivered by the same worker in enqueue order
//     (per-key FIFO), while the publisher returns immediately.
//   - Unsubscribe guarantees the callback never runs after it returns: the
//     subscription is deactivated and Unsubscribe waits out any in-flight
//     delivery (unless called from inside that very callback, where waiting
//     would self-deadlock and the guarantee holds trivially).
//
// Delivery contract: a subscription receives every event published after
// Subscribe returns, in per-key publish order. An event published earlier
// may not reach it (nobody was listening, so it was dropped). The GCS
// publishes a write only after it has committed, so a subscriber that reads
// the key after Subscribe returns sees every write it was not sent.
#ifndef RAY_GCS_PUBSUB_H_
#define RAY_GCS_PUBSUB_H_

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/sync.h"

namespace ray {
namespace gcs {

class PubSub {
 public:
  using Callback = std::function<void(const std::string& key, const std::string& value)>;

  // `num_workers` >= 1.
  explicit PubSub(int num_workers);
  ~PubSub();

  PubSub(const PubSub&) = delete;
  PubSub& operator=(const PubSub&) = delete;

  uint64_t Subscribe(const std::string& key, Callback callback);
  // After this returns, the callback registered under `token` will not run
  // (and is not currently running, unless Unsubscribe was called from inside
  // it).
  void Unsubscribe(const std::string& key, uint64_t token);

  // Returns before delivery. A key with no subscription costs one
  // shared-locked lookup and nothing else.
  void Publish(const std::string& key, const std::string& value);

  // Blocks until every event published before this call has been delivered.
  void Drain();

  size_t QueueDepth() const;
  size_t NumSubscriptions() const;
  // Monotonic count of Subscribe calls ever made; lets tests assert that a
  // retry loop reuses one subscription instead of churning them.
  uint64_t TotalSubscribes() const;

 private:
  struct Subscription {
    uint64_t token = 0;
    Callback callback;
    std::atomic<bool> active{true};
    // Held while the callback runs; Unsubscribe acquires it to wait out an
    // in-flight delivery.
    Mutex run_mu{"PubSub.Subscription.run_mu"};
    // Thread currently delivering to this subscription (for self-unsubscribe
    // detection).
    std::atomic<std::thread::id> running_on{};
  };

  struct Bucket {
    mutable SharedMutex mu{"PubSub.Bucket.mu"};
    std::unordered_map<std::string, std::vector<std::shared_ptr<Subscription>>> subs
        GUARDED_BY(mu);
  };

  struct Worker {
    mutable Mutex mu{"PubSub.Worker.mu"};
    CondVar cv;
    std::deque<std::pair<std::string, std::string>> queue GUARDED_BY(mu);
    bool busy GUARDED_BY(mu) = false;
    std::thread thread;
  };

  static constexpr size_t kNumBuckets = 16;

  Bucket& BucketFor(const std::string& key) { return buckets_[Hash(key) % kNumBuckets]; }
  const Bucket& BucketFor(const std::string& key) const {
    return buckets_[Hash(key) % kNumBuckets];
  }
  static size_t Hash(const std::string& key) { return std::hash<std::string>{}(key); }

  void WorkerLoop(Worker& worker);
  // Runs every active callback for `key`.
  void Deliver(const std::string& key, const std::string& value);

  std::array<Bucket, kNumBuckets> buckets_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> next_token_{1};
  std::atomic<bool> shutdown_{false};
  std::atomic<size_t> num_subscriptions_{0};
  std::atomic<uint64_t> total_subscribes_{0};
};

}  // namespace gcs
}  // namespace ray

#endif  // RAY_GCS_PUBSUB_H_
