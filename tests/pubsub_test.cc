// Concurrency tests for the sharded async pub-sub registry: per-key delivery
// order through the worker pool, the "no callback after Unsubscribe returns"
// guarantee under concurrent publishes, self-unsubscribe from inside a
// callback, and that a publish to a key nobody subscribed to queues nothing.
// These run under ThreadSanitizer in CI (scripts/run_tsan.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/sync.h"
#include "gcs/pubsub.h"

namespace ray {
namespace gcs {
namespace {

TEST(PubSubTest, DeliversToAllSubscribersOfKey) {
  PubSub pubsub(/*num_workers=*/2);
  std::atomic<int> a{0}, b{0}, other{0};
  uint64_t ta = pubsub.Subscribe("k", [&](const std::string&, const std::string&) { ++a; });
  uint64_t tb = pubsub.Subscribe("k", [&](const std::string&, const std::string&) { ++b; });
  uint64_t tc = pubsub.Subscribe("other", [&](const std::string&, const std::string&) { ++other; });
  pubsub.Publish("k", "1");
  pubsub.Publish("k", "2");
  pubsub.Drain();
  EXPECT_EQ(a.load(), 2);
  EXPECT_EQ(b.load(), 2);
  EXPECT_EQ(other.load(), 0);
  pubsub.Unsubscribe("k", ta);
  pubsub.Unsubscribe("k", tb);
  pubsub.Unsubscribe("other", tc);
  EXPECT_EQ(pubsub.NumSubscriptions(), 0u);
}

TEST(PubSubTest, InlineDeliveryWithZeroWorkers) {
  PubSub pubsub(/*num_workers=*/0);
  int count = 0;  // no atomics needed: delivery is on the publishing thread
  uint64_t token = pubsub.Subscribe("k", [&](const std::string&, const std::string&) { ++count; });
  pubsub.Publish("k", "v");
  EXPECT_EQ(count, 1);
  pubsub.Unsubscribe("k", token);
  pubsub.Publish("k", "v");
  EXPECT_EQ(count, 1);
}

// A publish to a key with no subscription is dropped on the spot: nothing is
// copied into a worker queue. The one worker is held inside a callback, so
// every queued event stays visible to QueueDepth.
TEST(PubSubTest, PublishWithoutSubscriberQueuesNothing) {
  PubSub pubsub(/*num_workers=*/1);
  Notification started;
  Notification release;
  uint64_t token = pubsub.Subscribe("busy", [&](const std::string&, const std::string&) {
    started.Notify();
    release.Wait();
  });
  pubsub.Publish("busy", "0");
  started.Wait();
  for (int i = 0; i < 100; ++i) {
    pubsub.Publish("idle" + std::to_string(i), "v");
  }
  EXPECT_EQ(pubsub.QueueDepth(), 0u);
  pubsub.Publish("busy", "1");
  EXPECT_EQ(pubsub.QueueDepth(), 1u);
  release.Notify();
  pubsub.Drain();
  pubsub.Unsubscribe("busy", token);
}

// All events for one key hash to one worker and are delivered in publish
// order, even while other keys are being published concurrently.
TEST(PubSubTest, PerKeyOrderPreservedThroughAsyncPool) {
  PubSub pubsub(/*num_workers=*/4);
  constexpr int kKeys = 6;
  constexpr int kEvents = 500;
  std::vector<std::vector<int>> received(kKeys);
  std::vector<uint64_t> tokens;
  for (int k = 0; k < kKeys; ++k) {
    tokens.push_back(pubsub.Subscribe(
        "key" + std::to_string(k), [&received, k](const std::string&, const std::string& v) {
          received[k].push_back(std::stoi(v));
        }));
  }
  // One publisher per key: the publish order per key is well-defined.
  std::vector<std::thread> publishers;
  for (int k = 0; k < kKeys; ++k) {
    publishers.emplace_back([&pubsub, k] {
      for (int i = 0; i < kEvents; ++i) {
        pubsub.Publish("key" + std::to_string(k), std::to_string(i));
      }
    });
  }
  for (auto& p : publishers) {
    p.join();
  }
  pubsub.Drain();
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_EQ(received[k].size(), static_cast<size_t>(kEvents)) << "key" << k;
    for (int i = 0; i < kEvents; ++i) {
      ASSERT_EQ(received[k][i], i) << "key" << k << " out of order at " << i;
    }
  }
  for (int k = 0; k < kKeys; ++k) {
    pubsub.Unsubscribe("key" + std::to_string(k), tokens[k]);
  }
}

// After Unsubscribe returns, the callback must never run again — even with
// publishers hammering the key from other threads. The callback touches
// state that is invalidated right after Unsubscribe returns, exactly like
// ObjectStore::Get's stack-allocated Notification.
TEST(PubSubTest, NoCallbackAfterUnsubscribeReturns) {
  PubSub pubsub(/*num_workers=*/3);
  std::atomic<bool> stop{false};
  std::vector<std::thread> publishers;
  for (int p = 0; p < 3; ++p) {
    publishers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        pubsub.Publish("hot", "x");
      }
    });
  }
  std::atomic<int> violations{0};
  for (int round = 0; round < 200; ++round) {
    auto invalidated = std::make_shared<std::atomic<bool>>(false);
    uint64_t token = pubsub.Subscribe("hot", [invalidated, &violations](const std::string&,
                                                                        const std::string&) {
      if (invalidated->load(std::memory_order_acquire)) {
        violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
    SleepMicros(50);  // let some deliveries land mid-flight
    pubsub.Unsubscribe("hot", token);
    invalidated->store(true, std::memory_order_release);
  }
  stop.store(true);
  for (auto& p : publishers) {
    p.join();
  }
  EXPECT_EQ(violations.load(), 0) << "callback ran after Unsubscribe returned";
}

TEST(PubSubTest, UnsubscribeFromInsideOwnCallbackDoesNotDeadlock) {
  PubSub pubsub(/*num_workers=*/1);
  std::atomic<int> fired{0};
  uint64_t token = 0;
  token = pubsub.Subscribe("k", [&](const std::string&, const std::string&) {
    fired.fetch_add(1);
    pubsub.Unsubscribe("k", token);  // would self-deadlock without the running_on check
  });
  pubsub.Publish("k", "1");
  pubsub.Publish("k", "2");
  pubsub.Drain();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(pubsub.NumSubscriptions(), 0u);
}

// Randomized churn: subscribers come and go while publishers run. The
// invariants checked are crash/race freedom (TSan) and that every callback
// observes only live subscription state.
TEST(PubSubTest, ConcurrentSubscribeUnsubscribePublishChurn) {
  PubSub pubsub(/*num_workers=*/4);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> delivered{0};
  std::vector<std::thread> publishers;
  for (int p = 0; p < 2; ++p) {
    publishers.emplace_back([&, p] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        pubsub.Publish("key" + std::to_string(i++ % 16), "v");
      }
    });
  }
  std::vector<std::thread> churners;
  for (int c = 0; c < 4; ++c) {
    churners.emplace_back([&, c] {
      for (int round = 0; round < 300; ++round) {
        std::string key = "key" + std::to_string((c * 7 + round) % 16);
        uint64_t token = pubsub.Subscribe(
            key, [&](const std::string&, const std::string&) { delivered.fetch_add(1); });
        if (round % 3 == 0) {
          SleepMicros(10);
        }
        pubsub.Unsubscribe(key, token);
      }
    });
  }
  for (auto& c : churners) {
    c.join();
  }
  stop.store(true);
  for (auto& p : publishers) {
    p.join();
  }
  pubsub.Drain();
  EXPECT_EQ(pubsub.NumSubscriptions(), 0u);
}

}  // namespace
}  // namespace gcs
}  // namespace ray
