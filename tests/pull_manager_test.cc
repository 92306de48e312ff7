// Data-plane tests for the asynchronous pull subsystem: in-flight dedup of
// concurrent Gets, chunked pipelined transfers, mid-transfer failover to a
// surviving replica (resuming at the failed chunk, not byte zero),
// eviction-vs-inflight isolation, timeout cancellation, and the oversized-Put
// capacity clamp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/sync.h"
#include "net/sim_network.h"
#include "objectstore/object_store.h"
#include "objectstore/pull_manager.h"

namespace ray {
namespace {

NetConfig PullNet() {
  NetConfig config;
  config.latency_us = 100;
  config.link_bandwidth_bytes_s = 100e6;
  config.per_stream_bandwidth_bytes_s = 25e6;
  return config;
}

// Three stores on one simulated network; per-test chunk size.
struct Cluster {
  explicit Cluster(size_t chunk_bytes, size_t capacity = 256 << 20)
      : gcs(gcs::GcsConfig{}),
        tables(&gcs),
        net(PullNet()),
        a(NodeId::FromRandom(), &tables, &net, Config(chunk_bytes, capacity)),
        b(NodeId::FromRandom(), &tables, &net, Config(chunk_bytes, capacity)),
        c(NodeId::FromRandom(), &tables, &net, Config(chunk_bytes, capacity)) {
    auto resolver = [this](const NodeId& id) -> ObjectStore* {
      for (ObjectStore* s : {&a, &b, &c}) {
        if (s->node() == id) {
          return s;
        }
      }
      return nullptr;
    };
    a.SetPeerResolver(resolver);
    b.SetPeerResolver(resolver);
    c.SetPeerResolver(resolver);
  }

  static ObjectStoreConfig Config(size_t chunk_bytes, size_t capacity) {
    ObjectStoreConfig config;
    config.capacity_bytes = capacity;
    config.num_transfer_threads = 4;
    config.pull_chunk_bytes = chunk_bytes;
    return config;
  }

  gcs::Gcs gcs;
  gcs::GcsTables tables;
  SimNetwork net;
  ObjectStore a;
  ObjectStore b;
  ObjectStore c;
};

// Patterns with different salts differ in every byte.
uint8_t PatternByte(size_t i, uint8_t salt) {
  return static_cast<uint8_t>(((i * 131) ^ (i >> 11)) + salt);
}

BufferPtr PatternBuffer(size_t size, uint8_t salt = 0) {
  auto buf = std::make_shared<Buffer>(size);
  uint8_t* p = buf->MutableData();
  for (size_t i = 0; i < size; ++i) {
    p[i] = PatternByte(i, salt);
  }
  return buf;
}

bool MatchesPattern(const Buffer& buf, uint8_t salt = 0) {
  const uint8_t* p = buf.Data();
  for (size_t i = 0; i < buf.Size(); ++i) {
    if (p[i] != PatternByte(i, salt)) {
      return false;
    }
  }
  return true;
}

TEST(PullManagerTest, ConcurrentGetsDedupIntoOneTransfer) {
  Cluster cl(/*chunk_bytes=*/8 << 20);  // 4MB object -> single chunk
  ObjectId id = ObjectId::FromRandom();
  const size_t kSize = 4 << 20;  // ~40ms on the wire: Gets overlap the pull
  cl.a.Put(id, PatternBuffer(kSize));
  constexpr int kGetters = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> getters;
  getters.reserve(kGetters);
  for (int i = 0; i < kGetters; ++i) {
    getters.emplace_back([&] {
      auto got = cl.b.Get(id, 5'000'000);
      if (got.ok() && (*got)->Size() == kSize) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& t : getters) {
    t.join();
  }
  EXPECT_EQ(ok.load(), kGetters);
  // The acceptance check: N concurrent Gets, one set of bytes on the wire.
  EXPECT_EQ(cl.net.NumTransfers(), 1u);
  EXPECT_EQ(cl.net.TotalBytesTransferred(), kSize);
  EXPECT_EQ(cl.b.pull_manager().NumPullsStarted(), 1u);
}

TEST(PullManagerTest, ChunkedPullSplitsAndReassembles) {
  Cluster cl(/*chunk_bytes=*/1 << 20);
  ObjectId id = ObjectId::FromRandom();
  const size_t kSize = (4 << 20) + (512 << 10);  // 4.5MB -> 5 chunks
  cl.a.Put(id, PatternBuffer(kSize));
  auto got = cl.b.Get(id, 10'000'000);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ((*got)->Size(), kSize);
  EXPECT_TRUE(MatchesPattern(**got));
  EXPECT_EQ(cl.net.NumTransfers(), 5u);
  EXPECT_EQ(cl.b.pull_manager().NumChunksTransferred(), 5u);
  EXPECT_EQ(cl.b.pull_manager().InflightBytes(), 0u);
}

TEST(PullManagerTest, MidTransferSourceKillFailsOverAndResumes) {
  Cluster cl(/*chunk_bytes=*/1 << 20);
  ObjectId id = ObjectId::FromRandom();
  const size_t kSize = 16 << 20;  // 16 chunks, ~10ms each on the wire
  cl.a.Put(id, PatternBuffer(kSize));
  cl.c.Put(id, PatternBuffer(kSize));  // second replica
  Status fetched;
  std::thread puller([&] { fetched = cl.b.Fetch(id, cl.a.node()); });
  // Kill the preferred source genuinely mid-transfer: wait until a few
  // chunks have hit the wire.
  while (cl.net.TotalBytesTransferred() < kSize / 4) {
    SleepMicros(1000);
  }
  cl.net.SetNodeDead(cl.a.node(), true);
  puller.join();
  ASSERT_TRUE(fetched.ok()) << fetched.ToString();
  auto got = cl.b.GetLocal(id);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(MatchesPattern(**got));
  EXPECT_GE(cl.b.pull_manager().NumFailovers(), 1u);
  // Resume, not restart: only the in-flight chunk is re-pulled, so total
  // wire bytes stay far below 2x the object size.
  EXPECT_GE(cl.net.TotalBytesTransferred(), kSize);
  EXPECT_LE(cl.net.TotalBytesTransferred(), kSize + 4 * (1 << 20));
}

// The assembly buffer starts uninitialized, so a block reused from the cache
// still holds an older object's bytes: the chunk copies must overwrite every
// one of them, on a plain pull and on one that fails over mid-object.
TEST(PullManagerTest, RecycledBlockIsFullyOverwritten) {
  Cluster cl(/*chunk_bytes=*/1 << 20);
  const size_t kSize = 33 << 20;  // 33 chunks, ~10ms each on the wire
  // Three 33 MiB blocks holding pattern 1 go to the block cache: the source
  // and the copies pulled to b and c.
  ObjectId old_id = ObjectId::FromRandom();
  std::set<const uint8_t*> stale_blocks;
  {
    BufferPtr old = PatternBuffer(kSize, 1);
    cl.a.Put(old_id, old);
    ASSERT_TRUE(cl.b.Fetch(old_id, cl.a.node()).ok());
    ASSERT_TRUE(cl.c.Fetch(old_id, cl.a.node()).ok());
    for (ObjectStore* store : {&cl.a, &cl.b, &cl.c}) {
      stale_blocks.insert((*store->GetLocal(old_id))->Data());
      ASSERT_TRUE(store->DeleteLocal(old_id).ok());
    }
  }

  // The new object's source takes one of them; its two replicas share it.
  ObjectId id = ObjectId::FromRandom();
  {
    BufferPtr fresh = PatternBuffer(kSize, 2);
    cl.a.Put(id, fresh);
    cl.c.Put(id, fresh);
  }
  ASSERT_TRUE(cl.b.Fetch(id, cl.a.node()).ok());
  BufferPtr plain = *cl.b.GetLocal(id);
  EXPECT_EQ(stale_blocks.count(plain->Data()), 1u) << "the pull did not reuse a cached block";
  EXPECT_TRUE(MatchesPattern(*plain, 2));

  // `plain` stays alive, so the second pull gets the last stale block.
  ASSERT_TRUE(cl.b.DeleteLocal(id).ok());
  uint64_t sent = cl.net.TotalBytesTransferred();
  Status fetched;
  std::thread puller([&] { fetched = cl.b.Fetch(id, cl.a.node()); });
  while (cl.net.TotalBytesTransferred() < sent + kSize / 4) {
    SleepMicros(1000);
  }
  cl.net.SetNodeDead(cl.a.node(), true);
  puller.join();
  ASSERT_TRUE(fetched.ok()) << fetched.ToString();
  EXPECT_GE(cl.b.pull_manager().NumFailovers(), 1u);
  BufferPtr failed_over = *cl.b.GetLocal(id);
  EXPECT_EQ(stale_blocks.count(failed_over->Data()), 1u) << "the pull did not reuse a cached block";
  EXPECT_TRUE(MatchesPattern(*failed_over, 2));
}

TEST(PullManagerTest, AllReplicasDeadFailsPull) {
  Cluster cl(/*chunk_bytes=*/1 << 20);
  ObjectId id = ObjectId::FromRandom();
  cl.a.Put(id, PatternBuffer(1 << 20));
  cl.net.SetNodeDead(cl.a.node(), true);
  Notification done;
  Status result;
  cl.b.PullAsync(id, [&](Status s) {
    result = std::move(s);
    done.Notify();
  });
  done.Wait();
  EXPECT_EQ(result.code(), StatusCode::kNodeDead);
  EXPECT_EQ(cl.b.pull_manager().InflightBytes(), 0u);
}

TEST(PullManagerTest, EvictionCannotTouchInflightAssembly) {
  // Receiver capacity barely above the object: while chunks stream in, local
  // Puts churn the LRU. The assembly buffer lives outside the store, so the
  // pull must complete intact and capacity must hold throughout.
  Cluster cl(/*chunk_bytes=*/256 << 10, /*capacity=*/2 << 20);
  ObjectId id = ObjectId::FromRandom();
  const size_t kSize = (1 << 20) + (512 << 10);  // 1.5MB, 6 chunks
  cl.a.Put(id, PatternBuffer(kSize));
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    int i = 0;
    while (!stop.load()) {
      auto buf = std::make_shared<Buffer>(256 << 10);
      std::memset(buf->MutableData(), static_cast<uint8_t>(i++), buf->Size());
      cl.b.Put(ObjectId::FromRandom(), std::move(buf));
      EXPECT_LE(cl.b.UsedBytes(), 2u << 20);
      SleepMicros(2000);
    }
  });
  auto got = cl.b.Get(id, 10'000'000);
  stop.store(true);
  churn.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(MatchesPattern(**got));
  EXPECT_LE(cl.b.UsedBytes(), 2u << 20);
  EXPECT_EQ(cl.b.pull_manager().InflightBytes(), 0u);
}

TEST(PullManagerTest, GetTimeoutCancelsInflightPull) {
  Cluster cl(/*chunk_bytes=*/4 << 20);
  ObjectId id = ObjectId::FromRandom();
  cl.a.Put(id, PatternBuffer(64 << 20));  // 16 chunks, ~640ms on the wire
  auto got = cl.b.Get(id, 50'000);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kTimedOut);
  // The abandoned pull released its assembly bytes immediately...
  EXPECT_EQ(cl.b.pull_manager().InflightBytes(), 0u);
  // ...and stops kicking chunks (a transfer mid-wire at cancel time may
  // still drain, but nothing new goes out).
  uint64_t after = cl.net.NumTransfers();
  SleepMicros(120'000);
  EXPECT_EQ(cl.net.NumTransfers(), after) << "cancelled pull must not kick more chunks";
}

TEST(PullManagerTest, GetSubscribesOncePerCall) {
  Cluster cl(/*chunk_bytes=*/8 << 20);
  ObjectId id = ObjectId::FromRandom();
  uint64_t before = cl.gcs.TotalSubscribes();
  std::thread producer([&] {
    SleepMicros(50'000);
    cl.a.Put(id, PatternBuffer(64 << 10));
  });
  auto got = cl.b.Get(id, 5'000'000);  // blocks, then retries on publish
  producer.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // One subscription for the whole Get, reused across the failed first
  // attempt and the post-publish retry — not one per attempt.
  EXPECT_EQ(cl.gcs.TotalSubscribes() - before, 1u);
  EXPECT_EQ(cl.gcs.NumSubscriptions(), 0u);  // and it was released
}

TEST(ObjectStoreCapacityTest, OversizedPutGoesToDiskWithoutEvictingOthers) {
  Cluster cl(/*chunk_bytes=*/8 << 20, /*capacity=*/1 << 20);
  ObjectId small = ObjectId::FromRandom();
  cl.a.Put(small, PatternBuffer(512 << 10));
  size_t used_before = cl.a.UsedBytes();
  EXPECT_EQ(used_before, 512u << 10);

  // Regression: an object larger than the whole store used to evict
  // everything and still get admitted with used_bytes_ > capacity.
  ObjectId big = ObjectId::FromRandom();
  EXPECT_TRUE(cl.a.Put(big, PatternBuffer(4 << 20)).ok());
  EXPECT_TRUE(cl.a.ContainsLocal(big));
  EXPECT_EQ(cl.a.UsedBytes(), used_before) << "oversized object must not charge memory";
  EXPECT_LE(cl.a.UsedBytes(), 1u << 20);

  // The oversized object reads back correctly (disk tier) and stays there:
  // promotion would blow the budget.
  auto got = cl.a.GetLocal(big);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(MatchesPattern(**got));
  EXPECT_LE(cl.a.UsedBytes(), 1u << 20);
  // The resident small object survived.
  EXPECT_TRUE(cl.a.GetLocal(small).ok());
}

TEST(PullManagerTest, DefaultChunkSizeDependsOnlyOnObjectSize) {
  // The default chunk size is a constant: every object up to it moves as
  // one transfer, whatever earlier pulls measured. The 20.5 MiB object
  // would split at any chunk size under 20.5 MiB, and the 4 MiB object
  // after it at any under 4 MiB.
  Cluster cl(ObjectStoreConfig{}.pull_chunk_bytes);
  for (size_t size : {size_t{1} << 20, (size_t{20} << 20) + (512 << 10), size_t{4} << 20}) {
    ObjectId id = ObjectId::FromRandom();
    cl.a.Put(id, PatternBuffer(size));
    uint64_t before = cl.b.pull_manager().NumChunksTransferred();
    auto got = cl.b.Get(id, 60'000'000);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(MatchesPattern(**got));
    EXPECT_EQ(cl.b.pull_manager().NumChunksTransferred() - before, 1u)
        << "a " << size << "-byte pull took more than one chunk";
  }
}

TEST(PullManagerTest, PullPrefersReplicaWithIdleNic) {
  Cluster cl(/*chunk_bytes=*/1 << 20);
  ObjectId id = ObjectId::FromRandom();
  const size_t kSize = 2 << 20;
  cl.a.Put(id, PatternBuffer(kSize));
  cl.c.Put(id, PatternBuffer(kSize));  // second replica, idle NIC
  // Pile seconds of real transfer backlog onto a's NIC (a bulk send to a
  // bystander node): any pull sourced from a would queue behind it, so the
  // replica ranking must route to c.
  cl.net.TransferAsync(cl.a.node(), NodeId::FromRandom(), 96 << 20, 1, ObjectId::FromRandom(),
                       [](Status) {});
  ASSERT_GT(cl.net.NicBacklogMicros(cl.a.node()), 2'000'000);
  ASSERT_EQ(cl.net.NicBacklogMicros(cl.c.node()), 0);
  int64_t start = NowMicros();
  auto got = cl.b.Get(id, 2'000'000);
  int64_t elapsed = NowMicros() - start;
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(MatchesPattern(**got));
  // Far under the backlog: the bytes came off c's idle NIC, first try.
  EXPECT_LT(elapsed, 1'500'000);
  EXPECT_EQ(cl.b.pull_manager().NumFailovers(), 0u);
}

TEST(ObjectStoreCapacityTest, MonolithicChunkConfigStillPulls) {
  // chunk_bytes = 0 is the ablation / pre-refactor shape: one chunk.
  Cluster cl(/*chunk_bytes=*/0);
  ObjectId id = ObjectId::FromRandom();
  const size_t kSize = 4 << 20;
  cl.a.Put(id, PatternBuffer(kSize));
  auto got = cl.b.Get(id, 10'000'000);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(MatchesPattern(**got));
  EXPECT_EQ(cl.net.NumTransfers(), 1u);
}

}  // namespace
}  // namespace ray
