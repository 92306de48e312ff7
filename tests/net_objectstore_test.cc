// Unit tests for the simulated network and the object store: bandwidth
// model, NIC queueing, small-transfer bypass, death handling; store
// seal/get/replication, LRU eviction to the disk tier, blocking gets woken
// by pub-sub, and parallel copy correctness.
#include <gtest/gtest.h>

#include <thread>

#include "common/clock.h"
#include "net/sim_network.h"
#include "objectstore/object_store.h"

namespace ray {
namespace {

// --- SimNetwork ---

NetConfig SlowNet() {
  NetConfig config;
  config.latency_us = 1000;
  config.link_bandwidth_bytes_s = 100e6;
  config.per_stream_bandwidth_bytes_s = 25e6;
  return config;
}

TEST(SimNetworkTest, EstimateScalesWithStreams) {
  SimNetwork net(SlowNet());
  // 1 stream: 25MB/s; 4+ streams saturate the 100MB/s link.
  int64_t one = net.EstimateTransferMicros(25'000'000, 1);
  int64_t four = net.EstimateTransferMicros(25'000'000, 4);
  int64_t eight = net.EstimateTransferMicros(25'000'000, 8);
  EXPECT_NEAR(one, 1'001'000, 10'000);
  EXPECT_NEAR(four, 251'000, 10'000);
  EXPECT_EQ(four, eight);  // capped by the link
}

TEST(SimNetworkTest, LocalTransferIsFree) {
  SimNetwork net(SlowNet());
  NodeId n = NodeId::FromRandom();
  Timer t;
  EXPECT_TRUE(net.Transfer(n, n, 100'000'000, 1).ok());
  EXPECT_LT(t.ElapsedMicros(), 1000);
}

TEST(SimNetworkTest, TransferChargesWireTime) {
  SimNetwork net(SlowNet());
  NodeId a = NodeId::FromRandom();
  NodeId b = NodeId::FromRandom();
  Timer t;
  EXPECT_TRUE(net.Transfer(a, b, 1'000'000, 4).ok());  // 10ms at 100MB/s + 1ms
  EXPECT_GE(t.ElapsedMicros(), 10'000);
}

TEST(SimNetworkTest, SmallTransfersBypassNicQueue) {
  SimNetwork net(SlowNet());
  NodeId a = NodeId::FromRandom();
  NodeId b = NodeId::FromRandom();
  NodeId c = NodeId::FromRandom();
  // Occupy a's NIC with a bulk transfer from another thread.
  std::thread bulk([&] { net.Transfer(a, b, 10'000'000, 4); });  // 100ms
  SleepMicros(5'000);
  Timer t;
  EXPECT_TRUE(net.Transfer(a, c, 100, 1).ok());  // control-sized
  EXPECT_LT(t.ElapsedMicros(), 50'000) << "small transfer must not queue behind bulk data";
  bulk.join();
}

TEST(SimNetworkTest, DeadNodesRejectTraffic) {
  SimNetwork net(SlowNet());
  NodeId a = NodeId::FromRandom();
  NodeId b = NodeId::FromRandom();
  net.SetNodeDead(b, true);
  EXPECT_EQ(net.Transfer(a, b, 10, 1).code(), StatusCode::kNodeDead);
  EXPECT_EQ(net.ControlRpc(a, b).code(), StatusCode::kNodeDead);
  net.SetNodeDead(b, false);
  EXPECT_TRUE(net.Transfer(a, b, 10, 1).ok());
}

TEST(SimNetworkTest, SchedulerLatencyInjection) {
  NetConfig config;
  config.control_latency_us = 10;
  SimNetwork net(config);
  net.SetExtraSchedulerLatencyMicros(20'000);
  NodeId a = NodeId::FromRandom();
  NodeId b = NodeId::FromRandom();
  Timer t;
  EXPECT_TRUE(net.SchedulerHop(a, b).ok());
  EXPECT_GE(t.ElapsedMicros(), 20'000);
}

TEST(SimNetworkTest, ControlRpcWaitsOutItsLatency) {
  NetConfig config;
  config.control_latency_us = 2'000;
  SimNetwork net(config);
  NodeId a = NodeId::FromRandom();
  NodeId b = NodeId::FromRandom();
  Timer t;
  EXPECT_TRUE(net.ControlRpc(a, b).ok());
  EXPECT_GE(t.ElapsedMicros(), config.control_latency_us);
}

// --- ObjectStore ---

struct StorePair {
  explicit StorePair(size_t capacity = 64 << 20)
      : gcs(gcs::GcsConfig{}),
        tables(&gcs),
        net(NetConfig{.latency_us = 10}),
        a(NodeId::FromRandom(), &tables, &net, Config(capacity)),
        b(NodeId::FromRandom(), &tables, &net, Config(capacity)) {
    a.SetPeerResolver([this](const NodeId& id) { return id == b.node() ? &b : nullptr; });
    b.SetPeerResolver([this](const NodeId& id) { return id == a.node() ? &a : nullptr; });
  }

  static ObjectStoreConfig Config(size_t capacity) {
    ObjectStoreConfig config;
    config.capacity_bytes = capacity;
    config.num_transfer_threads = 2;
    return config;
  }

  gcs::Gcs gcs;
  gcs::GcsTables tables;
  SimNetwork net;
  ObjectStore a;
  ObjectStore b;
};

BufferPtr MakeBuffer(size_t size, uint8_t fill) {
  auto buf = std::make_shared<Buffer>(size);
  std::memset(buf->MutableData(), fill, size);
  return buf;
}

TEST(ObjectStoreTest, PutPublishesLocation) {
  StorePair s;
  ObjectId id = ObjectId::FromRandom();
  s.a.Put(id, MakeBuffer(100, 1));
  EXPECT_TRUE(s.a.ContainsLocal(id));
  auto entry = s.tables.objects.GetLocations(id);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->locations[0], s.a.node());
  EXPECT_EQ(entry->size_bytes, 100u);
}

TEST(ObjectStoreTest, PutIsIdempotent) {
  StorePair s;
  ObjectId id = ObjectId::FromRandom();
  s.a.Put(id, MakeBuffer(100, 1));
  s.a.Put(id, MakeBuffer(100, 2));  // re-execution writes identical id
  auto v = s.a.GetLocal(id);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)->Data()[0], 1);  // first write wins; objects immutable
}

TEST(ObjectStoreTest, IntraNodeGetIsZeroCopy) {
  StorePair s;
  ObjectId id = ObjectId::FromRandom();
  auto buf = MakeBuffer(1000, 7);
  const uint8_t* raw = buf->Data();
  s.a.Put(id, buf);
  auto got = s.a.GetLocal(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->Data(), raw) << "same-node readers must share the buffer";
}

TEST(ObjectStoreTest, GetReplicatesFromRemote) {
  StorePair s;
  ObjectId id = ObjectId::FromRandom();
  s.a.Put(id, MakeBuffer(10'000, 9));
  auto got = s.b.Get(id, 5'000'000);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->Size(), 10'000u);
  EXPECT_EQ((*got)->Data()[0], 9);
  EXPECT_TRUE(s.b.ContainsLocal(id));  // a copy now lives on b
  EXPECT_EQ(s.tables.objects.GetLocations(id)->locations.size(), 2u);
}

TEST(ObjectStoreTest, BlockingGetWokenByCreation) {
  StorePair s;
  ObjectId id = ObjectId::FromRandom();
  std::thread producer([&] {
    SleepMicros(30'000);
    s.a.Put(id, MakeBuffer(64, 3));  // created later, elsewhere
  });
  auto got = s.b.Get(id, 5'000'000);  // blocks on the Object Table callback
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->Data()[0], 3);
  producer.join();
}

TEST(ObjectStoreTest, GetTimesOutWhenObjectNeverAppears) {
  StorePair s;
  Timer t;
  auto got = s.b.Get(ObjectId::FromRandom(), 50'000);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kTimedOut);
  EXPECT_GE(t.ElapsedMicros(), 40'000);
}

TEST(ObjectStoreTest, LruEvictsToDiskTierAndPromotesBack) {
  StorePair s(100'000);  // tiny capacity
  std::vector<ObjectId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(ObjectId::FromRandom());
    s.a.Put(ids.back(), MakeBuffer(30'000, static_cast<uint8_t>(i)));
  }
  EXPECT_LE(s.a.UsedBytes(), 100'000u);
  EXPECT_EQ(s.a.NumObjects(), 10u);  // all retained, some on "disk"
  // The earliest object was evicted but is still readable (promotion).
  auto v = s.a.GetLocal(ids[0]);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ((*v)->Data()[0], 0);
}

TEST(ObjectStoreTest, DiskTierPromotionWaitsOutTheReadTime) {
  StorePair s(100'000);
  ObjectId first = ObjectId::FromRandom();
  s.a.Put(first, MakeBuffer(60'000, 1));
  s.a.Put(ObjectId::FromRandom(), MakeBuffer(60'000, 2));  // demotes `first`
  const double read_us = 60'000 / StorePair::Config(100'000).disk_read_bytes_per_sec * 1e6;
  Timer t;
  auto v = s.a.GetLocal(first);
  ASSERT_TRUE(v.ok());
  EXPECT_GE(t.ElapsedMicros(), static_cast<int64_t>(read_us));
  EXPECT_EQ((*v)->Data()[0], 1);
}

TEST(ObjectStoreTest, CrashClearLosesEverything) {
  StorePair s;
  ObjectId id = ObjectId::FromRandom();
  s.a.Put(id, MakeBuffer(10, 1));
  s.a.CrashClear();
  EXPECT_FALSE(s.a.ContainsLocal(id));
  EXPECT_EQ(s.a.UsedBytes(), 0u);
  // The Object Table still lists the dead copy (stale until reconciled) —
  // exactly the situation reconstruction handles.
  EXPECT_TRUE(s.tables.objects.GetLocations(id).ok());
}

TEST(ObjectStoreTest, DeleteLocalRetractsLocation) {
  StorePair s;
  ObjectId id = ObjectId::FromRandom();
  s.a.Put(id, MakeBuffer(10, 1));
  EXPECT_TRUE(s.a.DeleteLocal(id).ok());
  EXPECT_FALSE(s.a.ContainsLocal(id));
  EXPECT_TRUE(s.tables.objects.GetLocations(id)->locations.empty());
}

// Parallel copy correctness across sizes and thread counts.
class ParallelCopyTest : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(ParallelCopyTest, CopiesExactly) {
  auto [size, threads] = GetParam();
  ThreadPool pool(static_cast<size_t>(threads));
  std::vector<uint8_t> src(size);
  for (size_t i = 0; i < size; ++i) {
    src[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  std::vector<uint8_t> dst(size, 0);
  ParallelCopy(dst.data(), src.data(), size, threads, pool);
  EXPECT_EQ(dst, src);
}

INSTANTIATE_TEST_SUITE_P(SizesAndThreads, ParallelCopyTest,
                         ::testing::Combine(::testing::Values(0, 1, 1000, 65536, 1 << 20),
                                            ::testing::Values(1, 2, 4, 8)));

}  // namespace
}  // namespace ray
