// Unit tests for the GCS: KV shards, chain replication (including kill +
// rejoin with state transfer), the sharded pub-sub front-end, flushing, and
// every typed table.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/sync.h"
#include "gcs/chain.h"
#include "gcs/gcs.h"
#include "gcs/kv_store.h"
#include "gcs/tables.h"

namespace ray {
namespace gcs {
namespace {

// --- KvStore ---

TEST(KvStoreTest, PutGetDelete) {
  KvStore kv;
  kv.Put("k", "v");
  EXPECT_EQ(*kv.Get("k"), "v");
  kv.Put("k", "v2");  // overwrite
  EXPECT_EQ(*kv.Get("k"), "v2");
  EXPECT_TRUE(kv.Delete("k"));
  EXPECT_FALSE(kv.Get("k").has_value());
  EXPECT_FALSE(kv.Delete("k"));
}

TEST(KvStoreTest, AppendBuildsList) {
  KvStore kv;
  kv.Append("list", "a");
  kv.Append("list", "b");
  auto list = kv.GetList("list");
  ASSERT_TRUE(list.has_value());
  EXPECT_EQ(*list, (std::vector<std::string>{"a", "b"}));
}

TEST(KvStoreTest, MemoryAccountingTracksBytes) {
  KvStore kv;
  EXPECT_EQ(kv.MemoryBytes(), 0u);
  kv.Put("key", std::string(100, 'v'));
  EXPECT_EQ(kv.MemoryBytes(), 103u);
  kv.Put("key", std::string(50, 'v'));  // overwrite shrinks
  EXPECT_EQ(kv.MemoryBytes(), 53u);
  kv.Delete("key");
  EXPECT_EQ(kv.MemoryBytes(), 0u);
}

TEST(KvStoreTest, FlushMovesToDiskButStaysReadable) {
  KvStore kv;
  kv.Put("task:1", "spec");
  kv.Put("obj:1", "loc");
  size_t moved = kv.Flush([](const std::string& k) { return k.rfind("task:", 0) == 0; });
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(kv.MemoryBytes(), 5u + 3u);  // only obj:1 remains in memory
  EXPECT_GT(kv.DiskBytes(), 0u);
  EXPECT_EQ(*kv.Get("task:1"), "spec");  // transparent read-through
}

TEST(KvStoreTest, CopyFromReplicatesEverything) {
  KvStore a;
  a.Put("x", "1");
  a.Append("l", "e");
  KvStore b;
  b.Put("stale", "gone");
  b.CopyFrom(a);
  EXPECT_EQ(*b.Get("x"), "1");
  EXPECT_FALSE(b.Get("stale").has_value());
  EXPECT_EQ(b.GetList("l")->size(), 1u);
}

// --- chain replication ---

TEST(ChainTest, WritesVisibleToReads) {
  ChainConfig config;
  config.num_replicas = 3;
  config.hop_latency_us = 0;
  ChainShard chain(config);
  chain.Put("k", "v");
  EXPECT_EQ(*chain.Get("k"), "v");
  EXPECT_TRUE(chain.Contains("k"));
  EXPECT_EQ(chain.NumLiveReplicas(), 3u);
}

TEST(ChainTest, SurvivesReplicaFailureWithNoDataLoss) {
  ChainConfig config;
  config.num_replicas = 2;
  config.hop_latency_us = 0;
  config.failure_detection_us = 100;
  ChainShard chain(config);
  for (int i = 0; i < 100; ++i) {
    chain.Put("k" + std::to_string(i), "v" + std::to_string(i));
  }
  chain.KillReplica(0);  // kill the head
  // All reads and writes still succeed; the chain reconfigures in-line.
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(*chain.Get("k" + std::to_string(i)), "v" + std::to_string(i));
  }
  chain.Put("after", "failure");
  EXPECT_EQ(*chain.Get("after"), "failure");
  EXPECT_EQ(chain.NumReconfigurations(), 1);
  EXPECT_EQ(chain.NumLiveReplicas(), 2u);  // replacement spliced in
}

TEST(ChainTest, SequentialFailuresEventuallyRecover) {
  ChainConfig config;
  config.num_replicas = 2;
  config.hop_latency_us = 0;
  config.failure_detection_us = 100;
  ChainShard chain(config);
  chain.Put("durable", "yes");
  for (int round = 0; round < 3; ++round) {
    chain.KillReplica(round % 2);
    EXPECT_EQ(*chain.Get("durable"), "yes") << "round " << round;
  }
  EXPECT_EQ(chain.NumReconfigurations(), 3);
}

TEST(ChainTest, ConcurrentClientsDuringFailure) {
  ChainConfig config;
  config.num_replicas = 2;
  config.hop_latency_us = 0;
  config.failure_detection_us = 500;
  ChainShard chain(config);
  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      int i = 0;
      while (!stop.load()) {
        std::string key = "c" + std::to_string(c) + ":" + std::to_string(i++);
        if (!chain.Put(key, "v").ok() || !chain.Get(key).ok()) {
          ++errors;
        }
      }
    });
  }
  SleepMicros(20'000);
  chain.KillReplica(1);
  SleepMicros(50'000);
  stop.store(true);
  for (auto& t : clients) {
    t.join();
  }
  EXPECT_EQ(errors.load(), 0) << "no client should observe an error across reconfiguration";
}

// Modelled hop latency is paid as time outside the shard lock: concurrent
// tail reads overlap instead of queueing behind each other's hop, and every
// op still pays all of its hops.
TEST(ChainTest, ConcurrentReadsOverlapTheirHop) {
  ChainConfig config;
  config.num_replicas = 2;
  config.hop_latency_us = 2'000;
  ChainShard chain(config);
  ASSERT_TRUE(chain.Put("k", "v").ok());
  constexpr int kReaders = 8;
  // Returns how long the 8 concurrent reads spanned, first start to last end.
  auto read_round = [&] {
    Notification go;
    std::vector<int64_t> begin_us(kReaders, 0);
    std::vector<int64_t> end_us(kReaders, 0);
    std::vector<std::thread> readers;
    for (int i = 0; i < kReaders; ++i) {
      readers.emplace_back([&, i] {
        go.Wait();
        begin_us[i] = NowMicros();
        auto v = chain.Get("k");
        end_us[i] = NowMicros();
        EXPECT_TRUE(v.ok() && *v == "v");
      });
    }
    go.Notify();
    for (auto& r : readers) {
      r.join();
    }
    for (int i = 0; i < kReaders; ++i) {
      EXPECT_GE(end_us[i] - begin_us[i], config.hop_latency_us) << "reader " << i;
    }
    return *std::max_element(end_us.begin(), end_us.end()) -
           *std::min_element(begin_us.begin(), begin_us.end());
  };
  // Serialised on the shard lock, the reads would always span ~8 hops; an
  // overloaded host can stretch one round's wake-ups, so take the best of 3.
  int64_t best_us = read_round();
  for (int round = 1; round < 3 && best_us > 3 * config.hop_latency_us; ++round) {
    best_us = std::min(best_us, read_round());
  }
  EXPECT_LE(best_us, 3 * config.hop_latency_us);
}

TEST(ChainTest, WritesPayOneHopPerReplica) {
  ChainConfig config;
  config.num_replicas = 3;
  config.hop_latency_us = 2'000;
  ChainShard chain(config);
  const int64_t round_us = config.num_replicas * config.hop_latency_us;
  Timer t;
  ASSERT_TRUE(chain.Put("k", "v").ok());
  EXPECT_GE(t.ElapsedMicros(), round_us);
  t.Reset();
  ASSERT_TRUE(chain.ApplyBatch({{ChainOp::Kind::kPut, "a", "1"},
                                {ChainOp::Kind::kAppend, "l", "x"},
                                {ChainOp::Kind::kDelete, "k", ""}})
                  .ok());
  EXPECT_GE(t.ElapsedMicros(), round_us);
  t.Reset();
  auto n = chain.Increment("n");
  EXPECT_GE(t.ElapsedMicros(), round_us);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  EXPECT_EQ(*chain.Get("a"), "1");
  EXPECT_FALSE(chain.Contains("k"));
}

// --- sharded front-end + pub-sub ---

TEST(GcsTest, RoutesAcrossShards) {
  GcsConfig config;
  config.num_shards = 4;
  Gcs gcs(config);
  for (int i = 0; i < 100; ++i) {
    gcs.Put("key" + std::to_string(i), "v");
  }
  EXPECT_EQ(gcs.NumEntries(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(gcs.Contains("key" + std::to_string(i)));
  }
}

TEST(GcsTest, SubscribeFiresOnPutAndAppend) {
  Gcs gcs(GcsConfig{});
  std::vector<std::string> events;
  uint64_t token = gcs.Subscribe("watched", [&](const std::string&, const std::string& v) {
    events.push_back(v);
  });
  gcs.Put("watched", "a");
  gcs.Append("watched", "b");
  gcs.Put("unwatched", "c");
  gcs.DrainPublishes();  // delivery is async: wait for the publish pool
  EXPECT_EQ(events, (std::vector<std::string>{"a", "b"}));
  gcs.Unsubscribe("watched", token);
  gcs.Put("watched", "d");
  gcs.DrainPublishes();
  EXPECT_EQ(events.size(), 2u);
}

// Concurrent writers on the same shard share replication rounds: the batcher
// must coalesce them (fewer rounds than ops) without losing read-your-writes.
TEST(GcsTest, GroupCommitCoalescesConcurrentWrites) {
  ControlPlaneMetrics::Instance().Reset();
  GcsConfig config;
  config.num_shards = 1;  // all writers collide on one shard's batcher
  Gcs gcs(config);
  constexpr int kThreads = 8;
  constexpr int kWrites = 40;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&gcs, t] {
      for (int i = 0; i < kWrites; ++i) {
        std::string key = "w" + std::to_string(t) + ":" + std::to_string(i);
        ASSERT_TRUE(gcs.Put(key, "v" + std::to_string(i)).ok());
        // Read-your-writes: the Put must be committed when it returns.
        auto got = gcs.Get(key);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, "v" + std::to_string(i));
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }
  uint64_t ops = ControlPlaneMetrics::Instance().gcs_batched_ops.Value();
  uint64_t rounds = ControlPlaneMetrics::Instance().gcs_batch_rounds.Value();
  EXPECT_EQ(ops, static_cast<uint64_t>(kThreads) * kWrites);
  EXPECT_LT(rounds, ops) << "concurrent writes never shared a replication round";
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kWrites; ++i) {
      EXPECT_TRUE(gcs.Contains("w" + std::to_string(t) + ":" + std::to_string(i)));
    }
  }
}

// Appends to one list key from many threads must all commit exactly once and
// publish exactly once each, in commit order.
TEST(GcsTest, BatchedAppendsAllCommitAndPublishInCommitOrder) {
  GcsConfig config;
  config.num_shards = 2;
  Gcs gcs(config);
  std::vector<std::string> published;
  uint64_t token = gcs.Subscribe(
      "list", [&](const std::string&, const std::string& v) { published.push_back(v); });
  constexpr int kThreads = 6;
  constexpr int kAppends = 30;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&gcs, t] {
      for (int i = 0; i < kAppends; ++i) {
        ASSERT_TRUE(gcs.Append("list", std::to_string(t * kAppends + i)).ok());
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }
  gcs.DrainPublishes();
  auto list = gcs.GetList("list");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), static_cast<size_t>(kThreads) * kAppends);
  // Every committed element was published, in the order the chain holds them.
  ASSERT_EQ(published.size(), list->size());
  EXPECT_EQ(published, *list);
  gcs.Unsubscribe("list", token);
}

// The subscribe-then-read pattern every subscriber follows misses no write:
// a subscriber that registers while a write to its key is in flight, then
// reads the key, either reads the element or is sent its publish. Each pair
// of threads meets at every key, so the Subscribe races the append's commit.
TEST(GcsTest, SubscribeThenReadSeesEveryCommit) {
  constexpr int kPairs = 4;
  constexpr int kKeys = 500;
  // Declared before the Gcs: its destructor runs the last write callbacks.
  std::atomic<int> failed_writes{0};
  std::atomic<int> missed{0};
  GcsConfig config;
  config.chain.hop_latency_us = 200;
  Gcs gcs(config);
  std::vector<std::thread> threads;
  for (int p = 0; p < kPairs; ++p) {
    // Both threads of a pair bump `arrived` at each key and start on it once
    // the other has arrived too.
    auto arrived = std::make_shared<std::atomic<int>>(0);
    auto meet = [arrived](int key) {
      arrived->fetch_add(1);
      while (arrived->load() < 2 * (key + 1)) {
        std::this_thread::yield();
      }
    };
    auto key_of = [p](int key) { return "p" + std::to_string(p) + ":" + std::to_string(key); };
    threads.emplace_back([&gcs, &failed_writes, meet, key_of] {
      for (int i = 0; i < kKeys; ++i) {
        meet(i);
        gcs.AppendAsync(key_of(i), "e", [&failed_writes](Status s) {
          if (!s.ok()) {
            failed_writes.fetch_add(1);
          }
        });
      }
    });
    threads.emplace_back([&gcs, &missed, meet, key_of] {
      std::vector<std::atomic<bool>> fired(kKeys);
      std::vector<bool> read(kKeys, false);
      std::vector<uint64_t> tokens(kKeys);
      for (int i = 0; i < kKeys; ++i) {
        meet(i);
        tokens[i] = gcs.Subscribe(key_of(i), [&fired, i](const std::string&, const std::string&) {
          fired[i].store(true);
        });
        auto list = gcs.GetList(key_of(i));
        read[i] = list.ok() && !list->empty();
      }
      int64_t deadline = NowMicros() + 2'000'000;
      for (int i = 0; i < kKeys; ++i) {
        while (!read[i] && !fired[i].load() && NowMicros() < deadline) {
          SleepMicros(1'000);
        }
        if (!read[i] && !fired[i].load()) {
          missed.fetch_add(1);
        }
        gcs.Unsubscribe(key_of(i), tokens[i]);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failed_writes.load(), 0);
  EXPECT_EQ(missed.load(), 0) << "a subscriber neither read a committed write nor was sent it";
}

TEST(GcsTest, AutoFlushCapsMemory) {
  GcsConfig config;
  config.num_shards = 2;
  config.flush_threshold_bytes = 10'000;
  Gcs gcs(config);
  gcs.AddFlushablePrefix("task:");
  for (int i = 0; i < 1000; ++i) {
    gcs.Put("task:" + std::to_string(i), std::string(100, 's'));
  }
  EXPECT_LE(gcs.MemoryBytes(), 12'000u);
  EXPECT_GT(gcs.DiskBytes(), 80'000u);
  // Flushed lineage remains readable (reconstruction reads it back).
  EXPECT_TRUE(gcs.Get("task:0").ok());
}

// --- typed tables ---

class TablesTest : public ::testing::Test {
 protected:
  TablesTest() : gcs_(GcsConfig{}), tables_(&gcs_) {}

  // Issues one async table write and blocks until it commits.
  void Await(const std::function<void(Gcs::WriteCallback)>& write) {
    Notification committed;
    write([&](Status s) {
      EXPECT_TRUE(s.ok()) << s.ToString();
      committed.Notify();
    });
    committed.Wait();
  }

  Gcs gcs_;
  GcsTables tables_;
};

TEST_F(TablesTest, ObjectLocationsAddRemove) {
  ObjectId obj = ObjectId::FromRandom();
  NodeId n1 = NodeId::FromRandom();
  NodeId n2 = NodeId::FromRandom();
  EXPECT_FALSE(tables_.objects.GetLocations(obj).ok());
  tables_.objects.AddLocation(obj, n1, 1024);
  tables_.objects.AddLocation(obj, n2, 1024);
  auto entry = tables_.objects.GetLocations(obj);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->locations.size(), 2u);
  EXPECT_EQ(entry->size_bytes, 1024u);
  tables_.objects.RemoveLocation(obj, n1);
  entry = tables_.objects.GetLocations(obj);
  ASSERT_TRUE(entry.ok());
  ASSERT_EQ(entry->locations.size(), 1u);
  EXPECT_EQ(entry->locations[0], n2);
}

TEST_F(TablesTest, DuplicateLocationAddIsIdempotent) {
  ObjectId obj = ObjectId::FromRandom();
  NodeId n = NodeId::FromRandom();
  tables_.objects.AddLocation(obj, n, 10);
  tables_.objects.AddLocation(obj, n, 10);
  EXPECT_EQ(tables_.objects.GetLocations(obj)->locations.size(), 1u);
}

TEST_F(TablesTest, LocationSubscriptionFiresOnAdd) {
  ObjectId obj = ObjectId::FromRandom();
  NodeId n = NodeId::FromRandom();
  std::vector<NodeId> seen;
  uint64_t token = tables_.objects.SubscribeLocations(
      obj, [&](const ObjectId&, const NodeId& node) { seen.push_back(node); });
  tables_.objects.AddLocation(obj, n, 5);
  tables_.objects.RemoveLocation(obj, n);  // removals do not fire
  gcs_.DrainPublishes();  // delivery is async: wait for the publish pool
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], n);
  tables_.objects.UnsubscribeLocations(obj, token);
}

TEST_F(TablesTest, CreatingTaskLink) {
  ObjectId obj = ObjectId::FromRandom();
  TaskId task = TaskId::FromRandom();
  Await([&](Gcs::WriteCallback done) { tables_.objects.RecordCreatingTaskAsync(obj, task, done); });
  EXPECT_EQ(*tables_.objects.GetCreatingTask(obj), task);
  ASSERT_TRUE(tables_.objects.DeleteCreatingTask(obj).ok());
  EXPECT_EQ(tables_.objects.GetCreatingTask(obj).status().code(), StatusCode::kKeyNotFound);
}

TEST_F(TablesTest, TaskSpecAndState) {
  TaskId task = TaskId::FromRandom();
  NodeId node = NodeId::FromRandom();
  EXPECT_EQ(tables_.tasks.GetState(task).status().code(), StatusCode::kKeyNotFound);
  tables_.tasks.AddTask(task, node, "spec-bytes");
  EXPECT_EQ(*tables_.tasks.GetSpec(task), "spec-bytes");
  // Until a state is set, the task is pending on the node its record names.
  auto state = tables_.tasks.GetState(task);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->first, TaskState::kPending);
  EXPECT_EQ(state->second, node);

  // A placement elsewhere, then the end, each win over the record's node.
  NodeId placed = NodeId::FromRandom();
  tables_.tasks.SetState(task, TaskState::kPending, placed);
  EXPECT_EQ(tables_.tasks.GetState(task)->second, placed);
  tables_.tasks.SetState(task, TaskState::kDone, placed);
  state = tables_.tasks.GetState(task);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->first, TaskState::kDone);
  EXPECT_EQ(state->second, placed);
}

TEST_F(TablesTest, ReturnNamesItsCreatingTask) {
  TaskId task = TaskId::FromRandom();
  ObjectId ret = ObjectIdForReturn(task, 1);
  EXPECT_EQ(tables_.objects.GetCreatingTask(ret).status().code(), StatusCode::kKeyNotFound)
      << "no lineage before the task is recorded";
  Await([&](Gcs::WriteCallback done) {
    tables_.tasks.AddTaskAsync(task, NodeId::FromRandom(), "spec-bytes", done);
  });
  EXPECT_EQ(gcs_.NumEntries(), 1u) << "the task record is the only key a plain task writes";
  auto creating = tables_.objects.GetCreatingTask(ret);
  ASSERT_TRUE(creating.ok()) << creating.status().ToString();
  EXPECT_EQ(*creating, task);

  // Once the record is collected, the return has no lineage either.
  ASSERT_TRUE(tables_.tasks.DeleteTask(task).ok());
  EXPECT_EQ(tables_.objects.GetCreatingTask(ret).status().code(), StatusCode::kKeyNotFound);
  EXPECT_EQ(tables_.tasks.GetState(task).status().code(), StatusCode::kKeyNotFound);
  EXPECT_EQ(gcs_.NumEntries(), 0u);
}

TEST_F(TablesTest, ActorLifecycleRecords) {
  ActorId actor = ActorId::FromRandom();
  NodeId node = NodeId::FromRandom();
  Await([&](Gcs::WriteCallback done) {
    tables_.actors.RegisterActorAsync(actor, "creation-spec", done);
  });
  tables_.actors.SetLocation(actor, node);
  EXPECT_EQ(*tables_.actors.GetLocation(actor), node);
  EXPECT_EQ(*tables_.actors.GetCreationSpec(actor), "creation-spec");

  TaskId m1 = TaskId::FromRandom();
  TaskId m2 = TaskId::FromRandom();
  Await([&](Gcs::WriteCallback done) { tables_.actors.AppendMethodAsync(actor, m1, done); });
  Await([&](Gcs::WriteCallback done) { tables_.actors.AppendMethodAsync(actor, m2, done); });
  auto log = tables_.actors.GetMethodLog(actor);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(*log, (std::vector<TaskId>{m1, m2}));

  tables_.actors.StoreCheckpoint(actor, 17, "state");
  auto ckpt = tables_.actors.GetCheckpoint(actor);
  ASSERT_TRUE(ckpt.ok());
  EXPECT_EQ(ckpt->call_index, 17u);
  EXPECT_EQ(ckpt->state_bytes, "state");
}

TEST_F(TablesTest, NodeMembershipAndHeartbeats) {
  NodeId n1 = NodeId::FromRandom();
  NodeId n2 = NodeId::FromRandom();
  tables_.nodes.RegisterNode(n1);
  tables_.nodes.RegisterNode(n2);
  EXPECT_EQ(tables_.nodes.GetAlive().size(), 2u);
  tables_.nodes.MarkDead(n1);
  EXPECT_EQ(tables_.nodes.GetAlive().size(), 1u);
  EXPECT_FALSE(tables_.nodes.IsAlive(n1));
  EXPECT_TRUE(tables_.nodes.IsAlive(n2));

  Heartbeat hb;
  hb.queue_length = 7;
  hb.avg_task_duration_s = 0.25;
  hb.available = ResourceSet{{"CPU", 3}};
  hb.total = ResourceSet{{"CPU", 4}, {"GPU", 1}};
  tables_.nodes.ReportHeartbeat(n2, hb);
  auto got = tables_.nodes.GetHeartbeat(n2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->queue_length, 7u);
  EXPECT_DOUBLE_EQ(got->avg_task_duration_s, 0.25);
  EXPECT_DOUBLE_EQ(got->available.Get("CPU"), 3);
  EXPECT_DOUBLE_EQ(got->total.Get("GPU"), 1);
}

TEST_F(TablesTest, EventLogAppends) {
  tables_.events.Append("scheduler", "dispatched t1");
  tables_.events.Append("scheduler", "dispatched t2");
  auto events = tables_.events.Get("scheduler");
  ASSERT_TRUE(events.ok());
  EXPECT_EQ(events->size(), 2u);
}

}  // namespace
}  // namespace gcs
}  // namespace ray
