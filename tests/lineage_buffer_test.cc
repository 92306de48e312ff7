// The one lineage writer: every submission records through the submitting
// node's LineageBuffer. Checks what a record makes readable (the spec, the
// kPending state, the creating-task links, and an actor's method-log entry
// and creation spec) and how many GCS writes that takes, when
// WhenTaskDurable runs, that a cluster records each SubmitTask exactly once,
// and what a classic-path submission costs the caller in GCS commit rounds
// now that its record's writes share them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/sync.h"
#include "runtime/api.h"
#include "runtime/lineage_buffer.h"

namespace ray {
namespace {

// Sanitizer builds run the caller's own code several times slower, so they
// stretch the modelled hop to keep one commit round well above it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr int64_t kHopUs = 10'000;
#else
constexpr int64_t kHopUs = 2'000;
#endif

TaskSpec MakeMethod(const ActorId& actor, uint64_t call_index, bool read_only) {
  TaskSpec spec;
  spec.id = TaskId::FromRandom();
  spec.function_name = "Bump";
  spec.actor = actor;
  spec.actor_call_index = call_index;
  spec.actor_method_read_only = read_only;
  return spec;
}

class LineageBufferTest : public ::testing::Test {
 protected:
  LineageBufferTest() : gcs_(MakeConfig()), tables_(&gcs_), lineage_(&tables_) {}

  static gcs::GcsConfig MakeConfig() {
    gcs::GcsConfig config;
    config.chain.num_replicas = 2;
    config.chain.hop_latency_us = kHopUs;
    return config;
  }

  bool CreatedBy(const ObjectId& object, const TaskId& task) {
    auto creating = tables_.objects.GetCreatingTask(object);
    return creating.ok() && *creating == task;
  }

  bool PendingOn(const TaskId& task, const NodeId& node) {
    auto state = tables_.tasks.GetState(task);
    return state.ok() && state->first == gcs::TaskState::kPending && state->second == node;
  }

  bool InMethodLog(const ActorId& actor, const TaskId& task) {
    auto log = tables_.actors.GetMethodLog(actor);
    return log.ok() && std::find(log->begin(), log->end(), task) != log->end();
  }

  // GCS writes that recording `spec` makes: every write goes through a
  // shard's commit batcher, which counts it before running its callback, and
  // nothing else writes to this bare GCS.
  uint64_t WritesToRecord(const TaskSpec& spec) {
    const auto& ops = ControlPlaneMetrics::Instance().gcs_batched_ops;
    uint64_t before = ops.Value();
    lineage_.Record(spec, node_);
    lineage_.WaitTaskDurable(spec.id);
    return ops.Value() - before;
  }

  gcs::Gcs gcs_;
  gcs::GcsTables tables_;
  LineageBuffer lineage_;
  NodeId node_ = NodeId::FromRandom();
};

TEST_F(LineageBufferTest, PlainTaskRecordIsOneWrite) {
  // The kPending state is read from the spec's record, which names the node,
  // and each return's creating task from the return's own ID.
  TaskSpec task;
  task.id = TaskId::FromRandom();
  task.function_name = "add_one";
  task.num_returns = 2;
  EXPECT_EQ(WritesToRecord(task), 1u);

  auto spec = tables_.tasks.GetSpec(task.id);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(*spec, task.Serialize());
  EXPECT_TRUE(PendingOn(task.id, node_));
  EXPECT_TRUE(CreatedBy(task.ReturnId(0), task.id));
  EXPECT_TRUE(CreatedBy(task.ReturnId(1), task.id));
  EXPECT_EQ(lineage_.NumFailedWrites(), 0u);
}

TEST_F(LineageBufferTest, StatefulMethodEntriesAreReadableOnceDurable) {
  ActorId actor = ActorId::FromRandom();
  TaskSpec method = MakeMethod(actor, /*call_index=*/3, /*read_only=*/false);
  EXPECT_EQ(WritesToRecord(method), 3u) << "its record, the cursor link and the method-log append";

  auto spec = tables_.tasks.GetSpec(method.id);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(*spec, method.Serialize());
  EXPECT_TRUE(PendingOn(method.id, node_));
  EXPECT_TRUE(CreatedBy(method.ReturnId(0), method.id));
  EXPECT_TRUE(CreatedBy(method.ResultCursor(), method.id));
  EXPECT_TRUE(InMethodLog(actor, method.id));
  EXPECT_EQ(lineage_.NumRecords(), 1u);
  EXPECT_EQ(lineage_.NumFailedWrites(), 0u);
}

TEST_F(LineageBufferTest, ReadOnlyMethodLinksNoCursorAndLogsNothing) {
  ActorId actor = ActorId::FromRandom();
  TaskSpec method = MakeMethod(actor, /*call_index=*/3, /*read_only=*/true);
  EXPECT_EQ(WritesToRecord(method), 1u) << "its record";

  EXPECT_TRUE(tables_.tasks.GetSpec(method.id).ok());
  EXPECT_TRUE(PendingOn(method.id, node_));
  EXPECT_TRUE(CreatedBy(method.ReturnId(0), method.id));
  // A snapshot shares the chain position it reads; the stateful method at
  // that position owns the cursor, and replay skips snapshots.
  EXPECT_FALSE(tables_.objects.GetCreatingTask(method.ResultCursor()).ok());
  EXPECT_FALSE(InMethodLog(actor, method.id));
}

TEST_F(LineageBufferTest, ActorCreationRecordsItsCreationSpec) {
  TaskSpec creation;
  creation.id = TaskId::FromRandom();
  creation.function_name = "__actor_create__:Counter";
  creation.actor = ActorId::FromRandom();
  creation.is_actor_creation = true;
  creation.actor_class = "Counter";
  EXPECT_EQ(WritesToRecord(creation), 3u) << "its record, the cursor link and the creation spec";

  auto registered = tables_.actors.GetCreationSpec(creation.actor);
  ASSERT_TRUE(registered.ok()) << registered.status().ToString();
  EXPECT_EQ(*registered, creation.Serialize());
  EXPECT_TRUE(PendingOn(creation.id, node_));
  EXPECT_TRUE(CreatedBy(creation.ReturnId(0), creation.id));
  EXPECT_TRUE(CreatedBy(creation.ResultCursor(), creation.id));
}

TEST_F(LineageBufferTest, WhenTaskDurableRunsInlineForATaskNotRecordedHere) {
  std::thread::id ran_on;
  lineage_.WhenTaskDurable(TaskId::FromRandom(), [&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST_F(LineageBufferTest, WhenTaskDurableWaitsForEveryEntryOfARecordInFlight) {
  // The hook reads the GCS from a flusher thread, which Gcs::WriteCallback
  // forbids in runtime code: reads wait on no flusher, but take a hop each.
  // Here it is the point: what the hook reads is what any reader sees the
  // moment the record is declared durable.
  ActorId actor = ActorId::FromRandom();
  std::atomic<bool> deferred{false};
  for (int attempt = 0; attempt < 3 && !deferred.load(); ++attempt) {
    TaskSpec method = MakeMethod(actor, /*call_index=*/attempt + 1, /*read_only=*/false);
    Notification ran;
    std::atomic<int> missing{-1};
    lineage_.Record(method, node_);
    const std::thread::id caller = std::this_thread::get_id();
    lineage_.WhenTaskDurable(method.id, [&, caller] {
      int absent = 0;
      absent += tables_.tasks.GetSpec(method.id).ok() ? 0 : 1;
      absent += PendingOn(method.id, node_) ? 0 : 1;
      absent += CreatedBy(method.ReturnId(0), method.id) ? 0 : 1;
      absent += CreatedBy(method.ResultCursor(), method.id) ? 0 : 1;
      absent += InMethodLog(actor, method.id) ? 0 : 1;
      missing.store(absent);
      if (std::this_thread::get_id() != caller) {
        deferred.store(true);
      }
      ran.Notify();
    });
    ASSERT_TRUE(ran.WaitFor(std::chrono::milliseconds(10'000))) << "the hook never ran";
    EXPECT_EQ(missing.load(), 0) << "the hook ran before every entry of its record was readable";
  }
  // A commit round lasts two hops, so the record is in flight when the hook
  // is queued unless the host stalled this thread for a whole round, three
  // times over.
  EXPECT_TRUE(deferred.load()) << "every hook ran inline; the test proved nothing";
}

// --- cluster level ----------------------------------------------------------

int AddOne(int x) { return x + 1; }

class Counter {
 public:
  int Bump(int delta) { return total_ += delta; }
  int Total() { return total_; }

 private:
  int total_ = 0;
};

// Node 0 is the caller's home. Node 1 carries a resource node 0 lacks, so an
// actor created from node 0 that asks for it lives on node 1.
class OneWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.num_nodes = 1;
    config.scheduler.total_resources = ResourceSet::Cpu(2);
    config.net.control_latency_us = 5;
    config.gcs.chain.num_replicas = 2;
    config.gcs.chain.hop_latency_us = kHopUs;
    round_us_ = config.gcs.chain.num_replicas * config.gcs.chain.hop_latency_us;
    cluster_ = std::make_unique<Cluster>(config);
    cluster_->AddNodeWithResources(ResourceSet{{"CPU", 2}, {"Remote", 1}});
    cluster_->RegisterFunction("add_one", &AddOne);
    cluster_->RegisterActorClass<Counter>("Counter");
    cluster_->RegisterActorMethod("Counter", "Bump", &Counter::Bump);
    cluster_->RegisterActorMethod("Counter", "Total", &Counter::Total, /*read_only=*/true);
  }

  ActorHandle CreateRemoteCounter(Ray& ray) {
    ActorHandle counter = ray.CreateActor("Counter", ResourceSet{{"CPU", 1}, {"Remote", 1}});
    auto created = ray.GetBuffer(counter.creation_future(), 30'000'000);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    auto where = cluster_->tables().actors.GetLocation(counter.id());
    EXPECT_TRUE(where.ok() && *where == cluster_->node(1).id()) << "the actor must live on node 1";
    return counter;
  }

  uint64_t TotalRecords() {
    uint64_t records = 0;
    for (size_t i = 0; i < cluster_->NumNodes(); ++i) {
      records += cluster_->node(i).transport().lineage().NumRecords();
    }
    return records;
  }

  // Best of three timed calls: on a loaded host the OS can take the caller's
  // thread away for longer than a round in any one call.
  template <typename Call>
  int64_t BestOfThree(Call call) {
    int64_t best_us = std::numeric_limits<int64_t>::max();
    for (int i = 0; i < 3; ++i) {
      int64_t start = NowMicros();
      call(i);
      best_us = std::min(best_us, NowMicros() - start);
    }
    return best_us;
  }

  std::unique_ptr<Cluster> cluster_;
  int64_t round_us_ = 0;
};

TEST_F(OneWriterTest, EverySubmissionRecordsExactlyOnce) {
  Ray ray = Ray::OnNode(*cluster_, 0);
  Ray remote = Ray::OnNode(*cluster_, 1);
  ObjectRef<int> far_input = remote.Put(41);

  ObjectRef<int> leased = ray.Call<int>("add_one", 1);
  ObjectRef<int> dependent = ray.Call<int>("add_one", far_input);
  ActorHandle counter = CreateRemoteCounter(ray);
  ObjectRef<int> stateful = counter.Call<int>("Bump", 5);
  ObjectRef<int> read_only = counter.Call<int>("Total");

  const std::vector<std::pair<ObjectRef<int>, int>> expected = {
      {leased, 2}, {dependent, 42}, {stateful, 5}, {read_only, 5}};
  for (const auto& [ref, want] : expected) {
    auto value = ray.Get(ref, 30'000'000);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(*value, want);
  }
  EXPECT_EQ(TotalRecords(), 5u) << "one record per SubmitTask: a leased task, a remote-input "
                                   "task, an actor creation and two methods";
  for (size_t i = 0; i < cluster_->NumNodes(); ++i) {
    EXPECT_EQ(cluster_->node(i).transport().lineage().NumFailedWrites(), 0u);
  }
}

TEST_F(OneWriterTest, RemoteInputCallReturnsWithinThreeRounds) {
  // The task's record sends its writes together and the caller waits for
  // that one record (one or two rounds, as a write can just miss a round),
  // then queues the task locally with no second kPending write. Writing the
  // entries one after another would take four rounds or more.
  Ray ray = Ray::OnNode(*cluster_, 0);
  Ray remote = Ray::OnNode(*cluster_, 1);
  std::vector<ObjectRef<int>> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(remote.Put(i));
  }
  std::vector<ObjectRef<int>> results;
  int64_t best_us =
      BestOfThree([&](int i) { results.push_back(ray.Call<int>("add_one", inputs[i])); });
  for (int i = 0; i < 3; ++i) {
    auto value = ray.Get(results[i], 30'000'000);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(*value, i + 1);
  }
  EXPECT_LT(best_us, 3 * round_us_) << "Ray::Call took " << best_us << " us, round " << round_us_;
}

TEST_F(OneWriterTest, StatefulCallOnRemoteActorReturnsWithinSixRounds) {
  // The caller pays the call-index increment (one round), one record's
  // durability (one or two), the location read (half a round) and the
  // actor node's kPending write (one), where five lineage writes one after
  // another would add four more.
  Ray ray = Ray::OnNode(*cluster_, 0);
  ActorHandle counter = CreateRemoteCounter(ray);
  std::vector<ObjectRef<int>> results;
  int64_t best_us = BestOfThree([&](int) { results.push_back(counter.Call<int>("Bump", 1)); });
  for (int i = 0; i < 3; ++i) {
    auto value = ray.Get(results[i], 30'000'000);
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(*value, i + 1);
  }
  EXPECT_LT(best_us, 6 * round_us_) << "ActorHandle::Call took " << best_us << " us, round "
                                    << round_us_;
}

}  // namespace
}  // namespace ray
