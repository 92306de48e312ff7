// Tests for the GCS-backed tooling (inspector, profiler, error diagnosis)
// and the Section 7 extensions: lineage garbage collection and read-only
// actor-method annotations.
#include <gtest/gtest.h>

#include "common/clock.h"
#include "runtime/api.h"
#include "tools/inspector.h"

namespace ray {
namespace {

int AddOne(int x) { return x + 1; }

ClusterConfig ToolClusterConfig(int nodes) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.scheduler.total_resources = ResourceSet::Cpu(2);
  config.net.control_latency_us = 5;
  return config;
}

TEST(InspectorTest, SnapshotSeesNodesAndStores) {
  Cluster cluster(ToolClusterConfig(3));
  cluster.RegisterFunction("add_one", &AddOne);
  Ray ray = Ray::OnNode(cluster, 0);
  ray.Put(std::vector<float>(1000, 1.0f));
  ASSERT_TRUE(ray.Get(ray.Call<int>("add_one", 1), 5'000'000).ok());

  tools::ClusterInspector inspector(&cluster);
  tools::ClusterReport report = inspector.Snapshot();
  ASSERT_EQ(report.nodes.size(), 3u);
  size_t total_objects = 0;
  uint64_t executed = 0;
  for (const auto& nr : report.nodes) {
    EXPECT_TRUE(nr.alive);
    total_objects += nr.store_objects;
    executed += nr.tasks_executed;
  }
  EXPECT_GE(total_objects, 2u);  // the put + the task result
  EXPECT_GE(executed, 1u);
  EXPECT_GT(report.gcs_entries, 0u);

  std::string rendered = inspector.Render();
  EXPECT_NE(rendered.find("alive"), std::string::npos);
}

TEST(InspectorTest, SnapshotMarksDeadNodes) {
  Cluster cluster(ToolClusterConfig(3));
  cluster.KillNode(2);
  tools::ClusterInspector inspector(&cluster);
  auto report = inspector.Snapshot();
  EXPECT_TRUE(report.nodes[0].alive);
  EXPECT_FALSE(report.nodes[2].alive);
  EXPECT_NE(inspector.Render().find("DEAD"), std::string::npos);
}

TEST(ProfilerTest, ChromeTraceExportContainsEvents) {
  Cluster cluster(ToolClusterConfig(1));
  tools::Profiler profiler(&cluster);
  profiler.RecordEvent("worker-0", "rollout", 1000, 5000);
  profiler.RecordEvent("worker-0", "train", 5000, 9000);
  profiler.RecordEvent("worker-1", "rollout", 1500, 4000);

  std::string trace = profiler.ExportChromeTrace({"worker-0", "worker-1"});
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"rollout\""), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":4000"), std::string::npos);
  EXPECT_NE(trace.find("worker-1"), std::string::npos);
}

TEST(ProfilerTest, TaskStatesReflectLifecycle) {
  Cluster cluster(ToolClusterConfig(2));
  cluster.RegisterFunction("add_one", &AddOne);
  Ray ray = Ray::OnNode(cluster, 0);
  auto ref = ray.Call<int>("add_one", 1);
  ASSERT_TRUE(ray.Get(ref, 5'000'000).ok());

  auto task = cluster.tables().objects.GetCreatingTask(ref.id());
  ASSERT_TRUE(task.ok());
  tools::Profiler profiler(&cluster);
  auto entries = profiler.TaskStates({*task});
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].function_name, "add_one");
  EXPECT_EQ(entries[0].state, gcs::TaskState::kDone);
  EXPECT_FALSE(entries[0].is_actor_method);
}

TEST(DiagnosisTest, DetectsStuckTasksAndDeadActors) {
  Cluster cluster(ToolClusterConfig(2));
  cluster.RegisterFunction("add_one", &AddOne);

  class Dummy {
   public:
    int Ping() { return 1; }
  };
  cluster.RegisterActorClass<Dummy>("Dummy");
  cluster.RegisterActorMethod("Dummy", "Ping", &Dummy::Ping);

  NodeId doomed = cluster.AddNodeWithResources(ResourceSet{{"CPU", 2}, {"doomed", 2}});
  Ray ray = Ray::OnNode(cluster, 0);
  ActorHandle actor = ray.CreateActor("Dummy", ResourceSet{{"CPU", 1}, {"doomed", 1}});
  ASSERT_TRUE(ray.Get(actor.Call<int>("Ping"), 5'000'000).ok());
  auto healthy_task = ray.Call<int>("add_one", 1);
  ASSERT_TRUE(ray.Get(healthy_task, 5'000'000).ok());

  cluster.KillNode(doomed);

  tools::ErrorDiagnoser diagnoser(&cluster);
  auto healthy_task_id = cluster.tables().objects.GetCreatingTask(healthy_task.id());
  ASSERT_TRUE(healthy_task_id.ok());
  auto d = diagnoser.Examine({*healthy_task_id}, {actor.id()}, {});
  EXPECT_TRUE(d.lost_tasks.empty());
  EXPECT_TRUE(d.stuck_tasks.empty());
  ASSERT_EQ(d.dead_actors.size(), 1u);
  EXPECT_EQ(d.dead_actors[0], actor.id());
  EXPECT_NE(d.Render().find("DEAD actor"), std::string::npos);
  EXPECT_FALSE(d.Healthy());
}

TEST(DiagnosisTest, CollectedReturnWithNoLiveReplicaIsLost) {
  // A return's creating task is read from its ID, and only a recorded task
  // counts as lineage: once the record is collected and the last replica
  // dies, nothing can rebuild the object.
  Cluster cluster(ToolClusterConfig(2));
  cluster.RegisterFunction("add_one", &AddOne);
  NodeId doomed = cluster.AddNodeWithResources(ResourceSet{{"CPU", 2}, {"doomed", 2}});
  Ray ray = Ray::OnNode(cluster, 0);
  const ResourceSet pinned{{"CPU", 1}, {"doomed", 1}};
  auto collected = ray.CallWithResources<int>("add_one", pinned, 1);
  auto kept = ray.CallWithResources<int>("add_one", pinned, 2);
  // Wait, not Get: a Get would copy the results to the caller's node.
  ASSERT_EQ(ray.Wait(std::vector<ObjectRef<int>>{collected, kept}, 2, 10'000'000).size(), 2u);
  ASSERT_EQ(cluster.CollectLineage({collected.id()}), 1u);

  tools::ErrorDiagnoser diagnoser(&cluster);
  EXPECT_TRUE(diagnoser.Examine({}, {}, {collected.id(), kept.id()}).lost_objects.empty())
      << "both have a live replica";
  cluster.KillNode(doomed);
  auto d = diagnoser.Examine({}, {}, {collected.id(), kept.id()});
  ASSERT_EQ(d.lost_objects.size(), 1u) << "the uncollected return can still be rebuilt";
  EXPECT_EQ(d.lost_objects[0], collected.id());
  EXPECT_NE(d.Render().find("UNRECOVERABLE object"), std::string::npos);
}

// --- lineage GC ---

TEST(LineageGcTest, CollectsDoneTasksAndShrinksGcs) {
  Cluster cluster(ToolClusterConfig(2));
  cluster.RegisterFunction("add_one", &AddOne);
  Ray ray = Ray::OnNode(cluster, 0);

  std::vector<ObjectRef<int>> refs;
  for (int i = 0; i < 50; ++i) {
    refs.push_back(ray.Call<int>("add_one", i));
  }
  auto values = ray.GetAll(refs, 30'000'000);
  ASSERT_TRUE(values.ok());

  size_t before = cluster.gcs().NumEntries();
  std::vector<ObjectId> ids;
  for (const auto& ref : refs) {
    ids.push_back(ref.id());
  }
  size_t collected = cluster.CollectLineage(ids);
  EXPECT_EQ(collected, 50u);
  EXPECT_LT(cluster.gcs().NumEntries(), before);

  // Objects themselves are untouched: reads still work.
  EXPECT_EQ(*ray.Get(refs[0], 5'000'000), 1);
  // Collecting again is a no-op.
  EXPECT_EQ(cluster.CollectLineage(ids), 0u);
}

TEST(LineageGcTest, TransitiveCollectionWalksAncestry) {
  Cluster cluster(ToolClusterConfig(2));
  cluster.RegisterFunction("add_one", &AddOne);
  Ray ray = Ray::OnNode(cluster, 0);
  auto a = ray.Call<int>("add_one", 0);
  auto b = ray.Call<int>("add_one", a);
  auto c = ray.Call<int>("add_one", b);
  ASSERT_TRUE(ray.Get(c, 10'000'000).ok());

  EXPECT_EQ(cluster.CollectLineage({c.id()}, /*transitive=*/true), 3u);
}

TEST(LineageGcTest, InFlightTasksAreNotCollected) {
  Cluster cluster(ToolClusterConfig(2));
  cluster.RegisterFunction("slow", std::function<int(int)>([](int x) {
                             SleepMicros(200'000);
                             return x;
                           }));
  Ray ray = Ray::OnNode(cluster, 0);
  auto ref = ray.Call<int>("slow", 1);
  // Still running: must not be collected.
  EXPECT_EQ(cluster.CollectLineage({ref.id()}), 0u);
  ASSERT_TRUE(ray.Get(ref, 10'000'000).ok());
  EXPECT_EQ(cluster.CollectLineage({ref.id()}), 1u);
}

// --- read-only method annotation ---

class QueryHeavyActor {
 public:
  int Write(int x) {
    state_ += x;
    ++writes_executed_;
    return state_;
  }
  int Read() {
    ++reads_executed_;
    return state_;
  }
  int ReadsExecuted() { return reads_executed_; }

  void SaveCheckpoint(Writer& w) const { Put(w, state_); }
  void RestoreCheckpoint(Reader& r) { state_ = Take<int>(r); }

 private:
  int state_ = 0;
  int writes_executed_ = 0;
  int reads_executed_ = 0;
};

TEST(ReadOnlyMethodTest, ReplaySkipsReadOnlyBodies) {
  ClusterConfig config = ToolClusterConfig(1);
  Cluster cluster(config);  // no checkpointing: full replay
  cluster.RegisterActorClass<QueryHeavyActor>("QueryHeavy");
  cluster.RegisterActorMethod("QueryHeavy", "Write", &QueryHeavyActor::Write);
  cluster.RegisterActorMethod("QueryHeavy", "Read", &QueryHeavyActor::Read, /*read_only=*/true);
  cluster.RegisterActorMethod("QueryHeavy", "ReadsExecuted", &QueryHeavyActor::ReadsExecuted,
                              /*read_only=*/true);

  NodeId tagged = cluster.AddNodeWithResources(ResourceSet{{"CPU", 2}, {"t", 1}});
  Ray ray = Ray::OnNode(cluster, 0);
  ActorHandle actor = ray.CreateActor("QueryHeavy", ResourceSet{{"CPU", 1}, {"t", 1}});
  // Spare for recovery, added only after the actor is pinned to `tagged`.
  ASSERT_TRUE(ray.Get(actor.Call<int>("Read"), 10'000'000).ok());
  ASSERT_EQ(*cluster.tables().actors.GetLocation(actor.id()), tagged);
  cluster.AddNodeWithResources(ResourceSet{{"CPU", 2}, {"t", 1}});

  // Interleave 10 writes with 40 reads (plus the placement-probe read).
  for (int i = 0; i < 10; ++i) {
    actor.Call<int>("Write", 1);
    for (int r = 0; r < 4; ++r) {
      actor.Call<int>("Read");
    }
  }
  auto state = ray.Get(actor.Call<int>("Read"), 20'000'000);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, 10);

  cluster.KillNode(tagged);

  // Recovery replays the log; read-only bodies are skipped, so the fresh
  // instance's read counter reflects only post-recovery reads.
  auto recovered_state = ray.Get(actor.Call<int>("Read"), 30'000'000);
  ASSERT_TRUE(recovered_state.ok());
  EXPECT_EQ(*recovered_state, 10) << "state must replay exactly";
  auto reads = ray.Get(actor.Call<int>("ReadsExecuted"), 10'000'000);
  ASSERT_TRUE(reads.ok());
  // 42 reads were logged pre-kill; replay must NOT re-run them. Only the
  // post-kill reads ran on the fresh instance.
  EXPECT_LE(*reads, 3) << "read-only replay must skip method bodies";
}

}  // namespace
}  // namespace ray
