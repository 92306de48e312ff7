// Fault-tolerance tests: lineage-based task reconstruction (Fig. 11a) and
// actor recovery via checkpoint + method replay (Fig. 11b).
#include <gtest/gtest.h>

#include "common/clock.h"
#include "runtime/api.h"

namespace ray {
namespace {

int Increment(int x) { return x + 1; }
int64_t Add(int64_t a, int64_t b) { return a + b; }
std::vector<float> Blob(int n) { return std::vector<float>(n, 1.0f); }

ClusterConfig FaultClusterConfig(int nodes) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.scheduler.total_resources = ResourceSet::Cpu(2);
  config.net.latency_us = 10;
  config.net.control_latency_us = 5;
  return config;
}

class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(FaultClusterConfig(4));
    cluster_->RegisterFunction("inc", &Increment);
    cluster_->RegisterFunction("blob", &Blob);
  }

  // Finds the node currently holding the only copy of `id` and kills it.
  // Returns false if no live holder exists.
  bool KillHolderOf(const ObjectId& id) {
    auto entry = cluster_->tables().objects.GetLocations(id);
    if (!entry.ok()) {
      return false;
    }
    for (const NodeId& loc : entry->locations) {
      if (!cluster_->net().IsDead(loc)) {
        cluster_->KillNode(loc);
        return true;
      }
    }
    return false;
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(FaultToleranceTest, LostObjectIsReconstructedFromLineage) {
  Ray ray = Ray::OnNode(*cluster_, 0);
  // Force execution off the driver node so killing the executor does not
  // kill the driver: saturate via always-forward ablation is overkill; just
  // find where the result landed.
  auto ref = ray.Call<int>("inc", 41);
  auto first = ray.Get(ref, 5'000'000);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 42);

  // A same-node Get can return as soon as the result is sealed, before its
  // location record commits: wait (bounded) for the record before reading it.
  auto entry = cluster_->tables().objects.GetLocations(ref.id());
  for (int64_t deadline = NowMicros() + 5'000'000;
       (!entry.ok() || entry->locations.empty()) && NowMicros() < deadline;) {
    SleepMicros(1'000);
    entry = cluster_->tables().objects.GetLocations(ref.id());
  }
  ASSERT_TRUE(entry.ok());
  ASSERT_FALSE(entry->locations.empty()) << "the result's location never committed";
  NodeId holder = entry->locations[0];
  if (holder == cluster_->node(0).id()) {
    // Result lives on the driver's node; replicate it nowhere and skip the
    // kill-the-driver variant — instead fetch from node 1 and kill node 0's
    // copy path is not exercisable without killing the driver. Run the
    // off-driver variant instead.
    Ray other = Ray::OnNode(*cluster_, 1);
    auto v = other.Get(ref, 5'000'000);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, 42);
    return;
  }
  cluster_->KillNode(holder);
  // The only copy is gone; ray.get must transparently re-execute the task.
  auto again = ray.Get(ref, 20'000'000);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, 42);
}

TEST_F(FaultToleranceTest, ChainReconstructionRebuildsLostSubtree) {
  // Build a dependency chain a -> b -> c across the cluster, then kill every
  // node holding intermediate results. Getting the head must rebuild all of
  // the lost prefix (the Fig. 11a workload in miniature).
  Ray ray = Ray::OnNode(*cluster_, 0);
  auto a = ray.Call<int>("inc", 0);
  auto b = ray.Call<int>("inc", a);
  auto c = ray.Call<int>("inc", b);
  auto v = ray.Get(c, 5'000'000);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 3);

  // Kill all nodes except the driver's; every object copy not on node 0 dies.
  NodeId driver_node = cluster_->node(0).id();
  for (size_t i = 1; i < cluster_->NumNodes(); ++i) {
    cluster_->KillNode(i);
  }
  // Add fresh capacity so reconstruction has somewhere to run (elasticity).
  cluster_->AddNode();
  cluster_->AddNode();

  // Drop node-0 copies too, so the whole chain must re-execute.
  cluster_->node(0).store().DeleteLocal(a.id());
  cluster_->node(0).store().DeleteLocal(b.id());
  cluster_->node(0).store().DeleteLocal(c.id());
  (void)driver_node;

  auto again = ray.Get(c, 30'000'000);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, 3);
}

TEST_F(FaultToleranceTest, LostLadderLineageRebuildsQuickly) {
  // x_i = x_{i-1} + x_{i-2}: every object below the top is reachable from it
  // along exponentially many lineage paths. A walk that visits an object once
  // per path never finishes; one that visits each object once rebuilds the
  // ladder in a few task latencies.
  constexpr int kDepth = 32;
  cluster_->RegisterFunction("add", &Add);
  const ResourceSet pinned{{"CPU", 1}, {"tag", 1}};
  NodeId tagged = cluster_->AddNodeWithResources(ResourceSet{{"CPU", 2}, {"tag", 1}});
  SleepMicros(30'000);  // heartbeat, so placement sees the tagged node
  Ray ray = Ray::OnNode(*cluster_, 0);
  std::vector<ObjectRef<int64_t>> x = {ray.Put<int64_t>(0), ray.Put<int64_t>(1)};
  for (int i = 2; i <= kDepth; ++i) {
    x.push_back(ray.CallWithResources<int64_t>("add", pinned, x[i - 1], x[i - 2]));
  }
  // Wait, not Get: a Get would copy the top object to the driver's node.
  ASSERT_EQ(ray.Wait(std::vector<ObjectRef<int64_t>>{x.back()}, 1, 30'000'000).size(), 1u);

  cluster_->AddNodeWithResources(ResourceSet{{"CPU", 2}, {"tag", 1}});
  cluster_->KillNode(tagged);
  auto top = ray.Get(x.back(), 10'000'000);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(*top, 2178309);  // Fibonacci(32)
}

TEST_F(FaultToleranceTest, LostPutInputReportsObjectLost) {
  // A put object has no lineage: once its only replica's node is declared
  // dead it is gone, and a Get of anything that needs it says so instead of
  // waiting out its timeout.
  Ray owner = Ray::OnNode(*cluster_, 1);
  auto put = owner.Put(41);
  auto entry = cluster_->tables().objects.GetLocations(put.id());
  for (int64_t deadline = NowMicros() + 5'000'000;
       (!entry.ok() || entry->locations.empty()) && NowMicros() < deadline;) {
    SleepMicros(1'000);
    entry = cluster_->tables().objects.GetLocations(put.id());
  }
  ASSERT_TRUE(entry.ok() && !entry->locations.empty()) << "the put's location never committed";
  NodeId holder = cluster_->node(1).id();
  cluster_->KillNode(holder);
  for (int64_t deadline = NowMicros() + 10'000'000;
       !cluster_->liveness().IsDead(holder) && NowMicros() < deadline;) {
    SleepMicros(1'000);
  }
  ASSERT_TRUE(cluster_->liveness().IsDead(holder));

  Ray ray = Ray::OnNode(*cluster_, 0);
  Timer timer;
  auto dependent = ray.Get(ray.Call<int>("inc", put), 5'000'000);
  ASSERT_FALSE(dependent.ok());
  EXPECT_EQ(dependent.status().code(), StatusCode::kObjectLost) << dependent.status().ToString();
  EXPECT_LT(timer.ElapsedMicros(), 2'000'000);

  auto direct = ray.Get(put, 5'000'000);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.status().code(), StatusCode::kObjectLost) << direct.status().ToString();
}

// --- actor recovery ---

class Accumulator {
 public:
  int Add(int x) {
    total_ += x;
    ++calls_;
    return total_;
  }
  int Total() {
    ++calls_;
    return total_;
  }
  int Calls() {
    ++calls_;
    return calls_;
  }

  void SaveCheckpoint(Writer& w) const {
    Put(w, total_);
    Put(w, calls_);
  }
  void RestoreCheckpoint(Reader& r) {
    total_ = Take<int>(r);
    calls_ = Take<int>(r);
  }

 private:
  int total_ = 0;
  int calls_ = 0;
};

class ActorRecoveryTest : public ::testing::Test {
 protected:
  void MakeCluster(uint64_t checkpoint_interval) {
    ClusterConfig config = FaultClusterConfig(4);
    config.actor_checkpoint_interval = checkpoint_interval;
    cluster_ = std::make_unique<Cluster>(config);
    cluster_->RegisterActorClass<Accumulator>("Accumulator");
    cluster_->RegisterActorMethod("Accumulator", "Add", &Accumulator::Add);
    cluster_->RegisterActorMethod("Accumulator", "Total", &Accumulator::Total);
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_F(ActorRecoveryTest, ActorReplaysFullChainWithoutCheckpoint) {
  MakeCluster(0);
  // Pin the actor to a tagged node so killing it never kills the driver.
  NodeId tagged = cluster_->AddNodeWithResources(ResourceSet{{"CPU", 2}, {"tag", 1}});
  Ray ray = Ray::OnNode(*cluster_, 0);
  ActorHandle acc = ray.CreateActor("Accumulator", ResourceSet{{"CPU", 1}, {"tag", 1}});
  for (int i = 1; i <= 20; ++i) {
    acc.Call<int>("Add", i);
  }
  auto before = ray.Get(acc.Call<int>("Total"), 10'000'000);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, 210);

  auto loc = cluster_->tables().actors.GetLocation(acc.id());
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(*loc, tagged);
  // A second tagged node gives recovery somewhere to land.
  cluster_->AddNodeWithResources(ResourceSet{{"CPU", 2}, {"tag", 1}});
  cluster_->KillNode(*loc);

  // Next call triggers recovery: creation re-runs, all 21 methods replay.
  auto after = ray.Get(acc.Call<int>("Total"), 30'000'000);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, 210);
}

TEST_F(ActorRecoveryTest, CheckpointBoundsReplay) {
  MakeCluster(5);  // checkpoint every 5 method calls
  NodeId tagged = cluster_->AddNodeWithResources(ResourceSet{{"CPU", 2}, {"tag", 1}});
  Ray ray = Ray::OnNode(*cluster_, 0);
  ActorHandle acc = ray.CreateActor("Accumulator", ResourceSet{{"CPU", 1}, {"tag", 1}});
  for (int i = 1; i <= 23; ++i) {
    acc.Call<int>("Add", 1);
  }
  auto before = ray.Get(acc.Call<int>("Total"), 10'000'000);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(*before, 23);

  auto ckpt = cluster_->tables().actors.GetCheckpoint(acc.id());
  ASSERT_TRUE(ckpt.ok());
  EXPECT_GE(ckpt->call_index, 20u);

  auto loc = cluster_->tables().actors.GetLocation(acc.id());
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(*loc, tagged);
  cluster_->AddNodeWithResources(ResourceSet{{"CPU", 2}, {"tag", 1}});
  cluster_->KillNode(*loc);

  auto after = ray.Get(acc.Call<int>("Total"), 30'000'000);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, 23);  // state identical despite replaying only the tail
}

}  // namespace
}  // namespace ray
