// Unit tests for the scheduler layer, driving LocalScheduler/GlobalScheduler
// directly (no runtime on top): bottom-up spillover, resource gating,
// dependency-driven readiness, locality- and load-aware global placement,
// and the availability tier for actor-held resources. One cluster-level test
// checks that an idle node's heartbeat starts no thread.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>

#include "common/clock.h"
#include "common/sync.h"
#include "runtime/cluster.h"
#include "scheduler/global_scheduler.h"
#include "scheduler/local_scheduler.h"

namespace ray {
namespace {

TaskSpec MakeTask(const ResourceSet& resources = {}) {
  TaskSpec spec;
  spec.id = TaskId::FromRandom();
  spec.function_name = "noop";
  spec.resources = resources;
  return spec;
}

// A miniature two-node scheduling fabric with a counting executor.
class SchedulerFixture : public ::testing::Test {
 protected:
  void SetUp() override { SetUpNodes(2, ResourceSet::Cpu(2)); }

  void SetUpNodes(int n, const ResourceSet& resources, bool locality_aware = true) {
    gcs_ = std::make_unique<gcs::Gcs>(gcs::GcsConfig{});
    tables_ = std::make_unique<gcs::GcsTables>(gcs_.get());
    NetConfig net_config;
    net_config.latency_us = 10;
    net_config.control_latency_us = 5;
    net_ = std::make_unique<SimNetwork>(net_config);
    GlobalSchedulerConfig global_config;
    global_config.locality_aware = locality_aware;
    global_ = std::make_unique<GlobalSchedulerPool>(1, tables_.get(), net_.get(), &registry_,
                                                    global_config);
    for (int i = 0; i < n; ++i) {
      LocalSchedulerConfig config;
      config.total_resources = resources;
      config.spillover_queue_threshold = 4;
      config.heartbeat_interval_us = 5'000;
      auto node_id = NodeId::FromRandom();
      stores_.push_back(
          std::make_unique<ObjectStore>(node_id, tables_.get(), net_.get(), ObjectStoreConfig{}));
      schedulers_.push_back(std::make_unique<LocalScheduler>(
          node_id, tables_.get(), net_.get(), stores_.back().get(), global_.get(), config));
      tables_->nodes.RegisterNode(node_id);
      registry_.Register(node_id, schedulers_.back().get());
    }
    size_t store_index = 0;
    for (auto& scheduler : schedulers_) {
      ObjectStore* store = stores_[store_index++].get();
      scheduler->Start(
          [this, store](const TaskSpec& spec) {
            executed_.fetch_add(1);
            SleepMicros(exec_sleep_us_);
            // Seal outputs so dependent tasks become ready.
            store->Put(spec.ReturnId(0), std::make_shared<Buffer>());
          },
          [](const TaskSpec&) {});
    }
    for (auto& store : stores_) {
      store->SetPeerResolver([this](const NodeId& id) -> ObjectStore* {
        for (auto& s : stores_) {
          if (s->node() == id) {
            return s.get();
          }
        }
        return nullptr;
      });
    }
  }

  void TearDown() override {
    for (auto& s : schedulers_) {
      s->Shutdown();
    }
  }

  bool WaitForExecuted(uint64_t n, int64_t timeout_us = 10'000'000) {
    int64_t deadline = NowMicros() + timeout_us;
    while (executed_.load() < n) {
      if (NowMicros() > deadline) {
        return false;
      }
      SleepMicros(500);
    }
    return true;
  }

  std::unique_ptr<gcs::Gcs> gcs_;
  std::unique_ptr<gcs::GcsTables> tables_;
  std::unique_ptr<SimNetwork> net_;
  LocalSchedulerRegistry registry_;
  std::unique_ptr<GlobalSchedulerPool> global_;
  std::vector<std::unique_ptr<ObjectStore>> stores_;
  std::vector<std::unique_ptr<LocalScheduler>> schedulers_;
  std::atomic<uint64_t> executed_{0};
  int64_t exec_sleep_us_ = 0;
};

TEST_F(SchedulerFixture, ExecutesSubmittedTask) {
  ASSERT_TRUE(schedulers_[0]->Submit(MakeTask()).ok());
  EXPECT_TRUE(WaitForExecuted(1));
  EXPECT_EQ(schedulers_[0]->NumTasksExecuted(), 1u);
}

TEST_F(SchedulerFixture, TaskWaitsForDependencyThenRuns) {
  TaskSpec producer = MakeTask();
  TaskSpec consumer = MakeTask();
  consumer.args.push_back(TaskArg::ByRef(producer.ReturnId(0)));
  // Submit the consumer FIRST: it must wait until the producer's output is
  // sealed and the Object Table callback fires.
  ASSERT_TRUE(schedulers_[0]->Submit(consumer).ok());
  SleepMicros(20'000);
  EXPECT_EQ(executed_.load(), 0u);
  ASSERT_TRUE(schedulers_[1]->Submit(producer).ok());
  EXPECT_TRUE(WaitForExecuted(2));
}

TEST_F(SchedulerFixture, SpilloverDistributesLoad) {
  exec_sleep_us_ = 20'000;
  // 16 tasks into node 0 (threshold 4, CPU 2): the overflow must spill to
  // node 1 through the global scheduler.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(schedulers_[0]->Submit(MakeTask()).ok());
  }
  EXPECT_TRUE(WaitForExecuted(16));
  EXPECT_GT(schedulers_[0]->NumSpilledToGlobal(), 0u);
  EXPECT_GT(schedulers_[1]->NumTasksExecuted(), 0u) << "spilled tasks must run remotely";
}

TEST_F(SchedulerFixture, UnsatisfiableDemandSpillsToCapableNode) {
  TearDown();
  schedulers_.clear();
  stores_.clear();
  SetUpNodes(1, ResourceSet::Cpu(2));
  // Add a GPU node.
  LocalSchedulerConfig config;
  config.total_resources = ResourceSet{{"CPU", 2}, {"GPU", 1}};
  auto node_id = NodeId::FromRandom();
  stores_.push_back(
      std::make_unique<ObjectStore>(node_id, tables_.get(), net_.get(), ObjectStoreConfig{}));
  schedulers_.push_back(std::make_unique<LocalScheduler>(node_id, tables_.get(), net_.get(),
                                                         stores_.back().get(), global_.get(),
                                                         config));
  tables_->nodes.RegisterNode(node_id);
  registry_.Register(node_id, schedulers_.back().get());
  std::atomic<int>* gpu_runs = new std::atomic<int>{0};
  schedulers_.back()->Start([gpu_runs](const TaskSpec&) { gpu_runs->fetch_add(1); },
                            [](const TaskSpec&) {});

  // GPU task submitted to the CPU-only node must land on the GPU node.
  ASSERT_TRUE(schedulers_[0]->Submit(MakeTask(ResourceSet{{"GPU", 1}})).ok());
  int64_t deadline = NowMicros() + 5'000'000;
  while (gpu_runs->load() == 0 && NowMicros() < deadline) {
    SleepMicros(500);
  }
  EXPECT_EQ(gpu_runs->load(), 1);
  delete gpu_runs;
}

TEST_F(SchedulerFixture, ResourceGatingLimitsConcurrency) {
  // CPU 2 per node: with 4 long tasks pinned to node 0 via SubmitPlaced,
  // at most 2 run at once.
  exec_sleep_us_ = 50'000;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  schedulers_[0]->Shutdown();
  LocalSchedulerConfig config;
  config.total_resources = ResourceSet::Cpu(2);
  auto node_id = NodeId::FromRandom();
  stores_.push_back(
      std::make_unique<ObjectStore>(node_id, tables_.get(), net_.get(), ObjectStoreConfig{}));
  auto scheduler = std::make_unique<LocalScheduler>(node_id, tables_.get(), net_.get(),
                                                    stores_.back().get(), global_.get(), config);
  tables_->nodes.RegisterNode(node_id);
  registry_.Register(node_id, scheduler.get());
  scheduler->Start(
      [&](const TaskSpec&) {
        int now = concurrent.fetch_add(1) + 1;
        int old_peak = peak.load();
        while (now > old_peak && !peak.compare_exchange_weak(old_peak, now)) {
        }
        SleepMicros(30'000);
        concurrent.fetch_sub(1);
        executed_.fetch_add(1);
      },
      [](const TaskSpec&) {});
  for (int i = 0; i < 4; ++i) {
    scheduler->SubmitPlaced(MakeTask());
  }
  EXPECT_TRUE(WaitForExecuted(4));
  EXPECT_LE(peak.load(), 2);
  scheduler->Shutdown();
}

TEST_F(SchedulerFixture, DuplicateDeliveryOfAWaitingTaskCountsOnce) {
  // Recovery replay and a routing retry can both deliver one actor method
  // while it waits for its cursor; the executor drops the second run, so the
  // queue must hold the task once, or every later heartbeat reads one high.
  TaskSpec producer = MakeTask();
  TaskSpec consumer = MakeTask();
  consumer.args.push_back(TaskArg::ByRef(producer.ReturnId(0)));
  schedulers_[0]->SubmitPlaced(consumer);
  schedulers_[0]->SubmitPlaced(consumer);
  EXPECT_EQ(schedulers_[0]->QueueLength(), 1u);
  ASSERT_TRUE(schedulers_[1]->Submit(producer).ok());
  ASSERT_TRUE(WaitForExecuted(2));
  int64_t deadline = NowMicros() + 5'000'000;
  while (schedulers_[0]->QueueLength() > 0 && NowMicros() < deadline) {
    SleepMicros(500);
  }
  EXPECT_EQ(schedulers_[0]->QueueLength(), 0u);
  EXPECT_EQ(executed_.load(), 2u) << "the consumer ran twice";
}

TEST_F(SchedulerFixture, HeartbeatReflectsQueueAndResources) {
  exec_sleep_us_ = 50'000;
  schedulers_[0]->SubmitPlaced(MakeTask());
  schedulers_[0]->SubmitPlaced(MakeTask());
  schedulers_[0]->SubmitPlaced(MakeTask());
  SleepMicros(10'000);
  gcs::Heartbeat hb = schedulers_[0]->MakeHeartbeat();
  EXPECT_GE(hb.queue_length, 1u);
  EXPECT_LT(hb.available.Get("CPU"), 2.0);  // workers busy
  EXPECT_DOUBLE_EQ(hb.total.Get("CPU"), 2.0);
  WaitForExecuted(3);
}

// --- GlobalScheduler policy, tested via Place() ---

// OS threads in this process (`Threads:` in /proc/self/status). The test
// compares two readings, so threads a sanitizer runs for itself cancel out.
int64_t ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoll(line.substr(8));
    }
  }
  ADD_FAILURE() << "no Threads: line in /proc/self/status";
  return 0;
}

TEST(SchedulerIdleTest, IdleClusterStartsNoThreadAcrossTenHeartbeats) {
  // perfbench tasks_small's nodes: one carrier and one fetch thread each. The
  // heartbeat hands the stranded-task rescue to the fetch pool only when a
  // task waits or is ready, so an idle node never starts (or wakes) it.
  ClusterConfig config;
  config.num_nodes = 4;
  config.scheduler.total_resources = ResourceSet::Cpu(4);
  config.scheduler.num_workers = 4;
  config.scheduler.num_fiber_carriers = 1;
  config.scheduler.num_fetch_threads = 1;
  Cluster cluster(config);
  int64_t built = ThreadCount();
  SleepMicros(10 * config.scheduler.heartbeat_interval_us);
  EXPECT_EQ(ThreadCount() - built, 0) << "an idle cluster started threads on its heartbeats";
}

class GlobalPlacementTest : public SchedulerFixture {};

TEST_F(GlobalPlacementTest, PrefersNodeHoldingLargeInput) {
  // Object on node 1; candidate nodes idle: locality should win.
  ObjectId big = ObjectId::FromRandom();
  auto buf = std::make_shared<Buffer>(50 << 20);
  stores_[1]->Put(big, buf);
  schedulers_[0]->ReportHeartbeat();
  schedulers_[1]->ReportHeartbeat();

  TaskSpec spec = MakeTask();
  spec.args.push_back(TaskArg::ByRef(big));
  for (int trial = 0; trial < 5; ++trial) {
    auto placed = global_->replica(0).Place(spec);
    ASSERT_TRUE(placed.ok());
    EXPECT_EQ(*placed, schedulers_[1]->node()) << "locality-aware placement must pick the holder";
  }
}

TEST_F(GlobalPlacementTest, PrefersNodeHoldingLargerOfTwoInputs) {
  // Each idle node holds one input: the task must go where less data has to
  // move, whichever order the inputs are listed in.
  ObjectId small = ObjectId::FromRandom();
  ObjectId large = ObjectId::FromRandom();
  stores_[0]->Put(small, std::make_shared<Buffer>(1 << 20));
  stores_[1]->Put(large, std::make_shared<Buffer>(50 << 20));
  schedulers_[0]->ReportHeartbeat();
  schedulers_[1]->ReportHeartbeat();

  for (bool large_first : {false, true}) {
    TaskSpec spec = MakeTask();
    spec.args.push_back(TaskArg::ByRef(large_first ? large : small));
    spec.args.push_back(TaskArg::ByRef(large_first ? small : large));
    for (int trial = 0; trial < 5; ++trial) {
      auto placed = global_->replica(0).Place(spec);
      ASSERT_TRUE(placed.ok());
      EXPECT_EQ(*placed, schedulers_[1]->node()) << "large_first=" << large_first;
    }
  }
}

TEST_F(GlobalPlacementTest, LoadBalancesWithoutLocality) {
  schedulers_[0]->ReportHeartbeat();
  schedulers_[1]->ReportHeartbeat();
  // No inputs: ties broken randomly; over many placements both nodes appear.
  std::set<std::string> chosen;
  for (int i = 0; i < 50; ++i) {
    auto placed = global_->replica(0).Place(MakeTask());
    ASSERT_TRUE(placed.ok());
    chosen.insert(placed->Binary());
  }
  EXPECT_EQ(chosen.size(), 2u) << "equal-wait nodes should share load";
}

TEST_F(GlobalPlacementTest, AvoidsBusyNode) {
  exec_sleep_us_ = 100'000;
  for (int i = 0; i < 6; ++i) {
    schedulers_[0]->SubmitPlaced(MakeTask());
  }
  SleepMicros(30'000);  // heartbeats observe the queue
  schedulers_[0]->ReportHeartbeat();
  schedulers_[1]->ReportHeartbeat();
  for (int trial = 0; trial < 5; ++trial) {
    auto placed = global_->replica(0).Place(MakeTask());
    ASSERT_TRUE(placed.ok());
    EXPECT_EQ(*placed, schedulers_[1]->node()) << "lowest-estimated-wait node must win";
  }
  WaitForExecuted(6, 30'000'000);
}

TEST_F(GlobalPlacementTest, RejectsImpossibleDemand) {
  schedulers_[0]->ReportHeartbeat();
  schedulers_[1]->ReportHeartbeat();
  auto placed = global_->replica(0).Place(MakeTask(ResourceSet{{"TPU", 1}}));
  EXPECT_FALSE(placed.ok());
  EXPECT_EQ(placed.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(GlobalPlacementTest, PrefersNodesWithAvailableResources) {
  // Node 0 has zero available CPU (here a lease holds both; in the wild,
  // pinned actors); node 1 idle. Holding them for real, rather than faking
  // one heartbeat, keeps node 0's own periodic heartbeat truthful mid-test.
  auto held = schedulers_[0]->RequestLease(ResourceSet::Cpu(2));
  ASSERT_NE(held, nullptr);
  schedulers_[0]->ReportHeartbeat();
  schedulers_[1]->ReportHeartbeat();
  for (int trial = 0; trial < 5; ++trial) {
    auto placed = global_->replica(0).Place(MakeTask());
    ASSERT_TRUE(placed.ok());
    EXPECT_EQ(*placed, schedulers_[1]->node());
  }
  schedulers_[0]->ReturnLease(held);
}

}  // namespace
}  // namespace ray
