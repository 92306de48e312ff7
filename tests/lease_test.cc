// Lease lifecycle edge cases for the direct task transport: revocation with
// tasks still pipelined, lease-holder death mid-submit, renewal racing the
// idle-timeout reaper, spillback when every worker is leased, ready tasks
// riding the node's leases (exactly once, under churn, without revoking
// them), the stranded-task backstop on a fully leased node, the
// async-lineage durability invariant (outputs never visible before the
// producing task's lineage is durable), and the async completion chain
// (a finished task frees its worker at once; kDone commits before a result
// is published; a killed node seals nothing afterwards).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/sync.h"
#include "runtime/api.h"
#include "scheduler/local_scheduler.h"
#include "trace/trace.h"

namespace ray {
namespace {

TaskSpec MakeTask(const ResourceSet& resources = {}) {
  TaskSpec spec;
  spec.id = TaskId::FromRandom();
  spec.function_name = "noop";
  spec.resources = resources;
  return spec;
}

// Waits (bounded) until `done()` holds; returns whether it did.
bool WaitFor(const std::function<bool()>& done, int64_t timeout_us = 30'000'000) {
  int64_t deadline = NowMicros() + timeout_us;
  while (!done()) {
    if (NowMicros() >= deadline) {
      return false;
    }
    SleepMicros(500);
  }
  return true;
}

// --- scheduler-level: one LocalScheduler driven directly -------------------

class LeaseSchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gcs_ = std::make_unique<gcs::Gcs>(gcs::GcsConfig{});
    tables_ = std::make_unique<gcs::GcsTables>(gcs_.get());
    NetConfig net_config;
    net_config.latency_us = 10;
    net_config.control_latency_us = 5;
    net_ = std::make_unique<SimNetwork>(net_config);
  }

  void StartScheduler(const LocalSchedulerConfig& config) {
    node_ = NodeId::FromRandom();
    store_ = std::make_unique<ObjectStore>(node_, tables_.get(), net_.get(), ObjectStoreConfig{});
    scheduler_ = std::make_unique<LocalScheduler>(node_, tables_.get(), net_.get(), store_.get(),
                                                  nullptr, config);
    tables_->nodes.RegisterNode(node_);
    scheduler_->Start(
        [this](const TaskSpec& spec) {
          // A "hold" task keeps its worker until the test lets it go.
          while (spec.function_name == "hold" && !release_holds_.load()) {
            SleepMicros(200);
          }
          SleepMicros(exec_sleep_us_.load());
          {
            MutexLock lock(runs_mu_);
            ++runs_[spec.id];
          }
          executed_.fetch_add(1);
          store_->Put(spec.ReturnId(0), std::make_shared<Buffer>());
        },
        [](const TaskSpec&) {});
  }

  void TearDown() override { release_holds_.store(true); }

  int RunsOf(const TaskId& task) {
    MutexLock lock(runs_mu_);
    auto it = runs_.find(task);
    return it == runs_.end() ? 0 : it->second;
  }

  void WaitExecuted(int n, int64_t timeout_us = 5'000'000) {
    int64_t deadline = NowMicros() + timeout_us;
    while (executed_.load() < n && NowMicros() < deadline) {
      SleepMicros(200);
    }
  }

  std::unique_ptr<gcs::Gcs> gcs_;
  std::unique_ptr<gcs::GcsTables> tables_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<LocalScheduler> scheduler_;
  NodeId node_;
  std::atomic<int> executed_{0};
  std::atomic<int64_t> exec_sleep_us_{0};
  std::atomic<bool> release_holds_{false};
  Mutex runs_mu_{"LeaseSchedulerTest.runs_mu"};
  std::unordered_map<TaskId, int> runs_ GUARDED_BY(runs_mu_);
};

TEST_F(LeaseSchedulerTest, GrantCarvesResourcesAndReleaseReturnsThem) {
  LocalSchedulerConfig config;
  config.total_resources = ResourceSet::Cpu(2);
  StartScheduler(config);

  auto a = scheduler_->RequestLease(ResourceSet::Cpu(1));
  auto b = scheduler_->RequestLease(ResourceSet::Cpu(1));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(scheduler_->NumActiveLeases(), 2u);
  // All CPUs leased: a third grant must be denied (spillback signal).
  EXPECT_EQ(scheduler_->RequestLease(ResourceSet::Cpu(1)), nullptr);

  scheduler_->ReturnLease(a);
  scheduler_->ReturnLease(b);
  EXPECT_EQ(scheduler_->NumActiveLeases(), 0u);
  // Resources are back: a fresh grant succeeds.
  auto c = scheduler_->RequestLease(ResourceSet::Cpu(2));
  ASSERT_NE(c, nullptr);
  scheduler_->ReturnLease(c);
}

TEST_F(LeaseSchedulerTest, RevokeWhilePipelinedRunsQueuedTasksThenReleases) {
  LocalSchedulerConfig config;
  config.total_resources = ResourceSet::Cpu(1);
  config.lease_idle_timeout_us = 60'000'000;  // reaper out of the picture
  StartScheduler(config);
  exec_sleep_us_.store(2'000);

  auto lease = scheduler_->RequestLease(ResourceSet::Cpu(1));
  ASSERT_NE(lease, nullptr);
  const int kTasks = 8;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(scheduler_->SubmitOnLease(lease, MakeTask()));
  }
  // Revoke with most of the pipeline still queued: cooperative revocation
  // must let every already-accepted task run...
  scheduler_->ReturnLease(lease);
  EXPECT_FALSE(scheduler_->SubmitOnLease(lease, MakeTask()));  // ...but no new ones
  WaitExecuted(kTasks);
  EXPECT_EQ(executed_.load(), kTasks);
  // ...and then release the worker's resources exactly once.
  int64_t deadline = NowMicros() + 2'000'000;
  while (scheduler_->NumActiveLeases() > 0 && NowMicros() < deadline) {
    SleepMicros(200);
  }
  EXPECT_EQ(scheduler_->NumActiveLeases(), 0u);
  auto again = scheduler_->RequestLease(ResourceSet::Cpu(1));
  EXPECT_NE(again, nullptr);
  scheduler_->ReturnLease(again);
}

TEST_F(LeaseSchedulerTest, RenewalRacesIdleTimeoutWithoutLosingTasks) {
  LocalSchedulerConfig config;
  config.total_resources = ResourceSet::Cpu(1);
  config.heartbeat_interval_us = 2'000;  // reaper runs often
  config.lease_idle_timeout_us = 1'000;  // and bites almost immediately
  StartScheduler(config);

  // Keep submitting at roughly the idle timeout so renewal (submission
  // updates last_used) races the reaper's revocation. Every accepted task
  // must execute; refusals just mean re-leasing, never a lost task.
  int accepted = 0;
  std::shared_ptr<WorkerLease> lease;
  for (int i = 0; i < 200; ++i) {
    if (lease == nullptr || lease->revoked.load()) {
      lease = scheduler_->RequestLease(ResourceSet::Cpu(1));
    }
    if (lease != nullptr && scheduler_->SubmitOnLease(lease, MakeTask())) {
      ++accepted;
    }
    SleepMicros(500 + (i % 3) * 500);  // straddle the timeout
  }
  ASSERT_GT(accepted, 0);
  WaitExecuted(accepted);
  EXPECT_EQ(executed_.load(), accepted);
  EXPECT_GT(scheduler_->NumLeasesRevoked(), 0u);  // the reaper did fire
  if (lease != nullptr) {
    scheduler_->ReturnLease(lease);
  }
}

TEST_F(LeaseSchedulerTest, ShutdownMidSubmitRefusesAndNeverRunsRefusedTasks) {
  LocalSchedulerConfig config;
  config.total_resources = ResourceSet::Cpu(2);
  StartScheduler(config);
  exec_sleep_us_.store(500);

  auto lease = scheduler_->RequestLease(ResourceSet::Cpu(1));
  ASSERT_NE(lease, nullptr);
  // Submitter thread races a shutdown (the node-death path calls Shutdown).
  std::atomic<bool> stop{false};
  std::atomic<int> ok{0};
  std::thread submitter([&] {
    while (!stop.load()) {
      if (scheduler_->SubmitOnLease(lease, MakeTask())) {
        ok.fetch_add(1);
      } else if (lease->revoked.load()) {
        break;  // shutdown won the race; all further submits must fail
      }
      SleepMicros(100);
    }
  });
  SleepMicros(5'000);
  scheduler_->Shutdown();
  stop.store(true);
  submitter.join();
  // After shutdown every submit fails fast.
  EXPECT_FALSE(scheduler_->SubmitOnLease(lease, MakeTask()));
  // Accepted-before-shutdown tasks may or may not have run (crash-stop), but
  // nothing can execute after Shutdown returned.
  int after = executed_.load();
  SleepMicros(10'000);
  EXPECT_EQ(executed_.load(), after);
}

TEST_F(LeaseSchedulerTest, PlacedTasksRideBusyLeasesWithoutRevokingThem) {
  // Every CPU is leased and both pipelines are busy. Placed tasks must run
  // on those leases: waiting for a revocation would tear down hot pipelines,
  // and this fixture has no global scheduler to re-forward them to.
  LocalSchedulerConfig config;
  config.total_resources = ResourceSet::Cpu(2);
  config.lease_idle_timeout_us = 60'000'000;  // reaper out of the picture
  StartScheduler(config);
  exec_sleep_us_.store(10'000);

  auto a = scheduler_->RequestLease(ResourceSet::Cpu(1));
  auto b = scheduler_->RequestLease(ResourceSet::Cpu(1));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  constexpr int kPipelined = 4;
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(scheduler_->SubmitOnLease(a, MakeTask()));
    ASSERT_TRUE(scheduler_->SubmitOnLease(b, MakeTask()));
  }
  // 36 tasks of 10 ms on two workers span several heartbeat ticks.
  auto& tracer = trace::Tracer::Instance();
  trace::TraceMode trace_mode = tracer.mode();
  tracer.SetMode(trace::TraceMode::kFull);
  constexpr int kPlaced = 28;
  std::vector<TaskSpec> placed;
  for (int i = 0; i < kPlaced; ++i) {
    placed.push_back(MakeTask());
    scheduler_->SubmitPlaced(placed.back());
  }
  WaitExecuted(2 * kPipelined + kPlaced, 20'000'000);
  std::vector<trace::TraceEvent> events = tracer.Snapshot();
  tracer.SetMode(trace_mode);
  EXPECT_EQ(executed_.load(), 2 * kPipelined + kPlaced);
  for (const TaskSpec& spec : placed) {
    EXPECT_EQ(RunsOf(spec.id), 1);
    // A dispatch onto a lease is a queue exit like any other.
    EXPECT_EQ(std::count_if(events.begin(), events.end(),
                            [&](const trace::TraceEvent& e) {
                              return e.stage == trace::Stage::kQueue && e.task == spec.id;
                            }),
              1);
  }
  EXPECT_EQ(scheduler_->NumLeasesRevoked(), 0u) << "a ready task revoked a lease it could ride";
  EXPECT_EQ(scheduler_->NumActiveLeases(), 2u);
  scheduler_->ReturnLease(a);
  scheduler_->ReturnLease(b);
}

TEST_F(LeaseSchedulerTest, RefusedRideRetriesAtTheNextTick) {
  // Two tasks wait on one object and become ready together. Both pick the
  // only lease, which has room for one: the second is refused, goes back to
  // the head of the ready queue, and rides the lease at a later tick.
  LocalSchedulerConfig config;
  config.total_resources = ResourceSet::Cpu(1);
  config.lease_max_inflight = 1;
  config.lease_idle_timeout_us = 60'000'000;  // reaper out of the picture
  StartScheduler(config);
  auto lease = scheduler_->RequestLease(ResourceSet::Cpu(1));
  ASSERT_NE(lease, nullptr);

  ObjectId input = ObjectId::FromRandom();
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 2; ++i) {
    tasks.push_back(MakeTask());
    tasks.back().args.push_back(TaskArg::ByRef(input));
    scheduler_->SubmitPlaced(tasks.back());
  }
  SleepMicros(5'000);
  EXPECT_EQ(executed_.load(), 0);
  store_->Put(input, std::make_shared<Buffer>());
  WaitExecuted(2);
  for (const TaskSpec& spec : tasks) {
    EXPECT_EQ(RunsOf(spec.id), 1);
  }
  EXPECT_EQ(scheduler_->NumLeasesRevoked(), 0u);
  scheduler_->ReturnLease(lease);
}

TEST_F(LeaseSchedulerTest, PlacedTasksRunExactlyOnceAcrossLeaseChurn) {
  // One CPU is held by a classic task for the whole test; the other is
  // fought over by a thread that grants and returns leases while placed
  // tasks dispatch onto whichever lease or free CPU the scheduler picks.
  // A lease returned between its pick and the push must refuse the task,
  // which then runs later, once: never lost, never twice.
  LocalSchedulerConfig config;
  config.total_resources = ResourceSet::Cpu(2);
  StartScheduler(config);

  TaskSpec hold = MakeTask();
  hold.function_name = "hold";
  scheduler_->SubmitPlaced(hold);
  ASSERT_TRUE(WaitFor([&] { return scheduler_->MakeHeartbeat().available.Get("CPU") == 1; },
                      5'000'000));

  std::atomic<bool> stop{false};
  std::atomic<int> granted{0};
  std::thread churn([&] {
    for (int i = 0; !stop.load(); ++i) {
      auto lease = scheduler_->RequestLease(ResourceSet::Cpu(1));
      if (lease != nullptr) {
        granted.fetch_add(1);
      }
      SleepMicros(20 + (i % 4) * 20);
      scheduler_->ReturnLease(lease);
    }
  });
  constexpr int kPlaced = 2'000;
  std::vector<TaskSpec> placed;
  for (int i = 0; i < kPlaced; ++i) {
    placed.push_back(MakeTask());
    scheduler_->SubmitPlaced(placed.back());
    SleepMicros(10);
  }
  WaitExecuted(kPlaced, 30'000'000);
  stop.store(true);
  churn.join();
  release_holds_.store(true);
  WaitExecuted(kPlaced + 1);

  EXPECT_GT(granted.load(), 0) << "the churn thread never held a lease; nothing raced";
  EXPECT_EQ(executed_.load(), kPlaced + 1);
  int wrong = 0;
  for (const TaskSpec& spec : placed) {
    wrong += RunsOf(spec.id) != 1 ? 1 : 0;
  }
  EXPECT_EQ(wrong, 0) << "tasks that did not run exactly once";
  ASSERT_TRUE(WaitFor(
      [&] { return scheduler_->NumActiveLeases() == 0 && scheduler_->QueueLength() == 0; },
      5'000'000));
  EXPECT_EQ(scheduler_->MakeHeartbeat().available.ToString(), config.total_resources.ToString());
}

// --- cluster-level: full runtime over the transport ------------------------

ClusterConfig LeaseClusterConfig(int nodes, int cpus = 2) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.scheduler.total_resources = ResourceSet::Cpu(cpus);
  config.net.latency_us = 10;
  config.net.control_latency_us = 5;
  return config;
}

int EnvInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  return env != nullptr ? std::atoi(env) : fallback;
}

// Kill tests want fast detection, but sanitizer builds run slow enough to
// starve live nodes' heartbeats past a tight window. run_tsan.sh/run_asan.sh
// widen it via these knobs (same idiom as chaos_test).
void SetKillDetection(ClusterConfig& config) {
  config.scheduler.heartbeat_interval_us = EnvInt("RAY_LEASE_HEARTBEAT_US", 2'000);
  config.monitor.miss_threshold = EnvInt("RAY_LEASE_MISS_THRESHOLD", 5);
}

int AddOne(int x) { return x + 1; }

// Builds an add_one(i) spec by hand so kill tests can go through
// Cluster::SubmitTask directly — a Status they may ignore, where Ray::Call
// CHECK-aborts when the submitting node just died under it.
TaskSpec MakeAddOneSpec(int i) {
  TaskSpec spec;
  spec.id = TaskId::FromRandom();
  spec.function_name = "add_one";
  spec.args = {TaskArg::ByValue(SerializeValue(i)->ToString())};
  return spec;
}

TEST(LeaseClusterTest, DirectPathCarriesSteadyStateSubmissions) {
  Cluster cluster(LeaseClusterConfig(1));
  cluster.RegisterFunction("add_one", &AddOne);
  Ray ray = Ray::OnNode(cluster, 0);
  std::vector<ObjectRef<int>> refs;
  for (int i = 0; i < 64; ++i) {
    refs.push_back(ray.Call<int>("add_one", i));
  }
  auto values = ray.GetAll(refs, 10'000'000);
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ((*values)[i], i + 1);
  }
  // The whole batch is dependency-free local work: the transport must have
  // taken (at least most of) it, or the fast path is dead code.
  EXPECT_GT(cluster.node(0).transport().NumDirectSubmits(), 0u);
  EXPECT_GT(cluster.node(0).scheduler().NumLeasesGranted(), 0u);
}

TEST(LeaseClusterTest, SpillbackWhenAllWorkersLeasedStillCompletes) {
  // One CPU per node: the first lease absorbs the node; further parallel
  // submitters must spill to the routed path (and possibly other nodes)
  // rather than deadlock on lease denial.
  Cluster cluster(LeaseClusterConfig(2, /*cpus=*/1));
  cluster.RegisterFunction("add_one", &AddOne);
  Ray ray = Ray::OnNode(cluster, 0);
  std::vector<ObjectRef<int>> refs;
  for (int i = 0; i < 48; ++i) {
    refs.push_back(ray.Call<int>("add_one", i));
  }
  auto values = ray.GetAll(refs, 20'000'000);
  ASSERT_TRUE(values.ok()) << values.status().ToString();
  for (int i = 0; i < 48; ++i) {
    EXPECT_EQ((*values)[i], i + 1);
  }
}

// Registers "hold" (sleeps its argument, in microseconds) and "where"
// (returns the hex id of the node it ran on, ignoring its input).
void RegisterHoldAndWhere(Cluster& cluster) {
  cluster.RegisterFunction("hold", std::function<int(int)>([](int us) {
                             SleepMicros(us);
                             return us;
                           }));
  cluster.RegisterFunction("where", std::function<std::string(std::string)>([](std::string) {
                             return Ray::Current().home().Hex();
                           }));
}

// Submits two 300 ms tasks from node 0; the transport grows to two leases,
// which hold both of node 0's CPUs until the tasks finish.
std::vector<ObjectRef<int>> LeaseBothCpus(Cluster& cluster) {
  Ray ray = Ray::OnNode(cluster, 0);
  std::vector<ObjectRef<int>> holds;
  for (int i = 0; i < 2; ++i) {
    holds.push_back(ray.Call<int>("hold", 300'000));
  }
  return holds;
}

TEST(LeaseClusterTest, RemoteInputTaskRidesALeaseOfItsFullyLeasedNode) {
  // Node 0's CPUs are all leased. A task submitted there whose input lives on
  // node 1 waits for that input and then runs on one of the leases: leases
  // must not make the node look full to itself (bottom-up scheduling spills
  // only when the node is overloaded or cannot satisfy the task).
  ClusterConfig config = LeaseClusterConfig(2);
  config.scheduler.lease_idle_timeout_us = 60'000'000;  // reaper out of the picture
  Cluster cluster(config);
  RegisterHoldAndWhere(cluster);
  LocalScheduler& node0 = cluster.node(0).scheduler();
  std::vector<ObjectRef<int>> holds = LeaseBothCpus(cluster);
  ASSERT_EQ(node0.NumActiveLeases(), 2u);
  ASSERT_EQ(node0.MakeHeartbeat().available.Get("CPU"), 0);

  ObjectRef<std::string> input = Ray::OnNode(cluster, 1).Put(std::string("on node 1"));
  uint64_t spilled = node0.NumSpilledToGlobal();
  uint64_t revoked = node0.NumLeasesRevoked();
  Ray ray = Ray::OnNode(cluster, 0);
  auto where = ray.Get(ray.Call<std::string>("where", input), 10'000'000);
  ASSERT_TRUE(where.ok()) << where.status().ToString();
  EXPECT_EQ(*where, cluster.node(0).id().Hex()) << "the task left its submitter's node";
  EXPECT_EQ(node0.NumSpilledToGlobal(), spilled);
  EXPECT_EQ(node0.NumLeasesRevoked(), revoked);
  ASSERT_TRUE(ray.GetAll(holds, 10'000'000).ok());
}

TEST(LeaseClusterTest, StrandedBackstopWaitsWhileLeasedWorkRuns) {
  // A 2-CPU task on a 1-node cluster whose CPUs are leased by running work:
  // no lease can carry it, but the leased work will free the CPUs, so the
  // stranded-task backstop must wait its window instead of bouncing the task
  // through the global scheduler on every heartbeat tick.
  Cluster cluster(LeaseClusterConfig(1));
  RegisterHoldAndWhere(cluster);
  LocalScheduler& node0 = cluster.node(0).scheduler();
  std::vector<ObjectRef<int>> holds = LeaseBothCpus(cluster);
  ASSERT_EQ(node0.MakeHeartbeat().available.Get("CPU"), 0);

  uint64_t spilled = node0.NumSpilledToGlobal();
  Ray ray = Ray::OnNode(cluster, 0);
  ObjectRef<int> big = ray.CallWithResources<int>("hold", ResourceSet::Cpu(2), 0);
  SleepMicros(150'000);
  // One spill is the submit itself: no lease or free CPU fits it.
  EXPECT_LE(node0.NumSpilledToGlobal(), spilled + 1) << "re-forwarded on every tick";
  auto done = ray.Get(big, 10'000'000);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_TRUE(ray.GetAll(holds, 10'000'000).ok());
}

TEST(LeaseClusterTest, LeaseHolderDeathMidSubmitReclaimsAndRecovers) {
  ClusterConfig config = LeaseClusterConfig(3);
  SetKillDetection(config);
  Cluster cluster(config);
  cluster.RegisterFunction("add_one", &AddOne);

  // Drive submissions from node 1 while node 1 is killed mid-stream: the
  // transport's leases die with the scheduler; submits must fail fast (or
  // succeed-before-kill), never hang, and the cluster stays usable.
  NodeId doomed = cluster.node(1).id();
  std::atomic<bool> stop{false};
  std::thread killer([&] {
    SleepMicros(3'000);
    cluster.KillNode(1);
    stop.store(true);
  });
  int submitted = 0;
  while (!stop.load() && submitted < 10'000) {
    // Status intentionally ignored: failing fast once the node dies is the
    // contract; hanging or crashing is the bug this test hunts.
    (void)cluster.SubmitTask(MakeAddOneSpec(submitted), doomed);
    ++submitted;
  }
  killer.join();
  EXPECT_GT(submitted, 0);

  // Survivor nodes still schedule and execute through their own transports.
  Ray ray = Ray::OnNode(cluster, 0);
  auto v = ray.Get(ray.Call<int>("add_one", 41), 10'000'000);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, 42);
}

TEST(LeaseClusterTest, LineageDurableBeforeOutputsVisibleAcrossKill) {
  // The async-lineage invariant: any task whose output became visible must
  // have durable lineage (its spec readable from the GCS) — even when the
  // submitting node is killed with lineage flushes still in flight.
  ClusterConfig config = LeaseClusterConfig(2);
  SetKillDetection(config);
  Cluster cluster(config);
  cluster.RegisterFunction("add_one", &AddOne);

  NodeId doomed = cluster.node(0).id();
  std::vector<ObjectId> refs;
  std::thread killer([&] {
    // Kill only once a worker has picked up a task: a kill that races ahead
    // of every task leaves nothing visible to audit.
    int64_t deadline = NowMicros() + 10'000'000;
    while (cluster.node(0).scheduler().NumTasksExecuted() == 0 && NowMicros() < deadline) {
      SleepMicros(100);
    }
    SleepMicros(2'000);
    cluster.KillNode(0);
  });
  for (int i = 0; i < 5'000; ++i) {
    TaskSpec spec = MakeAddOneSpec(i);
    if (cluster.SubmitTask(spec, doomed).ok()) {
      refs.push_back(spec.ReturnId(0));
    }
    if (!cluster.node(0).IsAlive()) {
      break;
    }
  }
  killer.join();

  int visible = 0;
  for (const ObjectId& ref : refs) {
    auto locations = cluster.tables().objects.GetLocations(ref);
    bool output_visible = locations.ok() && !locations->locations.empty();
    auto task = cluster.tables().objects.GetCreatingTask(ref);
    bool done = false;
    if (task.ok()) {
      auto state = cluster.tables().tasks.GetState(*task);
      done = state.ok() && state->first == gcs::TaskState::kDone;
    }
    if (!output_visible && !done) {
      continue;  // never became visible; the invariant says nothing
    }
    ++visible;
    ASSERT_TRUE(task.ok()) << "visible output with no creating-task record";
    auto spec = cluster.tables().tasks.GetSpec(*task);
    ASSERT_TRUE(spec.ok()) << "visible output but lineage spec not durable";
    EXPECT_FALSE(spec->empty());
  }
  EXPECT_GT(visible, 0) << "kill raced ahead of every task; test proved nothing";
}


// Sanitizer builds run a worker's own per-task code about ten times slower,
// so they stretch the modelled hop to keep one chain round well above it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr int64_t kPipelineHopUs = 10'000;
#else
constexpr int64_t kPipelineHopUs = 2'000;
#endif

TEST(LeaseClusterTest, FinishedTaskFreesItsWorkerBeforeItsCompletionCommits) {
  // One carrier, one lease: 20 tasks run back to back on one worker fiber.
  // Their completions (lineage durable, kDone, seal, location) are GCS write
  // callbacks, so the worker starts the next task without waiting out a
  // single chain round. A worker that committed each completion itself would
  // spend at least two rounds per task.
  ClusterConfig config = LeaseClusterConfig(1, /*cpus=*/1);
  config.scheduler.num_fiber_carriers = 1;
  config.gcs.chain.hop_latency_us = kPipelineHopUs;
  const int64_t round_us = config.gcs.chain.num_replicas * config.gcs.chain.hop_latency_us;
  // Declared before the cluster: its teardown may still run a task.
  constexpr int kTasks = 20;
  std::vector<std::atomic<int64_t>> started(kTasks);
  std::atomic<bool> gate{false};
  Cluster cluster(config);
  cluster.RegisterFunction("stamp", std::function<int(int)>([&](int i) {
                             // The first task holds the worker until all 20 sit
                             // in the lease's pipeline, so the spread measures
                             // the worker, not the submitter.
                             int64_t deadline = NowMicros() + 10'000'000;
                             while (i == 0 && !gate.load() && NowMicros() < deadline) {
                               SleepMicros(100);
                             }
                             started[i].store(NowMicros());
                             return i;
                           }));
  Ray ray = Ray::OnNode(cluster, 0);
  // Best of three batches: on a loaded host the OS can take the carrier
  // thread away for longer than a round in any one batch.
  int64_t best_us = std::numeric_limits<int64_t>::max();
  int batches = 0;
  for (; batches < 3 && best_us >= round_us; ++batches) {
    gate.store(false);
    std::vector<ObjectRef<int>> refs;
    for (int i = 0; i < kTasks; ++i) {
      refs.push_back(ray.Call<int>("stamp", i));
    }
    gate.store(true);
    auto values = ray.GetAll(refs, 30'000'000);
    ASSERT_TRUE(values.ok()) << values.status().ToString();
    int64_t first = started[0].load();
    int64_t last = first;
    for (auto& t : started) {
      last = std::max(last, t.load());
    }
    best_us = std::min(best_us, last - first);
  }
  EXPECT_EQ(cluster.node(0).transport().NumDirectSubmits(),
            static_cast<uint64_t>(batches * kTasks))
      << "every task must ride the one lease";
  EXPECT_LT(best_us, round_us) << "the worker waited on a completion's GCS round";
}

TEST(LeaseClusterTest, ResultLocationPublishesOnlyAfterKDoneAndLineageCommit) {
  // The completion chain's order, observed from the GCS: whoever is woken by
  // a result's location must already read the producing task as kDone, with
  // its spec durable.
  ClusterConfig config = LeaseClusterConfig(1);
  config.gcs.chain.hop_latency_us = 1'000;
  constexpr int kTasks = 300;
  config.scheduler.lease_max_inflight = kTasks;  // every submit can be leased
  // Declared before the cluster: its teardown may still deliver a publish.
  std::atomic<int> seen{0};
  std::atomic<int> not_done{0};
  std::atomic<int> no_spec{0};
  Cluster cluster(config);
  cluster.RegisterFunction("add_one", &AddOne);
  NodeId node = cluster.node(0).id();
  auto& tables = cluster.tables();

  std::vector<std::pair<ObjectId, uint64_t>> subscriptions;
  for (int i = 0; i < kTasks; ++i) {
    TaskSpec spec = MakeAddOneSpec(i);
    TaskId task = spec.id;
    uint64_t token = tables.objects.SubscribeLocations(
        spec.ReturnId(0), [&, task](const ObjectId&, const NodeId&) {
          auto state = tables.tasks.GetState(task);
          if (!state.ok() || state->first != gcs::TaskState::kDone) {
            not_done.fetch_add(1);
          }
          if (!tables.tasks.GetSpec(task).ok()) {
            no_spec.fetch_add(1);
          }
          seen.fetch_add(1);
        });
    subscriptions.emplace_back(spec.ReturnId(0), token);
    ASSERT_TRUE(cluster.SubmitTask(spec, node).ok());
  }
  bool all_seen = WaitFor([&] { return seen.load() >= kTasks; });
  for (const auto& [object, token] : subscriptions) {
    tables.objects.UnsubscribeLocations(object, token);
  }
  ASSERT_TRUE(all_seen) << seen.load() << " of " << kTasks << " results published";
  EXPECT_EQ(not_done.load(), 0) << "a result was published before its task's kDone committed";
  EXPECT_EQ(no_spec.load(), 0) << "a result was published before its lineage was durable";
  EXPECT_GT(cluster.node(0).transport().NumDirectSubmits(), static_cast<uint64_t>(kTasks / 2));
}

TEST(LeaseClusterTest, KillWithCompletionsInFlightSealsNothingAfterwards) {
  // Completions queued behind slow GCS rounds hold the node across Kill:
  // Kill must drain them, and any that commit after the crash must leave the
  // dead node's store empty.
  ClusterConfig config = LeaseClusterConfig(2);
  config.gcs.chain.hop_latency_us = 5'000;
  constexpr int kTasks = 20;
  config.scheduler.lease_max_inflight = kTasks;
  const int64_t round_us = config.gcs.chain.num_replicas * config.gcs.chain.hop_latency_us;
  std::atomic<int> finished{0};  // before the cluster: its teardown may run a task
  Cluster cluster(config);
  cluster.RegisterFunction("count", std::function<int(int)>([&](int i) {
                             finished.fetch_add(1);
                             return i;
                           }));
  Node& doomed = cluster.node(1);
  for (int i = 0; i < kTasks; ++i) {
    TaskSpec spec = MakeAddOneSpec(i);
    spec.function_name = "count";
    ASSERT_TRUE(cluster.SubmitTask(spec, doomed.id()).ok());
  }
  ASSERT_TRUE(WaitFor([&] { return finished.load() >= kTasks; }));
  // Each completion still needs three rounds (lineage, kDone, location).
  ASSERT_LT(doomed.store().NumObjects(), static_cast<size_t>(kTasks))
      << "every completion committed before the kill; the test proved nothing";
  cluster.KillNode(1);
  EXPECT_EQ(doomed.store().NumObjects(), 0u);
  SleepMicros(5 * round_us);
  EXPECT_EQ(doomed.store().NumObjects(), 0u) << "a completion sealed into a dead node's store";
}


TEST(LeaseClusterTest, TeardownDrainsCompletionsInFlight) {
  // Graceful teardown with completions still queued behind slow GCS rounds:
  // their callbacks hold the node, so ~Node must drain them before its
  // members die. The ASan build reports a callback that touches a freed node.
  ClusterConfig config = LeaseClusterConfig(1);
  config.gcs.chain.hop_latency_us = 5'000;
  constexpr int kTasks = 20;
  config.scheduler.lease_max_inflight = kTasks;
  std::atomic<int> finished{0};  // before the cluster: its teardown may run a task
  auto cluster = std::make_unique<Cluster>(config);
  cluster->RegisterFunction("count", std::function<int(int)>([&](int i) {
                              finished.fetch_add(1);
                              return i;
                            }));
  NodeId node = cluster->node(0).id();
  for (int i = 0; i < kTasks; ++i) {
    TaskSpec spec = MakeAddOneSpec(i);
    spec.function_name = "count";
    ASSERT_TRUE(cluster->SubmitTask(spec, node).ok());
  }
  ASSERT_TRUE(WaitFor([&] { return finished.load() >= kTasks; }));
  ASSERT_LT(cluster->node(0).store().NumObjects(), static_cast<size_t>(kTasks))
      << "every completion committed before teardown; the test proved nothing";
  cluster.reset();
}

}  // namespace
}  // namespace ray
