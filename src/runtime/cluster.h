// The whole system in one object: GCS, simulated network, global scheduler
// replicas, and N nodes. Also home of lineage-based fault tolerance — object
// reconstruction (re-execute the creating task, recursively) and actor
// recovery (re-create on a live node, restore the last checkpoint, replay
// the method log past it). Both walk only GCS state, which is what makes
// every other component stateless and restartable (Section 4.2.1).
#ifndef RAY_RUNTIME_CLUSTER_H_
#define RAY_RUNTIME_CLUSTER_H_

#include <atomic>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/sync.h"
#include "common/thread_pool.h"
#include "gcs/gcs.h"
#include "gcs/monitor.h"
#include "gcs/tables.h"
#include "net/sim_network.h"
#include "runtime/context.h"
#include "runtime/node.h"
#include "scheduler/global_scheduler.h"
#include "task/task_graph.h"

namespace ray {

struct ClusterConfig {
  int num_nodes = 2;
  LocalSchedulerConfig scheduler;  // template applied to every node
  ObjectStoreConfig store;
  gcs::GcsConfig gcs;
  NetConfig net;
  GlobalSchedulerConfig global;
  // Failure detector; it watches for scheduler.heartbeat_interval_us.
  gcs::MonitorConfig monitor;
  int num_global_schedulers = 1;
  uint64_t actor_checkpoint_interval = 0;
  // Mirror every submitted task into an in-memory TaskGraph (debug tooling;
  // off by default as it is global-lock-shared state).
  bool build_task_graph = false;
  // Chaos clock-skew fault: give node i clock domain i+1, so tests can apply
  // per-node offset/drift via dst::SetClockDomainSkew without per-node
  // scheduler configs. Off = every node on the base clock (domain 0).
  bool per_node_clock_domains = false;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  size_t NumNodes() const;
  Node& node(size_t index);
  Node* FindNode(const NodeId& id);

  // Elastic membership (Fig. 11a): add a fresh node (optionally with custom
  // resources) or kill one.
  NodeId AddNode();
  NodeId AddNodeWithResources(const ResourceSet& resources);
  void KillNode(size_t index);
  void KillNode(const NodeId& id);

  // --- registration (published cluster-wide + recorded in the GCS) ---
  template <typename R, typename... Args>
  void RegisterFunction(const std::string& name, R (*fn)(Args...)) {
    functions_.Register(name, fn);
    tables_->functions.RegisterFunction(FunctionId::FromRandom(), name);
  }
  template <typename R, typename... Args>
  void RegisterFunction(const std::string& name, std::function<R(Args...)> fn) {
    functions_.Register(name, std::move(fn));
    tables_->functions.RegisterFunction(FunctionId::FromRandom(), name);
  }
  // Two-output remote function (spec num_returns = 2).
  template <typename R1, typename R2, typename... Args>
  void RegisterFunction2(const std::string& name, std::function<std::pair<R1, R2>(Args...)> fn) {
    functions_.Register2(name, std::move(fn));
    tables_->functions.RegisterFunction(FunctionId::FromRandom(), name);
  }
  template <typename C>
  void RegisterActorClass(const std::string& name) {
    actor_classes_.Register<C>(name);
  }
  // `read_only` methods do not mutate actor state; recovery replay skips
  // their bodies (Section 5.1's annotation).
  template <typename C, typename R, typename... Args>
  void RegisterActorMethod(const std::string& class_name, const std::string& method,
                           R (C::*fn)(Args...), bool read_only = false) {
    actor_classes_.RegisterMethod(class_name, method, fn, read_only);
  }

  // --- submission (used by the Ray API facade) ---
  // Records the task's lineage once, asynchronously, through `from`'s
  // LineageBuffer, then offers it to `from`'s direct transport. A task the
  // lease declines goes to RouteTask.
  Status SubmitTask(const TaskSpec& spec, const NodeId& from);
  // The dispatch half of SubmitTask, for a task already recorded at
  // `submitter`: waits until that record is durable, then routes the task.
  // Plain tasks go bottom-up via the submitter's local scheduler; actor
  // methods are routed to the actor's node, recovering the actor first if its
  // node died. Records nothing.
  Status RouteTask(const TaskSpec& spec, Node& submitter);

  // --- fault tolerance ---
  // Re-executes the lineage needed to reproduce `object` (idempotent; safe
  // to call from fetch threads and concurrent getters). ObjectLost: the walk
  // reached a put object whose recorded replicas are all on dead nodes.
  Status ReconstructObject(const ObjectId& object);
  // Recovers a dead actor: re-runs its creation task (which restores the
  // latest checkpoint if any) and replays the method log past it.
  void RecoverActor(const ActorId& actor);

  // Lineage garbage collection (the Section 7 limitation this repo
  // implements as an extension): deletes the GCS lineage of the tasks that
  // produced `objects` — and, if `transitive`, of their whole ancestry —
  // once those tasks are DONE. Bounds GCS growth for long-running drivers;
  // the collected objects are afterwards only as durable as their replicas
  // (reconstruction is no longer possible). Returns tasks collected.
  size_t CollectLineage(const std::vector<ObjectId>& objects, bool transitive = false);

  gcs::Gcs& gcs() { return *gcs_; }
  gcs::GcsTables& tables() { return *tables_; }
  SimNetwork& net() { return *net_; }
  // Detected liveness — the only source runtime code consults for failure
  // decisions (the network's IsDead stays wire-internal).
  gcs::LivenessView& liveness() { return *liveness_; }
  gcs::GcsMonitor& monitor() { return *monitor_; }
  GlobalSchedulerPool& global_scheduler() { return *global_; }
  LocalSchedulerRegistry& registry() { return registry_; }
  FunctionRegistry& functions() { return functions_; }
  ActorRegistry& actor_classes() { return actor_classes_; }
  TaskGraph* task_graph() { return task_graph_.get(); }
  const ClusterConfig& config() const { return config_; }

 private:
  NodeId AddNodeInternal(const LocalSchedulerConfig& scheduler_config);
  // Routes an actor method to the actor's current node, blocking until the
  // actor has a live location (it may still be being created or recovered).
  Status RouteActorTask(const TaskSpec& spec, const NodeId& from);

  // Death-callback fan-out (runs on a GCS publish worker, so everything it
  // does is a cheap enqueue): nudge every surviving node's store/scheduler
  // and queue actor recovery for the dead node's residents.
  void OnNodeDeath(const NodeId& node);
  void RecoverActorsOn(const NodeId& node);  // runs on recovery_pool_

  // Cluster-event epoch: bumped by death notifications and actor-location
  // publishes so routing/recovery waits wake immediately instead of polling.
  void BumpClusterEvent();
  uint64_t ClusterEventEpoch();
  // Waits until the epoch moves past `seen` or `max_wait_us` elapses;
  // returns the current epoch.
  uint64_t WaitForClusterEvent(uint64_t seen, int64_t max_wait_us);

  ClusterConfig config_;
  std::unique_ptr<gcs::Gcs> gcs_;
  std::unique_ptr<gcs::GcsTables> tables_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<gcs::LivenessView> liveness_;
  std::unique_ptr<gcs::GcsMonitor> monitor_;
  LocalSchedulerRegistry registry_;
  FunctionRegistry functions_;
  ActorRegistry actor_classes_;
  std::unique_ptr<GlobalSchedulerPool> global_;
  std::unique_ptr<ThreadPool> recovery_pool_;
  RuntimeContext rt_;
  std::unique_ptr<TaskGraph> task_graph_;

  mutable Mutex nodes_mu_{"Cluster.nodes_mu"};
  std::vector<std::unique_ptr<Node>> nodes_ GUARDED_BY(nodes_mu_);
  // O(1) id lookup for the per-submit FindNode on the direct-transport fast
  // path. Nodes are never erased from nodes_ (killed ones stay, dead), so
  // entries stay valid for the cluster's lifetime.
  std::unordered_map<NodeId, Node*> node_index_ GUARDED_BY(nodes_mu_);

  Mutex reconstruct_mu_{"Cluster.reconstruct_mu"};
  std::unordered_set<TaskId> reconstructing_ GUARDED_BY(reconstruct_mu_);
  // Put objects already reported lost, so each is logged once.
  std::unordered_set<ObjectId> lost_puts_ GUARDED_BY(reconstruct_mu_);

  Mutex actor_recovery_mu_{"Cluster.actor_recovery_mu"};
  std::unordered_set<ActorId> actors_recovering_ GUARDED_BY(actor_recovery_mu_);

  std::atomic<bool> shutting_down_{false};
  uint64_t death_cb_token_ = 0;

  Mutex event_mu_{"Cluster.event_mu"};
  CondVar event_cv_;
  uint64_t event_epoch_ GUARDED_BY(event_mu_) = 0;

  // Every actor ever created, so a death notification can proactively
  // recover the dead node's residents (instead of waiting for the next
  // method submission to trip over the corpse).
  Mutex known_actors_mu_{"Cluster.known_actors_mu"};
  std::unordered_set<ActorId> known_actors_ GUARDED_BY(known_actors_mu_);
};

}  // namespace ray

#endif  // RAY_RUNTIME_CLUSTER_H_
