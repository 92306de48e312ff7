// One cluster node (Fig. 5): an object store, a local scheduler with its
// worker pool, and the actors hosted here. The node implements task
// execution: resolving argument buffers from the store, invoking the
// registered function, and sealing outputs back into the store. Actor
// methods run on a dedicated fiber per actor, serially, in stateful-edge
// order (ordering is enforced by the cursor-object dependency, so the
// mailbox never sees a method before its predecessor's cursor is sealed).
// Actor fibers are multiplexed on the local scheduler's carrier threads, so
// a node can host 100k+ resident actors: an idle actor costs one parked
// fiber (a few KB of stack) rather than an OS thread.
#ifndef RAY_RUNTIME_NODE_H_
#define RAY_RUNTIME_NODE_H_

#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/fiber.h"
#include "common/id.h"
#include "common/queue.h"
#include "common/sync.h"
#include "gcs/tables.h"
#include "objectstore/object_store.h"
#include "runtime/context.h"
#include "runtime/direct_transport.h"
#include "scheduler/local_scheduler.h"
#include "task/task_spec.h"

namespace ray {

class Node {
 public:
  Node(const RuntimeContext* rt, const LocalSchedulerConfig& scheduler_config,
       const ObjectStoreConfig& store_config);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  void Start();

  // Simulates node failure (crash-stop): the wire goes dark, in-memory store
  // contents vanish, and queued/running work stops. The node never
  // self-reports death — the GCS monitor detects the missing heartbeats and
  // marks it dead after the configured threshold.
  void Kill();

  bool IsAlive() const { return alive_.load(std::memory_order_acquire); }
  const NodeId& id() const { return id_; }
  ObjectStore& store() { return *store_; }
  LocalScheduler& scheduler() { return *scheduler_; }
  // Caller-side direct task transport for tasks submitted from this node.
  DirectTaskTransport& transport() { return *transport_; }

  // Number of actor method invocations executed on this node (for tests and
  // the Fig. 11b replay accounting).
  uint64_t NumActorMethodsExecuted() const { return actor_methods_executed_.load(); }
  size_t NumLiveActors() const;

 private:
  struct LiveActor {
    ActorId id;
    const ActorClass* cls = nullptr;
    std::shared_ptr<void> instance;
    ResourceSet held_resources;
    BlockingQueue<TaskSpec> mailbox;
    std::shared_ptr<fiber::Fiber> fiber;
    // Highest method index already applied to this instance. Methods are
    // logged in the GCS and both recovery replay and routing retries can
    // deliver a method twice; skipping duplicates gives the paper's
    // exactly-once semantics (Section 6, actor comparison).
    uint64_t last_call_index = 0;
  };

  // Worker-thread entry point for plain tasks and actor creations.
  void ExecuteTask(const TaskSpec& spec);
  // Finishes a plain task without holding its worker: once the task's
  // lineage is durable, commits `state` (kDone or kLost) asynchronously, and
  // once that commits, seals `outputs` as the task's returns and publishes
  // their locations. The steps run as a chain of GCS write callbacks.
  void CompleteTask(const TaskId& task, gcs::TaskState state, std::vector<BufferPtr> outputs);
  // Blocks until no completion chain holds `this`. Kill and ~Node call it
  // after the workers are joined and before the store is cleared or freed.
  void DrainCompletions();
  // Non-blocking handoff of an actor method to its mailbox.
  void DispatchActorTask(const TaskSpec& spec);
  void ActorLoop(LiveActor* actor);
  // Closes all mailboxes, joins the actor fibers, and clears the map. Must
  // run before scheduler_->Shutdown(): actor fibers live on its carriers.
  void StopActors();
  void ExecuteActorMethod(LiveActor* actor, const TaskSpec& spec);
  void CreateActorInstance(const TaskSpec& spec);
  // Gathers argument buffers: inline values wrap directly; references read
  // from the local store (they are local by the dispatch invariant).
  Status ResolveArgs(const TaskSpec& spec, std::vector<BufferPtr>* out);

  const RuntimeContext* rt_;
  NodeId id_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<LocalScheduler> scheduler_;
  // Declared after scheduler_ (destroyed first): its destructor returns
  // leases to the scheduler and drains the lineage buffer.
  std::unique_ptr<DirectTaskTransport> transport_;
  std::atomic<bool> alive_{true};
  std::atomic<uint64_t> actor_methods_executed_{0};

  Mutex completions_mu_{"Node.completions_mu"};
  CondVar completions_cv_;
  // CompleteTask chains whose last callback has not yet run.
  size_t completions_inflight_ GUARDED_BY(completions_mu_) = 0;

  mutable Mutex actors_mu_{"Node.actors_mu"};
  std::unordered_map<ActorId, std::unique_ptr<LiveActor>> actors_ GUARDED_BY(actors_mu_);
};

}  // namespace ray

#endif  // RAY_RUNTIME_NODE_H_
