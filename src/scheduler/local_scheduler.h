// Per-node local scheduler (Section 4.2.2). Event-driven state machine:
//
//   Submit ──(fits here, not overloaded)──> waiting ──(deps local)──> ready
//      │                                                                │
//      └─(overloaded / unsatisfiable)─> global scheduler      dispatch ─┴─> worker / actor mailbox
//
// Tasks are submitted bottom-up: created at this node, they are queued here
// unless the node is overloaded (queue above a threshold) or lacks the
// required resources, in which case they spill to the global scheduler.
// Dependency management is GCS-driven: each missing input registers an
// Object Table subscription; when a location is published anywhere in the
// cluster the scheduler starts an asynchronous pull into the local store
// (ObjectStore::PullAsync — completion arrives as a callback, no fetch
// thread is parked per transfer), and tasks whose inputs are all local
// become ready. Dispatch is resource-gated (CPU/GPU). In steady state the
// node's CPUs are held by worker leases (direct transport), so a plain task
// "fits here" also when a lease of its shape has pipeline room, and dispatch
// then puts it on that lease instead of waiting for a revocation.
//
// Locking (control-plane fast path PR): the old single big lock is split in
// two so dependency resolution and dispatch do not serialize against each
// other. `deps_mu_` guards the waiting-side state (waiting_, blocked_on_,
// subscriptions_, fetching_); `dispatch_mu_` guards the dispatch-side state
// (ready_, available_, running_). Handing tasks to workers / actor mailboxes
// happens outside both locks, and queue-length counters are atomics so
// Submit's overload check and heartbeats never contend with dispatch.
#ifndef RAY_SCHEDULER_LOCAL_SCHEDULER_H_
#define RAY_SCHEDULER_LOCAL_SCHEDULER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/fiber.h"
#include "common/id.h"
#include "common/metrics.h"
#include "common/queue.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "gcs/monitor.h"
#include "gcs/tables.h"
#include "net/sim_network.h"
#include "objectstore/object_store.h"
#include "scheduler/global_scheduler.h"
#include "scheduler/registry.h"
#include "task/task_spec.h"
#include "trace/trace.h"

namespace ray {

struct LocalSchedulerConfig {
  ResourceSet total_resources = ResourceSet::Cpu(4);
  // Queue length beyond which new locally-submitted tasks spill to the
  // global scheduler (the "bottom-up" threshold).
  size_t spillover_queue_threshold = 16;
  int64_t heartbeat_interval_us = 20'000;
  // Ablation: send every submission through the global scheduler.
  bool always_forward_to_global = false;
  int num_fetch_threads = 2;
  int num_workers = 0;  // 0 = derive from CPU resource
  // Carrier threads for the fiber runtime that hosts worker loops and actor
  // loops. 0 = the fiber runtime's default (max(2, hardware concurrency)).
  // Workers and actors are fibers, so this — not num_workers — is the node's
  // OS-thread footprint for execution.
  int num_fiber_carriers = 0;
  // Clock domain (common/dst.h) the heartbeat reporter runs in. Non-zero
  // domains can carry offset/drift skew — the chaos clock-skew fault — so a
  // node's heartbeat cadence stretches or shifts relative to the GCS
  // monitor's clock. 0 = the base clock (no skew possible).
  uint32_t clock_domain = 0;

  // --- direct task transport (worker leasing) ---
  // Allow callers to lease workers and pipeline tasks past the per-task
  // scheduler hop (RequestLease / SubmitOnLease). The classic Submit path is
  // unaffected either way; off for the routed-vs-leased ablation.
  bool enable_leasing = true;
  // Max tasks queued + running on one lease (pipelining depth). SubmitOnLease
  // refuses beyond this and the caller falls back to the routed path, which
  // is the transport's backpressure.
  size_t lease_max_inflight = 64;
  // A lease with no submissions for this long is revoked by the heartbeat
  // reaper (the idle-timeout return); submitting renews it.
  int64_t lease_idle_timeout_us = 100'000;
};

// A leased worker slot: `shape` is carved out of the node's available
// resources at grant time and comes back when the lease is released. Tasks
// pipelined onto the lease run serially, in submission order, on one worker
// thread at a time — a lease models one worker, the way production Ray's
// direct task transport leases a worker process. The scheduler owns every
// lease and picks which one a task rides (LocalScheduler::ChooseLease), for
// direct submits and for ready tasks alike. Lifecycle:
//
//   granted ──SubmitOnLease*──> active ──idle / pressure / return / death──> revoked
//          revoked && inflight drained ──> released (resources back, erased)
//
// Pressure is a ready task that neither fits the free resources nor rides a
// lease (another shape, or an actor creation). Revocation is cooperative:
// tasks already pipelined still run; new submits are refused. The release
// handshake is lock-free — whoever observes "revoked && inflight == 0"
// claims the release via `released` (see LocalScheduler::SubmitOnLease /
// ReturnLease for the seq_cst protocol).
struct WorkerLease {
  uint64_t id = 0;
  ResourceSet shape;
  size_t max_inflight = 0;
  // Queued + executing tasks on this lease.
  std::atomic<int64_t> inflight{0};
  std::atomic<bool> revoked{false};
  std::atomic<bool> released{false};
  // Last SubmitOnLease, microseconds; submitting is how a caller renews.
  std::atomic<int64_t> last_used_us{0};

  Mutex mu{"WorkerLease.mu"};
  std::deque<TaskSpec> pipeline GUARDED_BY(mu);
  // A worker thread is currently draining `pipeline` (serial execution).
  bool active GUARDED_BY(mu) = false;
};

class LocalScheduler {
 public:
  // Runs a plain task to completion; called on a scheduler worker thread.
  using Executor = std::function<void(const TaskSpec&)>;
  // Hands an actor method to its actor mailbox; must not block.
  using ActorDispatcher = std::function<void(const TaskSpec&)>;
  // Called when an input object cannot be fetched because every replica is
  // on a dead node — the runtime triggers lineage reconstruction and returns
  // its status. ObjectLost means nothing can rebuild the object.
  using ObjectUnreachableHandler = std::function<Status(const ObjectId&)>;
  // Receives each task that waited on an object reported lost; it no longer
  // waits here, and the runtime completes it kLost.
  using TaskLostHandler = std::function<void(const TaskSpec&)>;

  // `liveness` (optional) is the failure detector's view, used when deciding
  // whether a missing object's replicas/producer are gone for good. Null
  // means assume-alive (standalone schedulers in tests).
  LocalScheduler(const NodeId& node, gcs::GcsTables* tables, SimNetwork* net, ObjectStore* store,
                 GlobalSchedulerPool* global, const LocalSchedulerConfig& config,
                 gcs::LivenessView* liveness = nullptr);
  ~LocalScheduler();

  LocalScheduler(const LocalScheduler&) = delete;
  LocalScheduler& operator=(const LocalScheduler&) = delete;

  void Start(Executor executor, ActorDispatcher actor_dispatcher);
  void Shutdown();

  // Bottom-up entry point for tasks created on this node. Keeps the task here
  // when available_ fits it or a lease of its shape has room (leases hold the
  // node's CPUs in steady state, so counting only available_ would spill it).
  // Writes no task state: the task's lineage record already names this node.
  Status Submit(const TaskSpec& spec);
  // Entry point for tasks placed here by the global scheduler or routed here
  // because this node hosts the target actor; never spills. Records in the
  // Task Table that this node holds the task (kPending here), so
  // reconstruction can tell it from one lost with a dead node's queue.
  void SubmitPlaced(const TaskSpec& spec);

  // --- direct task transport (worker leasing) ---
  // Pipelines a dependency-satisfied plain task onto the lease ChooseLease
  // picks for its demand. False when no lease can take it — the caller then
  // routes the task classically.
  bool SubmitDirect(const TaskSpec& spec);
  // Grants a lease carving `shape` out of this node's available resources.
  // Null when leasing is disabled, the node is shutting down, tasks are
  // already waiting for resources (leases must not starve them), or the
  // shape does not fit — the caller then uses the routed path (spillback).
  std::shared_ptr<WorkerLease> RequestLease(const ResourceSet& shape);
  // Pipelines a dependency-satisfied plain task onto `lease` with no
  // scheduler-queue hop. False when the lease is revoked or at
  // max_inflight — the caller must route classically.
  bool SubmitOnLease(const std::shared_ptr<WorkerLease>& lease, const TaskSpec& spec);
  // Caller-side return (also the revocation entry point). Pipelined tasks
  // still run; resources come back when the last one finishes. Idempotent.
  void ReturnLease(const std::shared_ptr<WorkerLease>& lease);
  // Called by a task that is about to block on an object (nested ray.get).
  // If the calling thread is draining a lease pipeline, the lease is revoked
  // and its queued (not yet running) tasks are drained and returned — the
  // caller must re-route them, or they would deadlock behind the blocked
  // head when they are the very tasks it is waiting for. No-op (empty
  // result) on non-lease threads.
  std::vector<TaskSpec> NotifyWorkerBlocked();

  size_t NumActiveLeases() const;
  uint64_t NumLeasesGranted() const { return leases_granted_.load(std::memory_order_relaxed); }
  uint64_t NumLeasesRevoked() const { return leases_revoked_.load(std::memory_order_relaxed); }
  // Subset of NumLeasesRevoked: busy leases torn down by pressure when no
  // idle lease was left to take. Ready tasks of a lease's shape ride it, so a
  // steady same-shape workload keeps this at 0.
  uint64_t NumBusyLeasesRevoked() const {
    return leases_revoked_busy_.load(std::memory_order_relaxed);
  }

  // The fiber runtime hosting this node's worker and actor fibers. Alive
  // from construction until Shutdown(); Node spawns actor loops onto it.
  fiber::FiberScheduler& fibers() { return *fibers_; }

  void SetObjectUnreachableHandler(ObjectUnreachableHandler handler, TaskLostHandler on_lost);

  size_t QueueLength() const;
  gcs::Heartbeat MakeHeartbeat() const;
  const NodeId& node() const { return node_; }
  const ResourceSet& total_resources() const { return config_.total_resources; }
  bool leasing_enabled() const { return config_.enable_leasing; }
  uint64_t NumTasksExecuted() const { return tasks_executed_.load(std::memory_order_relaxed); }
  uint64_t NumSpilledToGlobal() const { return spilled_.load(std::memory_order_relaxed); }

  // Publishes a heartbeat right now (also called periodically).
  void ReportHeartbeat();

  // Failure-detector notification: `node` was declared dead. Re-kicks the
  // fetch of every object this node is blocked on, so lost-replica /
  // lost-producer detection runs now instead of at the next heartbeat tick.
  // Cheap (pool submits); safe to call from a death callback.
  void OnPeerDeath(const NodeId& node);

 private:
  struct PendingTask {
    TaskSpec spec;
    std::unordered_set<ObjectId> missing;
    int64_t enqueued_us = 0;  // dep-wait span start (trace)
  };
  struct ReadyTask {
    TaskSpec spec;
    int64_t ready_at_us = 0;
  };
  // One unit of worker-queue work: a resource-gated task from the classic
  // dispatch path (lease == nullptr), or a run-token telling a worker to
  // drain `lease`'s pipeline serially.
  struct DispatchItem {
    TaskSpec spec;
    std::shared_ptr<WorkerLease> lease;
  };

  void Enqueue(const TaskSpec& spec);
  // Moves ready tasks to workers / actor mailboxes while resources allow, and
  // a plain task that does not fit onto a lease of its shape. Takes
  // dispatch_mu_ internally; the handoff itself runs unlocked.
  void TryDispatch();
  // The one lease chooser: the least-loaded live lease of exactly `shape`
  // with pipeline room, or a fresh grant while every such lease is busy and
  // fewer than lease_cap_ exist. Null when nothing can carry the task.
  std::shared_ptr<WorkerLease> ChooseLease(const ResourceSet& shape);
  // ChooseLease without the grant; `live` (optional) receives the number of
  // unrevoked leases of `shape`.
  std::shared_ptr<WorkerLease> PickLeaseLocked(const ResourceSet& shape, size_t* live = nullptr)
      REQUIRES(dispatch_mu_);
  // Marks `object` locally available; promotes tasks waiting on it.
  void OnObjectLocal(const ObjectId& object);
  // Ensures a subscription + fetch attempt exists for `object`.
  void EnsureFetch(const ObjectId& object);
  // Kicks an asynchronous pull (deduped per object); returns immediately.
  void FetchJob(const ObjectId& object);
  // Pull-completion callback. Success promotes dependents inline; failure is
  // bounced to fetch_pool_ so lineage checks never block the pull loop.
  void OnPullDone(const ObjectId& object, int64_t start_us, Status status);
  // Decides between retry (a live replica appeared since the failure) and
  // reconstruction (producer or every replica dead). Runs on fetch_pool_.
  void HandlePullFailure(const ObjectId& object, const Status& status);
  // Removes and returns every task waiting on `object`, and drops the
  // fetches no remaining task waits for.
  std::vector<TaskSpec> DropTasksWaitingOn(const ObjectId& object);
  void WorkerLoop();
  void HeartbeatLoop();
  void RescueStrandedTasks();
  void FinishTask(const TaskSpec& spec, double duration_s);
  // Serially executes `lease`'s pipelined tasks until it is empty.
  void RunLeasePipeline(const std::shared_ptr<WorkerLease>& lease);
  // Returns shape to available_ and erases the lease; single-claim via
  // lease->released, so concurrent finish/revoke observers are safe.
  void MaybeReleaseLease(const std::shared_ptr<WorkerLease>& lease);
  // Scheduler-side revocation (reaper / pressure); counts in leases_revoked_.
  void RevokeLease(const std::shared_ptr<WorkerLease>& lease);
  // Heartbeat-cadence reaper: revokes leases idle past lease_idle_timeout_us.
  void ReapLeases();

  NodeId node_;
  gcs::GcsTables* tables_;
  SimNetwork* net_;
  ObjectStore* store_;
  GlobalSchedulerPool* global_;
  LocalSchedulerConfig config_;
  gcs::LivenessView* liveness_;  // may be null: assume-alive

  Executor executor_;
  ActorDispatcher actor_dispatcher_;

  // --- waiting side: dependency tracking ---
  mutable Mutex deps_mu_{"LocalScheduler.deps_mu"};
  std::unordered_map<TaskId, PendingTask> waiting_ GUARDED_BY(deps_mu_);
  // object -> waiting tasks blocked on it
  std::unordered_map<ObjectId, std::vector<TaskId>> blocked_on_ GUARDED_BY(deps_mu_);
  // object -> GCS subscription token
  std::unordered_map<ObjectId, uint64_t> subscriptions_ GUARDED_BY(deps_mu_);
  // objects with a pull currently in flight (dedupe guard)
  std::unordered_set<ObjectId> fetching_ GUARDED_BY(deps_mu_);
  // object -> PullManager waiter token, for cancellation on Shutdown. May
  // briefly hold a token whose pull already completed (the completion
  // callback can outrun the insert); CancelPull on those is a fast no-op.
  std::unordered_map<ObjectId, uint64_t> pull_tokens_ GUARDED_BY(deps_mu_);
  // Shutdown barrier: a completion callback erases its token on entry, so
  // the token-cancellation snapshot can miss it — this counter covers the
  // gap (Shutdown waits for it to drain after cancelling).
  Mutex pull_cb_mu_{"LocalScheduler.pull_cb_mu"};
  CondVar pull_cb_cv_;
  int active_pull_callbacks_ GUARDED_BY(pull_cb_mu_) = 0;
  ObjectUnreachableHandler unreachable_handler_ GUARDED_BY(deps_mu_);
  TaskLostHandler task_lost_handler_ GUARDED_BY(deps_mu_);

  // --- dispatch side: resource gating ---
  mutable Mutex dispatch_mu_{"LocalScheduler.dispatch_mu"};
  std::deque<ReadyTask> ready_ GUARDED_BY(dispatch_mu_);
  ResourceSet available_ GUARDED_BY(dispatch_mu_);

  // Live (granted, not yet released) worker leases.
  std::unordered_map<uint64_t, std::shared_ptr<WorkerLease>> leases_ GUARDED_BY(dispatch_mu_);
  uint64_t next_lease_id_ GUARDED_BY(dispatch_mu_) = 1;
  // Unrevoked leases per shape that ChooseLease grows to: the node's CPU
  // count, so one lease per worker keeps every CPU reachable.
  const size_t lease_cap_;

  // Lock-free queue accounting so Submit / heartbeats never take a lock.
  std::atomic<size_t> num_waiting_{0};
  std::atomic<size_t> num_ready_{0};
  std::atomic<size_t> running_{0};
  // Tasks queued + executing across all leases (counted in QueueLength so
  // heartbeats reflect direct-transport load too).
  std::atomic<size_t> leased_inflight_{0};
  std::atomic<uint64_t> leases_granted_{0};
  std::atomic<uint64_t> leases_revoked_{0};
  std::atomic<uint64_t> leases_revoked_busy_{0};

  BlockingQueue<DispatchItem> dispatch_queue_;
  // Worker loops are fibers on fibers_'s carrier threads, not OS threads: a
  // worker blocked in a nested Get parks its fiber and frees the carrier.
  std::unique_ptr<fiber::FiberScheduler> fibers_;
  std::vector<std::shared_ptr<fiber::Fiber>> worker_fibers_;
  std::unique_ptr<ThreadPool> fetch_pool_;
  std::thread heartbeat_thread_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> rescue_inflight_{false};

  // Monotonic heartbeat sequence; the GCS monitor declares this node dead
  // when it stops advancing (crashed nodes stop reporting, Node::Kill never
  // self-reports death).
  std::atomic<uint64_t> heartbeat_seq_{0};

  Ema task_duration_ema_{0.3};
  Ema bandwidth_ema_{0.3};
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> spilled_{0};
};

}  // namespace ray

#endif  // RAY_SCHEDULER_LOCAL_SCHEDULER_H_
