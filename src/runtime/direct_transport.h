// Direct task transport: the steady-state submit path that keeps the
// scheduler off the per-task critical path. A caller-side transport (one per
// node) leases workers from its local scheduler by resource shape, then
// pipelines dependency-satisfied plain tasks straight into the leased
// worker's queue — no per-task scheduler hop and no wait on the GCS. Every
// task is recorded in this node's LineageBuffer before it is offered here,
// and an executor on the lease completes it only once the record is
// durable. Anything the fast path cannot take — actor tasks, tasks with
// non-local inputs, no grantable lease, a lease at max depth — falls back to
// the classic routed path, which waits on that same record first (the task
// may run on another node) and is also how submission spills back to the
// global scheduler when this node is saturated.
//
// Leases are cached per shape and renewed by use; the pool grows (up to the
// node's CPU count) while every cached lease is busy, so pipelining provides
// depth and extra leases provide parallel workers. The scheduler revokes
// leases on idle timeout, under pressure from queued tasks, and on
// shutdown/death; the transport lazily prunes revoked leases and re-requests.
#ifndef RAY_RUNTIME_DIRECT_TRANSPORT_H_
#define RAY_RUNTIME_DIRECT_TRANSPORT_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/id.h"
#include "common/sync.h"
#include "objectstore/object_store.h"
#include "runtime/lineage_buffer.h"
#include "scheduler/local_scheduler.h"
#include "task/task_spec.h"

namespace ray {

class DirectTaskTransport {
 public:
  // The fast path is on when `scheduler` has leasing enabled.
  DirectTaskTransport(const NodeId& node, LocalScheduler* scheduler, ObjectStore* store,
                      gcs::GcsTables* tables);
  ~DirectTaskTransport();

  DirectTaskTransport(const DirectTaskTransport&) = delete;
  DirectTaskTransport& operator=(const DirectTaskTransport&) = delete;

  // Fast path: pipelines a task already recorded in lineage() onto a leased
  // worker. False means the transport did nothing — the caller must route
  // the task classically, once its record is durable.
  bool TrySubmit(const TaskSpec& spec);

  // Returns all cached leases and refuses further TrySubmits. Called on
  // node kill/teardown; idempotent.
  void Shutdown();

  uint64_t NumDirectSubmits() const { return direct_submits_.load(std::memory_order_relaxed); }
  uint64_t NumFallbacks() const { return fallbacks_.load(std::memory_order_relaxed); }
  // This node's lineage writer and durability gate: every task submitted
  // from this node is recorded here, executors complete tasks through its
  // WhenTaskDurable hook, and a task routed off the lease path waits on
  // WaitTaskDurable first (a remote executor cannot consult this buffer).
  LineageBuffer& lineage() { return lineage_; }

 private:
  // Picks the least-loaded cached lease for `shape`, pruning revoked ones
  // and growing the pool while all are busy. Null when nothing is grantable.
  std::shared_ptr<WorkerLease> LeaseFor(const ResourceSet& shape);
  static std::string ShapeKey(const ResourceSet& shape);

  NodeId node_;
  LocalScheduler* scheduler_;
  ObjectStore* store_;
  // Leases cached per resource shape: the node's CPU count, so one lease per
  // worker keeps all CPUs reachable through the fast path.
  size_t max_leases_per_shape_;
  LineageBuffer lineage_;
  std::atomic<bool> shutdown_{false};

  Mutex mu_{"DirectTaskTransport.mu"};
  std::unordered_map<std::string, std::vector<std::shared_ptr<WorkerLease>>> leases_
      GUARDED_BY(mu_);

  std::atomic<uint64_t> direct_submits_{0};
  std::atomic<uint64_t> fallbacks_{0};
};

}  // namespace ray

#endif  // RAY_RUNTIME_DIRECT_TRANSPORT_H_
