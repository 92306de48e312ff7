// Direct task transport: the steady-state submit path that keeps the
// scheduler queue off the per-task critical path. A caller-side transport
// (one per node) hands dependency-satisfied plain tasks to its local
// scheduler's SubmitDirect, which pipelines them straight into a leased
// worker's queue — no ready-queue hop and no wait on the GCS. Every
// task is recorded in this node's LineageBuffer before it is offered here,
// and an executor on the lease completes it only once the record is
// durable. Anything the fast path cannot take — actor tasks, tasks with
// non-local inputs, no grantable lease, a lease at max depth — falls back to
// the classic routed path, which waits on that same record first (the task
// may run on another node) and is also how submission spills back to the
// global scheduler when this node is saturated.
//
// The scheduler owns the leases and picks one per task (the least-loaded of
// the task's shape, growing up to the node's CPU count while all are busy);
// it revokes them on idle timeout, under pressure from ready tasks no lease
// can carry, and on shutdown/death.
#ifndef RAY_RUNTIME_DIRECT_TRANSPORT_H_
#define RAY_RUNTIME_DIRECT_TRANSPORT_H_

#include <atomic>

#include "objectstore/object_store.h"
#include "runtime/lineage_buffer.h"
#include "scheduler/local_scheduler.h"
#include "task/task_spec.h"

namespace ray {

class DirectTaskTransport {
 public:
  // The fast path is on when `scheduler` has leasing enabled.
  DirectTaskTransport(LocalScheduler* scheduler, ObjectStore* store, gcs::GcsTables* tables);

  DirectTaskTransport(const DirectTaskTransport&) = delete;
  DirectTaskTransport& operator=(const DirectTaskTransport&) = delete;

  // Fast path: pipelines a task already recorded in lineage() onto a leased
  // worker. False means the transport did nothing — the caller must route
  // the task classically, once its record is durable.
  bool TrySubmit(const TaskSpec& spec);

  // Refuses further TrySubmits; the scheduler's Shutdown releases the
  // leases. Called on node kill/teardown; idempotent.
  void Shutdown() { shutdown_.store(true, std::memory_order_release); }

  uint64_t NumDirectSubmits() const { return direct_submits_.load(std::memory_order_relaxed); }
  uint64_t NumFallbacks() const { return fallbacks_.load(std::memory_order_relaxed); }
  // This node's lineage writer and durability gate: every task submitted
  // from this node is recorded here, executors complete tasks through its
  // WhenTaskDurable hook, and a task routed off the lease path waits on
  // WaitTaskDurable first (a remote executor cannot consult this buffer).
  LineageBuffer& lineage() { return lineage_; }

 private:
  LocalScheduler* scheduler_;
  ObjectStore* store_;
  LineageBuffer lineage_;
  std::atomic<bool> shutdown_{false};

  std::atomic<uint64_t> direct_submits_{0};
  std::atomic<uint64_t> fallbacks_{0};
};

}  // namespace ray

#endif  // RAY_RUNTIME_DIRECT_TRANSPORT_H_
