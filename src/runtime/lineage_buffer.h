// The one lineage writer. Cluster::SubmitTask records every task here, on
// the submitting node, before the task can run anywhere: the spec, the
// kPending state, the creating-task link of each return and, for actors, the
// cursor's creating-task link, the method-log append and the creation spec.
// The writes are fired into the GCS group-commit batchers at once, so they
// share commit rounds, and the caller returns without waiting; a per-record
// count of writes in flight says when the record is durable.
//
// Durability invariant (what keeps reconstruction and the location-log logic
// correct): a task's outputs must never become visible — neither the kDone
// state nor any object location — before its lineage is durable. Two hooks
// enforce it. A task that runs on a lease of the submitting node completes
// from a WhenTaskDurable(task, ...) hook, which issues the kDone (or kLost)
// write, and results are sealed only once that write commits. A task that
// leaves the lease path may run on another node, which cannot consult this
// buffer, so it is routed only after WaitTaskDurable returns. A submitter
// node that dies with writes in flight therefore loses only tasks whose
// outputs nobody can observe yet.
//
// Backpressure: Record blocks when kMaxInflightRecords records are
// unflushed, bounding the window of lineage a crash can lose and the
// buffer's memory.
#ifndef RAY_RUNTIME_LINEAGE_BUFFER_H_
#define RAY_RUNTIME_LINEAGE_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/id.h"
#include "common/sync.h"
#include "gcs/tables.h"
#include "task/task_spec.h"

namespace ray {

class LineageBuffer {
 public:
  // Max records (tasks) with writes still in flight before Record blocks.
  static constexpr size_t kMaxInflightRecords = 4096;

  explicit LineageBuffer(gcs::GcsTables* tables);
  // Blocks until every fired write has completed — the GCS batchers hold
  // callbacks into this object, so it must outlive them or drain first.
  ~LineageBuffer();

  LineageBuffer(const LineageBuffer&) = delete;
  LineageBuffer& operator=(const LineageBuffer&) = delete;

  // Records the full lineage of `spec` asynchronously, with `node` as the
  // node its kPending state names. Actor creations also record the cursor's
  // creating task and the creation spec; stateful methods record the cursor's
  // creating task and append to the method log.
  void Record(const TaskSpec& spec, const NodeId& node);

  // Blocks until `task`'s lineage is durable. Returns immediately for tasks
  // not recorded through this buffer or already flushed.
  void WaitTaskDurable(const TaskId& task);
  // Runs `fn` once `task`'s lineage is durable, without blocking: inline on
  // the caller for tasks not recorded here or already flushed (the hot miss
  // costs one hash lookup), else on the GCS flusher thread that commits the
  // record's last write, outside mu_ — so `fn` is bound by the rules of
  // Gcs::WriteCallback. A failed write still completes the record, so `fn`
  // always runs.
  void WhenTaskDurable(const TaskId& task, std::function<void()> fn);

  uint64_t NumRecords() const { return records_.load(std::memory_order_relaxed); }
  uint64_t NumFailedWrites() const { return failed_.load(std::memory_order_relaxed); }

 private:
  struct PendingRecord {
    int remaining_ops = 0;
    // WhenTaskDurable hooks, run once the last write commits.
    std::vector<std::function<void()>> on_durable;
  };

  void OnOpDone(const TaskId& task, Status status);

  gcs::GcsTables* tables_;

  mutable Mutex mu_{"LineageBuffer.mu"};
  CondVar cv_;
  // Records with writes in flight; erased when the last write commits.
  std::unordered_map<TaskId, PendingRecord> pending_ GUARDED_BY(mu_);

  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> failed_{0};
};

}  // namespace ray

#endif  // RAY_RUNTIME_LINEAGE_BUFFER_H_
