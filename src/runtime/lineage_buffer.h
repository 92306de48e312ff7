// Asynchronous lineage commit for the direct task transport. The classic
// submit path writes a task's lineage (spec, pending state, creating-task
// links) synchronously — three chain-replication rounds on the critical path
// of every Call. The direct path instead records through this buffer: the
// writes are fired into the GCS group-commit batchers immediately and the
// caller returns without waiting; a per-record completion count and a
// durability watermark advance as the batched rounds commit.
//
// Durability invariant (what keeps reconstruction and the location-log logic
// correct): a task's outputs must never become visible — neither the kDone
// state nor any object location — before its lineage is durable. Executors
// enforce it by issuing the kDone (or kLost) write from a
// WhenTaskDurable(task, ...) hook, and sealing results only once that write
// commits. A submitter node that dies with flushes in flight therefore loses
// only tasks whose outputs nobody can observe yet.
//
// Backpressure: Record blocks when kMaxInflightRecords records are
// unflushed, bounding the window of lineage a crash can lose and the
// buffer's memory.
#ifndef RAY_RUNTIME_LINEAGE_BUFFER_H_
#define RAY_RUNTIME_LINEAGE_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
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

  // Records the full lineage of a plain task asynchronously: the spec, the
  // kPending state at `node`, and the creating-task link for each return.
  // Returns the record's sequence number (1-based, monotonic).
  uint64_t Record(const TaskSpec& spec, const NodeId& node);

  // Blocks until record `seq` is durable.
  void WaitDurable(uint64_t seq);
  // Blocks until `task`'s lineage is durable. Returns immediately for tasks
  // not recorded through this buffer (the synchronous path) or already
  // flushed.
  void WaitTaskDurable(const TaskId& task);
  // Runs `fn` once `task`'s lineage is durable, without blocking: inline on
  // the caller for tasks not recorded here or already flushed (the hot miss
  // costs one hash lookup), else on the GCS flusher thread that commits the
  // record's last write, outside mu_ — so `fn` is bound by the rules of
  // Gcs::WriteCallback. A failed write still completes the record, so `fn`
  // always runs.
  void WhenTaskDurable(const TaskId& task, std::function<void()> fn);
  // Blocks until everything recorded so far is durable.
  void Flush();

  uint64_t NumRecords() const { return records_.load(std::memory_order_relaxed); }
  uint64_t NumFailedWrites() const { return failed_.load(std::memory_order_relaxed); }

 private:
  struct PendingRecord {
    int remaining_ops = 0;
    TaskId task;
    // WhenTaskDurable hooks, run once the last write commits.
    std::vector<std::function<void()>> on_durable;
  };

  void OnOpDone(uint64_t seq, Status status);

  gcs::GcsTables* tables_;

  mutable Mutex mu_{"LineageBuffer.mu"};
  CondVar cv_;
  // Ordered so the watermark is min(pending) - 1; a record is erased when
  // its last write commits.
  std::map<uint64_t, PendingRecord> pending_ GUARDED_BY(mu_);
  std::unordered_map<TaskId, uint64_t> task_seq_ GUARDED_BY(mu_);
  uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  uint64_t watermark_ GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> records_{0};
  std::atomic<uint64_t> failed_{0};
};

}  // namespace ray

#endif  // RAY_RUNTIME_LINEAGE_BUFFER_H_
