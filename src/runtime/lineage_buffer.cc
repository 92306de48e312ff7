#include "runtime/lineage_buffer.h"

#include "common/logging.h"

namespace ray {

LineageBuffer::LineageBuffer(gcs::GcsTables* tables) : tables_(tables) {}

LineageBuffer::~LineageBuffer() {
  // Every fired write's callback references this object; wait for all of
  // them.
  MutexLock lock(mu_);
  while (!pending_.empty()) {
    cv_.Wait(mu_);
  }
}

void LineageBuffer::Record(const TaskSpec& spec, const NodeId& node) {
  const bool stateful_method = spec.IsActorTask() && !spec.actor_method_read_only;
  const bool links_cursor = spec.IsActorCreation() || stateful_method;
  std::string spec_bytes = spec.Serialize();
  {
    MutexLock lock(mu_);
    while (pending_.size() >= kMaxInflightRecords) {
      cv_.Wait(mu_);  // backpressure: bounded unflushed window
    }
    // Added, not assigned: a task recorded again while its first record is
    // in flight is durable once both are.
    pending_[spec.id].remaining_ops += 2 + static_cast<int>(spec.num_returns) +
                                       (links_cursor ? 1 : 0) + (stateful_method ? 1 : 0) +
                                       (spec.IsActorCreation() ? 1 : 0);
  }
  records_.fetch_add(1, std::memory_order_relaxed);
  // Fire outside mu_: the async calls take the shard batcher locks.
  auto done = [this, task = spec.id](Status s) { OnOpDone(task, std::move(s)); };
  tables_->tasks.AddTaskAsync(spec.id, spec_bytes, done);
  tables_->tasks.SetStateAsync(spec.id, gcs::TaskState::kPending, node, done);
  for (uint32_t i = 0; i < spec.num_returns; ++i) {
    tables_->objects.RecordCreatingTaskAsync(spec.ReturnId(i), spec.id, done);
  }
  if (links_cursor) {
    tables_->objects.RecordCreatingTaskAsync(spec.ResultCursor(), spec.id, done);
  }
  if (stateful_method) {
    tables_->actors.AppendMethodAsync(spec.actor, spec.id, done);
  }
  if (spec.IsActorCreation()) {
    // Durable so the actor can be re-created after a failure (Section
    // 4.2.3: lineage covers stateful actors too).
    tables_->actors.RegisterActorAsync(spec.actor, spec_bytes, done);
  }
}

void LineageBuffer::OnOpDone(const TaskId& task, Status status) {
  if (!status.ok()) {
    // The record still completes: a failed chain round is a control-plane
    // outage, and holding the record forever would strand every task
    // completion queued behind WhenTaskDurable. Count it so tests and
    // benches can assert zero.
    failed_.fetch_add(1, std::memory_order_relaxed);
    RAY_LOG(ERROR) << "async lineage write failed: " << status.ToString();
  }
  std::vector<std::function<void()>> hooks;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(task);
    if (it == pending_.end() || --it->second.remaining_ops > 0) {
      return;
    }
    hooks = std::move(it->second.on_durable);
    pending_.erase(it);
    cv_.NotifyAll();
  }
  // Outside mu_, and touching nothing of this buffer: once pending_ is empty
  // the destructor may already have returned.
  for (auto& hook : hooks) {
    hook();
  }
}

void LineageBuffer::WaitTaskDurable(const TaskId& task) {
  MutexLock lock(mu_);
  while (pending_.count(task) > 0) {
    cv_.Wait(mu_);
  }
}

void LineageBuffer::WhenTaskDurable(const TaskId& task, std::function<void()> fn) {
  {
    MutexLock lock(mu_);
    auto it = pending_.find(task);
    if (it != pending_.end()) {
      it->second.on_durable.push_back(std::move(fn));
      return;
    }
  }
  fn();  // not recorded here, or already durable
}

}  // namespace ray
