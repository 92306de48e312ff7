#include "runtime/lineage_buffer.h"

#include "common/logging.h"

namespace ray {

LineageBuffer::LineageBuffer(gcs::GcsTables* tables) : tables_(tables) {}

LineageBuffer::~LineageBuffer() {
  // Every fired write's callback references this object; wait for all of
  // them, not just for the watermark (which failures also advance).
  MutexLock lock(mu_);
  while (!pending_.empty()) {
    cv_.Wait(mu_);
  }
}

uint64_t LineageBuffer::Record(const TaskSpec& spec, const NodeId& node) {
  std::string spec_bytes = spec.Serialize();
  uint64_t seq;
  {
    MutexLock lock(mu_);
    while (pending_.size() >= kMaxInflightRecords) {
      cv_.Wait(mu_);  // backpressure: bounded unflushed window
    }
    seq = next_seq_++;
    PendingRecord rec;
    rec.remaining_ops = 2 + static_cast<int>(spec.num_returns);
    rec.task = spec.id;
    pending_.emplace(seq, rec);
    task_seq_[spec.id] = seq;
  }
  records_.fetch_add(1, std::memory_order_relaxed);
  // Fire outside mu_: the async calls take the shard batcher locks.
  auto done = [this, seq](Status s) { OnOpDone(seq, std::move(s)); };
  tables_->tasks.AddTaskAsync(spec.id, spec_bytes, done);
  tables_->tasks.SetStateAsync(spec.id, gcs::TaskState::kPending, node, done);
  for (uint32_t i = 0; i < spec.num_returns; ++i) {
    tables_->objects.RecordCreatingTaskAsync(spec.ReturnId(i), spec.id, done);
  }
  return seq;
}

void LineageBuffer::OnOpDone(uint64_t seq, Status status) {
  if (!status.ok()) {
    // The record still completes: a failed chain round is a control-plane
    // outage, and blocking the watermark forever would strand every task
    // completion queued behind WhenTaskDurable. Count it so tests and
    // benches can assert zero.
    failed_.fetch_add(1, std::memory_order_relaxed);
    RAY_LOG(ERROR) << "async lineage write failed: " << status.ToString();
  }
  std::vector<std::function<void()>> hooks;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(seq);
    if (it == pending_.end()) {
      return;
    }
    if (--it->second.remaining_ops > 0) {
      return;
    }
    hooks = std::move(it->second.on_durable);
    task_seq_.erase(it->second.task);
    pending_.erase(it);
    uint64_t candidate = pending_.empty() ? next_seq_ - 1 : pending_.begin()->first - 1;
    if (candidate > watermark_) {
      watermark_ = candidate;
    }
    cv_.NotifyAll();
  }
  // Outside mu_, and touching nothing of this buffer: once pending_ is empty
  // the destructor may already have returned.
  for (auto& hook : hooks) {
    hook();
  }
}

void LineageBuffer::WaitDurable(uint64_t seq) {
  MutexLock lock(mu_);
  while (pending_.count(seq) > 0) {
    cv_.Wait(mu_);
  }
}

void LineageBuffer::WaitTaskDurable(const TaskId& task) {
  MutexLock lock(mu_);
  auto it = task_seq_.find(task);
  if (it == task_seq_.end()) {
    return;  // not recorded here, or already durable
  }
  uint64_t seq = it->second;
  while (pending_.count(seq) > 0) {
    cv_.Wait(mu_);
  }
}

void LineageBuffer::WhenTaskDurable(const TaskId& task, std::function<void()> fn) {
  {
    MutexLock lock(mu_);
    auto it = task_seq_.find(task);
    if (it != task_seq_.end()) {
      pending_.at(it->second).on_durable.push_back(std::move(fn));
      return;
    }
  }
  fn();  // not recorded here, or already durable
}

void LineageBuffer::Flush() {
  MutexLock lock(mu_);
  uint64_t last = next_seq_ - 1;
  while (watermark_ < last) {
    cv_.Wait(mu_);
  }
}

}  // namespace ray
