#include "gcs/gcs.h"

#include <functional>

#include "common/logging.h"
#include "common/metrics.h"
#include "trace/trace.h"

namespace ray {
namespace gcs {

namespace {
// Max writes coalesced into one chain replication round.
constexpr size_t kBatchMaxOps = 256;
// Async publish workers; all events for one key hash to one worker, which
// preserves per-key delivery order.
constexpr int kPublishWorkers = 2;
}  // namespace

// --- ShardBatcher -----------------------------------------------------------

Gcs::ShardBatcher::ShardBatcher(ChainShard* shard, PubSub* pubsub)
    : shard_(shard), pubsub_(pubsub) {
  flusher_ = std::thread([this] { FlusherLoop(); });
}

Gcs::ShardBatcher::~ShardBatcher() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    work_cv_.NotifyAll();
  }
  flusher_.join();
}

Status Gcs::ShardBatcher::Execute(ChainOp op, bool publish) {
  Slot slot;
  slot.op = std::move(op);
  slot.publish = publish;
  MutexLock lock(mu_);
  queue_.push_back(&slot);
  work_cv_.NotifyOne();
  while (!slot.done) {
    done_cv_.Wait(mu_);
  }
  return slot.status;
}

void Gcs::ShardBatcher::ExecuteAsync(ChainOp op, bool publish,
                                     std::function<void(Status)> done) {
  Slot* slot = new Slot();
  slot->op = std::move(op);
  slot->publish = publish;
  slot->callback = std::move(done);
  MutexLock lock(mu_);
  queue_.push_back(slot);
  work_cv_.NotifyOne();
}

void Gcs::ShardBatcher::FlusherLoop() {
  std::vector<Slot*> batch;
  std::vector<ChainOp> ops;
  auto& metrics = ControlPlaneMetrics::Instance();
  MutexLock lock(mu_);
  for (;;) {
    while (!shutdown_ && queue_.empty()) {
      work_cv_.Wait(mu_);
    }
    if (queue_.empty()) {
      return;  // shutdown with nothing pending
    }
    batch.clear();
    ops.clear();
    while (!queue_.empty() && batch.size() < kBatchMaxOps) {
      batch.push_back(queue_.front());
      queue_.pop_front();
    }
    for (Slot* slot : batch) {
      ops.push_back(std::move(slot->op));  // only ops[i] is read from here on
    }
    lock.Unlock();

    // One chain replication round commits the whole batch.
    Status status;
    {
      trace::Span span(trace::Stage::kGcsCommit, TaskId(), ObjectId(), NodeId(), NodeId(),
                       ops.size());
      status = shard_->ApplyBatch(ops);
    }
    metrics.gcs_batch_rounds.Add(1);
    metrics.gcs_batched_ops.Add(batch.size());
    metrics.gcs_batch_size.Observe(static_cast<double>(batch.size()));

    // Publish in commit order before waking writers, so the pub-sub queue
    // observes the same order the chain committed. Publishing only after
    // ApplyBatch is what lets PubSub drop events for keys with no
    // subscription: a later subscriber reads the committed value itself.
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i]->publish && status.ok()) {
        pubsub_->Publish(ops[i].key, ops[i].value);
      }
    }

    // Async completions run here, outside mu_, so a callback may issue
    // further async writes (even to this shard) without a lock cycle.
    for (Slot*& slot : batch) {
      if (slot->callback) {
        slot->callback(status);
        delete slot;
        slot = nullptr;
      }
    }

    lock.Lock();
    for (Slot* slot : batch) {
      if (slot == nullptr) {
        continue;  // async slot, already completed and freed
      }
      slot->status = status;
      slot->done = true;
    }
    done_cv_.NotifyAll();
    if (shutdown_ && queue_.empty()) {
      return;
    }
  }
}

// --- Gcs --------------------------------------------------------------------

Gcs::Gcs(const GcsConfig& config) : config_(config) {
  RAY_CHECK(config_.num_shards >= 1);
  for (int i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<ChainShard>(config_.chain));
  }
  pubsub_ = std::make_unique<PubSub>(kPublishWorkers);
  for (auto& shard : shards_) {
    batchers_.push_back(std::make_unique<ShardBatcher>(shard.get(), pubsub_.get()));
  }
}

Gcs::~Gcs() {
  batchers_.clear();  // flush pending writes before tearing down pub-sub
  pubsub_.reset();
}

size_t Gcs::ShardIndexFor(const std::string& key) const {
  return std::hash<std::string>{}(key) % shards_.size();
}

ChainShard& Gcs::ShardFor(const std::string& key) const {
  return *shards_[ShardIndexFor(key)];
}

Status Gcs::Write(ChainOp op, bool publish) {
  size_t index = ShardIndexFor(op.key);
  return batchers_[index]->Execute(std::move(op), publish);
}

Status Gcs::Put(const std::string& key, const std::string& value) {
  RAY_RETURN_NOT_OK(Write({ChainOp::Kind::kPut, key, value}, /*publish=*/true));
  MaybeAutoFlush();
  return Status::Ok();
}

Status Gcs::Append(const std::string& key, const std::string& element) {
  RAY_RETURN_NOT_OK(Write({ChainOp::Kind::kAppend, key, element}, /*publish=*/true));
  MaybeAutoFlush();
  return Status::Ok();
}

void Gcs::WriteAsync(ChainOp op, WriteCallback done) {
  if (config_.flush_threshold_bytes > 0) {
    // Same check after the commit. Flushing is in-memory work on the shards,
    // so it may run on the flusher thread (see WriteCallback).
    done = [this, done = std::move(done)](Status status) {
      if (status.ok()) {
        MaybeAutoFlush();
      }
      done(std::move(status));
    };
  }
  size_t index = ShardIndexFor(op.key);
  batchers_[index]->ExecuteAsync(std::move(op), /*publish=*/true, std::move(done));
}

void Gcs::PutAsync(const std::string& key, std::string value, WriteCallback done) {
  WriteAsync({ChainOp::Kind::kPut, key, std::move(value)}, std::move(done));
}

void Gcs::AppendAsync(const std::string& key, const std::string& element,
                      WriteCallback done) {
  WriteAsync({ChainOp::Kind::kAppend, key, element}, std::move(done));
}

Result<std::string> Gcs::Get(const std::string& key) const { return ShardFor(key).Get(key); }

Result<std::vector<std::string>> Gcs::GetList(const std::string& key) const {
  return ShardFor(key).GetList(key);
}

Status Gcs::Delete(const std::string& key) {
  return Write({ChainOp::Kind::kDelete, key, ""}, /*publish=*/false);
}

Result<uint64_t> Gcs::Increment(const std::string& key) { return ShardFor(key).Increment(key); }

bool Gcs::Contains(const std::string& key) const { return ShardFor(key).Contains(key); }

uint64_t Gcs::Subscribe(const std::string& key, Callback callback) {
  return pubsub_->Subscribe(key, std::move(callback));
}

void Gcs::Unsubscribe(const std::string& key, uint64_t token) {
  pubsub_->Unsubscribe(key, token);
}

void Gcs::DrainPublishes() { pubsub_->Drain(); }

size_t Gcs::NumSubscriptions() const { return pubsub_->NumSubscriptions(); }

uint64_t Gcs::TotalSubscribes() const { return pubsub_->TotalSubscribes(); }

size_t Gcs::MemoryBytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->MemoryBytes();
  }
  return total;
}

size_t Gcs::DiskBytes() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->DiskBytes();
  }
  return total;
}

size_t Gcs::NumEntries() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->NumEntries();
  }
  return total;
}

void Gcs::AddFlushablePrefix(const std::string& prefix) {
  MutexLock lock(flush_mu_);
  flushable_prefixes_.push_back(prefix);
}

bool Gcs::IsFlushable(const std::string& key) const {
  MutexLock lock(flush_mu_);
  for (const auto& prefix : flushable_prefixes_) {
    if (key.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

size_t Gcs::Flush() {
  size_t moved = 0;
  for (auto& shard : shards_) {
    moved += shard->Flush([this](const std::string& key) { return IsFlushable(key); });
  }
  return moved;
}

void Gcs::MaybeAutoFlush() {
  if (config_.flush_threshold_bytes == 0) {
    return;
  }
  if (MemoryBytes() > config_.flush_threshold_bytes) {
    Flush();
  }
}

}  // namespace gcs
}  // namespace ray
