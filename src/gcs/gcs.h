// The Global Control Store: a sharded KV store with pub-sub (Section 4.2.1).
// Keys are hashed across shards; each shard is chain-replicated. All system
// control state (object locations, task lineage, actor state, heartbeats)
// lives here so that every other component — schedulers, object stores,
// workers — is stateless and can be restarted from the GCS.
//
// Write fast path (control-plane fast path PR): writes are group-committed.
// Each shard has a batcher thread that coalesces concurrent Put/Append/Delete
// calls into a single chain replication round (ChainShard::ApplyBatch), so
// the per-round hop latency is paid once per batch instead of once per write.
// Callers still block until their write commits — read-your-writes and
// program order are preserved — but N concurrent writers share one round.
// Committed writes are published through a sharded async pub-sub (PubSub), so
// chain commits never block behind subscriber callbacks; a write to a key
// nobody subscribed to publishes nothing. Shard storage is a hash table
// (KvStore) with single-key operations only.
#ifndef RAY_GCS_GCS_H_
#define RAY_GCS_GCS_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "gcs/chain.h"
#include "gcs/pubsub.h"

namespace ray {
namespace gcs {

struct GcsConfig {
  int num_shards = 4;
  ChainConfig chain;
  // When > 0, entries matching the flush predicate are moved to the disk
  // tier whenever the in-memory footprint exceeds this many bytes (Fig 10b).
  size_t flush_threshold_bytes = 0;
};

class Gcs {
 public:
  explicit Gcs(const GcsConfig& config);
  ~Gcs();

  Status Put(const std::string& key, const std::string& value);
  Status Append(const std::string& key, const std::string& element);

  // Asynchronous writes: enqueue the op into the shard's group-commit round
  // and return immediately; `done(status)` runs after the chain round commits
  // and the publish has been queued, on the batcher's flusher thread (outside
  // every batcher lock). These are the backbone of the async lineage path and
  // of task completion: submitters fire-and-count, a durability watermark
  // advances in the callbacks, and a finished task's kDone, seal and location
  // publish run as a chain of them.
  //
  // A callback may only do in-memory work and issue further *Async writes.
  // It must never make a synchronous GCS call (Put, Append, Get, ...): that
  // waits on another shard's flusher, which may itself be running a callback
  // that waits on this one, and the two flushers then deadlock.
  using WriteCallback = std::function<void(Status)>;
  void PutAsync(const std::string& key, const std::string& value, WriteCallback done);
  void AppendAsync(const std::string& key, const std::string& element, WriteCallback done);
  Result<std::string> Get(const std::string& key) const;
  Result<std::vector<std::string>> GetList(const std::string& key) const;
  Status Delete(const std::string& key);
  bool Contains(const std::string& key) const;
  // Atomic counter increment (returns the new value). Not batched: the
  // result is needed synchronously and increments are rare on the hot path.
  Result<uint64_t> Increment(const std::string& key);

  // Pub-sub: `callback(key, value)` fires for every Put/Append to `key` that
  // is published after Subscribe returns, asynchronously on a publish worker,
  // in per-key commit order. A write that committed before Subscribe returned
  // may not be delivered (a key with no subscription publishes nothing), so a
  // caller must read the key after subscribing. After Unsubscribe returns the
  // callback will not run again.
  using Callback = PubSub::Callback;
  uint64_t Subscribe(const std::string& key, Callback callback);
  void Unsubscribe(const std::string& key, uint64_t token);

  // Blocks until every publish queued before this call has been delivered.
  void DrainPublishes();

  size_t NumSubscriptions() const;
  // Monotonic Subscribe-call count (see PubSub::TotalSubscribes).
  uint64_t TotalSubscribes() const;

  // Footprint across shards (tail replica view).
  size_t MemoryBytes() const;
  size_t DiskBytes() const;
  size_t NumEntries() const;

  // Marks a key prefix as flushable: entries under it may be demoted to disk
  // under memory pressure. Task lineage is flushable (it is only read again
  // during reconstruction); object locations are not (they are hot).
  void AddFlushablePrefix(const std::string& prefix);
  // Forces a flush pass over all shards; returns bytes moved to disk.
  size_t Flush();

 private:
  // Per-shard group-commit daemon. Writers enqueue an op and block; the
  // flusher thread commits everything queued in one ApplyBatch round, then
  // publishes Put/Append ops in commit order and wakes the writers.
  class ShardBatcher {
   public:
    ShardBatcher(ChainShard* shard, PubSub* pubsub);
    ~ShardBatcher();

    Status Execute(ChainOp op, bool publish);
    // Fire-and-forget variant: the slot is heap-owned and `done` is invoked
    // on the flusher thread outside mu_ once the batch commits (so callbacks
    // can issue further async writes without a lock cycle).
    void ExecuteAsync(ChainOp op, bool publish, std::function<void(Status)> done);

   private:
    struct Slot {
      ChainOp op;
      bool publish = false;
      Status status;
      bool done = false;
      // Non-null for async slots: heap-owned, freed by the flusher after the
      // callback runs. Sync slots are stack-owned by their blocked writer.
      std::function<void(Status)> callback;
    };

    void FlusherLoop();

    ChainShard* shard_;
    PubSub* pubsub_;

    Mutex mu_{"Gcs.ShardBatcher.mu"};
    CondVar work_cv_;
    CondVar done_cv_;
    // Slots are stack-owned by blocked writers; the pointers (and each
    // slot's done/status fields) are only touched under mu_.
    std::deque<Slot*> queue_ GUARDED_BY(mu_);
    bool shutdown_ GUARDED_BY(mu_) = false;
    std::thread flusher_;
  };

  size_t ShardIndexFor(const std::string& key) const;
  ChainShard& ShardFor(const std::string& key) const;
  // Routes a write through the shard's batcher, publishing after commit if
  // `publish`.
  Status Write(ChainOp op, bool publish);
  // Async counterpart for PutAsync/AppendAsync (always publishes).
  void WriteAsync(ChainOp op, WriteCallback done);
  void MaybeAutoFlush();
  bool IsFlushable(const std::string& key) const;

  GcsConfig config_;
  std::vector<std::unique_ptr<ChainShard>> shards_;
  std::unique_ptr<PubSub> pubsub_;
  std::vector<std::unique_ptr<ShardBatcher>> batchers_;  // destroyed before pubsub_

  mutable Mutex flush_mu_{"Gcs.flush_mu"};
  std::vector<std::string> flushable_prefixes_ GUARDED_BY(flush_mu_);
};

}  // namespace gcs
}  // namespace ray

#endif  // RAY_GCS_GCS_H_
