// Per-node in-memory object store (Section 4.2.3). Objects are immutable
// byte buffers; intra-node reads are zero-copy (shared_ptr aliasing plays the
// role of shared memory). Remote objects are fetched through the PullManager
// (pull_manager.h): concurrent requests for one object dedup into a single
// in-flight pull, large objects move as pipelined chunks, and a source dying
// mid-transfer fails over to a surviving replica. If the object does not
// exist yet, Get registers one GCS pub-sub callback and blocks until a
// location is published (Fig. 7b). Memory pressure is handled by LRU
// eviction to a simulated disk tier; objects larger than the whole capacity
// are admitted straight to the disk tier instead of flushing everything
// else out.
#ifndef RAY_OBJECTSTORE_OBJECT_STORE_H_
#define RAY_OBJECTSTORE_OBJECT_STORE_H_

#include <functional>
#include <list>
#include <memory>
#include <unordered_map>

#include "common/buffer.h"
#include "common/sync.h"
#include "common/id.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "gcs/monitor.h"
#include "gcs/tables.h"
#include "net/sim_network.h"

namespace ray {

class PullManager;

struct ObjectStoreConfig {
  size_t capacity_bytes = 4ULL << 30;
  int num_transfer_threads = 8;
  // Objects at or above this size are copied by multiple transfer threads.
  size_t parallel_copy_threshold = 512 * 1024;
  // Chunk size for the pipelined pull path; 0 = one transfer per pull (the
  // bench ablation). An object up to this size moves as one transfer; a
  // larger one overlaps each chunk's copy with the next chunk's wire time,
  // and a failover resumes at the failed chunk. Pipelining pays only when
  // that copy is a large share of the wire time and no other pull shares
  // the NIC (DESIGN.md "Data plane"), so the default keeps every object of
  // up to 64 MiB in one transfer.
  size_t pull_chunk_bytes = 64ull << 20;
};

class ObjectStore {
 public:
  // `peer_resolver` maps a node id to its store so a pull can read the remote
  // buffer; the cluster wires this up. May return nullptr for dead nodes.
  using PeerResolver = std::function<ObjectStore*(const NodeId&)>;
  // Pull completion callback; runs on the pull-loop thread — keep it cheap.
  using PullCallback = std::function<void(Status)>;

  // Penalty bandwidth for reading an object back from the disk tier.
  static constexpr double kDiskReadBytesPerSec = 500e6;

  // `liveness` (optional) is the failure detector's view; the store and its
  // pull manager use it to skip replicas on declared-dead nodes. Null means
  // assume-alive — wire failures still drive failover.
  ObjectStore(const NodeId& node, gcs::GcsTables* tables, SimNetwork* net,
              const ObjectStoreConfig& config, gcs::LivenessView* liveness = nullptr);
  ~ObjectStore();

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  void SetPeerResolver(PeerResolver resolver) { peer_resolver_ = std::move(resolver); }
  ObjectStore* Peer(const NodeId& id) const {
    return peer_resolver_ ? peer_resolver_(id) : nullptr;
  }

  // Seals `buffer` under `id` locally and publishes the location to the GCS.
  Status Put(const ObjectId& id, BufferPtr buffer);
  // Same seal, but the location publish is an async GCS write that nothing
  // waits on. Safe inside a GCS write callback (see Gcs::WriteCallback).
  void PutAsync(const ObjectId& id, BufferPtr buffer);

  // Local-only lookup; promotes a disk-tier object back to memory (charging
  // the disk read penalty). KeyNotFound if absent on this node.
  Result<BufferPtr> GetLocal(const ObjectId& id);

  bool ContainsLocal(const ObjectId& id) const;
  // Size of the local copy in either tier, or 0 if there is none. Takes the
  // shared lock only: no disk-tier promotion and no GCS call, so it is safe
  // in a pull callback.
  size_t LocalSize(const ObjectId& id) const;

  // Full get: local hit, else pull from a live remote replica (deduped with
  // any concurrent pull of the same object), else block on the Object Table
  // callback until the object is created somewhere, then pull. One pub-sub
  // subscription per call, reused across retries. timeout_us < 0 means wait
  // forever. Returns kTimedOut on timeout; never returns kObjectLost by
  // itself — loss detection (all replicas on dead nodes) is the runtime's
  // job since it owns reconstruction.
  Result<BufferPtr> Get(const ObjectId& id, int64_t timeout_us = -1);

  // Blocking pull of `id`, preferring `src_node` as the source; used by
  // paths that already know a location. Fails over like any other pull.
  Status Fetch(const ObjectId& id, const NodeId& src_node);

  // Registers a completion callback for an asynchronous pull of `id`
  // (dedups into an in-flight pull). Returns a token for CancelPull.
  uint64_t PullAsync(const ObjectId& id, PullCallback cb);
  // Removes a pull waiter; blocks until its callback is not running, so the
  // caller may tear down captured state afterwards.
  void CancelPull(uint64_t token);

  // Drops the local copy (memory and disk tier) and retracts the location.
  Status DeleteLocal(const ObjectId& id);

  // Drops everything without touching the GCS — models node death, where the
  // store's contents vanish but stale Object Table entries linger until the
  // runtime marks the node dead. In-flight pulls abort with kNodeDead.
  void CrashClear();

  // Failure-detector notification: `node` was declared dead. Forwards to the
  // pull manager so transfers sourced from it fail over immediately. Cheap;
  // safe to call from a death callback.
  void OnPeerDeath(const NodeId& node);

  size_t UsedBytes() const;
  size_t NumObjects() const;
  const NodeId& node() const { return node_; }
  PullManager& pull_manager() { return *pull_manager_; }

  // Stats for benches.
  Counter& bytes_written() { return bytes_written_; }
  Counter& objects_written() { return objects_written_; }

 private:
  struct Slot {
    BufferPtr buffer;
    bool on_disk = false;
    std::list<ObjectId>::iterator lru_it;
  };

  // Seals `buffer` under `id` in the local tiers; false when `id` is already
  // here. Objects are immutable, so a re-put (idempotent re-execution after
  // failures produces identical values) is a no-op and publishes nothing.
  bool SealLocal(const ObjectId& id, const BufferPtr& buffer);
  // Evicts LRU objects to the disk tier until used memory is at most
  // `target`.
  void EvictLocked(size_t target) REQUIRES(mu_);
  void TouchLocked(const ObjectId& id, Slot& slot) REQUIRES(mu_);

  NodeId node_;
  gcs::GcsTables* tables_;
  SimNetwork* net_;
  ObjectStoreConfig config_;
  gcs::LivenessView* liveness_;  // may be null: assume-alive
  PeerResolver peer_resolver_;

  // Reader-writer lock: ContainsLocal is on the task-submission hot path
  // (every dependency of every Enqueue) and takes it shared; mutations and
  // LRU touches take it exclusive.
  mutable SharedMutex mu_{"ObjectStore.mu"};
  std::unordered_map<ObjectId, Slot> objects_ GUARDED_BY(mu_);
  std::list<ObjectId> lru_ GUARDED_BY(mu_);  // front = most recent
  size_t used_bytes_ GUARDED_BY(mu_) = 0;

  ThreadPool copy_pool_;
  std::unique_ptr<PullManager> pull_manager_;

  Counter bytes_written_;
  Counter objects_written_;
};

// Copies `size` bytes from src to dst using up to `threads` pool workers in
// parallel chunks. Exposed for the Fig. 9 thread-sweep bench.
void ParallelCopy(uint8_t* dst, const uint8_t* src, size_t size, int threads, ThreadPool& pool);

}  // namespace ray

#endif  // RAY_OBJECTSTORE_OBJECT_STORE_H_
