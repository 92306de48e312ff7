// Event-driven pull subsystem (Section 4.2.3-4.2.4): owns every remote fetch
// a node makes. Replaces the old blocking thread-per-transfer PullFrom path
// with:
//
//   * In-flight dedup: concurrent pulls of one object collapse into a single
//     entry with a waiter list — one set of bytes on the wire, one NIC
//     reservation, N callbacks on completion.
//   * Chunk pipelining: objects larger than the configured chunk size are
//     split into fixed-size chunks; while chunk i+1 is on the (simulated)
//     wire, chunk i is being memcpy'd into the assembly buffer, overlapping
//     transfer with copy.
//   * Mid-transfer failover: when the source node dies, the pull retries the
//     surviving replicas *resuming at the failed chunk* — chunks already
//     assembled are kept (objects are immutable, so replicas are
//     byte-identical).
//   * Callback completion: waiters register callbacks instead of parking
//     threads; the scheduler's dependency promotion and the store's blocking
//     Get are both built on top of them.
//
// Assembly buffers live here, not in the store's object map, so LRU eviction
// can never touch a partially-received object. One pull-loop thread per node
// drives all state transitions; SimNetwork completion callbacks only enqueue
// events, keeping the network's timer thread out of memcpy work.
#ifndef RAY_OBJECTSTORE_PULL_MANAGER_H_
#define RAY_OBJECTSTORE_PULL_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/buffer.h"
#include "common/id.h"
#include "common/queue.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "gcs/monitor.h"
#include "gcs/tables.h"
#include "net/sim_network.h"
#include "objectstore/object_store.h"

namespace ray {

class PullManager {
 public:
  // Completion callback: Ok once the object is sealed in the local store, or
  // the failure when no live replica can serve it (kKeyNotFound = never
  // created, kNodeDead = replicas exist but none reachable). Runs on the
  // pull-loop thread — must not block for long; enqueue heavy work elsewhere.
  using Callback = std::function<void(Status)>;

  // `config` is the owning store's: the pull manager reads its fixed chunk
  // size (pull_chunk_bytes; 0 = one transfer per pull), its stream count
  // (num_transfer_threads) and parallel_copy_threshold. Every pull splits
  // its object at the same offsets, so a failover resumes at the failed
  // chunk. `liveness` is the detector-backed view used to
  // filter pull sources; null (standalone stores in tests) means
  // assume-alive — wire failures still drive failover, just without the
  // proactive skip.
  PullManager(const NodeId& node, gcs::GcsTables* tables, SimNetwork* net, ObjectStore* store,
              ThreadPool* copy_pool, const ObjectStoreConfig& config,
              gcs::LivenessView* liveness = nullptr);
  ~PullManager();

  PullManager(const PullManager&) = delete;
  PullManager& operator=(const PullManager&) = delete;

  // Registers a waiter for `id`, starting a pull if none is in flight
  // (otherwise the call dedups into the existing entry). `preferred` seeds
  // source selection when given. Returns a waiter token for CancelWaiter.
  uint64_t Pull(const ObjectId& id, Callback cb, const NodeId* preferred = nullptr);

  // Removes a waiter. If its callback is currently executing, blocks until
  // the callback returns (pubsub-Unsubscribe idiom) so the caller can safely
  // tear down captured state afterwards. When the last waiter leaves, the
  // in-flight transfer is cancelled and partial chunks are dropped.
  void CancelWaiter(uint64_t token);

  // Fails every in-flight pull with `status` (node crash: the store's
  // contents — and any half-assembled pulls — vanish).
  void AbortAll(const Status& status);

  // Failure-detector notification: `node` was declared dead. Cancels any
  // transfer currently sourced from it and fails over to surviving replicas
  // immediately, instead of waiting out the simulated wire time of a transfer
  // that can only end in kNodeDead. Cheap (one queue push); safe from death
  // callbacks.
  void OnNodeDeath(const NodeId& node);

  // Stops the pull loop and fails remaining waiters with kUnavailable.
  // Idempotent; called by ~PullManager.
  void Shutdown();

  // Stats (benches + tests).
  uint64_t NumPullsStarted() const { return pulls_started_.load(std::memory_order_relaxed); }
  uint64_t NumPullsDeduped() const { return pulls_deduped_.load(std::memory_order_relaxed); }
  uint64_t NumFailovers() const { return failovers_.load(std::memory_order_relaxed); }
  uint64_t NumChunksTransferred() const {
    return chunks_transferred_.load(std::memory_order_relaxed);
  }
  // Bytes held in chunk-assembly buffers right now — outside the store's
  // capacity accounting and invisible to eviction by construction.
  size_t InflightBytes() const { return inflight_bytes_.load(std::memory_order_relaxed); }

 private:
  struct Waiter {
    uint64_t token = 0;
    Callback cb;
  };
  // Entry lifecycle is driven solely by the pull-loop thread; `waiters` is
  // the only field other threads mutate (under mu_), plus the two atomics
  // used by the cancel path.
  struct Entry {
    ObjectId id;
    NodeId preferred;
    bool started = false;
    uint64_t size = 0;
    std::shared_ptr<Buffer> assembly;  // skipped by store eviction: lives here
    BufferPtr src_buffer;              // pinned replica bytes on the source
    NodeId src;
    std::unordered_set<NodeId> tried;  // sources that already failed this pull
    size_t num_chunks = 0;
    size_t chunk = 0;  // index currently on the wire (resume point on failover)
    uint64_t current_epoch = 0;
    int64_t started_us = 0;
    std::vector<Waiter> waiters;
    std::atomic<bool> aborted{false};
    std::atomic<uint64_t> net_token{0};
    // True while `size` is counted in inflight_bytes_. exchange(false) is the
    // once-only claim between the cancel paths and CompleteEntry, either of
    // which may release the accounting; `size` is safe to read after a
    // successful claim (written before the release-store of charged).
    std::atomic<bool> charged{false};
  };
  using EntryPtr = std::shared_ptr<Entry>;
  struct Event {
    // Start the pull registered under `id`.
    static Event Start(const ObjectId& id) {
      return {.id = id, .epoch = 0, .status = Status::Ok(), .start = true, .death = false,
              .dead_node = NodeId()};
    }
    // The transfer of `id`'s chunk kicked at `epoch` finished with `status`.
    static Event ChunkDone(const ObjectId& id, uint64_t epoch, Status status) {
      return {.id = id, .epoch = epoch, .status = std::move(status), .start = false,
              .death = false, .dead_node = NodeId()};
    }
    // Every in-flight pull sourced from `node` fails over on the loop thread.
    static Event Death(const NodeId& node) {
      return {.id = ObjectId(), .epoch = 0, .status = Status::Ok(), .start = false,
              .death = true, .dead_node = node};
    }

    ObjectId id;
    uint64_t epoch = 0;
    Status status;
    bool start = false;
    bool death = false;
    NodeId dead_node;
  };

  void Loop();
  void HandleStart(const EntryPtr& e);
  void HandleChunkDone(const EntryPtr& e, const Status& status);
  void HandleNodeDeath(const NodeId& node);
  // Picks the next live untried source and kicks the current chunk; returns
  // false (with `fail` set) when no source can serve the object.
  bool StartFromSource(const EntryPtr& e, Status* fail);
  void KickChunk(const EntryPtr& e);
  void CompleteEntry(const EntryPtr& e, Status status);
  void DispatchWaiters(std::vector<Waiter> waiters, const Status& status);

  NodeId node_;
  gcs::GcsTables* tables_;
  SimNetwork* net_;
  ObjectStore* store_;
  ThreadPool* copy_pool_;
  ObjectStoreConfig config_;
  // pull_chunk_bytes, with 0 (one transfer per pull) read as SIZE_MAX.
  size_t chunk_bytes_;
  // Streams used per chunk at or above parallel_copy_threshold.
  int num_streams_;
  gcs::LivenessView* liveness_;  // may be null: assume-alive

  Mutex mu_{"PullManager.mu"};
  CondVar cv_;  // CancelWaiter barrier on dispatching_token_
  std::unordered_map<ObjectId, EntryPtr> entries_ GUARDED_BY(mu_);
  std::unordered_map<uint64_t, ObjectId> waiter_index_ GUARDED_BY(mu_);
  uint64_t next_token_ GUARDED_BY(mu_) = 1;
  uint64_t dispatching_token_ GUARDED_BY(mu_) = 0;

  BlockingQueue<Event> queue_;
  std::thread loop_thread_;
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> epoch_gen_{0};

  std::atomic<uint64_t> pulls_started_{0};
  std::atomic<uint64_t> pulls_deduped_{0};
  std::atomic<uint64_t> failovers_{0};
  std::atomic<uint64_t> chunks_transferred_{0};
  std::atomic<size_t> inflight_bytes_{0};
};

}  // namespace ray

#endif  // RAY_OBJECTSTORE_PULL_MANAGER_H_
