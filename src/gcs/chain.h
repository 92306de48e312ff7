// Chain replication (van Renesse & Schneider, OSDI'04) for one GCS shard.
// Writes propagate head -> ... -> tail and commit at the tail; reads are
// served by the tail, which guarantees strong consistency. A master
// (emulated in-process) handles failure reports: it removes dead replicas and
// splices in fresh ones, which perform state transfer from the current tail
// before serving. Client-visible latency during reconfiguration is bounded by
// detection delay + state-transfer time, reproduced in bench_gcs_fault_tolerance
// (paper Fig. 10a: < 30ms).
#ifndef RAY_GCS_CHAIN_H_
#define RAY_GCS_CHAIN_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "gcs/kv_store.h"

namespace ray {
namespace gcs {

struct ChainConfig {
  int num_replicas = 2;
  // Latency added per replica hop on the write path and for a tail read.
  int64_t hop_latency_us = 25;
  // Time for the master to detect a failure after it is reported.
  int64_t failure_detection_us = 8000;
};

// One write in a group-committed batch (see Gcs write batching): a whole
// batch propagates down the chain in a single replication round, so the
// per-hop latency is paid once per batch instead of once per write.
struct ChainOp {
  enum class Kind : uint8_t { kPut, kAppend, kDelete };
  Kind kind;
  std::string key;
  std::string value;  // unused for kDelete
};

class ChainShard {
 public:
  explicit ChainShard(const ChainConfig& config);

  // Client operations. They block while the chain is reconfiguring, exactly
  // like a client retrying against a repaired chain.
  Status Put(const std::string& key, const std::string& value);
  Status Append(const std::string& key, const std::string& element);
  // Applies `ops` in order through one replication round: each replica is
  // charged one hop latency for the whole batch. Equivalent to issuing the
  // ops back-to-back, minus the per-op rounds.
  Status ApplyBatch(const std::vector<ChainOp>& ops);
  Result<std::string> Get(const std::string& key) const;
  Result<std::vector<std::string>> GetList(const std::string& key) const;
  Status Delete(const std::string& key);
  bool Contains(const std::string& key) const;
  // Atomic fetch-increment; every replica applies the same deterministic
  // update, so the chain stays consistent.
  Result<uint64_t> Increment(const std::string& key);

  // Kills replica `index`. The next operation that touches it reports the
  // failure to the master, which reconfigures the chain (removing the dead
  // replica) and then starts a replacement that state-transfers from the
  // tail. This mirrors the manual kill + rejoin in Fig. 10a.
  void KillReplica(size_t index);

  size_t NumLiveReplicas() const;
  size_t MemoryBytes() const;
  size_t DiskBytes() const;
  size_t NumEntries() const;
  size_t Flush(const std::function<bool(const std::string&)>& predicate);

  // Total number of reconfigurations performed (for tests).
  int NumReconfigurations() const;

 private:
  struct Replica {
    KvStore store;
    bool alive = true;
  };

  // Blocks until no replica in the chain is dead, performing detection +
  // reconfiguration + state transfer as needed (dropping mu_ for the
  // simulated delays, reacquiring before return).
  void EnsureHealthyLocked() const REQUIRES(mu_);

  // Runs `apply` on every replica's store, head to tail, under mu_ on a
  // healthy chain; returns the number of replicas (the round's hop count).
  template <typename Apply>
  size_t ApplyToReplicas(Apply&& apply) EXCLUDES(mu_);
  // Charges `hops` modelled hop latencies. Called with mu_ released.
  void WaitHops(size_t hops) const EXCLUDES(mu_);

  ChainConfig config_;
  mutable Mutex mu_{"ChainShard.mu"};
  mutable CondVar cv_;
  mutable std::vector<std::unique_ptr<Replica>> replicas_ GUARDED_BY(mu_);
  mutable bool reconfiguring_ GUARDED_BY(mu_) = false;
  mutable int num_reconfigurations_ GUARDED_BY(mu_) = 0;
};

}  // namespace gcs
}  // namespace ray

#endif  // RAY_GCS_CHAIN_H_
