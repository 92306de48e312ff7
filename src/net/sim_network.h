// Simulated cluster interconnect. Every cross-node byte in the system flows
// through this layer, which charges one-way propagation latency plus
// serialization time at a configurable bandwidth. Two modeling choices carry
// the paper's results:
//   1. Per-stream bandwidth cap: a single TCP stream cannot saturate the
//      25Gbps link; Ray stripes large objects over several streams (Section
//      4.2.4), while the MPI baseline sends on one thread (Section 5.1,
//      Fig. 12a). Transfers declare their stream count and get
//      min(streams * per_stream, link) bandwidth.
//   2. NIC serialization: concurrent transfers sharing a NIC queue behind
//      each other via a virtual-time reservation, so aggregate bandwidth is
//      conserved under contention.
// The extra_scheduler_latency knob reproduces the Fig. 12b ablation.
//
// Data-plane refactor: transfers are scheduled asynchronously. TransferAsync
// reserves NIC time immediately and fires a completion callback from an
// internal timer thread once the simulated wire time has elapsed; the
// blocking Transfer is a shim that waits on that callback. Pending transfers
// can be cancelled (the un-elapsed NIC reservation is released), which is how
// the PullManager abandons a chunk when every waiter gives up. Endpoint death
// is checked both at schedule time and at completion time, so a source node
// dying mid-transfer surfaces as kNodeDead to the callback — the signal the
// PullManager's mid-transfer failover keys on.
#ifndef RAY_NET_SIM_NETWORK_H_
#define RAY_NET_SIM_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/id.h"
#include "common/sync.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"

namespace ray {

struct NetConfig {
  int64_t latency_us = 100;                       // one-way propagation delay
  double link_bandwidth_bytes_s = 3.125e9;        // 25 Gbps NIC
  double per_stream_bandwidth_bytes_s = 1.3e9;    // single TCP stream ceiling
  int64_t control_latency_us = 30;                // control-plane RPC cost
  int64_t extra_scheduler_latency_us = 0;         // Fig. 12b ablation
};

class SimNetwork {
 public:
  // Transfers at or below this size bypass NIC queueing (control traffic).
  static constexpr uint64_t kSmallTransferBytes = 64 * 1024;

  // Completion callback for asynchronous transfers. Runs on the network's
  // completion thread, so it must be cheap and must not block — enqueue work
  // elsewhere.
  using TransferCallback = std::function<void(Status)>;

  explicit SimNetwork(const NetConfig& config);
  ~SimNetwork();

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  // Blocks the caller for the duration of a data transfer of `bytes` from
  // `from` to `to`, striped over `streams` connections. Local transfers are
  // free. Fails if either endpoint is dead. Shim over TransferAsync.
  Status Transfer(const NodeId& from, const NodeId& to, uint64_t bytes, int streams);

  // Schedules a transfer and returns immediately with a cancellation token
  // (never 0). `cb` fires with Ok once the simulated wire time has passed, or
  // with kNodeDead if an endpoint is dead at schedule or completion time —
  // completion-time death models a node dying mid-transfer. `object` is only
  // used to key the per-chunk trace span (may be nil).
  uint64_t TransferAsync(const NodeId& from, const NodeId& to, uint64_t bytes, int streams,
                         const ObjectId& object, TransferCallback cb);

  // Cancels a pending transfer: the callback is dropped (never invoked) and
  // the un-elapsed portion of the NIC reservations is released. Returns true
  // if the transfer was still pending; false if it already completed (in
  // which case this call blocks until the in-flight callback returns, so the
  // caller can safely tear down callback state afterwards).
  bool CancelTransfer(uint64_t token);

  // Blocks for a control-plane round trip (task forward, GCS notification...).
  Status ControlRpc(const NodeId& from, const NodeId& to);

  // Blocks for scheduler-decision latency: control RPC plus the injected
  // ablation latency. Used on the path driver -> local -> global scheduler.
  Status SchedulerHop(const NodeId& from, const NodeId& to);

  int64_t EstimateTransferMicros(uint64_t bytes, int streams) const;

  // Microseconds of NIC reservation still queued ahead of a transfer that
  // would start on `node` now — 0 when the NIC is idle. This is the
  // bandwidth-awareness signal the PullManager uses to order replica
  // candidates (a saturated source delays any new pull by its backlog).
  int64_t NicBacklogMicros(const NodeId& node) const;

  void SetNodeDead(const NodeId& node, bool dead);
  bool IsDead(const NodeId& node) const;

  // --- seeded chaos fault injection ---
  // All injection happens at the wire: dropped messages surface as
  // kUnavailable (distinct from kNodeDead so consumers can tell a flaky link
  // from a corpse), partitions fail both directions, bandwidth throttles
  // stretch transfer times, jitter pads every delay. Heartbeats do NOT flow
  // through this layer (nodes write them straight into the GCS tables), so
  // drops and partitions never cause false death declarations — only an
  // actually-stopped node goes silent. Draw order depends on thread
  // interleaving, so a fixed seed gives statistical, not bitwise,
  // reproducibility.
  void SetChaosSeed(uint64_t seed);  // enables injection, reseeds the RNG
  void DisableChaos();               // stops injection, keeps knob settings
  // Probability that any message (transfer chunk or control RPC) is lost.
  void SetDropProbability(double p);
  // Per-link override, applied in both directions; max with the default.
  void SetLinkDropProbability(const NodeId& a, const NodeId& b, double p);
  // Full bidirectional partition between two nodes while `on`.
  void SetPartitioned(const NodeId& a, const NodeId& b, bool on);
  // Scales the node's effective bandwidth (0 < scale <= 1; 1 removes it).
  void SetNodeBandwidthScale(const NodeId& node, double scale);
  // Uniform extra delay in [0, us] added to transfers and control RPCs.
  void SetJitterMaxMicros(int64_t us);
  uint64_t NumChaosDrops() const { return chaos_drops_.load(std::memory_order_relaxed); }

  void SetExtraSchedulerLatencyMicros(int64_t us) {
    extra_scheduler_latency_us_.store(us, std::memory_order_relaxed);
  }
  int64_t ExtraSchedulerLatencyMicros() const {
    return extra_scheduler_latency_us_.load(std::memory_order_relaxed);
  }

  const NetConfig& config() const { return config_; }

  uint64_t TotalBytesTransferred() const { return total_bytes_.load(std::memory_order_relaxed); }
  uint64_t NumTransfers() const { return num_transfers_.load(std::memory_order_relaxed); }
  uint64_t NumCancelledTransfers() const {
    return cancelled_transfers_.load(std::memory_order_relaxed);
  }

 private:
  struct Pending {
    NodeId from;
    NodeId to;
    ObjectId object;
    uint64_t bytes = 0;
    int64_t scheduled_us = 0;  // trace span start
    int64_t done_us = 0;       // callback due time
    // Reservation segments [start, end) on each endpoint's NIC, empty (end ==
    // start) for small transfers that bypass the queue.
    int64_t nic_from_start_us = 0, nic_from_end_us = 0;
    int64_t nic_to_start_us = 0, nic_to_end_us = 0;
    TransferCallback cb;
  };

  // The chaos layer's decision for one message on the from->to link.
  struct ChaosVerdict {
    bool drop = false;
    int64_t jitter_us = 0;
    double bw_scale = 1.0;
  };
  ChaosVerdict JudgeChaos(const NodeId& from, const NodeId& to);

  // Reserves `duration_us` of NIC time on `node` starting no earlier than
  // `now_us`; returns the finish time of the reservation.
  int64_t ReserveNic(const NodeId& node, int64_t now_us, int64_t duration_us);
  // Rolls back the un-elapsed part of a reservation if it is still the last
  // one on the NIC (best-effort; later reservations stay queued behind).
  void ReleaseNic(const NodeId& node, int64_t start_us, int64_t end_us, int64_t now_us);
  void CompletionLoop();
  // Death-checks the endpoints, emits the per-chunk span, and runs the
  // callback; called by the completion thread.
  void Complete(Pending&& pending);

  NetConfig config_;
  std::atomic<int64_t> extra_scheduler_latency_us_{0};
  std::atomic<uint64_t> total_bytes_{0};
  std::atomic<uint64_t> num_transfers_{0};
  std::atomic<uint64_t> cancelled_transfers_{0};

  mutable Mutex mu_{"SimNetwork.nic_mu"};
  std::unordered_map<NodeId, int64_t> nic_free_at_us_ GUARDED_BY(mu_);

  // --- async completion machinery ---
  Mutex async_mu_{"SimNetwork.async_mu"};
  CondVar async_cv_;
  // due time -> token; multimap because completions can tie.
  std::multimap<int64_t, uint64_t> due_ GUARDED_BY(async_mu_);
  std::unordered_map<uint64_t, Pending> pending_ GUARDED_BY(async_mu_);
  uint64_t next_token_ GUARDED_BY(async_mu_) = 1;
  // Token whose callback is currently executing on the completion thread.
  uint64_t running_token_ GUARDED_BY(async_mu_) = 0;
  bool stop_ GUARDED_BY(async_mu_) = false;
  std::thread completion_thread_;

  // Liveness is read on every RPC/transfer/fetch but written only when a node
  // dies or revives, so it gets its own reader-writer lock instead of riding
  // on the NIC-reservation mutex.
  mutable SharedMutex dead_mu_{"SimNetwork.dead_mu"};
  std::unordered_set<NodeId> dead_ GUARDED_BY(dead_mu_);

  // --- chaos state ---
  // The atomic keeps the no-chaos fast path to one relaxed load; everything
  // else is only touched under chaos_mu_ when injection is on.
  std::atomic<bool> chaos_enabled_{false};
  std::atomic<uint64_t> chaos_drops_{0};
  mutable Mutex chaos_mu_{"SimNetwork.chaos_mu"};
  Rng chaos_rng_ GUARDED_BY(chaos_mu_){0};
  double chaos_drop_p_ GUARDED_BY(chaos_mu_) = 0.0;
  int64_t chaos_jitter_max_us_ GUARDED_BY(chaos_mu_) = 0;
  // Both directions of a pair are stored, so a verdict is one lookup.
  std::unordered_map<NodeId, std::unordered_map<NodeId, double>> link_drop_p_
      GUARDED_BY(chaos_mu_);
  std::unordered_map<NodeId, std::unordered_set<NodeId>> partitioned_ GUARDED_BY(chaos_mu_);
  std::unordered_map<NodeId, double> bandwidth_scale_ GUARDED_BY(chaos_mu_);
};

}  // namespace ray

#endif  // RAY_NET_SIM_NETWORK_H_
