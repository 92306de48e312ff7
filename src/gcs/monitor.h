// Failure detection (Section 4.2.3). Two halves:
//
//   GcsMonitor   — the GCS-side sweeper. Local schedulers already publish
//                  periodic heartbeats into the Node Table; the monitor is
//                  their only consumer for liveness. It polls every alive
//                  node's heartbeat sequence number and, when a node's
//                  heartbeat has not advanced for `miss_threshold` intervals,
//                  declares the node dead: MarkDead in the Node Table (whose
//                  membership key doubles as the death pub-sub channel) and a
//                  durable "node-death:" record in the event log.
//
//   LivenessView — the consumer-side cache. Subscribes to Node Table
//                  membership and keeps a local dead-set, so every liveness
//                  decision in the scheduler / object store / runtime layers
//                  is one hash lookup against *detected* state rather than a
//                  query of the simulated network's omniscient IsDead oracle.
//                  Death callbacks let consumers react proactively (actor
//                  re-creation, fetch retries, pull failover) instead of
//                  waiting to trip over the corpse on the next request.
//
// Detection latency: a node's death becomes visible no sooner than the wire
// going dark and no later than roughly
//     miss_threshold * heartbeat_interval_us + heartbeat_interval_us / 4
// after its last heartbeat (the monitor sweeps four times per interval).
// Consumers therefore treat "alive in the view" as a hint that can be stale
// for one detection window, and every path that acts on it tolerates the
// resulting failed RPC/transfer by retrying.
#ifndef RAY_GCS_MONITOR_H_
#define RAY_GCS_MONITOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/id.h"
#include "common/sync.h"
#include "gcs/tables.h"

namespace ray {
namespace gcs {

// ---------------------------------------------------------------------------
// LivenessView: subscription-backed local cache of cluster membership.
// ---------------------------------------------------------------------------
class LivenessView {
 public:
  // Fires exactly once per node transition into the dead state. Runs on a
  // GCS publish worker: must be cheap, must not block, and must not
  // subscribe/unsubscribe on the same GCS (hand real work to another thread).
  using DeathCallback = std::function<void(const NodeId&)>;

  explicit LivenessView(GcsTables* tables);
  ~LivenessView();

  LivenessView(const LivenessView&) = delete;
  LivenessView& operator=(const LivenessView&) = delete;

  // Nodes the view has never heard of count as alive: a fresh node's
  // registration may still be in flight, and the failure detector — not this
  // cache — is the authority that turns silence into death.
  bool IsDead(const NodeId& node) const;
  bool IsAlive(const NodeId& node) const { return !IsDead(node); }
  // Whether any of `nodes` (an Object Table entry's locations) is alive:
  // one shared-lock acquisition for the whole list.
  bool AnyAlive(const std::vector<NodeId>& nodes) const;

  uint64_t AddDeathCallback(DeathCallback callback);
  void RemoveDeathCallback(uint64_t token);

  uint64_t NumDeathsObserved() const {
    return deaths_observed_.load(std::memory_order_relaxed);
  }

 private:
  void OnMembership(const NodeId& node, bool alive);

  GcsTables* tables_;
  uint64_t sub_token_ = 0;

  mutable SharedMutex mu_{"LivenessView.mu"};
  std::unordered_set<NodeId> dead_ GUARDED_BY(mu_);

  Mutex cb_mu_{"LivenessView.cb_mu"};
  std::map<uint64_t, DeathCallback> callbacks_ GUARDED_BY(cb_mu_);
  uint64_t next_cb_token_ GUARDED_BY(cb_mu_) = 1;
  std::atomic<uint64_t> deaths_observed_{0};
};

// ---------------------------------------------------------------------------
// GcsMonitor: heartbeat sweeper that turns silence into MarkDead.
// ---------------------------------------------------------------------------
struct MonitorConfig {
  // Consecutive missed intervals before a node is declared dead.
  int miss_threshold = 5;
};

class GcsMonitor {
 public:
  // `heartbeat_interval_us` is the cadence nodes report at: the Cluster
  // passes its local schedulers' interval, so detector and reporters never
  // drift apart.
  GcsMonitor(GcsTables* tables, int64_t heartbeat_interval_us, const MonitorConfig& config);
  ~GcsMonitor();

  GcsMonitor(const GcsMonitor&) = delete;
  GcsMonitor& operator=(const GcsMonitor&) = delete;

  // Stops the sweep thread; idempotent. After return no further death is
  // declared (Cluster teardown calls this before nodes stop heartbeating, so
  // graceful shutdown is not misread as mass node failure).
  void Stop();

  // How long a node's heartbeat may sit unchanged before it is declared
  // dead. Not the naive miss_threshold * heartbeat_interval_us: each
  // interval is padded with the *measured* scheduling slack of this host
  // (see SchedulingSlackUs in monitor.cc), so a loaded CI box or a
  // sanitizer build that stretches a 20ms sleep into 80ms does not get its
  // perfectly-alive nodes declared dead. On a quiet release build the
  // padding is a couple of milliseconds and the bound is close to naive.
  int64_t DetectionBoundUs() const { return detection_bound_us_; }
  // Counts a death once its "node-death:" event is written, and before its
  // membership change: a reader that sees the count can read the event, and
  // one that sees the node dead in a LivenessView can read the count.
  uint64_t NumDeathsDeclared() const {
    return deaths_declared_.load(std::memory_order_acquire);
  }

 private:
  struct Observed {
    uint64_t seq = 0;
    int64_t last_change_us = 0;  // when the monitor last saw seq advance
  };

  void SweepLoop();
  void Sweep(int64_t now_us);
  void DeclareDead(const NodeId& node);

  GcsTables* tables_;
  MonitorConfig config_;
  int64_t sweep_interval_us_;
  int64_t detection_bound_us_ = 0;  // fixed at construction (see ctor)

  std::unordered_map<NodeId, Observed> observed_;  // sweep-thread private
  std::atomic<uint64_t> deaths_declared_{0};

  Mutex stop_mu_{"GcsMonitor.stop_mu"};
  CondVar stop_cv_;
  bool stop_ GUARDED_BY(stop_mu_) = false;
  std::thread sweep_thread_;
};

}  // namespace gcs
}  // namespace ray

#endif  // RAY_GCS_MONITOR_H_
