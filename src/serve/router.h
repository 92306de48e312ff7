// The serving router: fronts a replica group of ServeReplica actors with
// admission control, per-replica in-flight caps, and liveness-driven
// failover.
//
// Structure follows the PullManager idiom: a single event-loop thread owns
// every piece of routing state (replica set, per-replica in-flight counts,
// the queued/in-flight request table), and everything else — load-generator
// threads, GCS publish workers, the tick thread — communicates with it by
// enqueueing events. The only router work done off the loop:
//
//   * Admission (Submit): O(1) over three atomics — estimated drain time =
//     (outstanding / healthy_replicas + 1) * service_ema. Requests whose
//     estimate exceeds 0.7 * slo_us are fast-rejected
//     without ever touching the loop, so a saturated router sheds load at
//     atomic-read cost instead of hanging callers.
//   * Dispatch (small thread pool): ActorHandle::Call blocks on a scheduler
//     hop — and, when the target replica just died, on actor recovery — so
//     calls run on pool threads, never on the loop.
//
// Request completion is event-driven: each dispatch subscribes to the Infer
// result object's Object Table locations, so the publish that seals the
// result wakes the router (no thread parks per request; the sealed-before-
// subscribe race is covered by a location check after subscribing). A
// request in flight longer than request_timeout_us is re-dispatched to
// another replica under a bumped attempt epoch; completions of superseded
// attempts are dropped by the epoch check. Node death (the Node Table's
// membership channel, fed by the LivenessView-backed monitor) immediately
// re-routes the dead replica's in-flight requests to survivors; the replica
// rejoins the rotation once actor recovery lands it on a live node.
#ifndef RAY_SERVE_ROUTER_H_
#define RAY_SERVE_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/queue.h"
#include "common/thread_pool.h"
#include "runtime/api.h"
#include "serve/stats.h"

namespace ray {
namespace serve {

// The replica group: spread-placement key and Serve Table key.
inline constexpr char kReplicaGroup[] = "serve";

struct RouterConfig {
  int64_t slo_us = 200'000;           // target p99 the admission bound protects
  int64_t request_timeout_us = 500'000;  // in flight this long -> re-dispatch
  int64_t tick_us = 20'000;           // timeout scan / re-adoption cadence
  int64_t replica_service_us = 2'000;    // ServeReplica::Init service time
};

class Router {
 public:
  Router(Ray ray, const RouterConfig& config);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Creates `initial_replicas` spread-placed replicas and blocks until they
  // are initialized and routable (or `timeout_us` passes).
  Status Start(int initial_replicas, int64_t timeout_us = 30'000'000);
  void Stop();

  // Open-loop entry point. `scheduled_us` is the request's scheduled arrival
  // time — completion latency is measured from it, so router queueing is
  // charged to the request (no coordinated omission). Returns false if
  // admission shed the request; never blocks.
  bool Submit(uint64_t request_id, int64_t scheduled_us);

  // Autoscaler controls: add one replica / drain one out of rotation. Both
  // enqueue to the loop and return immediately.
  void AddReplica();
  void RemoveReplica();

  // --- observability ---
  // The cluster this router serves on (autoscaler reads the Serve Table
  // metrics blob through it — metrics flow through the GCS, not in-memory).
  Cluster& cluster() { return ray_.cluster(); }
  const LatencyWindow& latency() const { return latency_; }
  uint64_t NumAdmitted() const { return admitted_.Value(); }
  uint64_t NumShed() const { return shed_.Value(); }
  uint64_t NumCompleted() const { return completed_.Value(); }
  uint64_t NumTimedOut() const { return timed_out_.Value(); }
  uint64_t NumRerouted() const { return rerouted_.Value(); }
  int64_t NumOutstanding() const { return outstanding_.load(std::memory_order_relaxed); }
  int NumHealthyReplicas() const { return healthy_count_.load(std::memory_order_relaxed); }
  int NumReplicas() const { return replica_count_.load(std::memory_order_relaxed); }

 private:
  struct Event {
    enum class Kind : uint8_t {
      kRequest,       // admitted request enters the loop
      kDispatched,    // dispatch job reports its subscription + result object
      kDone,          // a result object location published
      kReplicaReady,  // a replica finished Init (routable)
      kNodeDown,      // cluster membership: node died
      kAddReplica,
      kRemoveReplica,
      kTick,
    };
    Kind kind = Kind::kTick;
    uint64_t request_id = 0;
    int64_t scheduled_us = 0;
    int64_t admitted_us = 0;
    uint64_t epoch = 0;
    ObjectId result;
    uint64_t sub_token = 0;
    ActorId actor;
    NodeId node;
  };

  enum class ReplicaState : uint8_t { kStarting, kHealthy, kDead, kDraining, kRemoved };

  struct Replica {
    ActorHandle handle;
    ActorId actor;
    NodeId node;
    ReplicaState state = ReplicaState::kStarting;
    int inflight = 0;
  };

  struct Request {
    int64_t scheduled_us = 0;
    int64_t admitted_us = 0;
    int64_t dispatched_us = 0;
    uint64_t epoch = 0;       // bumped per dispatch attempt (and at detach)
    int attempts = 0;
    size_t replica_idx = SIZE_MAX;  // SIZE_MAX = queued, not in flight
    ObjectId result;          // current attempt's result object
    uint64_t sub_token = 0;   // location subscription for `result`
    bool has_sub = false;
    bool done = false;        // completed before kDispatched delivered the token
  };

  void Loop();
  void TickLoop();
  void HandleRequest(const Event& ev);
  // Assigns the request to the least-loaded routable replica (inflight <
  // cap) and spawns the dispatch job; queues it when no replica has room.
  void TryDispatch(uint64_t id, Request& req);
  void SpawnDispatch(uint64_t id, Request& req, size_t replica_idx);
  void DrainQueue();
  void HandleDispatched(const Event& ev);
  void HandleDone(const Event& ev);
  // Detaches the request from its current replica attempt (replica inflight,
  // subscription, epoch bump).
  void DetachAttempt(Request& req);
  void RedispatchOrDrop(uint64_t id, Request& req);
  void DropRequest(uint64_t id);  // erase + outstanding bookkeeping
  void HandleNodeDown(const NodeId& node);
  void HandleReplicaReady(const ActorId& actor);
  void HandleAddReplica();
  void HandleRemoveReplica();
  void HandleTick();
  void PublishMetrics(int64_t now);
  // State transition helper: keeps healthy_count_ in sync.
  void SetReplicaState(Replica& r, ReplicaState next);
  size_t PickReplica() const;
  void FinishDrainIfIdle(Replica& r);

  Ray ray_;
  RouterConfig config_;
  int64_t admission_budget_us_;

  // --- admission-path atomics (written by the loop, read by Submit) ---
  std::atomic<int64_t> outstanding_{0};  // admitted, not yet finished
  std::atomic<int> healthy_count_{0};
  std::atomic<int> replica_count_{0};
  std::atomic<int64_t> service_ema_us_;

  Counter admitted_;
  Counter shed_;
  Counter completed_;
  Counter timed_out_;
  Counter rerouted_;

  LatencyWindow latency_;

  BlockingQueue<Event> queue_;
  std::unique_ptr<ThreadPool> dispatch_pool_;

  // --- loop-owned state (no lock: only the loop thread touches it) ---
  std::vector<Replica> replicas_;
  std::unordered_map<ActorId, size_t> replica_index_;
  std::unordered_map<uint64_t, Request> requests_;
  std::deque<uint64_t> queued_;
  int64_t last_publish_us_ = 0;
  uint64_t published_completed_ = 0;
  uint64_t published_shed_ = 0;

  uint64_t membership_token_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::thread loop_thread_;
  std::thread tick_thread_;
  Mutex tick_mu_{"Router.tick_mu"};
  CondVar tick_cv_;
  bool tick_stop_ GUARDED_BY(tick_mu_) = false;
};

}  // namespace serve
}  // namespace ray

#endif  // RAY_SERVE_ROUTER_H_
