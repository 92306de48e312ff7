#include "serve/router.h"

#include <algorithm>

#include "common/clock.h"
#include "common/logging.h"
#include "serve/replica.h"
#include "trace/trace.h"

namespace ray {
namespace serve {

namespace {
// Admission sheds a request when its estimated wait exceeds this share of
// the SLO.
constexpr double kAdmissionSloFraction = 0.7;
// Hard admission backstop on outstanding requests.
constexpr int64_t kMaxOutstanding = 4096;
// Pipeline depth per replica mailbox.
constexpr int kMaxInflightPerReplica = 2;
// Dispatch attempts before a request is given up.
constexpr int kMaxAttempts = 4;
// Sliding window for p50/p99.
constexpr int64_t kStatsWindowUs = 1'000'000;
// Serve Table metrics cadence.
constexpr int64_t kMetricsPublishUs = 100'000;
// Uniform jitter on each replica's service time, in percent.
constexpr int64_t kReplicaJitterPct = 20;
constexpr size_t kDispatchThreads = 4;
}  // namespace

Router::Router(Ray ray, const RouterConfig& config)
    : ray_(ray),
      config_(config),
      admission_budget_us_(
          static_cast<int64_t>(kAdmissionSloFraction * static_cast<double>(config.slo_us))),
      service_ema_us_(config.replica_service_us),
      latency_(kStatsWindowUs) {
  dispatch_pool_ = std::make_unique<ThreadPool>(kDispatchThreads);
  // Node deaths reach the loop through the Node Table's membership channel —
  // the same death notifications the rest of the runtime keys failover on.
  membership_token_ =
      ray_.cluster().tables().nodes.SubscribeMembership([this](const NodeId& node, bool alive) {
        if (!alive) {
          Event ev;
          ev.kind = Event::Kind::kNodeDown;
          ev.node = node;
          queue_.Push(ev);
        }
      });
  last_publish_us_ = NowMicros();
  loop_thread_ = std::thread([this] { Loop(); });
  tick_thread_ = std::thread([this] { TickLoop(); });
}

Router::~Router() { Stop(); }

Status Router::Start(int initial_replicas, int64_t timeout_us) {
  for (int i = 0; i < initial_replicas; ++i) {
    AddReplica();
  }
  int64_t deadline = NowMicros() + timeout_us;
  while (NumHealthyReplicas() < initial_replicas) {
    if (NowMicros() >= deadline) {
      return Status::TimedOut("serving replicas did not come up");
    }
    SleepMicros(1000);
  }
  return Status::Ok();
}

void Router::Stop() {
  if (stopped_.exchange(true)) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  ray_.cluster().tables().nodes.UnsubscribeMembership(membership_token_);
  {
    MutexLock lock(tick_mu_);
    tick_stop_ = true;
    tick_cv_.NotifyAll();
  }
  if (tick_thread_.joinable()) {
    tick_thread_.join();
  }
  // Drain dispatch jobs first: each one still pushes its kDispatched event
  // (the queue is open), so the loop's drain below learns every subscription
  // token and can release it.
  dispatch_pool_->Shutdown();
  queue_.Close();
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  // Loop is gone; its state is quiescent. Release remaining subscriptions
  // (requests that never completed) so no GCS callback outlives the router.
  auto& objects = ray_.cluster().tables().objects;
  for (auto& [id, req] : requests_) {
    if (req.has_sub) {
      objects.UnsubscribeLocations(req.result, req.sub_token);
    }
  }
  requests_.clear();
  auto& serve_table = ray_.cluster().tables().serve;
  for (Replica& r : replicas_) {
    if (r.state == ReplicaState::kHealthy || r.state == ReplicaState::kStarting) {
      serve_table.RemoveReplica(kReplicaGroup, r.actor);
    }
  }
}

bool Router::Submit(uint64_t request_id, int64_t scheduled_us) {
  if (stopping_.load(std::memory_order_acquire)) {
    shed_.Add();
    return false;
  }
  int healthy = healthy_count_.load(std::memory_order_relaxed);
  int64_t out = outstanding_.load(std::memory_order_relaxed);
  bool admit = healthy > 0 && out < kMaxOutstanding;
  if (admit) {
    // Estimated time to drain the backlog plus serve this request, assuming
    // each healthy replica serves serially at the observed service EMA.
    int64_t ema = service_ema_us_.load(std::memory_order_relaxed);
    int64_t est = (out / healthy + 1) * ema;
    admit = est <= admission_budget_us_;
  }
  if (!admit) {
    shed_.Add();
    return false;
  }
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  Event ev;
  ev.kind = Event::Kind::kRequest;
  ev.request_id = request_id;
  ev.scheduled_us = scheduled_us;
  ev.admitted_us = NowMicros();
  if (!queue_.Push(ev)) {
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    shed_.Add();
    return false;
  }
  admitted_.Add();
  return true;
}

void Router::AddReplica() {
  Event ev;
  ev.kind = Event::Kind::kAddReplica;
  queue_.Push(ev);
}

void Router::RemoveReplica() {
  Event ev;
  ev.kind = Event::Kind::kRemoveReplica;
  queue_.Push(ev);
}

void Router::TickLoop() {
  for (;;) {
    {
      const int64_t deadline_us = NowMicros() + config_.tick_us;
      MutexLock lock(tick_mu_);
      while (!tick_stop_) {
        if (!tick_cv_.WaitUntilMicros(tick_mu_, deadline_us)) {
          break;
        }
      }
      if (tick_stop_) {
        return;
      }
    }
    Event ev;
    ev.kind = Event::Kind::kTick;
    queue_.Push(ev);
  }
}

void Router::Loop() {
  while (auto ev = queue_.Pop()) {
    switch (ev->kind) {
      case Event::Kind::kRequest:
        HandleRequest(*ev);
        break;
      case Event::Kind::kDispatched:
        HandleDispatched(*ev);
        break;
      case Event::Kind::kDone:
        HandleDone(*ev);
        break;
      case Event::Kind::kReplicaReady:
        HandleReplicaReady(ev->actor);
        break;
      case Event::Kind::kNodeDown:
        HandleNodeDown(ev->node);
        break;
      case Event::Kind::kAddReplica:
        HandleAddReplica();
        break;
      case Event::Kind::kRemoveReplica:
        HandleRemoveReplica();
        break;
      case Event::Kind::kTick:
        HandleTick();
        break;
    }
  }
}

void Router::HandleRequest(const Event& ev) {
  if (stopping_.load(std::memory_order_acquire)) {
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  Request req;
  req.scheduled_us = ev.scheduled_us;
  req.admitted_us = ev.admitted_us;
  auto [it, inserted] = requests_.emplace(ev.request_id, req);
  RAY_CHECK(inserted) << "duplicate serving request id";
  TryDispatch(ev.request_id, it->second);
}

size_t Router::PickReplica() const {
  size_t best = SIZE_MAX;
  int best_inflight = kMaxInflightPerReplica;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    const Replica& r = replicas_[i];
    if (r.state == ReplicaState::kHealthy && r.inflight < best_inflight) {
      best = i;
      best_inflight = r.inflight;
    }
  }
  return best;
}

void Router::TryDispatch(uint64_t id, Request& req) {
  size_t idx = PickReplica();
  if (idx == SIZE_MAX) {
    queued_.push_back(id);
    return;
  }
  SpawnDispatch(id, req, idx);
}

void Router::SpawnDispatch(uint64_t id, Request& req, size_t replica_idx) {
  Replica& r = replicas_[replica_idx];
  ++r.inflight;
  req.replica_idx = replica_idx;
  ++req.epoch;
  ++req.attempts;
  req.dispatched_us = NowMicros();
  req.has_sub = false;
  auto& tracer = trace::Tracer::Instance();
  if (tracer.ShouldRecordInfra()) {
    tracer.Emit(trace::Stage::kServeQueue, req.admitted_us, req.dispatched_us - req.admitted_us,
                TaskId(), ObjectId(), ray_.home(), r.node);
  }
  ActorHandle handle = r.handle;
  uint64_t epoch = req.epoch;
  bool submitted = dispatch_pool_->Submit([this, id, epoch, handle]() mutable {
    // Runs on a dispatch-pool thread: Call blocks on the scheduler hop and,
    // if the replica is mid-recovery, on its relocation.
    auto ref = handle.Call<int64_t>("Infer", static_cast<int64_t>(id));
    auto& objects = ray_.cluster().tables().objects;
    uint64_t token = objects.SubscribeLocations(
        ref.id(), [this, id, epoch](const ObjectId&, const NodeId&) {
          Event done;
          done.kind = Event::Kind::kDone;
          done.request_id = id;
          done.epoch = epoch;
          queue_.Push(done);
        });
    Event ev;
    ev.kind = Event::Kind::kDispatched;
    ev.request_id = id;
    ev.epoch = epoch;
    ev.result = ref.id();
    ev.sub_token = token;
    if (!queue_.Push(ev)) {
      // Router is draining; nobody will ever learn this token.
      objects.UnsubscribeLocations(ref.id(), token);
      return;
    }
    // Sealed-before-subscribe race: if the result already has a location,
    // the publish fired before our subscription existed — complete by hand.
    auto loc = objects.GetLocations(ref.id());
    if (loc.ok() && !loc->locations.empty()) {
      Event done;
      done.kind = Event::Kind::kDone;
      done.request_id = id;
      done.epoch = epoch;
      queue_.Push(done);
    }
  });
  if (!submitted) {
    // Pool already shut down (stop racing a dispatch): unwind and drop.
    --r.inflight;
    req.replica_idx = SIZE_MAX;
    DropRequest(id);
  }
}

void Router::DrainQueue() {
  while (!queued_.empty()) {
    uint64_t id = queued_.front();
    auto it = requests_.find(id);
    if (it == requests_.end() || it->second.done || it->second.replica_idx != SIZE_MAX) {
      queued_.pop_front();  // finished or re-dispatched through another path
      continue;
    }
    size_t idx = PickReplica();
    if (idx == SIZE_MAX) {
      return;  // no capacity; completions re-enter here
    }
    queued_.pop_front();
    SpawnDispatch(id, it->second, idx);
  }
}

void Router::HandleDispatched(const Event& ev) {
  auto it = requests_.find(ev.request_id);
  if (it == requests_.end() || it->second.epoch != ev.epoch) {
    // Superseded attempt (re-dispatched or dropped before the job reported
    // in): release its subscription now that we finally know the token.
    ray_.cluster().tables().objects.UnsubscribeLocations(ev.result, ev.sub_token);
    return;
  }
  Request& req = it->second;
  if (req.done) {
    // Completed via the job's own seal-check before this event arrived.
    ray_.cluster().tables().objects.UnsubscribeLocations(ev.result, ev.sub_token);
    requests_.erase(it);
    return;
  }
  req.result = ev.result;
  req.sub_token = ev.sub_token;
  req.has_sub = true;
}

void Router::HandleDone(const Event& ev) {
  auto it = requests_.find(ev.request_id);
  if (it == requests_.end() || it->second.epoch != ev.epoch || it->second.done) {
    return;  // stale epoch or duplicate publish
  }
  Request& req = it->second;
  int64_t now = NowMicros();
  if (req.replica_idx != SIZE_MAX) {
    Replica& r = replicas_[req.replica_idx];
    --r.inflight;
    FinishDrainIfIdle(r);
    req.replica_idx = SIZE_MAX;
  }
  int64_t service = now - req.dispatched_us;
  int64_t ema = service_ema_us_.load(std::memory_order_relaxed);
  service_ema_us_.store(ema + (service - ema) / 8, std::memory_order_relaxed);
  latency_.Observe(now, now - req.scheduled_us);
  completed_.Add();
  auto& tracer = trace::Tracer::Instance();
  if (tracer.ShouldRecordInfra()) {
    tracer.Emit(trace::Stage::kServeRoute, req.dispatched_us, service, TaskId(), req.result,
                ray_.home());
  }
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  if (req.has_sub) {
    ray_.cluster().tables().objects.UnsubscribeLocations(req.result, req.sub_token);
    requests_.erase(it);
  } else {
    // kDispatched has not delivered the token yet; it erases on arrival.
    req.done = true;
  }
  DrainQueue();
}

void Router::DetachAttempt(Request& req) {
  if (req.replica_idx != SIZE_MAX) {
    Replica& r = replicas_[req.replica_idx];
    --r.inflight;
    FinishDrainIfIdle(r);
    req.replica_idx = SIZE_MAX;
  }
  if (req.has_sub) {
    ray_.cluster().tables().objects.UnsubscribeLocations(req.result, req.sub_token);
    req.has_sub = false;
  }
  // Invalidate the in-flight attempt: its late kDone / kDispatched events
  // fail the epoch check (kDispatched then releases its own token).
  ++req.epoch;
}

void Router::DropRequest(uint64_t id) {
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  requests_.erase(id);
}

void Router::RedispatchOrDrop(uint64_t id, Request& req) {
  DetachAttempt(req);
  if (req.attempts >= kMaxAttempts) {
    timed_out_.Add();
    DropRequest(id);
    return;
  }
  rerouted_.Add();
  TryDispatch(id, req);
}

void Router::HandleNodeDown(const NodeId& node) {
  bool lost_any = false;
  for (Replica& r : replicas_) {
    if (r.node == node &&
        (r.state == ReplicaState::kHealthy || r.state == ReplicaState::kStarting ||
         r.state == ReplicaState::kDraining)) {
      SetReplicaState(r, ReplicaState::kDead);
      ray_.cluster().tables().serve.RemoveReplica(kReplicaGroup, r.actor);
      lost_any = true;
    }
  }
  if (!lost_any) {
    return;
  }
  // Re-route every request in flight on a dead replica. Its Infer may have
  // died mid-execution (result never seals), so don't wait for the timeout.
  std::vector<uint64_t> hit;
  for (auto& [id, req] : requests_) {
    if (!req.done && req.replica_idx != SIZE_MAX &&
        replicas_[req.replica_idx].state == ReplicaState::kDead) {
      hit.push_back(id);
    }
  }
  for (uint64_t id : hit) {
    auto it = requests_.find(id);
    if (it != requests_.end()) {
      RedispatchOrDrop(id, it->second);
    }
  }
  DrainQueue();
}

void Router::HandleReplicaReady(const ActorId& actor) {
  auto it = replica_index_.find(actor);
  if (it == replica_index_.end()) {
    return;
  }
  Replica& r = replicas_[it->second];
  if (r.state != ReplicaState::kStarting) {
    return;  // died while starting; tick-driven re-adoption handles it
  }
  auto loc = ray_.cluster().tables().actors.GetLocation(actor);
  if (!loc.ok() || ray_.cluster().liveness().IsDead(*loc)) {
    SetReplicaState(r, ReplicaState::kDead);
    return;
  }
  r.node = *loc;
  SetReplicaState(r, ReplicaState::kHealthy);
  DrainQueue();
}

void Router::HandleAddReplica() {
  if (stopping_.load(std::memory_order_acquire)) {
    return;
  }
  // Spread-placed creation: the global scheduler lands it on the node with
  // the fewest current group members (and records it in the Serve Table).
  ActorHandle handle = ray_.CreateActorSpread("ServeReplica", kReplicaGroup);
  Replica r;
  r.handle = handle;
  r.actor = handle.id();
  replica_index_[handle.id()] = replicas_.size();
  replicas_.push_back(r);
  replica_count_.fetch_add(1, std::memory_order_relaxed);
  int64_t seed = static_cast<int64_t>(handle.id().Hash() & 0x7fffffff);
  bool submitted = dispatch_pool_->Submit([this, handle, seed]() mutable {
    // Init is a chain method; Get blocks until it has actually run, so the
    // kReplicaReady below means "routable", not just "created".
    auto ref = handle.Call<int>("Init", config_.replica_service_us, kReplicaJitterPct,
                                seed);
    auto init = ray_.Get(ref, 30'000'000);
    if (!init.ok()) {
      RAY_LOG(WARNING) << "serving replica init failed: " << init.status().ToString();
    }
    Event ev;
    ev.kind = Event::Kind::kReplicaReady;
    ev.actor = handle.id();
    queue_.Push(ev);
  });
  if (!submitted) {
    SetReplicaState(replicas_.back(), ReplicaState::kDead);
  }
}

void Router::HandleRemoveReplica() {
  if (healthy_count_.load(std::memory_order_relaxed) <= 1) {
    return;  // never drain the last healthy replica
  }
  // Drain the most recently added healthy replica (LIFO keeps the stable
  // core of the set warm).
  for (size_t i = replicas_.size(); i-- > 0;) {
    Replica& r = replicas_[i];
    if (r.state == ReplicaState::kHealthy) {
      SetReplicaState(r, ReplicaState::kDraining);
      ray_.cluster().tables().serve.RemoveReplica(kReplicaGroup, r.actor);
      FinishDrainIfIdle(r);
      return;
    }
  }
}

void Router::FinishDrainIfIdle(Replica& r) {
  if (r.state == ReplicaState::kDraining && r.inflight == 0) {
    SetReplicaState(r, ReplicaState::kRemoved);
  }
}

void Router::HandleTick() {
  int64_t now = NowMicros();
  // Timeout scan: in-flight attempts that outlived request_timeout_us are
  // re-dispatched; queued requests that outlived it are dropped (admission
  // keeps this rare — it only triggers when capacity collapsed under us).
  std::vector<uint64_t> expired;
  for (auto& [id, req] : requests_) {
    if (req.done) {
      continue;
    }
    int64_t ref = req.replica_idx != SIZE_MAX ? req.dispatched_us : req.admitted_us;
    if (now - ref > config_.request_timeout_us) {
      expired.push_back(id);
    }
  }
  for (uint64_t id : expired) {
    auto it = requests_.find(id);
    if (it == requests_.end()) {
      continue;
    }
    if (it->second.replica_idx != SIZE_MAX) {
      RedispatchOrDrop(id, it->second);
    } else {
      timed_out_.Add();
      DropRequest(id);
    }
  }
  // Re-adoption: a dead replica whose actor recovery landed on a live node
  // rejoins the rotation (recovery replays only creation + Init — Infer is
  // read_only and kept off the replay log).
  for (Replica& r : replicas_) {
    if (r.state != ReplicaState::kDead) {
      continue;
    }
    auto loc = ray_.cluster().tables().actors.GetLocation(r.actor);
    if (loc.ok() && !ray_.cluster().liveness().IsDead(*loc) &&
        ray_.cluster().FindNode(*loc) != nullptr) {
      r.node = *loc;
      SetReplicaState(r, ReplicaState::kHealthy);
      ray_.cluster().tables().serve.AddReplica(kReplicaGroup, r.actor, *loc);
    }
  }
  DrainQueue();
  if (now - last_publish_us_ >= kMetricsPublishUs) {
    PublishMetrics(now);
  }
}

void Router::PublishMetrics(int64_t now) {
  ServeMetrics m;
  m.published_us = now;
  auto window = latency_.Snap(now);
  m.window_completed = window->Count();
  m.window_p50_us = window->Percentile(50.0);
  m.window_p99_us = window->Percentile(99.0);
  double interval_s = static_cast<double>(now - last_publish_us_) / 1e6;
  uint64_t completed = completed_.Value();
  uint64_t shed = shed_.Value();
  if (interval_s > 0) {
    m.window_qps = static_cast<double>(completed - published_completed_) / interval_s;
    m.window_shed_per_s = static_cast<double>(shed - published_shed_) / interval_s;
  }
  published_completed_ = completed;
  published_shed_ = shed;
  m.service_ema_us = static_cast<double>(service_ema_us_.load(std::memory_order_relaxed));
  m.inflight = outstanding_.load(std::memory_order_relaxed) - static_cast<int64_t>(queued_.size());
  m.queued = static_cast<int64_t>(queued_.size());
  m.healthy_replicas = healthy_count_.load(std::memory_order_relaxed);
  ray_.cluster().tables().serve.PublishMetrics(kReplicaGroup, m.Serialize());
  last_publish_us_ = now;
}

void Router::SetReplicaState(Replica& r, ReplicaState next) {
  if (r.state == next) {
    return;
  }
  if (r.state == ReplicaState::kHealthy) {
    healthy_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (next == ReplicaState::kHealthy) {
    healthy_count_.fetch_add(1, std::memory_order_relaxed);
  }
  // kDead keeps its replica_count_ slot (re-adoption may bring it back);
  // only kRemoved leaves the set for good.
  if (next == ReplicaState::kRemoved) {
    replica_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  r.state = next;
}

}  // namespace serve
}  // namespace ray
