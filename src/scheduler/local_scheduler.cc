#include "scheduler/local_scheduler.h"

#include <algorithm>

#include "common/clock.h"
#include "common/dst.h"
#include "common/logging.h"

namespace ray {

namespace {

// A ready task whose demand exceeds this node's *available* resources is
// re-forwarded to the global scheduler once it has sat ready this long.
// Availability can shrink permanently (actors hold resources until node
// death), so a task placed here against stale heartbeats may otherwise never
// run even while other tasks keep the node busy.
constexpr int64_t kStrandedRescueUs = 200'000;
// Damping for pressure-driven revocation of BUSY leases: when ready tasks
// are starved and no idle lease exists, a busy lease is revoked only after
// scheduler pressure has persisted this long. A transient ready-queue blip
// (e.g. a burst that the next dispatch round absorbs) must not tear down a
// hot pipelined lease, which would thrash grant/revoke under load.
constexpr int64_t kLeasePressureDwellUs = 60'000;

// Locks `mu`, recording the wait in `wait_ema` (microseconds) only when the
// lock was contended — uncontended acquisitions stay on the fast path.
class SCOPED_CAPABILITY TimedMutexLock {
 public:
  TimedMutexLock(Mutex& mu, Ema& wait_ema) ACQUIRE(mu) : mu_(mu) {
    if (!mu_.TryLock()) {
      Timer timer;
      mu_.Lock();
      wait_ema.Observe(static_cast<double>(timer.ElapsedMicros()));
    }
  }
  ~TimedMutexLock() RELEASE() { mu_.Unlock(); }

  TimedMutexLock(const TimedMutexLock&) = delete;
  TimedMutexLock& operator=(const TimedMutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace

LocalScheduler::LocalScheduler(const NodeId& node, gcs::GcsTables* tables, SimNetwork* net,
                               ObjectStore* store, GlobalSchedulerPool* global,
                               const LocalSchedulerConfig& config, gcs::LivenessView* liveness)
    : node_(node),
      tables_(tables),
      net_(net),
      store_(store),
      global_(global),
      config_(config),
      liveness_(liveness),
      available_(config.total_resources),
      // Constructed here, not in Start(): Node spawns actor fibers onto
      // fibers() before/independently of Start, and membership callbacks
      // (OnPeerDeath) can reach a scheduler that is registered but not yet
      // started — both pointers must already be valid.
      fibers_(std::make_unique<fiber::FiberScheduler>([&config] {
        fiber::SchedulerOptions opts;
        opts.num_carriers = config.num_fiber_carriers;
        return opts;
      }())),
      fetch_pool_(std::make_unique<ThreadPool>(
          static_cast<size_t>(std::max(1, config.num_fetch_threads)))) {}

LocalScheduler::~LocalScheduler() { Shutdown(); }

void LocalScheduler::Start(Executor executor, ActorDispatcher actor_dispatcher) {
  executor_ = std::move(executor);
  actor_dispatcher_ = std::move(actor_dispatcher);
  int num_workers = config_.num_workers > 0
                        ? config_.num_workers
                        : std::max(1, static_cast<int>(config_.total_resources.Get("CPU")));
  worker_fibers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    // Workers are fibers: a worker that parks (nested Get, mailbox wait)
    // frees its carrier, so num_workers bounds concurrency, not OS threads.
    worker_fibers_.push_back(fibers_->Spawn([this] { WorkerLoop(); }));
  }
  ReportHeartbeat();
  heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
}

void LocalScheduler::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) {
    return;
  }
  dispatch_queue_.Close();
  // Kill all leases: callers' SubmitOnLease fails fast from here on, and no
  // resources need returning — the node is going away. Claiming `released`
  // keeps a racing finish/revoke observer from touching available_ later.
  {
    MutexLock lock(dispatch_mu_);
    for (auto& [id, lease] : leases_) {
      lease->revoked.store(true, std::memory_order_seq_cst);
      lease->released.exchange(true, std::memory_order_seq_cst);
    }
    leases_.clear();
  }
  for (auto& w : worker_fibers_) {
    if (w) {
      w->Join();
    }
  }
  worker_fibers_.clear();
  if (heartbeat_thread_.joinable()) {
    heartbeat_thread_.join();
  }
  if (fetch_pool_) {
    fetch_pool_->Shutdown();
  }
  // Cancel outstanding pulls. The fetch pool is already joined, so no new
  // PullAsync can race in; CancelPull blocks until that waiter's callback is
  // not running, and the counter below covers callbacks that already erased
  // their token but are still executing on the store's pull loop.
  std::vector<uint64_t> tokens;
  {
    MutexLock lock(deps_mu_);
    tokens.reserve(pull_tokens_.size());
    for (const auto& [object, token] : pull_tokens_) {
      tokens.push_back(token);
    }
    pull_tokens_.clear();
    fetching_.clear();
  }
  for (uint64_t token : tokens) {
    store_->CancelPull(token);
  }
  {
    MutexLock lock(pull_cb_mu_);
    while (active_pull_callbacks_ != 0) {
      pull_cb_cv_.Wait(pull_cb_mu_);
    }
  }
  // Drop all Object Table subscriptions. Unsubscribe blocks until in-flight
  // callbacks drain, so call it outside deps_mu_.
  std::vector<std::pair<ObjectId, uint64_t>> subs;
  {
    MutexLock lock(deps_mu_);
    subs.assign(subscriptions_.begin(), subscriptions_.end());
    subscriptions_.clear();
  }
  for (const auto& [object, token] : subs) {
    tables_->objects.UnsubscribeLocations(object, token);
  }
  // Last: stop the fiber runtime. Worker fibers are joined above, and Node
  // joins its actor fibers before calling Shutdown, so the carriers drain
  // whatever is left (short-lived wakeups) and exit.
  fibers_->Shutdown();
}

void LocalScheduler::SetObjectUnreachableHandler(ObjectUnreachableHandler handler) {
  MutexLock lock(deps_mu_);
  unreachable_handler_ = std::move(handler);
}

Status LocalScheduler::Submit(const TaskSpec& spec) {
  ResourceSet demand = EffectiveDemand(spec);
  bool available_now;
  {
    MutexLock lock(dispatch_mu_);
    // Resources currently held by actors never come back (Section 4.2.2), so
    // "cannot satisfy the task's requirements" must consider availability,
    // not just the node's nominal capacity.
    available_now = available_.Contains(demand);
  }
  bool overloaded = QueueLength() >= config_.spillover_queue_threshold;
  if (!config_.always_forward_to_global && available_now && !overloaded) {
    Enqueue(spec);
    return Status::Ok();
  }
  spilled_.fetch_add(1, std::memory_order_relaxed);
  if (trace::Tracer::Instance().ShouldRecordTask(spec.id)) {
    trace::Tracer::Instance().Emit(trace::Stage::kSpill, NowMicros(), 0, spec.id, ObjectId(),
                                   node_);
  }
  return global_->Schedule(spec, node_);
}

void LocalScheduler::SubmitPlaced(const TaskSpec& spec) {
  // Track which node holds the task; reconstruction uses this to tell
  // in-flight tasks from ones lost with a dead node's queue. A task
  // submitted bottom-up needs no write: its lineage record names this node.
  tables_->tasks.SetState(spec.id, gcs::TaskState::kPending, node_);
  Enqueue(spec);
}

void LocalScheduler::Enqueue(const TaskSpec& spec) {
  std::vector<ObjectId> to_fetch;
  bool ready_now = false;
  {
    TimedMutexLock lock(deps_mu_, ControlPlaneMetrics::Instance().deps_lock_wait_us);
    if (waiting_.count(spec.id) > 0) {
      // Delivered again while it waits (recovery replay racing a routing
      // retry): it is already counted, indexed and fetching.
      return;
    }
    PendingTask pending{spec, {}, NowMicros()};
    for (const ObjectId& dep : spec.Dependencies()) {
      if (!store_->ContainsLocal(dep)) {
        pending.missing.insert(dep);
        blocked_on_[dep].push_back(spec.id);
        to_fetch.push_back(dep);
      }
    }
    // If a dependency lands between the ContainsLocal check and here, the
    // unconditional FetchJob below re-checks and promotes the task.
    if (pending.missing.empty()) {
      ready_now = true;
    } else {
      waiting_.emplace(spec.id, std::move(pending));
      num_waiting_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (ready_now) {
    {
      TimedMutexLock lock(dispatch_mu_, ControlPlaneMetrics::Instance().dispatch_lock_wait_us);
      ready_.push_back({spec, NowMicros()});
    }
    num_ready_.fetch_add(1, std::memory_order_relaxed);
    TryDispatch();
  }
  for (const ObjectId& object : to_fetch) {
    EnsureFetch(object);
  }
}

void LocalScheduler::EnsureFetch(const ObjectId& object) {
  {
    MutexLock lock(deps_mu_);
    if (subscriptions_.count(object) == 0) {
      // Location-added events drive retries; fires for local puts too.
      uint64_t token = tables_->objects.SubscribeLocations(
          object, [this, object](const ObjectId&, const NodeId&) {
            if (shutdown_.load(std::memory_order_relaxed)) {
              return;
            }
            fetch_pool_->Submit([this, object] { FetchJob(object); });
          });
      subscriptions_.emplace(object, token);
    }
  }
  fetch_pool_->Submit([this, object] { FetchJob(object); });
}

void LocalScheduler::FetchJob(const ObjectId& object) {
  if (shutdown_.load(std::memory_order_relaxed)) {
    return;
  }
  if (store_->ContainsLocal(object)) {
    OnObjectLocal(object);
    return;
  }
  // One in-flight pull per object: subscription callbacks and the
  // heartbeat-cadence retry can both fire while a pull is already running.
  // (The PullManager dedups cluster-wide interest too, but bounding our own
  // callbacks here keeps waiter lists and token bookkeeping small.)
  {
    MutexLock lock(deps_mu_);
    if (!fetching_.insert(object).second) {
      return;
    }
  }
  int64_t start_us = NowMicros();
  uint64_t token = store_->PullAsync(object, [this, object, start_us](Status s) {
    OnPullDone(object, start_us, std::move(s));
  });
  {
    MutexLock lock(deps_mu_);
    // The callback may already have fired and erased this object's entries;
    // the token we insert is then stale, which CancelPull tolerates.
    if (fetching_.count(object) > 0) {
      pull_tokens_[object] = token;
    }
  }
}

void LocalScheduler::OnPullDone(const ObjectId& object, int64_t start_us, Status status) {
  {
    MutexLock lock(pull_cb_mu_);
    ++active_pull_callbacks_;
  }
  {
    MutexLock lock(deps_mu_);
    fetching_.erase(object);
    pull_tokens_.erase(object);
  }
  if (!shutdown_.load(std::memory_order_relaxed)) {
    if (status.ok()) {
      // The size comes from the copy just sealed here: a GCS read on the
      // pull loop would stall every other pull on this node.
      size_t size = store_->LocalSize(object);
      double secs = static_cast<double>(NowMicros() - start_us) * 1e-6;
      if (secs > 0 && size > 0) {
        bandwidth_ema_.Observe(static_cast<double>(size) / secs);
      }
      OnObjectLocal(object);
    } else {
      // Failure handling consults lineage and may trigger reconstruction; run
      // it on the fetch pool so the store's pull loop is never blocked on it.
      fetch_pool_->Submit([this, object, status = std::move(status)] {
        HandlePullFailure(object, status);
      });
    }
  }
  {
    // Notify under the lock: Shutdown's waiter may destroy this scheduler the
    // moment the count hits zero, so the cv must not be touched outside it.
    MutexLock lock(pull_cb_mu_);
    --active_pull_callbacks_;
    pull_cb_cv_.NotifyAll();
  }
}

void LocalScheduler::HandlePullFailure(const ObjectId& object, const Status& status) {
  (void)status;  // which replica died doesn't matter; current table state does
  if (shutdown_.load(std::memory_order_relaxed)) {
    return;
  }
  if (store_->ContainsLocal(object)) {
    OnObjectLocal(object);
    return;
  }
  auto entry = tables_->objects.GetLocations(object);
  bool any_alive = false;
  if (entry.ok()) {
    for (const NodeId& src : entry->locations) {
      if (src != node_ && (liveness_ == nullptr || liveness_->IsAlive(src))) {
        any_alive = true;
        break;
      }
    }
  }
  if (any_alive) {
    // A replica looks alive in the detected view: retry rather than waiting
    // for the heartbeat tick. Pace the retry — inside the detection window a
    // freshly-crashed replica still reads as alive here and fails instantly
    // on the pull, and an unpaced loop would spin hot until the monitor
    // declares the node dead.
    SleepMicros(2'000);
    if (!shutdown_.load(std::memory_order_relaxed)) {
      FetchJob(object);
    }
    return;
  }
  if (!entry.ok() || entry->locations.empty()) {
    // Not created yet. Usually the subscription will fire when it is — but
    // if the producer died with its queue, no location will ever appear.
    auto creating = tables_->objects.GetCreatingTask(object);
    if (!creating.ok()) {
      return;
    }
    auto state = tables_->tasks.GetState(*creating);
    bool producer_healthy = false;
    if (state.ok()) {
      auto [st, node] = *state;
      producer_healthy = (st == gcs::TaskState::kPending || st == gcs::TaskState::kRunning ||
                          st == gcs::TaskState::kDone) &&
                         (liveness_ == nullptr || liveness_->IsAlive(node));
    }
    if (producer_healthy) {
      return;
    }
  }
  // Every replica (or the producer) died with its node: reconstruction
  // needed (Fig. 11a).
  ObjectUnreachableHandler handler;
  {
    MutexLock lock(deps_mu_);
    handler = unreachable_handler_;
  }
  if (handler) {
    handler(object);
  }
}

void LocalScheduler::OnObjectLocal(const ObjectId& object) {
  std::vector<std::pair<TaskSpec, int64_t>> promoted;  // spec, dep-wait start
  uint64_t token = 0;
  bool had_sub = false;
  {
    TimedMutexLock lock(deps_mu_, ControlPlaneMetrics::Instance().deps_lock_wait_us);
    auto bit = blocked_on_.find(object);
    if (bit == blocked_on_.end()) {
      return;
    }
    for (const TaskId& task : bit->second) {
      auto wit = waiting_.find(task);
      if (wit == waiting_.end()) {
        continue;
      }
      wit->second.missing.erase(object);
      if (wit->second.missing.empty()) {
        promoted.emplace_back(std::move(wit->second.spec), wit->second.enqueued_us);
        waiting_.erase(wit);
        num_waiting_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    blocked_on_.erase(bit);
    auto sit = subscriptions_.find(object);
    if (sit != subscriptions_.end()) {
      token = sit->second;
      had_sub = true;
      subscriptions_.erase(sit);
    }
  }
  if (had_sub) {
    // Outside deps_mu_: Unsubscribe blocks until in-flight callbacks finish.
    tables_->objects.UnsubscribeLocations(object, token);
  }
  if (!promoted.empty()) {
    int64_t now = NowMicros();
    auto& tracer = trace::Tracer::Instance();
    for (const auto& [spec, enqueued_us] : promoted) {
      if (tracer.ShouldRecordTask(spec.id)) {
        tracer.Emit(trace::Stage::kDepWait, enqueued_us, now - enqueued_us, spec.id, object,
                    node_);
      }
    }
    {
      TimedMutexLock lock(dispatch_mu_, ControlPlaneMetrics::Instance().dispatch_lock_wait_us);
      for (auto& [spec, enqueued_us] : promoted) {
        ready_.push_back({std::move(spec), now});
      }
    }
    num_ready_.fetch_add(promoted.size(), std::memory_order_relaxed);
  }
  TryDispatch();
}

void LocalScheduler::TryDispatch() {
  // Scan the ready queue for the first tasks whose demands fit; FIFO among
  // fitting tasks. Actor methods bypass resource gating (their actor already
  // holds resources) and go straight to the actor mailbox. The handoff to
  // workers / mailboxes happens after dispatch_mu_ is released so a slow
  // mailbox never stalls dependency resolution or Submit.
  std::vector<ReadyTask> to_workers;
  std::vector<ReadyTask> to_actors;
  {
    TimedMutexLock lock(dispatch_mu_, ControlPlaneMetrics::Instance().dispatch_lock_wait_us);
    for (auto it = ready_.begin(); it != ready_.end();) {
      const TaskSpec& spec = it->spec;
      if (spec.IsActorTask()) {
        to_actors.push_back(std::move(*it));
        it = ready_.erase(it);
        continue;
      }
      ResourceSet demand = EffectiveDemand(spec);
      if (available_.Contains(demand)) {
        available_.Subtract(demand);
        running_.fetch_add(1, std::memory_order_relaxed);
        to_workers.push_back(std::move(*it));
        it = ready_.erase(it);
      } else {
        ++it;
      }
    }
  }
  num_ready_.fetch_sub(to_workers.size() + to_actors.size(), std::memory_order_relaxed);
  // Queue-time spans are emitted outside dispatch_mu_ — the tracer is
  // wait-free but there is no reason to hold the lock across it.
  auto& tracer = trace::Tracer::Instance();
  int64_t now = tracer.Enabled() ? NowMicros() : 0;
  for (auto& ready : to_actors) {
    if (tracer.ShouldRecordTask(ready.spec.id)) {
      tracer.Emit(trace::Stage::kQueue, ready.ready_at_us, now - ready.ready_at_us,
                  ready.spec.id, ObjectId(), node_);
    }
    actor_dispatcher_(ready.spec);
  }
  for (auto& ready : to_workers) {
    if (tracer.ShouldRecordTask(ready.spec.id)) {
      tracer.Emit(trace::Stage::kQueue, ready.ready_at_us, now - ready.ready_at_us,
                  ready.spec.id, ObjectId(), node_);
    }
    dispatch_queue_.Push({std::move(ready.spec), nullptr});
  }
}

void LocalScheduler::WorkerLoop() {
  while (auto item = dispatch_queue_.Pop()) {
    if (item->lease != nullptr) {
      // Run-token from the direct transport: drain that lease's pipeline.
      RunLeasePipeline(item->lease);
      continue;
    }
    TaskSpec& spec = item->spec;
    Timer timer;
    // Counted on pickup, not completion: a consumer woken by this task's
    // result (published mid-executor) must already see it in the counter.
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    // No kRunning transition: reconstruction treats pending-on-a-live-node
    // and running identically, so the extra GCS write per task buys nothing.
    // The executor owns the terminal kDone/kLost transition. It hands it to
    // a chain of GCS write callbacks (lineage durable, then kDone, then the
    // results sealed and their locations published) and returns before any
    // of them commits, so this worker is free as soon as the function is.
    {
      trace::Span span(trace::Stage::kExec, spec.id, ObjectId(), node_);
      executor_(spec);
    }
    FinishTask(spec, timer.ElapsedSeconds());
  }
}

void LocalScheduler::FinishTask(const TaskSpec& spec, double duration_s) {
  task_duration_ema_.Observe(duration_s);
  {
    TimedMutexLock lock(dispatch_mu_, ControlPlaneMetrics::Instance().dispatch_lock_wait_us);
    if (!spec.IsActorCreation()) {
      // Actor creations never release: the live actor keeps holding its
      // resources until the node dies (Section 4.2.2 resource accounting).
      available_.Add(EffectiveDemand(spec));
    }
  }
  running_.fetch_sub(1, std::memory_order_relaxed);
  TryDispatch();
}

// --- direct task transport: worker leasing ---------------------------------
//
// Release-race protocol (all seq_cst): a lease's resources return exactly
// once, when it is both revoked and drained. The two observers are
//   finish:  inflight.fetch_sub(1) == 1  &&  revoked.load()
//   revoke:  revoked.store(true);  inflight.load() == 0
// In the seq_cst total order one of them sees both conditions: if revoke's
// load reads inflight > 0, some task has not finished; its fetch_sub to zero
// is ordered after the revoked store, so its revoked load reads true. The
// released.exchange makes the claim single-shot when both observers fire.
// A submit that raced past the first revoked check re-checks after its
// increment and undoes itself through the same finish protocol.

std::shared_ptr<WorkerLease> LocalScheduler::RequestLease(const ResourceSet& shape_in) {
  if (!config_.enable_leasing || config_.always_forward_to_global ||
      shutdown_.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  ResourceSet shape = shape_in.IsEmpty() ? ResourceSet::Cpu(1) : shape_in;
  trace::Span span(trace::Stage::kLeaseRequest, TaskId(), ObjectId(), node_);
  std::shared_ptr<WorkerLease> lease;
  {
    TimedMutexLock lock(dispatch_mu_, ControlPlaneMetrics::Instance().dispatch_lock_wait_us);
    // Don't starve queued work: a ready task that is waiting for resources
    // has first claim on anything available (the rescue pass also revokes
    // idle leases under this pressure).
    if (num_ready_.load(std::memory_order_relaxed) > 0 || !available_.Contains(shape)) {
      span.SetArg(0);
      return nullptr;
    }
    available_.Subtract(shape);
    lease = std::make_shared<WorkerLease>();
    lease->id = next_lease_id_++;
    lease->shape = std::move(shape);
    lease->max_inflight = std::max<size_t>(1, config_.lease_max_inflight);
    lease->last_used_us.store(NowMicros(), std::memory_order_relaxed);
    leases_.emplace(lease->id, lease);
  }
  leases_granted_.fetch_add(1, std::memory_order_relaxed);
  span.SetArg(1);
  return lease;
}

bool LocalScheduler::SubmitOnLease(const std::shared_ptr<WorkerLease>& lease,
                                   const TaskSpec& spec) {
  if (lease == nullptr || lease->revoked.load(std::memory_order_relaxed)) {
    return false;
  }
  int64_t depth = lease->inflight.fetch_add(1, std::memory_order_seq_cst);
  if (depth >= static_cast<int64_t>(lease->max_inflight) ||
      lease->revoked.load(std::memory_order_seq_cst)) {
    if (lease->inflight.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        lease->revoked.load(std::memory_order_seq_cst)) {
      MaybeReleaseLease(lease);
    }
    return false;
  }
  lease->last_used_us.store(NowMicros(), std::memory_order_relaxed);
  leased_inflight_.fetch_add(1, std::memory_order_relaxed);
  bool need_token = false;
  {
    MutexLock lock(lease->mu);
    lease->pipeline.push_back(spec);
    if (!lease->active) {
      lease->active = true;
      need_token = true;
    }
  }
  if (need_token && !dispatch_queue_.Push({TaskSpec(), lease})) {
    // Shutdown raced the submit; the task is stranded in the pipeline like
    // any queued work when a node stops (crash-stop). Refuse so the caller
    // re-routes — the stranded copy will never run here.
    lease->revoked.store(true, std::memory_order_seq_cst);
    return false;
  }
  return true;
}

namespace {
// The lease whose pipeline the current fiber is draining (null elsewhere);
// lets a task that blocks mid-execution find and spill its own lease. Lives
// in fiber-local storage, not a thread_local: a worker fiber that parks mid
// pipeline may resume on a different carrier thread, and the carrier it left
// must not hand the lease to whatever fiber it runs next.
const std::shared_ptr<WorkerLease>* CurrentLease() {
  return static_cast<const std::shared_ptr<WorkerLease>*>(
      fiber::GetFls(fiber::kFlsCurrentLease));
}
void SetCurrentLease(const std::shared_ptr<WorkerLease>* lease) {
  fiber::SetFls(fiber::kFlsCurrentLease,
                const_cast<std::shared_ptr<WorkerLease>*>(lease));
}
}  // namespace

void LocalScheduler::RunLeasePipeline(const std::shared_ptr<WorkerLease>& lease) {
  SetCurrentLease(&lease);
  for (;;) {
    TaskSpec spec;
    {
      MutexLock lock(lease->mu);
      if (lease->pipeline.empty()) {
        lease->active = false;
        SetCurrentLease(nullptr);
        return;
      }
      spec = std::move(lease->pipeline.front());
      lease->pipeline.pop_front();
    }
    Timer timer;
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    {
      trace::Span span(trace::Stage::kExec, spec.id, ObjectId(), node_);
      executor_(spec);
    }
    task_duration_ema_.Observe(timer.ElapsedSeconds());
    leased_inflight_.fetch_sub(1, std::memory_order_relaxed);
    if (lease->inflight.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        lease->revoked.load(std::memory_order_seq_cst)) {
      MaybeReleaseLease(lease);
    }
  }
}

std::vector<TaskSpec> LocalScheduler::NotifyWorkerBlocked() {
  std::vector<TaskSpec> spilled;
  const std::shared_ptr<WorkerLease>* slot = CurrentLease();
  if (slot == nullptr) {
    return spilled;  // classic worker / actor fiber: nothing to spill
  }
  const std::shared_ptr<WorkerLease>& lease = *slot;
  // Revoke first so new submits are refused, then drain what already queued
  // behind the (about to block) head. A submit racing the revocation can
  // still slip one task in after the drain; it is not lost — it runs when
  // the head unblocks — and it cannot be a task the head is waiting on,
  // because a task submits all its children before it blocks on them.
  if (!lease->revoked.exchange(true, std::memory_order_seq_cst)) {
    leases_revoked_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    MutexLock lock(lease->mu);
    while (!lease->pipeline.empty()) {
      spilled.push_back(std::move(lease->pipeline.front()));
      lease->pipeline.pop_front();
    }
  }
  // Undo the accounting each drained task acquired at SubmitOnLease. The
  // blocked head still holds one inflight slot, so this cannot release the
  // lease, but we keep the full finish protocol for uniformity.
  for (size_t i = 0; i < spilled.size(); ++i) {
    leased_inflight_.fetch_sub(1, std::memory_order_relaxed);
    if (lease->inflight.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        lease->revoked.load(std::memory_order_seq_cst)) {
      MaybeReleaseLease(lease);
    }
  }
  return spilled;
}

void LocalScheduler::MaybeReleaseLease(const std::shared_ptr<WorkerLease>& lease) {
  if (lease->released.exchange(true, std::memory_order_seq_cst)) {
    return;  // another observer claimed the release
  }
  {
    TimedMutexLock lock(dispatch_mu_, ControlPlaneMetrics::Instance().dispatch_lock_wait_us);
    available_.Add(lease->shape);
    leases_.erase(lease->id);
  }
  // Freed resources may unblock queued ready tasks.
  TryDispatch();
}

void LocalScheduler::ReturnLease(const std::shared_ptr<WorkerLease>& lease) {
  if (lease == nullptr) {
    return;
  }
  lease->revoked.store(true, std::memory_order_seq_cst);
  if (lease->inflight.load(std::memory_order_seq_cst) == 0) {
    MaybeReleaseLease(lease);
  }
}

void LocalScheduler::RevokeLease(const std::shared_ptr<WorkerLease>& lease) {
  leases_revoked_.fetch_add(1, std::memory_order_relaxed);
  ReturnLease(lease);
}

void LocalScheduler::ReapLeases() {
  std::vector<std::shared_ptr<WorkerLease>> idle;
  int64_t now = NowMicros();
  {
    MutexLock lock(dispatch_mu_);
    for (const auto& [id, lease] : leases_) {
      if (lease->revoked.load(std::memory_order_relaxed)) {
        continue;
      }
      if (lease->inflight.load(std::memory_order_relaxed) == 0 &&
          now - lease->last_used_us.load(std::memory_order_relaxed) >=
              config_.lease_idle_timeout_us) {
        idle.push_back(lease);
      }
    }
  }
  for (auto& lease : idle) {
    RevokeLease(lease);
  }
}

size_t LocalScheduler::NumActiveLeases() const {
  MutexLock lock(dispatch_mu_);
  return leases_.size();
}

size_t LocalScheduler::QueueLength() const {
  return num_waiting_.load(std::memory_order_relaxed) +
         num_ready_.load(std::memory_order_relaxed) +
         running_.load(std::memory_order_relaxed) +
         leased_inflight_.load(std::memory_order_relaxed);
}

gcs::Heartbeat LocalScheduler::MakeHeartbeat() const {
  gcs::Heartbeat hb;
  hb.queue_length = QueueLength();
  hb.avg_task_duration_s = task_duration_ema_.HasValue() ? task_duration_ema_.Value() : 0.0;
  hb.avg_bandwidth_bytes_s = bandwidth_ema_.HasValue() ? bandwidth_ema_.Value() : 0.0;
  {
    MutexLock lock(dispatch_mu_);
    hb.available = available_;
  }
  hb.total = config_.total_resources;
  return hb;
}

void LocalScheduler::ReportHeartbeat() {
  trace::Span span(trace::Stage::kHeartbeat, TaskId(), ObjectId(), node_);
  gcs::Heartbeat hb = MakeHeartbeat();
  // The advancing sequence number is what the failure detector watches; a
  // crashed node stops bumping it and gets declared dead after the miss
  // threshold.
  hb.seq = heartbeat_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  tables_->nodes.ReportHeartbeat(node_, hb);
}

void LocalScheduler::OnPeerDeath(const NodeId& node) {
  (void)node;  // any blocked object may have lost its last replica/producer
  if (shutdown_.load(std::memory_order_relaxed)) {
    return;
  }
  std::vector<ObjectId> blocked;
  {
    MutexLock lock(deps_mu_);
    blocked.reserve(blocked_on_.size());
    for (const auto& [object, tasks] : blocked_on_) {
      blocked.push_back(object);
    }
  }
  for (const ObjectId& object : blocked) {
    fetch_pool_->Submit([this, object] { FetchJob(object); });
  }
}

void LocalScheduler::HeartbeatLoop() {
  // Tagging the reporter thread (not the whole node) keeps the fault
  // surgical: only heartbeat timing sees the skewed clock.
  dst::SetCurrentClockDomain(config_.clock_domain);
  while (!shutdown_.load(std::memory_order_relaxed)) {
    SleepMicros(config_.heartbeat_interval_us);
    if (shutdown_.load(std::memory_order_relaxed)) {
      return;
    }
    ReportHeartbeat();
    ReapLeases();
    if (num_waiting_.load(std::memory_order_relaxed) +
            num_ready_.load(std::memory_order_relaxed) ==
        0) {
      // Every part of the rescue needs a waiting or a ready task, so an idle
      // node does not wake its fetch pool; no ready task also means no
      // pressure.
      lease_pressure_since_us_.store(0, std::memory_order_relaxed);
      continue;
    }
    // Rescue runs off-thread: re-forwarding to the global scheduler can block
    // (it retries placement under churn), and a stalled heartbeat loop would
    // get this node falsely declared dead. Single-flight: skip the tick if
    // the previous rescue is still running rather than piling them up.
    bool expected = false;
    if (rescue_inflight_.compare_exchange_strong(expected, true)) {
      if (!fetch_pool_->Submit([this] {
            RescueStrandedTasks();
            rescue_inflight_.store(false, std::memory_order_release);
          })) {
        rescue_inflight_.store(false, std::memory_order_release);
      }
    }
  }
}

void LocalScheduler::RescueStrandedTasks() {
  // Retry fetches for every object this node is still blocked on: the
  // subscription-driven path misses producers that died without publishing,
  // and FetchJob's lineage check (above) is what detects those.
  std::vector<ObjectId> blocked;
  {
    MutexLock lock(deps_mu_);
    blocked.reserve(blocked_on_.size());
    for (const auto& [object, tasks] : blocked_on_) {
      blocked.push_back(object);
    }
  }
  for (const ObjectId& object : blocked) {
    fetch_pool_->Submit([this, object] { FetchJob(object); });
  }

  // Pressure revocation: queued ready tasks have first claim on resources.
  // Revocation is cooperative (pipelined tasks still run) and the drain
  // returns the shape to available_, which may let the stranded tasks below
  // dispatch here instead of being re-forwarded. Revoke idle leases (nothing
  // in flight) first: they free their shape immediately and cost the holder
  // nothing. Busy leases are revoked only when there were no idle ones to
  // take — reclaiming every lease on any pressure tick made mixed
  // leased/routed workloads oscillate (grant, revoke, re-grant) even when a
  // single idle lease held the resources the ready queue needed. Pressure
  // that persists past the idle reclaim escalates on the next tick, when the
  // idle set is empty.
  if (num_ready_.load(std::memory_order_relaxed) > 0) {
    std::vector<std::shared_ptr<WorkerLease>> idle;
    std::vector<std::shared_ptr<WorkerLease>> busy;
    {
      MutexLock lock(dispatch_mu_);
      for (const auto& [id, lease] : leases_) {
        if (lease->revoked.load(std::memory_order_relaxed)) {
          continue;
        }
        if (lease->inflight.load(std::memory_order_relaxed) == 0) {
          idle.push_back(lease);
        } else {
          busy.push_back(lease);
        }
      }
    }
    if (!idle.empty()) {
      // Idle reclaim costs the holder nothing and usually relieves the
      // pressure; restart the dwell clock so a later busy escalation needs
      // the pressure to persist past this relief too.
      lease_pressure_since_us_.store(0, std::memory_order_relaxed);
      for (auto& lease : idle) {
        RevokeLease(lease);
      }
    } else if (!busy.empty()) {
      // Hysteresis (damping): tearing down a busy lease cancels a hot
      // pipeline, so require the starvation to persist for a dwell window
      // instead of escalating on the first tick. A steady leased workload
      // with transient ready-queue blips never reaches the revocation.
      const int64_t now = NowMicros();
      int64_t since = lease_pressure_since_us_.load(std::memory_order_relaxed);
      if (since == 0) {
        lease_pressure_since_us_.compare_exchange_strong(since, now,
                                                         std::memory_order_relaxed);
        since = lease_pressure_since_us_.load(std::memory_order_relaxed);
      }
      if (since != 0 && now - since >= kLeasePressureDwellUs) {
        lease_pressure_since_us_.store(0, std::memory_order_relaxed);
        for (auto& lease : busy) {
          leases_revoked_busy_.fetch_add(1, std::memory_order_relaxed);
          RevokeLease(lease);
        }
      }
    }
  } else {
    // No starved ready tasks this tick: pressure was transient, reset.
    lease_pressure_since_us_.store(0, std::memory_order_relaxed);
  }

  // Liveness backstop: a task placed here against stale heartbeats may need
  // more than this node can ever free — actor creations hold resources until
  // node death, so availability shrinks permanently. Re-forward a ready task
  // whose demand exceeds current availability once it has waited out
  // kStrandedRescueUs (immediately when nothing is running: with running_
  // == 0 no release is coming at all).
  std::vector<TaskSpec> stranded;
  {
    MutexLock lock(dispatch_mu_);
    bool idle = running_.load(std::memory_order_relaxed) == 0;
    int64_t now = NowMicros();
    for (auto it = ready_.begin(); it != ready_.end();) {
      bool overdue = idle || now - it->ready_at_us >= kStrandedRescueUs;
      if (overdue && !it->spec.IsActorTask() &&
          !available_.Contains(EffectiveDemand(it->spec))) {
        stranded.push_back(std::move(it->spec));
        it = ready_.erase(it);
      } else {
        ++it;
      }
    }
  }
  num_ready_.fetch_sub(stranded.size(), std::memory_order_relaxed);
  auto& tracer = trace::Tracer::Instance();
  for (const TaskSpec& spec : stranded) {
    spilled_.fetch_add(1, std::memory_order_relaxed);
    if (tracer.ShouldRecordTask(spec.id)) {
      tracer.Emit(trace::Stage::kStranded, NowMicros(), 0, spec.id, ObjectId(), node_);
    }
    Status s = global_->Schedule(spec, node_);
    if (!s.ok()) {
      RAY_LOG(WARNING) << "failed to re-forward stranded task: " << s.ToString();
    }
  }
}

}  // namespace ray
