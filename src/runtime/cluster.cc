#include "runtime/cluster.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <deque>

#include "common/clock.h"
#include "common/logging.h"
#include "trace/trace.h"

namespace ray {

namespace {
constexpr int64_t kActorRouteTimeoutUs = 30'000'000;
constexpr int64_t kActorRecoveryTimeoutUs = 30'000'000;
}  // namespace

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  // Modelled delays are sleeps (clock.h SleepMicros), and Linux's default
  // 50us timer slack would stretch a 25us chain hop to ~75us. A 1ns slack,
  // set before any runtime thread starts, is inherited by every thread
  // created from here on. It stays set on the calling thread too.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  gcs_ = std::make_unique<gcs::Gcs>(config_.gcs);
  // Lineage (task specs/states) is the cold data that GCS flushing targets
  // (Fig. 10b); object locations stay hot in memory.
  gcs_->AddFlushablePrefix("task:");
  tables_ = std::make_unique<gcs::GcsTables>(gcs_.get());
  net_ = std::make_unique<SimNetwork>(config_.net);
  liveness_ = std::make_unique<gcs::LivenessView>(tables_.get());
  global_ = std::make_unique<GlobalSchedulerPool>(config_.num_global_schedulers, tables_.get(),
                                                  net_.get(), &registry_, config_.global,
                                                  liveness_.get());
  recovery_pool_ = std::make_unique<ThreadPool>(2);
  if (config_.build_task_graph) {
    task_graph_ = std::make_unique<TaskGraph>();
  }
  rt_.cluster = this;
  rt_.gcs = gcs_.get();
  rt_.tables = tables_.get();
  rt_.liveness = liveness_.get();
  rt_.net = net_.get();
  rt_.registry = &registry_;
  rt_.global = global_.get();
  rt_.functions = &functions_;
  rt_.actor_classes = &actor_classes_;
  rt_.reconstruct_object = [this](const ObjectId& object) { ReconstructObject(object); };
  rt_.actor_checkpoint_interval = config_.actor_checkpoint_interval;

  death_cb_token_ = liveness_->AddDeathCallback([this](const NodeId& n) { OnNodeDeath(n); });

  for (int i = 0; i < config_.num_nodes; ++i) {
    LocalSchedulerConfig scfg = config_.scheduler;
    if (config_.per_node_clock_domains) {
      scfg.clock_domain = static_cast<uint32_t>(i) + 1;
    }
    AddNodeInternal(scfg);
  }

  // The monitor starts last: a node it has never observed gets a full
  // detection window of grace, so startup order cannot cause false deaths.
  gcs::MonitorConfig mcfg = config_.monitor;
  if (mcfg.heartbeat_interval_us <= 0) {
    mcfg.heartbeat_interval_us = config_.scheduler.heartbeat_interval_us;
  }
  monitor_ = std::make_unique<gcs::GcsMonitor>(tables_.get(), mcfg);
}

Cluster::~Cluster() {
  // Stop declaring deaths before nodes stop heartbeating — graceful shutdown
  // must not be misread as mass node failure.
  monitor_->Stop();
  shutting_down_.store(true, std::memory_order_release);
  liveness_->RemoveDeathCallback(death_cb_token_);
  // An already-running death callback may still be mid-flight on a publish
  // worker; drain before touching node state it walks.
  gcs_->DrainPublishes();
  recovery_pool_->Shutdown();
  BumpClusterEvent();  // wake any routing/recovery backoff so it sees shutdown
  MutexLock lock(nodes_mu_);
  node_index_.clear();
  nodes_.clear();  // Node destructors drain gracefully
}

NodeId Cluster::AddNodeInternal(const LocalSchedulerConfig& scheduler_config) {
  auto node = std::make_unique<Node>(&rt_, scheduler_config, config_.store);
  NodeId id = node->id();
  Node* raw = node.get();
  {
    // Single lock acquisition: push and capture together, so a concurrent
    // AddNode cannot slip its node in between (the old two-step re-read of
    // nodes_.back() could start the *other* thread's node twice and leave
    // ours without a peer resolver).
    MutexLock lock(nodes_mu_);
    nodes_.push_back(std::move(node));
    node_index_.emplace(id, raw);
  }
  // Resolver before Start(): once Start registers the node, peers may
  // immediately try to pull from it.
  raw->store().SetPeerResolver([this](const NodeId& peer) {
    Node* n = FindNode(peer);
    return n != nullptr && n->IsAlive() ? &n->store() : nullptr;
  });
  raw->Start();
  BumpClusterEvent();  // a rejoin is also an event routing waits care about
  return id;
}

NodeId Cluster::AddNode() { return AddNodeInternal(config_.scheduler); }

NodeId Cluster::AddNodeWithResources(const ResourceSet& resources) {
  LocalSchedulerConfig cfg = config_.scheduler;
  cfg.total_resources = resources;
  return AddNodeInternal(cfg);
}

size_t Cluster::NumNodes() const {
  MutexLock lock(nodes_mu_);
  return nodes_.size();
}

Node& Cluster::node(size_t index) {
  MutexLock lock(nodes_mu_);
  RAY_CHECK(index < nodes_.size());
  return *nodes_[index];
}

Node* Cluster::FindNode(const NodeId& id) {
  MutexLock lock(nodes_mu_);
  auto it = node_index_.find(id);
  return it == node_index_.end() ? nullptr : it->second;
}

void Cluster::KillNode(size_t index) { node(index).Kill(); }

void Cluster::KillNode(const NodeId& id) {
  Node* n = FindNode(id);
  if (n != nullptr) {
    n->Kill();
  }
}

void Cluster::OnNodeDeath(const NodeId& node) {
  if (shutting_down_.load(std::memory_order_acquire)) {
    return;
  }
  RAY_LOG(INFO) << "cluster: handling declared death of node " << ToShortString(node);
  BumpClusterEvent();
  {
    // Runs on a GCS publish worker; everything under the lock is a cheap
    // enqueue (queue push / pool submit), never blocking work.
    MutexLock lock(nodes_mu_);
    for (const auto& n : nodes_) {
      if (n->IsAlive() && n->id() != node) {
        n->store().OnPeerDeath(node);
        n->scheduler().OnPeerDeath(node);
      }
    }
  }
  // Proactive actor recovery off-thread (RecoverActor blocks on relocation).
  // Submit after pool shutdown is a safe no-op.
  recovery_pool_->Submit([this, node] { RecoverActorsOn(node); });
}

void Cluster::RecoverActorsOn(const NodeId& node) {
  std::vector<ActorId> actors;
  {
    MutexLock lock(known_actors_mu_);
    actors.assign(known_actors_.begin(), known_actors_.end());
  }
  for (const ActorId& actor : actors) {
    if (shutting_down_.load(std::memory_order_acquire)) {
      return;
    }
    auto loc = tables_->actors.GetLocation(actor);
    if (loc.ok() && *loc == node) {
      RecoverActor(actor);
    }
  }
}

void Cluster::BumpClusterEvent() {
  {
    MutexLock lock(event_mu_);
    ++event_epoch_;
    event_cv_.NotifyAll();
  }
}

uint64_t Cluster::ClusterEventEpoch() {
  MutexLock lock(event_mu_);
  return event_epoch_;
}

uint64_t Cluster::WaitForClusterEvent(uint64_t seen, int64_t max_wait_us) {
  const int64_t deadline_us = NowMicros() + max_wait_us;
  MutexLock lock(event_mu_);
  while (event_epoch_ == seen) {
    if (!event_cv_.WaitUntilMicros(event_mu_, deadline_us)) {
      break;  // timed out
    }
  }
  return event_epoch_;
}

void Cluster::RecordLineage(const TaskSpec& spec, const NodeId& submitter) {
  tables_->tasks.AddTask(spec.id, spec.Serialize());
  tables_->tasks.SetState(spec.id, gcs::TaskState::kPending, submitter);
  if (spec.IsActorCreation()) {
    MutexLock lock(known_actors_mu_);
    known_actors_.insert(spec.actor);
  }
  for (uint32_t i = 0; i < spec.num_returns; ++i) {
    tables_->objects.RecordCreatingTask(spec.ReturnId(i), spec.id);
  }
  if (spec.IsActorCreation() || (spec.IsActorTask() && !spec.actor_method_read_only)) {
    tables_->objects.RecordCreatingTask(spec.ResultCursor(), spec.id);
  }
  if (spec.IsActorTask() && !spec.actor_method_read_only) {
    tables_->actors.AppendMethod(spec.actor, spec.id);
  }
  if (task_graph_) {
    task_graph_->AddTask(spec);
  }
}

Status Cluster::SubmitTask(const TaskSpec& spec, const NodeId& from) {
  // Covers the driver-side cost: lineage writes plus routing up to the point
  // where the task is queued somewhere (local, global, or actor mailbox).
  trace::Span span(trace::Stage::kSubmit, spec.id, ObjectId(), from);
  // Direct transport first: leases a worker and pipelines the task with
  // async lineage, skipping both the per-task scheduler hop and the
  // synchronous GCS writes below. Declines (actor task, non-local deps, no
  // lease) fall through to the classic routed path.
  Node* submitter = FindNode(from);
  if (submitter != nullptr && submitter->IsAlive() && submitter->transport().TrySubmit(spec)) {
    if (task_graph_) {
      task_graph_->AddTask(spec);
    }
    return Status::Ok();
  }
  RecordLineage(spec, from);
  if (spec.IsActorTask()) {
    return RouteActorTask(spec, from);
  }
  if (!spec.spread_group.empty()) {
    // Spread hint: local submission would anchor the task to the submitter's
    // node, so force the global scheduler, whose Place() ranks candidates by
    // the group's per-node membership count (Serve Table).
    return global_->Schedule(spec, from);
  }
  LocalScheduler* local = registry_.Lookup(from);
  if (local == nullptr) {
    // Submitter's node is gone; fall back to global placement.
    return global_->Schedule(spec, from);
  }
  return local->Submit(spec);
}

Status Cluster::RouteActorTask(const TaskSpec& spec, const NodeId& from) {
  // Location publishes (creation / recovery landing) bump the cluster-event
  // epoch, so the backoff wait below wakes the moment the actor relocates
  // instead of polling on a fixed cadence.
  uint64_t sub_token = tables_->actors.SubscribeLocation(
      spec.actor, [this](const NodeId&) { BumpClusterEvent(); });
  auto finish = [&](Status s) {
    tables_->actors.UnsubscribeLocation(spec.actor, sub_token);
    return s;
  };
  int64_t deadline = NowMicros() + kActorRouteTimeoutUs;
  int64_t backoff_us = 200;
  while (NowMicros() < deadline) {
    if (shutting_down_.load(std::memory_order_acquire)) {
      return finish(Status::Unavailable("cluster shutting down"));
    }
    uint64_t epoch = ClusterEventEpoch();
    auto loc = tables_->actors.GetLocation(spec.actor);
    if (loc.ok()) {
      if (liveness_->IsDead(*loc) || registry_.Lookup(*loc) == nullptr) {
        // Dead (or unregistered) home: kick recovery. If another thread is
        // already recovering, this returns immediately and the event wait
        // below paces the retry until the relocation publish wakes us.
        RecoverActor(spec.actor);
      } else {
        // Charged as a scheduler hop so injected scheduling latency
        // (Fig. 12b ablation) applies to every method submission. A failed
        // hop (chaos drop, target died mid-flight) is retryable, not fatal.
        Status hop = net_->SchedulerHop(from, *loc);
        if (hop.ok()) {
          LocalScheduler* target = registry_.Lookup(*loc);
          if (target != nullptr) {
            target->SubmitPlaced(spec);
            return finish(Status::Ok());
          }
        }
      }
    }
    // Creation or recovery still in flight (or a transient failure above):
    // wait for the next cluster event, with capped-exponential backoff as
    // the fallback cadence.
    WaitForClusterEvent(epoch, backoff_us);
    backoff_us = std::min<int64_t>(backoff_us * 2, 10'000);
  }
  return finish(Status::TimedOut("actor has no live location"));
}

void Cluster::ReconstructObject(const ObjectId& object) {
  trace::Span span(trace::Stage::kReconstruct, TaskId(), object);
  // Iterative worklist: rebuilding an object may require rebuilding the
  // producers of its inputs (linear chains in Fig. 11a).
  std::deque<ObjectId> work{object};
  while (!work.empty()) {
    ObjectId obj = work.front();
    work.pop_front();

    auto task_id = tables_->objects.GetCreatingTask(obj);
    if (!task_id.ok()) {
      // No lineage: a ray::Put object. If every replica is dead this is
      // genuinely unrecoverable.
      RAY_LOG(WARNING) << "object " << ToShortString(obj) << " has no lineage; cannot reconstruct";
      continue;
    }
    auto spec_bytes = tables_->tasks.GetSpec(*task_id);
    if (!spec_bytes.ok()) {
      continue;
    }
    TaskSpec spec = TaskSpec::Deserialize(*spec_bytes);
    if (spec.IsActorTask() && spec.actor_method_read_only) {
      // Snapshot methods re-execute against the actor's current state. The
      // original snapshot cursor may predate a recovery (and no longer have
      // a live copy), so rebase onto the chain's current position.
      {
        MutexLock lock(reconstruct_mu_);
        if (!reconstructing_.insert(spec.id).second) {
          continue;
        }
      }
      spec.actor_call_index = tables_->actors.CurrentCallIndex(spec.actor);
      Status s = RouteActorTask(spec, NodeId());
      if (!s.ok()) {
        RAY_LOG(WARNING) << "read-only method re-execution failed: " << s.ToString();
      }
      {
        MutexLock lock(reconstruct_mu_);
        reconstructing_.erase(spec.id);
      }
      continue;
    }
    if (!spec.actor.IsNil()) {
      RecoverActor(spec.actor);
      continue;
    }

    {
      MutexLock lock(reconstruct_mu_);
      if (!reconstructing_.insert(spec.id).second) {
        continue;  // another thread is resubmitting this task right now
      }
    }
    bool resubmit = true;
    auto state = tables_->tasks.GetState(spec.id);
    if (state.ok()) {
      auto [st, node] = *state;
      bool node_alive = liveness_->IsAlive(node) && registry_.Lookup(node) != nullptr;
      if ((st == gcs::TaskState::kPending || st == gcs::TaskState::kRunning) && node_alive) {
        resubmit = false;  // already in flight somewhere healthy
      } else if (st == gcs::TaskState::kDone) {
        auto entry = tables_->objects.GetLocations(obj);
        if (entry.ok()) {
          // The location log exists: the output has been published at least
          // once. Resubmit only if every replica has since died or been
          // evicted (net list empty or all on dead nodes).
          for (const NodeId& loc : entry->locations) {
            if (liveness_->IsAlive(loc)) {
              resubmit = false;
              break;
            }
          }
        } else if (node_alive) {
          // No location record at all. kDone commits before the first
          // location publish, so the executing worker is between SetState
          // and Put: the publish is in flight. Resubmitting here would
          // re-run a finished task and flip its state back to kPending
          // under a racing reader (the lineage GC saw exactly that).
          resubmit = false;
        }
      }
    }
    // Inputs whose replicas are all gone must be rebuilt regardless of
    // whether this task itself needs resubmission: an in-flight consumer may
    // be waiting on a producer that died before publishing any location, and
    // nothing else in the system can notice that silently-lost ancestor.
    for (const ObjectId& dep : spec.Dependencies()) {
      auto entry = tables_->objects.GetLocations(dep);
      bool live_copy = false;
      if (entry.ok()) {
        for (const NodeId& loc : entry->locations) {
          if (liveness_->IsAlive(loc)) {
            live_copy = true;
            break;
          }
        }
      }
      if (!live_copy) {
        work.push_back(dep);
      }
    }
    if (resubmit) {
      Status s = global_->Schedule(spec, NodeId());
      if (!s.ok()) {
        RAY_LOG(WARNING) << "reconstruction resubmit failed for task " << ToShortString(spec.id)
                         << ": " << s.ToString();
      }
    }
    {
      MutexLock lock(reconstruct_mu_);
      reconstructing_.erase(spec.id);
    }
  }
}

size_t Cluster::CollectLineage(const std::vector<ObjectId>& objects, bool transitive) {
  size_t collected = 0;
  std::deque<ObjectId> work(objects.begin(), objects.end());
  std::unordered_set<TaskId> seen;
  while (!work.empty()) {
    ObjectId obj = work.front();
    work.pop_front();
    auto task_id = tables_->objects.GetCreatingTask(obj);
    if (!task_id.ok() || !seen.insert(*task_id).second) {
      continue;
    }
    auto spec_bytes = tables_->tasks.GetSpec(*task_id);
    if (!spec_bytes.ok()) {
      continue;
    }
    auto state = tables_->tasks.GetState(*task_id);
    if (!state.ok() || state->first != gcs::TaskState::kDone) {
      continue;  // in flight (or lost): its lineage is still load-bearing
    }
    TaskSpec spec = TaskSpec::Deserialize(*spec_bytes);
    if (transitive) {
      for (const ObjectId& dep : spec.Dependencies()) {
        work.push_back(dep);
      }
    }
    // Drop the spec, the state record, and the object->task links. After
    // this the objects are exactly as durable as their replicas.
    gcs_->Delete(gcs::TaskTable::kSpecPrefix + spec.id.Binary());
    gcs_->Delete("task:state:" + spec.id.Binary());
    for (uint32_t i = 0; i < spec.num_returns; ++i) {
      gcs_->Delete("obj:task:" + spec.ReturnId(i).Binary());
    }
    if (!spec.actor.IsNil()) {
      gcs_->Delete("obj:task:" + spec.ResultCursor().Binary());
    }
    ++collected;
  }
  return collected;
}

void Cluster::RecoverActor(const ActorId& actor) {
  {
    MutexLock lock(actor_recovery_mu_);
    if (!actors_recovering_.insert(actor).second) {
      return;  // recovery already in progress
    }
  }
  auto cleanup = [this, &actor] {
    MutexLock lock(actor_recovery_mu_);
    actors_recovering_.erase(actor);
  };

  auto loc = tables_->actors.GetLocation(actor);
  if (!loc.ok()) {
    // Never created (creation still in flight): nothing to recover.
    cleanup();
    return;
  }
  if (liveness_->IsAlive(*loc) && registry_.Lookup(*loc) != nullptr) {
    cleanup();
    return;  // already healthy (recovered by someone else)
  }

  auto spec_bytes = tables_->actors.GetCreationSpec(actor);
  if (!spec_bytes.ok()) {
    RAY_LOG(ERROR) << "actor " << ToShortString(actor) << " has no creation spec; cannot recover";
    cleanup();
    return;
  }
  TaskSpec creation = TaskSpec::Deserialize(*spec_bytes);
  uint64_t checkpoint_index = 0;
  if (auto ckpt = tables_->actors.GetCheckpoint(actor); ckpt.ok()) {
    checkpoint_index = ckpt->call_index;
  }
  RAY_LOG(INFO) << "recovering actor " << ToShortString(actor) << " from checkpoint index "
                << checkpoint_index;

  // Subscribe before scheduling the creation: the relocation publish bumps
  // the event epoch, waking the wait below the moment the new node seals the
  // actor's location (no fixed-cadence polling).
  uint64_t sub_token =
      tables_->actors.SubscribeLocation(actor, [this](const NodeId&) { BumpClusterEvent(); });

  // Re-run the creation task; it restores the checkpoint and re-seals the
  // cursor at checkpoint_index on the new node.
  Status s = global_->Schedule(creation, NodeId());
  if (!s.ok()) {
    RAY_LOG(ERROR) << "actor recovery placement failed: " << s.ToString();
    tables_->actors.UnsubscribeLocation(actor, sub_token);
    cleanup();
    return;
  }
  // Wait for the new location to become live.
  NodeId new_node;
  int64_t deadline = NowMicros() + kActorRecoveryTimeoutUs;
  int64_t backoff_us = 200;
  int64_t last_place_us = NowMicros();
  for (;;) {
    uint64_t epoch = ClusterEventEpoch();
    auto nloc = tables_->actors.GetLocation(actor);
    if (nloc.ok() && liveness_->IsAlive(*nloc) && registry_.Lookup(*nloc) != nullptr) {
      new_node = *nloc;
      break;
    }
    if (NowMicros() > deadline || shutting_down_.load(std::memory_order_acquire)) {
      RAY_LOG(ERROR) << "actor recovery timed out waiting for relocation";
      tables_->actors.UnsubscribeLocation(actor, sub_token);
      cleanup();
      return;
    }
    // Double failure: the re-run creation — or the fresh instance it just
    // sealed — can die before this wait observes a live location. No publish
    // will ever wake it, and this thread holds the recovery guard, so nobody
    // else can re-place. Place the creation again unless it is currently in
    // flight on a healthy node (paced: the state record lags a fresh
    // placement until the target dispatches it, and doubling up would spawn
    // a second instance).
    if (NowMicros() - last_place_us > 100'000) {
      auto st = tables_->tasks.GetState(creation.id);
      bool in_flight_healthy =
          st.ok() &&
          (st->first == gcs::TaskState::kPending || st->first == gcs::TaskState::kRunning) &&
          liveness_->IsAlive(st->second) && registry_.Lookup(st->second) != nullptr;
      if (!in_flight_healthy) {
        RAY_LOG(WARNING) << "actor recovery: creation for " << ToShortString(actor)
                         << " died with its node; re-placing";
        (void)global_->Schedule(creation, NodeId());  // failure: next pass retries
        last_place_us = NowMicros();
      }
    }
    WaitForClusterEvent(epoch, backoff_us);
    backoff_us = std::min<int64_t>(backoff_us * 2, 10'000);
  }
  tables_->actors.UnsubscribeLocation(actor, sub_token);

  // Replay the method log past the checkpoint (Fig. 11b).
  LocalScheduler* target = registry_.Lookup(new_node);
  auto log = tables_->actors.GetMethodLog(actor);
  size_t replayed = 0;
  if (log.ok() && target != nullptr) {
    for (const TaskId& task : *log) {
      auto method_bytes = tables_->tasks.GetSpec(task);
      if (!method_bytes.ok()) {
        continue;
      }
      TaskSpec method = TaskSpec::Deserialize(*method_bytes);
      if (method.actor_call_index <= checkpoint_index) {
        continue;  // state already covered by the checkpoint
      }
      target->SubmitPlaced(method);
      ++replayed;
    }
  }
  RAY_LOG(INFO) << "actor " << ToShortString(actor) << " recovered on node "
                << ToShortString(new_node) << ", replaying " << replayed << " methods";
  cleanup();
}

}  // namespace ray
