#include "scheduler/global_scheduler.h"

#include <algorithm>
#include <limits>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "scheduler/local_scheduler.h"

namespace ray {

namespace {
// Floor for per-task duration estimates before any data is observed.
constexpr double kDefaultTaskDurationS = 0.005;
// Transient failures (chaos drops, a target dying between placement and
// forward, the brief no-candidate window while nodes churn) are retried
// with exponential backoff: 1ms doubling to 20ms, kScheduleAttempts tries
// total (~131ms — longer than the default failure-detection window, so a
// placement that failed because of a fresh death retries after the monitor
// has removed the corpse from the candidate set).
constexpr int kScheduleAttempts = 10;
constexpr int64_t kScheduleBackoffUs = 1'000;
constexpr int64_t kScheduleBackoffCapUs = 20'000;
}  // namespace

ResourceSet EffectiveDemand(const TaskSpec& spec) {
  if (spec.IsActorTask()) {
    return ResourceSet{};
  }
  if (spec.resources.IsEmpty()) {
    return ResourceSet::Cpu(1);
  }
  return spec.resources;
}

GlobalScheduler::GlobalScheduler(gcs::GcsTables* tables, SimNetwork* net,
                                 LocalSchedulerRegistry* registry,
                                 const GlobalSchedulerConfig& config, gcs::LivenessView* liveness)
    : id_(NodeId::FromRandom()),
      tables_(tables),
      net_(net),
      registry_(registry),
      config_(config),
      liveness_(liveness) {}

double GlobalScheduler::EstimateWait(const gcs::Heartbeat& hb,
                                     const std::vector<gcs::ObjectTable::Entry>& inputs,
                                     const NodeId& node) const {
  double task_dur = hb.avg_task_duration_s > 0 ? hb.avg_task_duration_s : kDefaultTaskDurationS;
  double wait = static_cast<double>(hb.queue_length) * task_dur;
  // Transfer time for inputs that are not already on `node` (Fig. 8a).
  double bw = hb.avg_bandwidth_bytes_s > 0 ? hb.avg_bandwidth_bytes_s : config_.default_bandwidth_bytes_s;
  uint64_t remote_bytes = 0;
  for (const gcs::ObjectTable::Entry& entry : inputs) {
    if (std::find(entry.locations.begin(), entry.locations.end(), node) == entry.locations.end()) {
      remote_bytes += entry.size_bytes;
    }
  }
  return wait + static_cast<double>(remote_bytes) / bw;
}

Result<NodeId> GlobalScheduler::Place(const TaskSpec& spec) const {
  ResourceSet demand = EffectiveDemand(spec);
  // Two candidate tiers: nodes whose *available* resources fit right now,
  // and nodes that merely could fit the task when running work drains.
  // Preferring the first tier matters because actors hold their resources
  // permanently: a node whose CPUs are all pinned by actors looks idle by
  // queue length but can never dispatch the task.
  //
  // A spread hint (spec.spread_group) adds a leading comparison key: the
  // candidate's current member count of that replica group (Serve Table), so
  // a serving replica set lands one-per-node before estimated wait is even
  // consulted — wait only breaks ties within the least-populated tier.
  std::vector<NodeId> available_ties;
  std::vector<NodeId> capacity_ties;
  const bool spread = !spec.spread_group.empty();
  struct Rank {
    // Sentinel: both keys start at infinity so the first real candidate
    // always beats an empty best, whatever its group population.
    double group_count = std::numeric_limits<double>::infinity();
    double wait = std::numeric_limits<double>::infinity();
    bool Beats(const Rank& other) const {
      if (group_count != other.group_count) {
        return group_count < other.group_count;
      }
      return wait < other.wait - 1e-9;
    }
    bool Ties(const Rank& other) const {
      return group_count == other.group_count && wait < other.wait + 1e-9;
    }
  };
  Rank best_available;
  Rank best_capacity;
  // Non-spread candidates keep the infinite group_count, which compares
  // equal across nodes and reduces the rank to the original wait comparison.
  auto consider = [](std::vector<NodeId>& ties, Rank& best, const NodeId& node, const Rank& rank) {
    if (rank.Beats(best)) {
      best = rank;
      ties.assign(1, node);
    } else if (rank.Ties(best)) {
      ties.push_back(node);  // equal rank: break randomly below
    }
  };
  // Each input's locations are read once here, not once per candidate node.
  std::vector<gcs::ObjectTable::Entry> inputs;
  if (config_.locality_aware) {
    for (const ObjectId& dep : spec.Dependencies()) {
      auto entry = tables_->objects.GetLocations(dep);
      if (entry.ok()) {  // an unknown object gives no information either way
        inputs.push_back(std::move(*entry));
      }
    }
  }
  for (const NodeId& node : tables_->nodes.GetAlive()) {
    if (liveness_ != nullptr && liveness_->IsDead(node)) {
      continue;  // declared dead; the Node Table read may be a step behind
    }
    auto hb = tables_->nodes.GetHeartbeat(node);
    if (!hb.ok()) {
      continue;
    }
    if (!hb->total.Contains(demand)) {
      continue;  // node can never satisfy this task
    }
    Rank rank;
    rank.wait = EstimateWait(*hb, inputs, node);
    if (spread) {
      rank.group_count =
          static_cast<double>(tables_->serve.CountReplicasOn(spec.spread_group, node));
    }
    if (hb->available.Contains(demand)) {
      consider(available_ties, best_available, node, rank);
    } else {
      consider(capacity_ties, best_capacity, node, rank);
    }
  }
  const std::vector<NodeId>& ties = !available_ties.empty() ? available_ties : capacity_ties;
  if (ties.empty()) {
    return Status::ResourceExhausted("no node satisfies demand " + demand.ToString());
  }
  // Random tie-break load-balances nodes the estimate cannot distinguish
  // (heartbeats are only as fresh as their interval).
  thread_local Rng tie_rng(0x7a1eULL);
  return ties[static_cast<size_t>(tie_rng.UniformInt(0, static_cast<int64_t>(ties.size()) - 1))];
}

Status GlobalScheduler::ScheduleOnce(const TaskSpec& spec, const NodeId& from) {
  trace::Span span(trace::Stage::kForward, spec.id, ObjectId(), from);
  auto target = Place(spec);
  if (!target.ok()) {
    return target.status();
  }
  span.SetPeer(*target);
  if (spec.IsActorCreation() && !spec.spread_group.empty()) {
    // Record the placement in the Serve Table *now*, not when the replica
    // finishes construction: the next creation in the same group must see
    // this one's node or a burst of creations would all pile onto the
    // emptiest node. Re-placement after a failed forward re-records
    // (last-write-wins in the table's replay).
    tables_->serve.AddReplica(spec.spread_group, spec.actor, *target);
  }
  num_scheduled_.fetch_add(1, std::memory_order_relaxed);
  // Control-plane hops: submitter -> global scheduler -> chosen node. The
  // injected scheduler latency (Fig. 12b) is charged on this path.
  RAY_RETURN_NOT_OK(net_->SchedulerHop(from, id_));
  RAY_RETURN_NOT_OK(net_->ControlRpc(id_, *target));
  LocalScheduler* local = registry_->Lookup(*target);
  if (local == nullptr) {
    return Status::NodeDead("target local scheduler gone");
  }
  local->SubmitPlaced(spec);
  return Status::Ok();
}

Status GlobalScheduler::Schedule(const TaskSpec& spec, const NodeId& from) {
  // Every failure here is potentially transient: a chaos-dropped RPC, a
  // target that died between Place and forward (re-placing picks another
  // node), or kResourceExhausted during kill/rejoin churn when a fresh
  // node's first heartbeat hasn't landed yet. Retry with backoff; the total
  // window outlasts the default failure-detection bound so a post-crash
  // retry sees the corpse removed from the candidate set.
  Status s;
  int64_t backoff = kScheduleBackoffUs;
  for (int attempt = 0; attempt < kScheduleAttempts; ++attempt) {
    if (attempt > 0) {
      SleepMicros(backoff);
      backoff = std::min(backoff * 2, kScheduleBackoffCapUs);
    }
    s = ScheduleOnce(spec, from);
    if (s.ok()) {
      return s;
    }
  }
  return s;
}

GlobalSchedulerPool::GlobalSchedulerPool(int num_replicas, gcs::GcsTables* tables, SimNetwork* net,
                                         LocalSchedulerRegistry* registry,
                                         const GlobalSchedulerConfig& config,
                                         gcs::LivenessView* liveness) {
  RAY_CHECK(num_replicas >= 1);
  for (int i = 0; i < num_replicas; ++i) {
    replicas_.push_back(std::make_unique<GlobalScheduler>(tables, net, registry, config, liveness));
  }
}

Status GlobalSchedulerPool::Schedule(const TaskSpec& spec, const NodeId& from) {
  size_t i = next_.fetch_add(1, std::memory_order_relaxed) % replicas_.size();
  return replicas_[i]->Schedule(spec, from);
}

}  // namespace ray
