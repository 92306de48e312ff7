#include "runtime/api.h"

#include "common/clock.h"

namespace ray {

namespace {
// How long one store-level blocking get runs before we re-check whether the
// object needs reconstruction.
constexpr int64_t kGetSliceUs = 100'000;
}  // namespace

Ray Ray::Current() {
  const ExecutionContext* ctx = CurrentExecutionContext();
  RAY_CHECK(ctx != nullptr) << "Ray::Current() called outside task execution";
  return Ray(ctx->cluster, ctx->node);
}

NodeId Ray::SubmitterNode() const {
  const ExecutionContext* ctx = CurrentExecutionContext();
  if (ctx != nullptr && ctx->cluster == cluster_) {
    return ctx->node;
  }
  return home_;
}

TaskSpec Ray::MakeSpecBase(const std::string& function, const ResourceSet& resources) const {
  TaskSpec spec;
  spec.id = TaskId::FromRandom();
  spec.function_name = function;
  spec.resources = resources;
  const ExecutionContext* ctx = CurrentExecutionContext();
  if (ctx != nullptr && ctx->cluster == cluster_) {
    spec.parent = ctx->current_task;  // control edge
  }
  return spec;
}

void Ray::HomeStorePut(const ObjectId& id, BufferPtr buffer) {
  Node* node = cluster_->FindNode(home_);
  RAY_CHECK(node != nullptr && node->IsAlive()) << "home node is dead";
  node->store().Put(id, std::move(buffer));
}

void Ray::ReportWorkerBlocked() {
  const ExecutionContext* ctx = CurrentExecutionContext();
  if (ctx == nullptr || ctx->cluster != cluster_) {
    return;  // driver thread: nothing leased can be stuck behind us
  }
  Node* self = cluster_->FindNode(ctx->node);
  if (self == nullptr || !self->IsAlive()) {
    return;
  }
  // If this thread is draining a lease pipeline, revoke the lease and
  // re-route everything queued behind us — it may be the very tasks we are
  // about to block on (nested ray.get would deadlock a serial pipeline).
  // They were recorded when submitted from this node, so they are routed,
  // not submitted again.
  for (TaskSpec& spec : self->scheduler().NotifyWorkerBlocked()) {
    Status s = cluster_->RouteTask(spec, *self);
    if (!s.ok()) {
      RAY_LOG(WARNING) << "re-routing task " << ToShortString(spec.id)
                       << " spilled from a blocked lease failed: " << s.ToString();
    }
  }
}

Result<BufferPtr> Ray::GetBuffer(const ObjectId& id, int64_t timeout_us) {
  Node* node = cluster_->FindNode(home_);
  if (node == nullptr || !node->IsAlive()) {
    return Status::NodeDead("home node is dead");
  }
  if (!node->store().ContainsLocal(id)) {
    ReportWorkerBlocked();  // we are (very likely) about to block
  }
  int64_t deadline = timeout_us < 0 ? -1 : NowMicros() + timeout_us;
  for (;;) {
    int64_t slice = kGetSliceUs;
    if (deadline >= 0) {
      slice = std::min<int64_t>(slice, deadline - NowMicros());
      if (slice <= 0) {
        return Status::TimedOut("ray.get timed out");
      }
    }
    auto r = node->store().Get(id, slice);
    if (r.ok()) {
      return r;
    }
    // The object is not local and did not arrive within the slice. If no
    // live replica exists anywhere and its producer is not in flight on a
    // healthy node, trigger lineage reconstruction (Section 4.2.3).
    auto entry = cluster_->tables().objects.GetLocations(id);
    if (entry.ok() && cluster_->liveness().AnyAlive(entry->locations)) {
      continue;  // a fetch will succeed shortly
    }
    // ReconstructObject decides what (if anything) needs resubmitting: it
    // skips tasks already in flight on healthy nodes but still walks their
    // dependencies, covering producers that died before publishing, and
    // reports the object lost if it needs a put with no live replica. It
    // stops at this Get's deadline.
    Status s = cluster_->ReconstructObject(id, deadline);
    if (!s.ok()) {
      return s;
    }
  }
}

std::vector<size_t> Ray::Wait(const std::vector<ObjectId>& ids, size_t num_ready,
                              int64_t timeout_us) {
  Node* node = cluster_->FindNode(home_);
  RAY_CHECK(node != nullptr) << "home node unknown";
  int64_t deadline = timeout_us < 0 ? -1 : NowMicros() + timeout_us;
  num_ready = std::min(num_ready, ids.size());
  std::vector<bool> ready(ids.size(), false);
  size_t count = 0;
  bool reported_blocked = false;
  for (;;) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ready[i]) {
        continue;
      }
      bool available = node->IsAlive() && node->store().ContainsLocal(ids[i]);
      if (!available) {
        auto entry = cluster_->tables().objects.GetLocations(ids[i]);
        available = entry.ok() && cluster_->liveness().AnyAlive(entry->locations);
      }
      if (available) {
        ready[i] = true;
        ++count;
      }
    }
    if (count >= num_ready || (deadline >= 0 && NowMicros() >= deadline)) {
      break;
    }
    if (!reported_blocked) {
      reported_blocked = true;
      ReportWorkerBlocked();
    }
    SleepMicros(200);
  }
  std::vector<size_t> result;
  result.reserve(count);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ready[i]) {
      result.push_back(i);
    }
  }
  return result;
}

ActorHandle Ray::CreateActor(const std::string& class_name, const ResourceSet& resources,
                             TaskPriority priority) {
  return CreateActorSpread(class_name, std::string(), resources, priority);
}

ActorHandle Ray::CreateActorSpread(const std::string& class_name, const std::string& spread_group,
                                   const ResourceSet& resources, TaskPriority priority) {
  TaskSpec spec;
  spec.id = TaskId::FromRandom();
  spec.function_name = "__actor_create__:" + class_name;
  spec.actor = ActorId::FromRandom();
  spec.is_actor_creation = true;
  spec.actor_class = class_name;
  spec.resources = resources;
  spec.spread_group = spread_group;
  spec.priority = priority;
  const ExecutionContext* ctx = CurrentExecutionContext();
  if (ctx != nullptr && ctx->cluster == cluster_) {
    spec.parent = ctx->current_task;
  }
  Status s = cluster_->SubmitTask(spec, SubmitterNode());
  RAY_CHECK(s.ok()) << "actor creation failed: " << s.ToString();
  return ActorHandle(cluster_, home_, spec.actor, class_name, spec.ReturnId(0));
}

}  // namespace ray
