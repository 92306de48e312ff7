#include "runtime/node.h"

#include "common/clock.h"
#include "common/logging.h"
#include "trace/trace.h"

namespace ray {

namespace {

// RAII for the execution context around task execution. The context lives in
// fiber-local storage: workers and actor loops are fibers, and a fiber that
// suspends mid-task (blocking Get) must not leak its context to whatever the
// carrier thread runs next, nor lose it when it resumes on another carrier.
// Off-fiber callers fall back to plain thread-local storage inside GetFls.
class ScopedExecutionContext {
 public:
  explicit ScopedExecutionContext(const ExecutionContext* ctx) { SetCurrentExecutionContext(ctx); }
  ~ScopedExecutionContext() { SetCurrentExecutionContext(nullptr); }
};

// Arguments must normally be local by the dispatch invariant; the fallback
// remote get bounds worst-case stalls (e.g. racing an eviction).
constexpr int64_t kArgGetTimeoutUs = 2'000'000;

fiber::Priority ToFiberPriority(TaskPriority p) {
  switch (p) {
    case TaskPriority::kHigh:
      return fiber::Priority::kHigh;
    case TaskPriority::kLow:
      return fiber::Priority::kLow;
    case TaskPriority::kNormal:
      break;
  }
  return fiber::Priority::kNormal;
}

}  // namespace

const ExecutionContext* CurrentExecutionContext() {
  return static_cast<const ExecutionContext*>(fiber::GetFls(fiber::kFlsExecutionContext));
}
void SetCurrentExecutionContext(const ExecutionContext* ctx) {
  fiber::SetFls(fiber::kFlsExecutionContext, const_cast<ExecutionContext*>(ctx));
}

Node::Node(const RuntimeContext* rt, const LocalSchedulerConfig& scheduler_config,
           const ObjectStoreConfig& store_config)
    : rt_(rt), id_(NodeId::FromRandom()) {
  store_ = std::make_unique<ObjectStore>(id_, rt_->tables, rt_->net, store_config, rt_->liveness);
  scheduler_ = std::make_unique<LocalScheduler>(id_, rt_->tables, rt_->net, store_.get(),
                                                rt_->global, scheduler_config, rt_->liveness);
  transport_ = std::make_unique<DirectTaskTransport>(scheduler_.get(), store_.get(), rt_->tables);
}

Node::~Node() {
  if (IsAlive()) {
    // Graceful teardown (not a crash): stop accepting and drain. Actor
    // fibers live on the scheduler's fiber runtime, so they must be closed
    // and joined BEFORE scheduler_->Shutdown() tears the carriers down.
    alive_.store(false, std::memory_order_release);
    rt_->registry->Remove(id_);
    StopActors();
    transport_->Shutdown();
    scheduler_->Shutdown();
    DrainCompletions();  // callbacks hold `this`; members die next
  }
}

void Node::StopActors() {
  std::vector<std::shared_ptr<fiber::Fiber>> fibers;
  {
    MutexLock lock(actors_mu_);
    for (auto& [aid, actor] : actors_) {
      actor->mailbox.Close();
      if (actor->fiber) {
        fibers.push_back(actor->fiber);
      }
    }
  }
  // Join outside the lock: a draining actor method may still dispatch and
  // thus take actors_mu_ (e.g. a method calling another local actor).
  for (auto& f : fibers) {
    f->Join();
  }
  MutexLock lock(actors_mu_);
  actors_.clear();
}

void Node::Start() {
  rt_->tables->nodes.RegisterNode(id_);
  rt_->registry->Register(id_, scheduler_.get());
  scheduler_->SetObjectUnreachableHandler(
      [this](const ObjectId& object) { return rt_->reconstruct_object(object); },
      [this](const TaskSpec& spec) {
        if (IsAlive()) {
          CompleteTask(spec.id, gcs::TaskState::kLost, {});
        }
      });
  scheduler_->Start([this](const TaskSpec& spec) { ExecuteTask(spec); },
                    [this](const TaskSpec& spec) { DispatchActorTask(spec); });
}

void Node::Kill() {
  bool expected = true;
  if (!alive_.compare_exchange_strong(expected, false)) {
    return;
  }
  // Crash semantics: the wire goes dark and the process stops — nothing
  // more. The node does NOT mark itself dead in the GCS (a crashed process
  // reports nothing); death becomes visible only when the GCS monitor
  // notices the heartbeat sequence has stopped advancing, which is also what
  // writes the durable node-death event. Removing the registry entry models
  // connection-refused for control RPCs that race the crash.
  rt_->net->SetNodeDead(id_, true);
  rt_->registry->Remove(id_);
  StopActors();
  transport_->Shutdown();
  scheduler_->Shutdown();
  // The workers are joined, so no completion starts after this; one already
  // in flight seals nothing now that alive_ is false.
  DrainCompletions();
  store_->CrashClear();
}

size_t Node::NumLiveActors() const {
  MutexLock lock(actors_mu_);
  return actors_.size();
}

Status Node::ResolveArgs(const TaskSpec& spec, std::vector<BufferPtr>* out) {
  out->clear();
  out->reserve(spec.args.size());
  for (const TaskArg& arg : spec.args) {
    if (arg.kind == TaskArg::Kind::kByValue) {
      out->push_back(Buffer::FromString(arg.value));
      continue;
    }
    auto local = store_->GetLocal(arg.ref);
    if (!local.ok()) {
      local = store_->Get(arg.ref, kArgGetTimeoutUs);
    }
    if (!local.ok()) {
      return local.status();
    }
    out->push_back(*local);
  }
  return Status::Ok();
}

void Node::ExecuteTask(const TaskSpec& spec) {
  if (!IsAlive()) {
    return;
  }
  ExecutionContext ctx{rt_->cluster, id_, spec.id};
  ScopedExecutionContext scoped(&ctx);
  if (spec.IsActorCreation()) {
    CreateActorInstance(spec);
    return;
  }
  std::vector<BufferPtr> args;
  Status s = ResolveArgs(spec, &args);
  if (!s.ok()) {
    RAY_LOG(WARNING) << "task " << ToShortString(spec.id) << " lost an input: " << s.ToString();
    // Reconstruction reads this task's spec from the GCS, so kLost too waits
    // for the async-recorded lineage to land.
    CompleteTask(spec.id, gcs::TaskState::kLost, {});
    return;
  }
  std::vector<BufferPtr> results;
  if (const RawMultiFunction* multi = rt_->functions->LookupMulti(spec.function_name)) {
    results = (*multi)(args);
    if (!IsAlive()) {
      return;  // died mid-execution: outputs are lost with the store
    }
    RAY_CHECK(results.size() == spec.num_returns)
        << "multi-output function produced " << results.size() << " values, spec expects "
        << spec.num_returns;
  } else {
    const RawFunction* fn = rt_->functions->Lookup(spec.function_name);
    RAY_CHECK(fn != nullptr) << "unknown remote function: " << spec.function_name;
    results.push_back((*fn)(args));
    if (!IsAlive()) {
      return;
    }
    for (uint32_t i = 1; i < spec.num_returns; ++i) {
      results.push_back(std::make_shared<Buffer>());
    }
  }
  CompleteTask(spec.id, gcs::TaskState::kDone, std::move(results));
}

void Node::CompleteTask(const TaskId& task, gcs::TaskState state,
                        std::vector<BufferPtr> outputs) {
  {
    MutexLock lock(completions_mu_);
    ++completions_inflight_;
  }
  // Each step runs on the GCS flusher thread that committed the write before
  // it (or inline, when the lineage is already durable), so it does only
  // in-memory work and issues async writes (see Gcs::WriteCallback).
  auto seal = [this, task, outputs = std::move(outputs)](Status) mutable {
    // The terminal state has committed: a consumer woken by a result's
    // location already observes the task as done.
    if (IsAlive()) {
      for (uint32_t i = 0; i < outputs.size(); ++i) {
        store_->PutAsync(ObjectIdForReturn(task, i), std::move(outputs[i]));
      }
    }
    // Notify under the lock: a draining Kill or ~Node may destroy `this` as
    // soon as it reads zero.
    MutexLock lock(completions_mu_);
    --completions_inflight_;
    completions_cv_.NotifyAll();
  };
  // Durability invariant: lineage is in the GCS before the state commits and
  // before any output becomes visible, so a failure at any later point can
  // always re-derive the task.
  transport_->lineage().WhenTaskDurable(
      task, [this, task, state, seal = std::move(seal)]() mutable {
        rt_->tables->tasks.SetStateAsync(task, state, id_, std::move(seal));
      });
}

void Node::DrainCompletions() {
  MutexLock lock(completions_mu_);
  while (completions_inflight_ > 0) {
    completions_cv_.Wait(completions_mu_);
  }
}

void Node::CreateActorInstance(const TaskSpec& spec) {
  const ActorClass* cls = rt_->actor_classes->Lookup(spec.actor_class);
  RAY_CHECK(cls != nullptr) << "unknown actor class: " << spec.actor_class;
  auto live = std::make_unique<LiveActor>();
  live->id = spec.actor;
  live->cls = cls;
  live->instance = cls->create();
  live->held_resources = EffectiveDemand(spec);

  // Self-healing creation: if a checkpoint exists (this is a recovery), load
  // it and resume the cursor chain from the checkpointed method index
  // (Fig. 11b); otherwise start the chain at cursor 0.
  uint64_t start_index = 0;
  if (cls->SupportsCheckpoint()) {
    auto ckpt = rt_->tables->actors.GetCheckpoint(spec.actor);
    if (ckpt.ok()) {
      cls->restore_checkpoint(live->instance.get(), ckpt->state_bytes);
      start_index = ckpt->call_index;
    }
  }
  live->last_call_index = start_index;
  // The actor keeps holding the creation task's resources for its lifetime;
  // the scheduler skips the release when the creation task finishes.
  LiveActor* raw = live.get();
  {
    MutexLock lock(actors_mu_);
    if (!IsAlive()) {
      return;  // lost the race with Kill/teardown: don't spawn onto a
               // scheduler that is (or is about to be) shutting down
    }
    auto [it, inserted] = actors_.emplace(spec.actor, std::move(live));
    RAY_CHECK(inserted) << "actor created twice on one node";
    // A fiber, not a thread: an idle actor parked on its mailbox costs a few
    // KB of stack, which is what lets one node hold 100k+ resident actors.
    // The creation spec's priority becomes the fiber's run-queue level, so
    // the chain survives recovery too (the spec is durable in the GCS).
    raw->fiber = scheduler_->fibers().Spawn([this, raw] { ActorLoop(raw); },
                                            ToFiberPriority(spec.priority));
    RAY_CHECK(raw->fiber != nullptr) << "actor spawn raced fiber-runtime shutdown";
  }
  rt_->tables->actors.SetLocation(spec.actor, id_);
  rt_->tables->tasks.SetState(spec.id, gcs::TaskState::kDone, id_);
  store_->Put(ActorCursorId(spec.actor, start_index), std::make_shared<Buffer>());
  store_->Put(spec.ReturnId(0), std::make_shared<Buffer>());  // creation-complete signal
}

void Node::DispatchActorTask(const TaskSpec& spec) {
  MutexLock lock(actors_mu_);
  auto it = actors_.find(spec.actor);
  if (it == actors_.end()) {
    // Can only happen if the node died between readiness and dispatch.
    RAY_LOG(WARNING) << "actor method dispatched but actor " << ToShortString(spec.actor)
                     << " is not live here";
    return;
  }
  it->second->mailbox.Push(spec);
}

void Node::ActorLoop(LiveActor* actor) {
  while (auto spec = actor->mailbox.Pop()) {
    if (!IsAlive()) {
      return;
    }
    ExecuteActorMethod(actor, *spec);
  }
}

void Node::ExecuteActorMethod(LiveActor* actor, const TaskSpec& spec) {
  if (!spec.actor_method_read_only && spec.actor_call_index <= actor->last_call_index) {
    // Duplicate delivery (replay racing a routing retry); the first
    // execution already sealed this method's outputs. Read-only methods are
    // exempt: they share the chain position they snapshot.
    return;
  }
  ExecutionContext ctx{rt_->cluster, id_, spec.id};
  ScopedExecutionContext scoped(&ctx);
  trace::Span span(trace::Stage::kActorExec, spec.id, ObjectId(), id_);
  std::vector<BufferPtr> args;
  Status s = ResolveArgs(spec, &args);
  if (!s.ok()) {
    RAY_LOG(WARNING) << "actor method " << spec.function_name << " lost an input: " << s.ToString();
    rt_->tables->tasks.SetState(spec.id, gcs::TaskState::kLost, id_);
    return;
  }
  auto mit = actor->cls->methods.find(spec.function_name);
  RAY_CHECK(mit != actor->cls->methods.end())
      << "unknown method " << spec.function_name << " on actor class";
  BufferPtr result = mit->second.fn(actor->instance.get(), args);
  if (!IsAlive()) {
    return;
  }
  rt_->tables->tasks.SetState(spec.id, gcs::TaskState::kDone, id_);
  store_->Put(spec.ReturnId(0), std::move(result));
  actor_methods_executed_.fetch_add(1, std::memory_order_relaxed);
  if (spec.actor_method_read_only) {
    return;  // off-chain: no cursor to seal, no checkpoint trigger
  }
  // Seal the stateful-edge cursor so the next method becomes ready.
  store_->Put(spec.ResultCursor(), std::make_shared<Buffer>());
  actor->last_call_index = spec.actor_call_index;

  uint64_t interval = rt_->actor_checkpoint_interval;
  if (interval > 0 && actor->cls->SupportsCheckpoint() && spec.actor_call_index % interval == 0) {
    std::string state = actor->cls->save_checkpoint(actor->instance.get());
    rt_->tables->actors.StoreCheckpoint(spec.actor, spec.actor_call_index, state);
  }
}

}  // namespace ray
