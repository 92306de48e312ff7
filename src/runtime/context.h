// Shared runtime wiring passed to every node, plus the thread-local execution
// context that lets code running inside a task submit nested tasks (Section
// 3.1: nested remote functions are what make bottom-up submission scale).
#ifndef RAY_RUNTIME_CONTEXT_H_
#define RAY_RUNTIME_CONTEXT_H_

#include <functional>

#include "common/id.h"
#include "gcs/monitor.h"
#include "gcs/tables.h"
#include "net/sim_network.h"
#include "runtime/function_registry.h"
#include "scheduler/global_scheduler.h"
#include "scheduler/registry.h"

namespace ray {

class Cluster;

struct RuntimeContext {
  Cluster* cluster = nullptr;
  gcs::Gcs* gcs = nullptr;
  gcs::GcsTables* tables = nullptr;
  // Detected liveness (subscription-backed); the only source components may
  // consult for failure decisions — the network's IsDead stays wire-internal.
  gcs::LivenessView* liveness = nullptr;
  SimNetwork* net = nullptr;
  LocalSchedulerRegistry* registry = nullptr;
  GlobalSchedulerPool* global = nullptr;
  FunctionRegistry* functions = nullptr;
  ActorRegistry* actor_classes = nullptr;
  // Lineage reconstruction entry point (Cluster::ReconstructObject).
  std::function<Status(const ObjectId&)> reconstruct_object;
  // Actor checkpoint period in method calls; 0 disables checkpointing.
  uint64_t actor_checkpoint_interval = 0;
};

// Where the current thread is executing, if it is a worker/actor thread.
struct ExecutionContext {
  Cluster* cluster = nullptr;
  NodeId node;
  TaskId current_task;
};

// Returns the context of the task executing on this thread, or nullptr on
// non-worker threads (e.g. the driver's own thread).
const ExecutionContext* CurrentExecutionContext();
void SetCurrentExecutionContext(const ExecutionContext* ctx);

}  // namespace ray

#endif  // RAY_RUNTIME_CONTEXT_H_
