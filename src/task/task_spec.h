// TaskSpec: the immutable description of one remote function or actor method
// invocation. This is the unit recorded in the GCS Task Table, so it is the
// unit of lineage: re-running a spec reproduces the same output object ids.
// Actor methods are tasks with two extra dependencies (Section 3.2): the
// previous cursor object (the stateful edge) and the actor's creation.
#ifndef RAY_TASK_TASK_SPEC_H_
#define RAY_TASK_TASK_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/id.h"
#include "common/resource.h"
#include "common/serialization.h"

namespace ray {

// Execution priority carried by a spec. For actor creations it becomes the
// actor fiber's run-queue level (fiber::Priority), so high-priority actors'
// method calls run first when carriers are saturated.
enum class TaskPriority : uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };

// A task argument: either a reference to an object in the store (a future
// passed in) or a small inlined value.
struct TaskArg {
  enum class Kind : uint8_t { kByRef = 0, kByValue = 1 };

  static TaskArg ByRef(const ObjectId& id) {
    TaskArg a;
    a.kind = Kind::kByRef;
    a.ref = id;
    return a;
  }
  static TaskArg ByValue(std::string bytes) {
    TaskArg a;
    a.kind = Kind::kByValue;
    a.value = std::move(bytes);
    return a;
  }

  Kind kind = Kind::kByValue;
  ObjectId ref;
  std::string value;
};

struct TaskSpec {
  TaskId id;
  std::string function_name;
  std::vector<TaskArg> args;
  uint32_t num_returns = 1;
  ResourceSet resources;  // e.g. {"CPU": 1}; empty = {"CPU": 1} default applied by scheduler

  TaskId parent;  // the task (or driver) that submitted this one: control edge

  // Actor fields. For a plain task, `actor` is nil.
  ActorId actor;
  uint64_t actor_call_index = 0;  // 1-based; 0 for plain tasks
  bool is_actor_creation = false;
  std::string actor_class;  // set for creation tasks
  // Read-only methods (Section 5.1's annotation) take a snapshot of actor
  // state: they depend on the current cursor but do not advance the chain,
  // are excluded from the replay log, and re-execute on demand if lost.
  bool actor_method_read_only = false;

  TaskPriority priority = TaskPriority::kNormal;

  // Placement hint: non-empty names a replica group whose members should be
  // spread across nodes. The submission path sends such tasks through the
  // global scheduler, which counts the group's existing members (GCS Serve
  // Table) per candidate node and places on the least-populated one.
  std::string spread_group;

  bool IsActorTask() const { return !actor.IsNil() && !is_actor_creation; }
  bool IsActorCreation() const { return is_actor_creation; }
  // An actor creation or a stateful method: it makes the chain's next
  // cursor, so its lineage record links that cursor to it.
  bool AdvancesCursor() const {
    return is_actor_creation || (IsActorTask() && !actor_method_read_only);
  }

  // The i-th return object of this task. Deterministic in (id, i).
  ObjectId ReturnId(uint32_t i) const { return ObjectIdForReturn(id, i); }

  // Cursor objects encoding the stateful edge chain (Section 3.2).
  ObjectId PreviousCursor() const { return ActorCursorId(actor, actor_call_index - 1); }
  ObjectId ResultCursor() const { return ActorCursorId(actor, actor_call_index); }

  // All object ids that must be locally available before dispatch. By-value
  // args need nothing; by-ref args need their objects; actor methods need
  // the previous cursor (for read-only methods, actor_call_index holds the
  // chain position they snapshot, so "previous" is that cursor itself).
  std::vector<ObjectId> Dependencies() const;

  std::string Serialize() const;
  static TaskSpec Deserialize(const std::string& bytes);
};

}  // namespace ray

#endif  // RAY_TASK_TASK_SPEC_H_
