// Typed tables layered over the GCS KV namespace (Fig. 5: Object Table, Task
// Table, Function Table, Event Logs, plus actor and heartbeat state). Each
// table maps to a key prefix; all operations are single-key, matching the
// paper's Redis usage. Values that cross the GCS are serialized blobs so the
// GCS layer stays below the task/runtime layers in the dependency order.
#ifndef RAY_GCS_TABLES_H_
#define RAY_GCS_TABLES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/id.h"
#include "common/resource.h"
#include "common/status.h"
#include "gcs/gcs.h"

namespace ray {
namespace gcs {

// ---------------------------------------------------------------------------
// Object Table: object id -> set of nodes holding a copy, plus size and the
// task that creates the object (needed to walk lineage on reconstruction). A
// task's return names its task (common/id.h), so only an actor cursor's
// creating task is stored.
// ---------------------------------------------------------------------------
class ObjectTable {
 public:
  explicit ObjectTable(Gcs* gcs) : gcs_(gcs) {}

  struct Entry {
    std::vector<NodeId> locations;
    uint64_t size_bytes = 0;
  };

  Status AddLocation(const ObjectId& object, const NodeId& node, uint64_t size_bytes);
  // Async variant for task completion: returns immediately, `done(status)`
  // runs once the record commits (see Gcs::WriteCallback for its context).
  void AddLocationAsync(const ObjectId& object, const NodeId& node, uint64_t size_bytes,
                        Gcs::WriteCallback done);
  Status RemoveLocation(const ObjectId& object, const NodeId& node);
  // KeyNotFound if the object has never been recorded; an entry with zero
  // locations means all copies were lost (triggers reconstruction).
  Result<Entry> GetLocations(const ObjectId& object) const;

  // Fires `callback(object, node)` whenever a new location is added for
  // `object` — the callback path of Fig. 7b (steps 2/5).
  uint64_t SubscribeLocations(const ObjectId& object,
                              std::function<void(const ObjectId&, const NodeId&)> callback);
  void UnsubscribeLocations(const ObjectId& object, uint64_t token);

  // Links an object whose ID does not name its creating task (an actor
  // cursor). Written by the lineage buffer only: returns immediately,
  // `done(status)` runs once the link is durable (see Gcs::PutAsync for
  // callback context).
  void RecordCreatingTaskAsync(const ObjectId& object, const TaskId& task,
                               Gcs::WriteCallback done);
  // KeyNotFound unless the creating task's spec is recorded, so callers read
  // an OK result as "has lineage". One tail read: the Task Table's record for
  // a task's return (common/id.h ReturningTask), the stored link otherwise.
  Result<TaskId> GetCreatingTask(const ObjectId& object) const;
  // Drops a link RecordCreatingTaskAsync wrote (lineage garbage collection).
  // A return's link goes with its task's spec (TaskTable::DeleteTask).
  Status DeleteCreatingTask(const ObjectId& object);

 private:
  Gcs* gcs_;
};

// ---------------------------------------------------------------------------
// Task Table: the durable lineage. A task's record is its immutable spec
// behind the node it was first queued on; its state entry is written only
// when the task changes hands or ends. Until then the record stands for it:
// the task is pending on the node the record names.
// ---------------------------------------------------------------------------
// A task is running from the moment it is pending on a live node, so there
// is no running state. The byte values are what the GCS stores.
enum class TaskState : uint8_t { kPending = 0, kDone = 2, kLost = 3 };

class TaskTable {
 public:
  // Prefix of every Task Table key; registered as flushable (Fig. 10b).
  static constexpr const char* kKeyPrefix = "task:";

  explicit TaskTable(Gcs* gcs) : gcs_(gcs) {}

  // Records `task` as pending on `node`, in one write.
  Status AddTask(const TaskId& task, const NodeId& node, const std::string& spec_bytes);
  Result<std::string> GetSpec(const TaskId& task) const;
  Status SetState(const TaskId& task, TaskState state, const NodeId& node);
  // The last SetState, or (kPending, the record's node) when none was made.
  // KeyNotFound when the task is not recorded.
  Result<std::pair<TaskState, NodeId>> GetState(const TaskId& task) const;
  // Drops the task's record and state (lineage garbage collection); its
  // returns then read as having no lineage.
  Status DeleteTask(const TaskId& task);

  // Async variants for the lineage buffer and task completion (durability
  // is tracked by the caller through the completion callbacks).
  void AddTaskAsync(const TaskId& task, const NodeId& node, const std::string& spec_bytes,
                    Gcs::WriteCallback done);
  void SetStateAsync(const TaskId& task, TaskState state, const NodeId& node,
                     Gcs::WriteCallback done);

 private:
  Gcs* gcs_;
};

// ---------------------------------------------------------------------------
// Actor Table: creation spec, current location, and latest checkpoint.
// ---------------------------------------------------------------------------
class ActorTable {
 public:
  explicit ActorTable(Gcs* gcs) : gcs_(gcs) {}

  // Written by the lineage buffer only (see Gcs::PutAsync for callback
  // context), like AppendMethodAsync below.
  void RegisterActorAsync(const ActorId& actor, const std::string& creation_spec_bytes,
                          Gcs::WriteCallback done);
  Result<std::string> GetCreationSpec(const ActorId& actor) const;

  Status SetLocation(const ActorId& actor, const NodeId& node);
  Result<NodeId> GetLocation(const ActorId& actor) const;

  // Fires `callback(node)` whenever the actor's location is (re)assigned.
  uint64_t SubscribeLocation(const ActorId& actor, std::function<void(const NodeId&)> callback);
  void UnsubscribeLocation(const ActorId& actor, uint64_t token);

  // The actor's method-chain sequence counter. Handles may be copied into
  // other tasks/actors (Section 3.1), so chain indices are allocated from
  // the GCS rather than handle-local state.
  Result<uint64_t> NextCallIndex(const ActorId& actor);
  uint64_t CurrentCallIndex(const ActorId& actor) const;

  // Ordered log of method-invocation task ids, appended at submission time;
  // replayed (from the last checkpoint) to reconstruct a lost actor.
  void AppendMethodAsync(const ActorId& actor, const TaskId& task, Gcs::WriteCallback done);
  Result<std::vector<TaskId>> GetMethodLog(const ActorId& actor) const;

  // Checkpoint: serialized actor state after `call_index` methods.
  Status StoreCheckpoint(const ActorId& actor, uint64_t call_index, const std::string& state_bytes);
  struct Checkpoint {
    uint64_t call_index = 0;
    std::string state_bytes;
  };
  Result<Checkpoint> GetCheckpoint(const ActorId& actor) const;

 private:
  Gcs* gcs_;
};

// ---------------------------------------------------------------------------
// Node registry + heartbeats. The global scheduler reads these to estimate
// per-node waiting time (Section 4.2.2).
// ---------------------------------------------------------------------------
struct Heartbeat {
  // Monotonic per-node sequence number. The failure detector (GcsMonitor)
  // keys liveness on this advancing, not on wall-clock timestamps, so a
  // re-delivered or reordered heartbeat can never look "fresh".
  uint64_t seq = 0;
  uint64_t queue_length = 0;
  double avg_task_duration_s = 0.0;   // exponential average
  double avg_bandwidth_bytes_s = 0.0; // exponential average
  ResourceSet available;
  ResourceSet total;

  std::string Serialize() const;
  static Heartbeat Deserialize(const std::string& bytes);
};

class NodeTable {
 public:
  explicit NodeTable(Gcs* gcs) : gcs_(gcs) {}

  Status RegisterNode(const NodeId& node);
  Status MarkDead(const NodeId& node);
  // All nodes ever registered and their liveness.
  std::vector<std::pair<NodeId, bool>> GetAll() const;
  std::vector<NodeId> GetAlive() const;
  bool IsAlive(const NodeId& node) const;

  Status ReportHeartbeat(const NodeId& node, const Heartbeat& hb);
  Result<Heartbeat> GetHeartbeat(const NodeId& node) const;

  // Fires `callback(node, alive)` when any node is registered (alive=true)
  // or marked dead (alive=false). This is the cluster's death notification
  // channel: MarkDead — written by the failure detector — publishes here.
  uint64_t SubscribeMembership(std::function<void(const NodeId&, bool alive)> callback);
  void UnsubscribeMembership(uint64_t token);

 private:
  Gcs* gcs_;
};

// ---------------------------------------------------------------------------
// Serve Table: replica-set membership and serving metrics for the serving
// layer (src/serve). Membership is an append-only '+'/'-' log (same idiom as
// the Object Table's location log), read by the global scheduler to spread a
// group's replicas across nodes and by routers rebuilding their replica set.
// Metrics are an opaque serialized blob published by the router each stats
// tick and read by the autoscaler — the GCS layer stays below serve/ in the
// dependency order, so it never interprets them.
// ---------------------------------------------------------------------------
class ServeTable {
 public:
  explicit ServeTable(Gcs* gcs) : gcs_(gcs) {}

  struct Replica {
    ActorId actor;
    NodeId node;
  };

  Status AddReplica(const std::string& group, const ActorId& actor, const NodeId& node);
  Status RemoveReplica(const std::string& group, const ActorId& actor);
  // Current (added, not yet removed) members of the group.
  Result<std::vector<Replica>> GetReplicas(const std::string& group) const;
  // Members of `group` hosted on `node` (the spread-placement count).
  size_t CountReplicasOn(const std::string& group, const NodeId& node) const;

  Status PublishMetrics(const std::string& group, const std::string& metrics_bytes);
  Result<std::string> GetMetrics(const std::string& group) const;

 private:
  Gcs* gcs_;
};

// ---------------------------------------------------------------------------
// Function Table: remote function registration records (Fig. 7a step 0).
// ---------------------------------------------------------------------------
class FunctionTable {
 public:
  explicit FunctionTable(Gcs* gcs) : gcs_(gcs) {}

  Status RegisterFunction(const FunctionId& fn, const std::string& name);

 private:
  Gcs* gcs_;
};

// ---------------------------------------------------------------------------
// Event log: append-only per-source records for debugging/profiling tools.
// ---------------------------------------------------------------------------
class EventLog {
 public:
  explicit EventLog(Gcs* gcs) : gcs_(gcs) {}

  Status Append(const std::string& source, const std::string& event);
  Result<std::vector<std::string>> Get(const std::string& source) const;

 private:
  Gcs* gcs_;
};

// Bundles all tables over one GCS instance.
struct GcsTables {
  explicit GcsTables(Gcs* gcs)
      : objects(gcs), tasks(gcs), actors(gcs), nodes(gcs), serve(gcs), functions(gcs),
        events(gcs) {}

  ObjectTable objects;
  TaskTable tasks;
  ActorTable actors;
  NodeTable nodes;
  ServeTable serve;
  FunctionTable functions;
  EventLog events;
};

}  // namespace gcs
}  // namespace ray

#endif  // RAY_GCS_TABLES_H_
