#include "gcs/tables.h"

#include <algorithm>
#include <cstring>

#include "common/serialization.h"

namespace ray {
namespace gcs {

namespace {

std::string ObjLocKey(const ObjectId& object) { return "obj:loc:" + object.Binary(); }
std::string ObjTaskKey(const ObjectId& object) { return "obj:task:" + object.Binary(); }
std::string TaskKey(const char* kind, const TaskId& task) {
  std::string key = TaskTable::kKeyPrefix;
  key += kind;
  key.append(reinterpret_cast<const char*>(task.Data()), TaskId::kSize);
  return key;
}
std::string TaskSpecKey(const TaskId& task) { return TaskKey("spec:", task); }
std::string TaskStateKey(const TaskId& task) { return TaskKey("state:", task); }
std::string ActorSpecKey(const ActorId& actor) { return "actor:spec:" + actor.Binary(); }
std::string ActorLocKey(const ActorId& actor) { return "actor:loc:" + actor.Binary(); }
std::string ActorCkptKey(const ActorId& actor) { return "actor:ckpt:" + actor.Binary(); }
std::string ActorSeqKey(const ActorId& actor) { return "actor:seq:" + actor.Binary(); }
std::string ActorLogKey(const ActorId& actor) { return "actor:log:" + actor.Binary(); }
std::string HeartbeatKey(const NodeId& node) { return "hb:" + node.Binary(); }
std::string FunctionKey(const FunctionId& fn) { return "fn:" + fn.Binary(); }
constexpr const char* kNodesKey = "nodes";

// A task record is the node binary, then the spec bytes.
std::string TaskRecord(const NodeId& node, const std::string& spec_bytes) {
  std::string rec;
  rec.reserve(NodeId::kSize + spec_bytes.size());
  rec += node.Binary();
  rec += spec_bytes;
  return rec;
}

// The task's record, checked to hold at least a node.
Result<std::string> ReadTaskRecord(const Gcs& gcs, const TaskId& task) {
  auto record = gcs.Get(TaskSpecKey(task));
  if (record.ok() && record->size() < NodeId::kSize) {
    return Status::Internal("corrupt task record");
  }
  return record;
}

std::string StateRecord(TaskState state, const NodeId& node) {
  std::string rec;
  rec.push_back(static_cast<char>(state));
  rec += node.Binary();
  return rec;
}

// Location records are '+'/'-' + node binary; heartbeat/size piggybacked.
std::string LocationRecord(char op, const NodeId& node, uint64_t size) {
  std::string rec;
  rec.push_back(op);
  rec += node.Binary();
  rec.append(reinterpret_cast<const char*>(&size), sizeof(size));
  return rec;
}

}  // namespace

// --- ObjectTable ---

Status ObjectTable::AddLocation(const ObjectId& object, const NodeId& node, uint64_t size_bytes) {
  return gcs_->Append(ObjLocKey(object), LocationRecord('+', node, size_bytes));
}

void ObjectTable::AddLocationAsync(const ObjectId& object, const NodeId& node,
                                   uint64_t size_bytes, Gcs::WriteCallback done) {
  gcs_->AppendAsync(ObjLocKey(object), LocationRecord('+', node, size_bytes), std::move(done));
}

Status ObjectTable::RemoveLocation(const ObjectId& object, const NodeId& node) {
  return gcs_->Append(ObjLocKey(object), LocationRecord('-', node, 0));
}

Result<ObjectTable::Entry> ObjectTable::GetLocations(const ObjectId& object) const {
  auto records = gcs_->GetList(ObjLocKey(object));
  if (!records.ok()) {
    return records.status();
  }
  Entry entry;
  std::vector<NodeId> nodes;
  for (const auto& rec : *records) {
    if (rec.size() < 1 + NodeId::kSize) {
      continue;
    }
    NodeId node = NodeId::FromBinary(rec.substr(1, NodeId::kSize));
    if (rec[0] == '+') {
      uint64_t size = 0;
      if (rec.size() >= 1 + NodeId::kSize + sizeof(uint64_t)) {
        std::memcpy(&size, rec.data() + 1 + NodeId::kSize, sizeof(size));
      }
      entry.size_bytes = size;
      if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
        nodes.push_back(node);
      }
    } else {
      nodes.erase(std::remove(nodes.begin(), nodes.end(), node), nodes.end());
    }
  }
  entry.locations = std::move(nodes);
  return entry;
}

uint64_t ObjectTable::SubscribeLocations(const ObjectId& object,
                                         std::function<void(const ObjectId&, const NodeId&)> callback) {
  return gcs_->Subscribe(ObjLocKey(object), [object, cb = std::move(callback)](const std::string&,
                                                                               const std::string& rec) {
    if (rec.size() >= 1 + NodeId::kSize && rec[0] == '+') {
      cb(object, NodeId::FromBinary(rec.substr(1, NodeId::kSize)));
    }
  });
}

void ObjectTable::UnsubscribeLocations(const ObjectId& object, uint64_t token) {
  gcs_->Unsubscribe(ObjLocKey(object), token);
}

void ObjectTable::RecordCreatingTaskAsync(const ObjectId& object, const TaskId& task,
                                          Gcs::WriteCallback done) {
  gcs_->PutAsync(ObjTaskKey(object), task.Binary(), std::move(done));
}

Result<TaskId> ObjectTable::GetCreatingTask(const ObjectId& object) const {
  if (IsTaskReturn(object)) {
    TaskId task = ReturningTask(object);
    auto record = gcs_->Get(TaskSpecKey(task));
    if (!record.ok()) {
      return record.status();
    }
    return task;
  }
  auto v = gcs_->Get(ObjTaskKey(object));
  if (!v.ok()) {
    return v.status();
  }
  return TaskId::FromBinary(*v);
}

Status ObjectTable::DeleteCreatingTask(const ObjectId& object) {
  return gcs_->Delete(ObjTaskKey(object));
}

// --- TaskTable ---

Status TaskTable::AddTask(const TaskId& task, const NodeId& node, const std::string& spec_bytes) {
  return gcs_->Put(TaskSpecKey(task), TaskRecord(node, spec_bytes));
}

Result<std::string> TaskTable::GetSpec(const TaskId& task) const {
  auto record = ReadTaskRecord(*gcs_, task);
  if (!record.ok()) {
    return record.status();
  }
  record->erase(0, NodeId::kSize);
  return std::move(*record);
}

Status TaskTable::SetState(const TaskId& task, TaskState state, const NodeId& node) {
  return gcs_->Put(TaskStateKey(task), StateRecord(state, node));
}

Status TaskTable::DeleteTask(const TaskId& task) {
  RAY_RETURN_NOT_OK(gcs_->Delete(TaskSpecKey(task)));
  return gcs_->Delete(TaskStateKey(task));
}

void TaskTable::AddTaskAsync(const TaskId& task, const NodeId& node, const std::string& spec_bytes,
                             Gcs::WriteCallback done) {
  gcs_->PutAsync(TaskSpecKey(task), TaskRecord(node, spec_bytes), std::move(done));
}

void TaskTable::SetStateAsync(const TaskId& task, TaskState state, const NodeId& node,
                              Gcs::WriteCallback done) {
  gcs_->PutAsync(TaskStateKey(task), StateRecord(state, node), std::move(done));
}

Result<std::pair<TaskState, NodeId>> TaskTable::GetState(const TaskId& task) const {
  auto v = gcs_->Get(TaskStateKey(task));
  if (!v.ok() && v.status().code() == StatusCode::kKeyNotFound) {
    // No state written since the record: pending on the node it names.
    auto record = ReadTaskRecord(*gcs_, task);
    if (!record.ok()) {
      return record.status();
    }
    return std::make_pair(TaskState::kPending, NodeId::FromBinary(*record));
  }
  if (!v.ok()) {
    return v.status();
  }
  if (v->size() < 1 + NodeId::kSize) {
    return Status::Internal("corrupt task state record");
  }
  return std::make_pair(static_cast<TaskState>((*v)[0]), NodeId::FromBinary(v->substr(1)));
}

// --- ActorTable ---

void ActorTable::RegisterActorAsync(const ActorId& actor, const std::string& creation_spec_bytes,
                                    Gcs::WriteCallback done) {
  gcs_->PutAsync(ActorSpecKey(actor), creation_spec_bytes, std::move(done));
}

Result<std::string> ActorTable::GetCreationSpec(const ActorId& actor) const {
  return gcs_->Get(ActorSpecKey(actor));
}

Status ActorTable::SetLocation(const ActorId& actor, const NodeId& node) {
  return gcs_->Put(ActorLocKey(actor), node.Binary());
}

Result<NodeId> ActorTable::GetLocation(const ActorId& actor) const {
  auto v = gcs_->Get(ActorLocKey(actor));
  if (!v.ok()) {
    return v.status();
  }
  return NodeId::FromBinary(*v);
}

uint64_t ActorTable::SubscribeLocation(const ActorId& actor,
                                       std::function<void(const NodeId&)> callback) {
  return gcs_->Subscribe(ActorLocKey(actor),
                         [cb = std::move(callback)](const std::string&, const std::string& value) {
                           cb(NodeId::FromBinary(value));
                         });
}

void ActorTable::UnsubscribeLocation(const ActorId& actor, uint64_t token) {
  gcs_->Unsubscribe(ActorLocKey(actor), token);
}

Result<uint64_t> ActorTable::NextCallIndex(const ActorId& actor) {
  return gcs_->Increment(ActorSeqKey(actor));
}

uint64_t ActorTable::CurrentCallIndex(const ActorId& actor) const {
  auto v = gcs_->Get(ActorSeqKey(actor));
  if (!v.ok() || v->size() != sizeof(uint64_t)) {
    return 0;
  }
  uint64_t value = 0;
  std::memcpy(&value, v->data(), sizeof(value));
  return value;
}

void ActorTable::AppendMethodAsync(const ActorId& actor, const TaskId& task,
                                   Gcs::WriteCallback done) {
  gcs_->AppendAsync(ActorLogKey(actor), task.Binary(), std::move(done));
}

Result<std::vector<TaskId>> ActorTable::GetMethodLog(const ActorId& actor) const {
  auto records = gcs_->GetList(ActorLogKey(actor));
  if (!records.ok()) {
    return records.status();
  }
  std::vector<TaskId> tasks;
  tasks.reserve(records->size());
  for (const auto& rec : *records) {
    tasks.push_back(TaskId::FromBinary(rec));
  }
  return tasks;
}

Status ActorTable::StoreCheckpoint(const ActorId& actor, uint64_t call_index,
                                   const std::string& state_bytes) {
  std::string v;
  v.append(reinterpret_cast<const char*>(&call_index), sizeof(call_index));
  v += state_bytes;
  return gcs_->Put(ActorCkptKey(actor), v);
}

Result<ActorTable::Checkpoint> ActorTable::GetCheckpoint(const ActorId& actor) const {
  auto v = gcs_->Get(ActorCkptKey(actor));
  if (!v.ok()) {
    return v.status();
  }
  if (v->size() < sizeof(uint64_t)) {
    return Status::Internal("corrupt checkpoint record");
  }
  Checkpoint ckpt;
  std::memcpy(&ckpt.call_index, v->data(), sizeof(uint64_t));
  ckpt.state_bytes = v->substr(sizeof(uint64_t));
  return ckpt;
}

// --- Heartbeat / NodeTable ---

std::string Heartbeat::Serialize() const {
  Writer w;
  w.WritePod<uint64_t>(seq);
  w.WritePod<uint64_t>(queue_length);
  w.WritePod<double>(avg_task_duration_s);
  w.WritePod<double>(avg_bandwidth_bytes_s);
  Put(w, available.Quantities());
  Put(w, total.Quantities());
  return w.Finish()->ToString();
}

Heartbeat Heartbeat::Deserialize(const std::string& bytes) {
  Reader r(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  Heartbeat hb;
  hb.seq = r.ReadPod<uint64_t>();
  hb.queue_length = r.ReadPod<uint64_t>();
  hb.avg_task_duration_s = r.ReadPod<double>();
  hb.avg_bandwidth_bytes_s = r.ReadPod<double>();
  hb.available = ResourceSet(Take<std::map<std::string, double>>(r));
  hb.total = ResourceSet(Take<std::map<std::string, double>>(r));
  return hb;
}

Status NodeTable::RegisterNode(const NodeId& node) {
  return gcs_->Append(kNodesKey, "+" + node.Binary());
}

Status NodeTable::MarkDead(const NodeId& node) { return gcs_->Append(kNodesKey, "-" + node.Binary()); }

std::vector<std::pair<NodeId, bool>> NodeTable::GetAll() const {
  auto records = gcs_->GetList(kNodesKey);
  std::vector<std::pair<NodeId, bool>> nodes;
  if (!records.ok()) {
    return nodes;
  }
  for (const auto& rec : *records) {
    if (rec.size() < 1 + NodeId::kSize) {
      continue;
    }
    NodeId node = NodeId::FromBinary(rec.substr(1));
    bool alive = rec[0] == '+';
    bool found = false;
    for (auto& [n, a] : nodes) {
      if (n == node) {
        a = alive;
        found = true;
        break;
      }
    }
    if (!found) {
      nodes.emplace_back(node, alive);
    }
  }
  return nodes;
}

std::vector<NodeId> NodeTable::GetAlive() const {
  std::vector<NodeId> alive;
  for (const auto& [node, is_alive] : GetAll()) {
    if (is_alive) {
      alive.push_back(node);
    }
  }
  return alive;
}

bool NodeTable::IsAlive(const NodeId& node) const {
  for (const auto& [n, alive] : GetAll()) {
    if (n == node) {
      return alive;
    }
  }
  return false;
}

Status NodeTable::ReportHeartbeat(const NodeId& node, const Heartbeat& hb) {
  return gcs_->Put(HeartbeatKey(node), hb.Serialize());
}

Result<Heartbeat> NodeTable::GetHeartbeat(const NodeId& node) const {
  auto v = gcs_->Get(HeartbeatKey(node));
  if (!v.ok()) {
    return v.status();
  }
  return Heartbeat::Deserialize(*v);
}

uint64_t NodeTable::SubscribeMembership(
    std::function<void(const NodeId&, bool alive)> callback) {
  return gcs_->Subscribe(
      kNodesKey, [cb = std::move(callback)](const std::string&, const std::string& rec) {
        if (rec.size() < 1 + NodeId::kSize) {
          return;
        }
        cb(NodeId::FromBinary(rec.substr(1)), rec[0] == '+');
      });
}

void NodeTable::UnsubscribeMembership(uint64_t token) { gcs_->Unsubscribe(kNodesKey, token); }

// --- ServeTable ---

namespace {
std::string ServeRepKey(const std::string& group) { return "serve:rep:" + group; }
std::string ServeMetricsKey(const std::string& group) { return "serve:metrics:" + group; }

// Membership records are '+'/'-' + actor binary + node binary ('-' records
// carry a nil node; removal is keyed on the actor alone).
std::string ReplicaRecord(char op, const ActorId& actor, const NodeId& node) {
  std::string rec;
  rec.push_back(op);
  rec += actor.Binary();
  rec += node.Binary();
  return rec;
}
}  // namespace

Status ServeTable::AddReplica(const std::string& group, const ActorId& actor, const NodeId& node) {
  return gcs_->Append(ServeRepKey(group), ReplicaRecord('+', actor, node));
}

Status ServeTable::RemoveReplica(const std::string& group, const ActorId& actor) {
  return gcs_->Append(ServeRepKey(group), ReplicaRecord('-', actor, NodeId()));
}

Result<std::vector<ServeTable::Replica>> ServeTable::GetReplicas(const std::string& group) const {
  auto records = gcs_->GetList(ServeRepKey(group));
  if (!records.ok()) {
    return records.status();
  }
  std::vector<Replica> replicas;
  for (const auto& rec : *records) {
    if (rec.size() < 1 + ActorId::kSize + NodeId::kSize) {
      continue;
    }
    ActorId actor = ActorId::FromBinary(rec.substr(1, ActorId::kSize));
    if (rec[0] == '+') {
      // Last write wins: a '+' for an already-present actor replaces its
      // node (re-placement retries and post-recovery re-adds both re-add).
      replicas.erase(std::remove_if(replicas.begin(), replicas.end(),
                                    [&](const Replica& r) { return r.actor == actor; }),
                     replicas.end());
      Replica r;
      r.actor = actor;
      r.node = NodeId::FromBinary(rec.substr(1 + ActorId::kSize, NodeId::kSize));
      replicas.push_back(r);
    } else {
      replicas.erase(std::remove_if(replicas.begin(), replicas.end(),
                                    [&](const Replica& r) { return r.actor == actor; }),
                     replicas.end());
    }
  }
  return replicas;
}

size_t ServeTable::CountReplicasOn(const std::string& group, const NodeId& node) const {
  auto replicas = GetReplicas(group);
  if (!replicas.ok()) {
    return 0;
  }
  size_t count = 0;
  for (const Replica& r : *replicas) {
    if (r.node == node) {
      ++count;
    }
  }
  return count;
}

Status ServeTable::PublishMetrics(const std::string& group, const std::string& metrics_bytes) {
  return gcs_->Put(ServeMetricsKey(group), metrics_bytes);
}

Result<std::string> ServeTable::GetMetrics(const std::string& group) const {
  return gcs_->Get(ServeMetricsKey(group));
}

// --- FunctionTable ---

Status FunctionTable::RegisterFunction(const FunctionId& fn, const std::string& name) {
  return gcs_->Put(FunctionKey(fn), name);
}

// --- EventLog ---

Status EventLog::Append(const std::string& source, const std::string& event) {
  return gcs_->Append("ev:" + source, event);
}

Result<std::vector<std::string>> EventLog::Get(const std::string& source) const {
  return gcs_->GetList("ev:" + source);
}

}  // namespace gcs
}  // namespace ray
