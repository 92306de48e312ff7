#include "task/task_graph.h"

#include <algorithm>
#include <deque>
#include <sstream>

namespace ray {

void TaskGraph::AddTask(const TaskSpec& spec) {
  MutexLock lock(mu_);
  auto [it, inserted] = tasks_.emplace(spec.id, TaskNode{spec, {}});
  if (!inserted) {
    return;  // idempotent (re-submission during reconstruction)
  }
  for (const TaskArg& arg : spec.args) {
    if (arg.kind == TaskArg::Kind::kByRef) {
      ++num_data_edges_;  // object -> task
    }
  }
  for (uint32_t i = 0; i < spec.num_returns; ++i) {
    producer_[spec.ReturnId(i)] = spec.id;
    ++num_data_edges_;  // task -> object
  }
  if (!spec.parent.IsNil()) {
    auto pit = tasks_.find(spec.parent);
    if (pit != tasks_.end()) {
      pit->second.control_children.push_back(spec.id);
    }
    ++num_control_edges_;
  }
  if (spec.IsActorTask() || spec.IsActorCreation()) {
    // The result cursor lets the next method find this one (stateful edge).
    producer_[spec.ResultCursor()] = spec.id;
    if (spec.IsActorTask()) {
      ++num_stateful_edges_;
    }
  }
}

size_t TaskGraph::NumTasks() const {
  MutexLock lock(mu_);
  return tasks_.size();
}

size_t TaskGraph::NumEdges(EdgeType type) const {
  MutexLock lock(mu_);
  switch (type) {
    case EdgeType::kData:
      return num_data_edges_;
    case EdgeType::kControl:
      return num_control_edges_;
    case EdgeType::kStateful:
      return num_stateful_edges_;
  }
  return 0;
}

std::vector<TaskId> TaskGraph::Children(const TaskId& id) const {
  MutexLock lock(mu_);
  auto it = tasks_.find(id);
  if (it == tasks_.end()) {
    return {};
  }
  return it->second.control_children;
}

bool TaskGraph::LookupProducer(const ObjectId& object, TaskId* out) const {
  MutexLock lock(mu_);
  auto it = producer_.find(object);
  if (it == producer_.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

std::vector<TaskId> TaskGraph::LineageOf(const ObjectId& object) const {
  MutexLock lock(mu_);
  std::vector<TaskId> result;
  std::unordered_set<TaskId> seen;
  std::deque<ObjectId> frontier{object};
  while (!frontier.empty()) {
    ObjectId obj = frontier.front();
    frontier.pop_front();
    auto pit = producer_.find(obj);
    if (pit == producer_.end()) {
      continue;  // input object with no recorded producer (e.g. ray.put)
    }
    const TaskId& task = pit->second;
    if (!seen.insert(task).second) {
      continue;
    }
    result.push_back(task);
    auto tit = tasks_.find(task);
    if (tit == tasks_.end()) {
      continue;
    }
    for (const ObjectId& dep : tit->second.spec.Dependencies()) {
      frontier.push_back(dep);
    }
  }
  return result;
}

std::vector<TaskId> TaskGraph::TopologicalOrder() const {
  MutexLock lock(mu_);
  // Kahn's algorithm over data + stateful dependencies.
  std::unordered_map<TaskId, size_t> indegree;
  std::unordered_map<TaskId, std::vector<TaskId>> successors;
  for (const auto& [id, node] : tasks_) {
    indegree.emplace(id, 0);
  }
  for (const auto& [id, node] : tasks_) {
    for (const ObjectId& dep : node.spec.Dependencies()) {
      auto pit = producer_.find(dep);
      if (pit != producer_.end() && tasks_.count(pit->second) > 0) {
        successors[pit->second].push_back(id);
        ++indegree[id];
      }
    }
  }
  std::deque<TaskId> ready;
  for (const auto& [id, deg] : indegree) {
    if (deg == 0) {
      ready.push_back(id);
    }
  }
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  while (!ready.empty()) {
    TaskId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (const TaskId& next : successors[id]) {
      if (--indegree[next] == 0) {
        ready.push_back(next);
      }
    }
  }
  return order;
}

std::string TaskGraph::ToDot() const {
  MutexLock lock(mu_);
  std::ostringstream out;
  out << "digraph tasks {\n";
  for (const auto& [id, node] : tasks_) {
    out << "  t" << ToShortString(id) << " [label=\"" << node.spec.function_name << "\"];\n";
  }
  for (const auto& [id, node] : tasks_) {
    for (const ObjectId& dep : node.spec.Dependencies()) {
      auto pit = producer_.find(dep);
      if (pit != producer_.end()) {
        bool stateful = node.spec.IsActorTask() && dep == node.spec.PreviousCursor();
        out << "  t" << ToShortString(pit->second) << " -> t" << ToShortString(id)
            << (stateful ? " [style=dashed]" : "") << ";\n";
      }
    }
    for (const TaskId& child : node.control_children) {
      out << "  t" << ToShortString(id) << " -> t" << ToShortString(child) << " [style=dotted];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace ray
