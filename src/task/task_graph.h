// The dynamic task graph (Section 3.2): tasks and data objects as nodes;
// data, control, and stateful edges. The execution engine itself drives off
// the GCS, so this in-memory graph is the analog of the paper's debugging /
// visualization tooling: it can be built incrementally as tasks are submitted
// or reconstructed after the fact from GCS lineage, and it answers the
// queries that matter for fault tolerance (which tasks must re-execute to
// recreate an object) and for tests (edge structure of actor chains).
#ifndef RAY_TASK_TASK_GRAPH_H_
#define RAY_TASK_TASK_GRAPH_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/id.h"
#include "common/sync.h"
#include "task/task_spec.h"

namespace ray {

enum class EdgeType { kData, kControl, kStateful };

struct GraphEdge {
  EdgeType type;
  // Data edges connect tasks and objects; control/stateful edges connect
  // tasks. Exactly one of the *_object fields is used for data edges.
  TaskId from_task;
  TaskId to_task;
  ObjectId object;  // for data edges: the object flowing along the edge
};

class TaskGraph {
 public:
  // Records a submitted task: adds data edges from each by-ref argument, a
  // control edge from the parent, and (for actor methods) a stateful edge
  // from the previous method on the same actor.
  void AddTask(const TaskSpec& spec);

  size_t NumTasks() const;
  size_t NumEdges(EdgeType type) const;

  std::vector<TaskId> Children(const TaskId& id) const;  // control-edge successors

  // The task that produces `object`, if known.
  bool LookupProducer(const ObjectId& object, TaskId* out) const;

  // The transitive set of tasks that must re-execute to reproduce `object`,
  // assuming none of the inputs are available: walks data edges backwards
  // through producers and stateful edges backwards through actor chains.
  std::vector<TaskId> LineageOf(const ObjectId& object) const;

  // Topological order of all tasks (parents before children along data and
  // stateful edges). Cycles are impossible by construction.
  std::vector<TaskId> TopologicalOrder() const;

  // Graphviz dump — the "visualization tools" of Fig. 5.
  std::string ToDot() const;

 private:
  struct TaskNode {
    TaskSpec spec;
    std::vector<TaskId> control_children;
  };

  mutable Mutex mu_{"TaskGraph.mu"};
  std::unordered_map<TaskId, TaskNode> tasks_ GUARDED_BY(mu_);
  std::unordered_map<ObjectId, TaskId> producer_ GUARDED_BY(mu_);  // object -> producing task
  size_t num_data_edges_ GUARDED_BY(mu_) = 0;
  size_t num_control_edges_ GUARDED_BY(mu_) = 0;
  size_t num_stateful_edges_ GUARDED_BY(mu_) = 0;
};

}  // namespace ray

#endif  // RAY_TASK_TASK_GRAPH_H_
