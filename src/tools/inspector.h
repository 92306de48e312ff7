// Debugging, profiling, and error-diagnosis tools (Fig. 5's "Web UI /
// Debugging Tools / Profiling Tools / Error Diagnosis" boxes). The paper's
// point (Sections 4.2.1 and 7) is that because the GCS holds the entire
// control state, tools like these are queries over one store rather than
// per-component instrumentation: the timeline visualizer reads the event
// log, the inspector reads the tables, and error diagnosis scans task
// states — none of them touch the schedulers or object stores.
#ifndef RAY_TOOLS_INSPECTOR_H_
#define RAY_TOOLS_INSPECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/id.h"
#include "runtime/cluster.h"

namespace ray {
namespace tools {

// --- cluster state snapshot (the Web UI's data source) ---

struct NodeReport {
  NodeId id;
  bool alive = false;
  uint64_t queue_length = 0;
  ResourceSet available;
  ResourceSet total;
  size_t store_bytes = 0;
  size_t store_objects = 0;
  uint64_t tasks_executed = 0;
};

// Process-wide control-plane counters (ControlPlaneMetrics) plus tracer
// health, surfaced so the Web UI answers "where does submit-path time go"
// without attaching a profiler.
struct ControlPlaneStats {
  double gcs_batch_size_ema = 0.0;
  uint64_t gcs_batch_rounds = 0;
  uint64_t gcs_batched_ops = 0;
  int64_t publish_queue_depth = 0;
  int64_t publish_queue_max = 0;
  uint64_t publishes_delivered = 0;
  double dispatch_lock_wait_us = 0.0;
  double deps_lock_wait_us = 0.0;
  std::string trace_mode;
  uint64_t trace_events_recorded = 0;
  uint64_t trace_events_dropped = 0;
};

struct ClusterReport {
  std::vector<NodeReport> nodes;
  size_t gcs_memory_bytes = 0;
  size_t gcs_disk_bytes = 0;
  size_t gcs_entries = 0;
  uint64_t network_bytes_transferred = 0;
  uint64_t network_transfers = 0;
  ControlPlaneStats control_plane;
};

class ClusterInspector {
 public:
  explicit ClusterInspector(Cluster* cluster) : cluster_(cluster) {}

  ClusterReport Snapshot() const;
  // Human-readable rendering of Snapshot().
  std::string Render() const;
  // Self-contained HTML page for Snapshot() — the "Web UI" of Fig. 5.
  std::string RenderHtml() const;

 private:
  Cluster* cluster_;
};

// --- task timeline profiler ---

// One task-lifetime event reconstructed from GCS records.
struct TaskTimelineEntry {
  TaskId task;
  std::string function_name;
  NodeId node;             // where it last ran / queued
  gcs::TaskState state = gcs::TaskState::kPending;
  bool is_actor_method = false;
};

class Profiler {
 public:
  explicit Profiler(Cluster* cluster) : cluster_(cluster) {}

  // Records a profiling event in the in-process tracer's ring buffers
  // (wait-free; no GCS round — a chain-replication round per event would
  // perturb exactly the latencies being measured).
  void RecordEvent(const std::string& source, const std::string& label, int64_t start_us,
                   int64_t end_us);

  // Renders all events for `sources` as a Chrome tracing JSON document
  // (chrome://tracing "traceEvents" format), the paper's
  // timeline-visualization backend. Merges tracer-buffered events with the
  // durable EventLog entries for the same sources (the failure detector's
  // "node-death:" records under "cluster").
  std::string ExportChromeTrace(const std::vector<std::string>& sources) const;

  // Summarizes the lifetime states of `tasks` from the Task Table.
  std::vector<TaskTimelineEntry> TaskStates(const std::vector<TaskId>& tasks) const;

 private:
  Cluster* cluster_;
};

// --- error diagnosis ---

struct Diagnosis {
  std::vector<TaskId> lost_tasks;      // state kLost: inputs were unrecoverable
  std::vector<TaskId> stuck_tasks;     // pending/running on a dead node
  std::vector<ActorId> dead_actors;    // located on a dead node
  std::vector<ObjectId> lost_objects;  // no live replica and no recorded producer

  bool Healthy() const {
    return lost_tasks.empty() && stuck_tasks.empty() && dead_actors.empty() &&
           lost_objects.empty();
  }
  std::string Render() const;
};

class ErrorDiagnoser {
 public:
  explicit ErrorDiagnoser(Cluster* cluster) : cluster_(cluster) {}

  // Examines the given ids against GCS state. (The GCS has no scan API —
  // exactly like the paper's single-key Redis usage — so callers supply the
  // ids they care about, e.g. from their driver-side bookkeeping.)
  Diagnosis Examine(const std::vector<TaskId>& tasks, const std::vector<ActorId>& actors,
                    const std::vector<ObjectId>& objects) const;

 private:
  bool NodeAlive(const NodeId& node) const;
  Cluster* cluster_;
};

}  // namespace tools
}  // namespace ray

#endif  // RAY_TOOLS_INSPECTOR_H_
