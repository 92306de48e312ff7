#include "tools/inspector.h"

#include <algorithm>
#include <sstream>

#include "common/metrics.h"
#include "common/serialization.h"
#include "task/task_spec.h"
#include "trace/trace.h"

namespace ray {
namespace tools {

ClusterReport ClusterInspector::Snapshot() const {
  ClusterReport report;
  for (size_t i = 0; i < cluster_->NumNodes(); ++i) {
    Node& node = cluster_->node(i);
    NodeReport nr;
    nr.id = node.id();
    nr.alive = node.IsAlive();
    if (nr.alive) {
      gcs::Heartbeat hb = node.scheduler().MakeHeartbeat();
      nr.queue_length = hb.queue_length;
      nr.available = hb.available;
      nr.total = hb.total;
      nr.store_bytes = node.store().UsedBytes();
      nr.store_objects = node.store().NumObjects();
      nr.tasks_executed = node.scheduler().NumTasksExecuted();
    }
    report.nodes.push_back(std::move(nr));
  }
  report.gcs_memory_bytes = cluster_->gcs().MemoryBytes();
  report.gcs_disk_bytes = cluster_->gcs().DiskBytes();
  report.gcs_entries = cluster_->gcs().NumEntries();
  report.network_bytes_transferred = cluster_->net().TotalBytesTransferred();
  report.network_transfers = cluster_->net().NumTransfers();
  auto& metrics = ControlPlaneMetrics::Instance();
  auto& cp = report.control_plane;
  cp.gcs_batch_size_ema = metrics.gcs_batch_size.HasValue() ? metrics.gcs_batch_size.Value() : 0.0;
  cp.gcs_batch_rounds = metrics.gcs_batch_rounds.Value();
  cp.gcs_batched_ops = metrics.gcs_batched_ops.Value();
  cp.publish_queue_depth = metrics.publish_queue_depth.Value();
  cp.publish_queue_max = metrics.publish_queue_depth.Max();
  cp.publishes_delivered = metrics.publishes_delivered.Value();
  cp.dispatch_lock_wait_us =
      metrics.dispatch_lock_wait_us.HasValue() ? metrics.dispatch_lock_wait_us.Value() : 0.0;
  cp.deps_lock_wait_us =
      metrics.deps_lock_wait_us.HasValue() ? metrics.deps_lock_wait_us.Value() : 0.0;
  auto& tracer = trace::Tracer::Instance();
  cp.trace_mode = trace::TraceModeName(tracer.mode());
  cp.trace_events_recorded = tracer.EventsRecorded();
  cp.trace_events_dropped = tracer.EventsDropped();
  return report;
}

std::string ClusterInspector::Render() const {
  ClusterReport report = Snapshot();
  std::ostringstream out;
  out << "cluster: " << report.nodes.size() << " nodes, GCS "
      << report.gcs_memory_bytes / 1024 << "KB mem / " << report.gcs_disk_bytes / 1024
      << "KB disk (" << report.gcs_entries << " entries), network "
      << report.network_bytes_transferred / 1024 << "KB over " << report.network_transfers
      << " transfers\n";
  for (const NodeReport& nr : report.nodes) {
    out << "  node " << ToShortString(nr.id) << (nr.alive ? "  alive" : "  DEAD");
    if (nr.alive) {
      out << "  queue=" << nr.queue_length << "  avail=" << nr.available.ToString()
          << "  store=" << nr.store_objects << " objs/" << nr.store_bytes / 1024 << "KB"
          << "  executed=" << nr.tasks_executed;
    }
    out << "\n";
  }
  const ControlPlaneStats& cp = report.control_plane;
  out << "control plane: batch=" << cp.gcs_batch_size_ema << " ops/round ("
      << cp.gcs_batch_rounds << " rounds, " << cp.gcs_batched_ops << " ops), pubq="
      << cp.publish_queue_depth << " (max " << cp.publish_queue_max << ", delivered "
      << cp.publishes_delivered << "), lock-wait dispatch=" << cp.dispatch_lock_wait_us
      << "us deps=" << cp.deps_lock_wait_us << "us, trace=" << cp.trace_mode << " ("
      << cp.trace_events_recorded << " recorded, " << cp.trace_events_dropped << " dropped)\n";
  return out.str();
}

std::string ClusterInspector::RenderHtml() const {
  ClusterReport report = Snapshot();
  std::ostringstream out;
  out << "<!doctype html><html><head><title>ray cluster</title></head><body>"
      << "<h1>Cluster</h1><p>" << report.nodes.size() << " nodes &middot; GCS "
      << report.gcs_memory_bytes / 1024 << "KB mem / " << report.gcs_disk_bytes / 1024
      << "KB disk (" << report.gcs_entries << " entries) &middot; network "
      << report.network_bytes_transferred / 1024 << "KB / " << report.network_transfers
      << " transfers</p><table border=1 cellpadding=4><tr><th>node</th><th>status</th>"
      << "<th>queue</th><th>available</th><th>store</th><th>executed</th></tr>";
  for (const NodeReport& nr : report.nodes) {
    out << "<tr><td>" << ToShortString(nr.id) << "</td><td>" << (nr.alive ? "alive" : "<b>DEAD</b>")
        << "</td>";
    if (nr.alive) {
      out << "<td>" << nr.queue_length << "</td><td>" << nr.available.ToString() << "</td><td>"
          << nr.store_objects << " objs / " << nr.store_bytes / 1024 << "KB</td><td>"
          << nr.tasks_executed << "</td>";
    } else {
      out << "<td colspan=4>-</td>";
    }
    out << "</tr>";
  }
  const ControlPlaneStats& cp = report.control_plane;
  out << "</table><h2>Control plane</h2><p>GCS batch " << cp.gcs_batch_size_ema
      << " ops/round (" << cp.gcs_batch_rounds << " rounds / " << cp.gcs_batched_ops
      << " ops) &middot; publish queue " << cp.publish_queue_depth << " (max "
      << cp.publish_queue_max << ", delivered " << cp.publishes_delivered
      << ") &middot; lock wait dispatch " << cp.dispatch_lock_wait_us << "us, deps "
      << cp.deps_lock_wait_us << "us &middot; trace " << cp.trace_mode << " ("
      << cp.trace_events_recorded << " recorded, " << cp.trace_events_dropped
      << " dropped)</p></body></html>";
  return out.str();
}

void Profiler::RecordEvent(const std::string& source, const std::string& label, int64_t start_us,
                           int64_t end_us) {
  trace::Tracer::Instance().EmitUser(source, label, start_us, end_us);
}

std::string Profiler::ExportChromeTrace(const std::vector<std::string>& sources) const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  auto append = [&](const std::string& label, const std::string& source, int64_t start,
                    int64_t dur) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "{\"name\":\"" << label << "\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":" << start
        << ",\"dur\":" << dur << ",\"pid\":1,\"tid\":\"" << source << "\"}";
  };
  // Tracer-buffered user events, filtered to the requested sources.
  trace::Tracer& tracer = trace::Tracer::Instance();
  std::vector<trace::TraceEvent> buffered = tracer.Snapshot();
  for (const trace::TraceEvent& ev : buffered) {
    if (ev.stage != trace::Stage::kUser) {
      continue;
    }
    std::string source = tracer.InternedString(static_cast<uint32_t>(ev.arg >> 32));
    if (std::find(sources.begin(), sources.end(), source) == sources.end()) {
      continue;
    }
    std::string label = tracer.InternedString(static_cast<uint32_t>(ev.arg & 0xffffffffu));
    append(label, source, ev.start_us, ev.dur_us);
  }
  // Durable EventLog entries: rare cluster events such as node death.
  for (const std::string& source : sources) {
    auto events = cluster_->tables().events.Get(source);
    if (!events.ok()) {
      continue;
    }
    for (const std::string& bytes : *events) {
      Reader r(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
      std::string label = Take<std::string>(r);
      int64_t start = r.ReadPod<int64_t>();
      int64_t end = r.ReadPod<int64_t>();
      append(label, source, start, end - start);
    }
  }
  out << "]}";
  return out.str();
}

std::vector<TaskTimelineEntry> Profiler::TaskStates(const std::vector<TaskId>& tasks) const {
  std::vector<TaskTimelineEntry> entries;
  entries.reserve(tasks.size());
  for (const TaskId& task : tasks) {
    TaskTimelineEntry entry;
    entry.task = task;
    if (auto spec_bytes = cluster_->tables().tasks.GetSpec(task); spec_bytes.ok()) {
      TaskSpec spec = TaskSpec::Deserialize(*spec_bytes);
      entry.function_name = spec.function_name;
      entry.is_actor_method = spec.IsActorTask();
    }
    if (auto state = cluster_->tables().tasks.GetState(task); state.ok()) {
      entry.state = state->first;
      entry.node = state->second;
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

bool ErrorDiagnoser::NodeAlive(const NodeId& node) const {
  // Detected liveness, same as the runtime's own failure decisions — the
  // diagnosis should match what the system actually believed.
  return cluster_->liveness().IsAlive(node) && cluster_->registry().Lookup(node) != nullptr;
}

Diagnosis ErrorDiagnoser::Examine(const std::vector<TaskId>& tasks,
                                  const std::vector<ActorId>& actors,
                                  const std::vector<ObjectId>& objects) const {
  Diagnosis d;
  for (const TaskId& task : tasks) {
    auto state = cluster_->tables().tasks.GetState(task);
    if (!state.ok()) {
      continue;
    }
    auto [st, node] = *state;
    if (st == gcs::TaskState::kLost) {
      d.lost_tasks.push_back(task);
    } else if (st == gcs::TaskState::kPending && !NodeAlive(node)) {
      d.stuck_tasks.push_back(task);
    }
  }
  for (const ActorId& actor : actors) {
    auto loc = cluster_->tables().actors.GetLocation(actor);
    if (loc.ok() && !NodeAlive(*loc)) {
      d.dead_actors.push_back(actor);
    }
  }
  for (const ObjectId& object : objects) {
    auto entry = cluster_->tables().objects.GetLocations(object);
    bool live_copy = false;
    if (entry.ok()) {
      for (const NodeId& loc : entry->locations) {
        if (NodeAlive(loc)) {
          live_copy = true;
          break;
        }
      }
    }
    if (!live_copy && !cluster_->tables().objects.GetCreatingTask(object).ok()) {
      d.lost_objects.push_back(object);  // no replica and no lineage: gone
    }
  }
  return d;
}

std::string Diagnosis::Render() const {
  std::ostringstream out;
  if (Healthy()) {
    return "no anomalies detected\n";
  }
  for (const TaskId& t : lost_tasks) {
    out << "LOST task " << ToShortString(t) << " (an input was unrecoverable)\n";
  }
  for (const TaskId& t : stuck_tasks) {
    out << "STUCK task " << ToShortString(t) << " (queued on a dead node; will be "
        << "re-executed when its output is requested)\n";
  }
  for (const ActorId& a : dead_actors) {
    out << "DEAD actor " << ToShortString(a) << " (will recover on next method call)\n";
  }
  for (const ObjectId& o : lost_objects) {
    out << "UNRECOVERABLE object " << ToShortString(o) << " (no replica, no lineage)\n";
  }
  return out.str();
}

}  // namespace tools
}  // namespace ray
