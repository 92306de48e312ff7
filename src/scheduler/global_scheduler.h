// Global scheduler (Section 4.2.2). Stateless: every decision is computed
// from GCS state (heartbeats for load, Object Table for input locations and
// sizes). Placement = the node with enough resources and the lowest
// estimated waiting time:
//     wait(n) = queue_len(n) * avg_task_duration(n)
//             + sum(size of inputs missing on n) / avg_bandwidth.
// Because it is stateless, any number of replicas can serve decisions in
// parallel (GlobalSchedulerPool), which is what lets the control plane scale
// horizontally (Fig. 8b).
#ifndef RAY_SCHEDULER_GLOBAL_SCHEDULER_H_
#define RAY_SCHEDULER_GLOBAL_SCHEDULER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/id.h"
#include "common/status.h"
#include "gcs/monitor.h"
#include "gcs/tables.h"
#include "net/sim_network.h"
#include "scheduler/registry.h"
#include "task/task_spec.h"

namespace ray {

struct GlobalSchedulerConfig {
  // When false, placement ignores input locality (Fig. 8a "unaware" line).
  bool locality_aware = true;
  // Bandwidth estimate before a node has reported one.
  double default_bandwidth_bytes_s = 1e9;
};

class GlobalScheduler {
 public:
  // `liveness` (optional): failure-detector view used to skip declared-dead
  // candidates during placement. Null means trust the Node Table alone.
  GlobalScheduler(gcs::GcsTables* tables, SimNetwork* net, LocalSchedulerRegistry* registry,
                  const GlobalSchedulerConfig& config, gcs::LivenessView* liveness = nullptr);

  // Places `spec` on the best node and forwards it to that node's local
  // scheduler. `from` is the submitting node (for the network hop).
  // Transient failures are retried (see GlobalSchedulerConfig).
  Status Schedule(const TaskSpec& spec, const NodeId& from);

  // Exposed for tests: the placement decision without the forwarding.
  Result<NodeId> Place(const TaskSpec& spec) const;

  const NodeId& id() const { return id_; }
  uint64_t NumScheduled() const { return num_scheduled_.load(std::memory_order_relaxed); }

 private:
  // `inputs` are the Object Table entries of the task's known inputs, read
  // once per placement (empty when placement ignores locality).
  double EstimateWait(const gcs::Heartbeat& hb, const std::vector<gcs::ObjectTable::Entry>& inputs,
                      const NodeId& node) const;
  Status ScheduleOnce(const TaskSpec& spec, const NodeId& from);

  NodeId id_;  // synthetic endpoint for latency accounting
  gcs::GcsTables* tables_;
  SimNetwork* net_;
  LocalSchedulerRegistry* registry_;
  GlobalSchedulerConfig config_;
  gcs::LivenessView* liveness_;  // may be null
  std::atomic<uint64_t> num_scheduled_{0};
};

// A set of interchangeable global scheduler replicas sharing GCS state.
class GlobalSchedulerPool {
 public:
  GlobalSchedulerPool(int num_replicas, gcs::GcsTables* tables, SimNetwork* net,
                      LocalSchedulerRegistry* registry, const GlobalSchedulerConfig& config,
                      gcs::LivenessView* liveness = nullptr);

  Status Schedule(const TaskSpec& spec, const NodeId& from);
  GlobalScheduler& replica(size_t i) { return *replicas_[i]; }
  size_t NumReplicas() const { return replicas_.size(); }

 private:
  std::vector<std::unique_ptr<GlobalScheduler>> replicas_;
  std::atomic<uint64_t> next_{0};
};

// The resource demand used for scheduling: tasks default to one CPU; actor
// methods are free (the actor holds its resources from creation).
ResourceSet EffectiveDemand(const TaskSpec& spec);

}  // namespace ray

#endif  // RAY_SCHEDULER_GLOBAL_SCHEDULER_H_
