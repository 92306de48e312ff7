// Trace collection and export. The collector snapshots every thread ring,
// merges by timestamp, and turns the result into (a) chrome://tracing
// `traceEvents` JSON — one "process" per node so a task's spans line up as a
// cross-node timeline — and (b) a per-stage latency breakdown (the numbers
// behind "where does a task's time go": submit, dep-wait, queue,
// dispatch/forward, exec, put, plus transfer / reconstruction / GCS-commit
// infrastructure stages). A flight-recorder entry point dumps the merged
// trace on fatal checks or test watchdog timeouts.
#ifndef RAY_TRACE_COLLECTOR_H_
#define RAY_TRACE_COLLECTOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "trace/trace.h"

namespace ray {
namespace trace {

// One stage's durations. Percentiles come from a Histogram, so they are
// bucketed to within 0.4%; count, total, mean and max are exact.
struct StageStats {
  Stage stage = Stage::kMark;
  uint64_t count = 0;
  double total_ms = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

struct LatencyBreakdown {
  std::vector<StageStats> stages;  // only stages with at least one event

  const StageStats* Find(Stage stage) const;
  bool Covers(Stage stage) const { return Find(stage) != nullptr; }
  // Aligned human-readable table.
  std::string Render() const;
};

// One task's spans stitched across every node they ran on.
struct TaskTimeline {
  TaskId task;
  int64_t first_us = 0;
  int64_t last_us = 0;
  size_t num_nodes = 0;                // distinct nodes the spans touch
  std::vector<TraceEvent> events;      // time-ordered
};

class Collector {
 public:
  explicit Collector(Tracer* tracer = &Tracer::Instance()) : tracer_(tracer) {}

  // Merged, time-ordered view of everything currently buffered.
  std::vector<TraceEvent> Snapshot() const { return tracer_->Snapshot(); }

  // chrome://tracing JSON. pid = node (with process_name metadata), tid =
  // stage lane, args carry the task/object ids for causality queries.
  std::string ExportChromeTrace(const std::vector<TraceEvent>& events) const;

  // Snapshot + export + write to `path`.
  Status WriteChromeTrace(const std::string& path) const;

  static LatencyBreakdown Breakdown(const std::vector<TraceEvent>& events);

  // Groups task-keyed events by TaskId; timelines ordered by first event.
  static std::vector<TaskTimeline> StitchTasks(const std::vector<TraceEvent>& events);

 private:
  Tracer* tracer_;
};

// Writes the merged trace (plus a kMark event naming `reason`) as Chrome
// trace JSON to `path`; empty path falls back to $RAY_TRACE_FLIGHT_PATH,
// then "flight_record.json". Never throws — this runs on failure paths.
void DumpFlightRecord(const std::string& path, const std::string& reason);

// Registers DumpFlightRecord as the fatal-log hook so RAY_CHECK failures
// leave a timeline behind. Idempotent.
void InstallFlightRecorderHook();

}  // namespace trace
}  // namespace ray

#endif  // RAY_TRACE_COLLECTOR_H_
