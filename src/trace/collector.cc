#include "trace/collector.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "common/logging.h"
#include "common/metrics.h"

namespace ray {
namespace trace {

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

const StageStats* LatencyBreakdown::Find(Stage stage) const {
  for (const StageStats& s : stages) {
    if (s.stage == stage) {
      return &s;
    }
  }
  return nullptr;
}

std::string LatencyBreakdown::Render() const {
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-16s %10s %12s %10s %10s %10s %10s\n", "stage", "count",
                "total_ms", "mean_us", "p50_us", "p99_us", "max_us");
  out << line;
  for (const StageStats& s : stages) {
    std::snprintf(line, sizeof(line), "%-16s %10llu %12.2f %10.1f %10.1f %10.1f %10.1f\n",
                  StageName(s.stage), static_cast<unsigned long long>(s.count), s.total_ms,
                  s.mean_us, s.p50_us, s.p99_us, s.max_us);
    out << line;
  }
  return out.str();
}

std::string Collector::ExportChromeTrace(const std::vector<TraceEvent>& events) const {
  // Node -> chrome pid. pid 0 is the "cluster" process for events with no
  // node (GCS commit rounds, driver-side user events).
  std::unordered_map<NodeId, int> pids;
  auto pid_for = [&](const NodeId& node) {
    if (node.IsNil()) {
      return 0;
    }
    auto [it, inserted] = pids.emplace(node, static_cast<int>(pids.size()) + 1);
    return it->second;
  };
  int64_t base_us = events.empty() ? 0 : events.front().start_us;

  std::ostringstream body;
  bool first = true;
  // (pid, tid) lanes seen, for thread_name metadata.
  std::vector<std::pair<int, int>> lanes;
  for (const TraceEvent& e : events) {
    int pid = pid_for(e.node);
    int tid = static_cast<int>(e.stage);
    if (std::find(lanes.begin(), lanes.end(), std::make_pair(pid, tid)) == lanes.end()) {
      lanes.emplace_back(pid, tid);
    }
    std::string name = e.stage == Stage::kUser
                           ? tracer_->InternedString(static_cast<uint32_t>(e.arg & 0xffffffffu))
                           : StageName(e.stage);
    if (name.empty()) {
      name = "user";
    }
    if (!first) {
      body << ",\n";
    }
    first = false;
    body << "{\"name\":\"" << JsonEscape(name) << "\",\"cat\":\""
         << (e.stage == Stage::kUser ? "user" : "task") << "\",\"ph\":\""
         << (e.dur_us > 0 ? "X" : "i") << "\",\"ts\":" << (e.start_us - base_us);
    if (e.dur_us > 0) {
      body << ",\"dur\":" << e.dur_us;
    } else {
      body << ",\"s\":\"t\"";
    }
    body << ",\"pid\":" << pid << ",\"tid\":" << tid << ",\"args\":{";
    bool first_arg = true;
    auto arg = [&](const std::string& key, const std::string& value) {
      body << (first_arg ? "" : ",") << "\"" << key << "\":\"" << value << "\"";
      first_arg = false;
    };
    if (!e.task.IsNil()) {
      arg("task", ToShortString(e.task));
    }
    if (!e.object.IsNil()) {
      arg("object", ToShortString(e.object));
    }
    if (!e.peer.IsNil()) {
      arg("peer", "node-" + ToShortString(e.peer));
    }
    if (e.arg != 0 && e.stage != Stage::kUser) {
      body << (first_arg ? "" : ",") << "\"arg\":" << e.arg;
      first_arg = false;
    }
    body << "}}";
  }

  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  // Metadata first: process names (nodes) and thread names (stage lanes).
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"cluster\"}}";
  for (const auto& [node, pid] : pids) {
    out << ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"args\":{\"name\":\"node-" << ToShortString(node) << "\"}}";
  }
  for (const auto& [pid, tid] : lanes) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << StageName(static_cast<Stage>(tid)) << "\"}}";
  }
  std::string events_json = body.str();
  if (!events_json.empty()) {
    out << ",\n" << events_json;
  }
  out << "\n]}\n";
  return out.str();
}

Status Collector::WriteChromeTrace(const std::string& path) const {
  std::string json = ExportChromeTrace(Snapshot());
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace output: " + path);
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return Status::Ok();
}

LatencyBreakdown Collector::Breakdown(const std::vector<TraceEvent>& events) {
  std::vector<Histogram> durs(static_cast<size_t>(Stage::kNumStages));
  for (const TraceEvent& e : events) {
    size_t i = static_cast<size_t>(e.stage);
    if (i < durs.size()) {
      durs[i].Observe(static_cast<double>(e.dur_us));
    }
  }
  LatencyBreakdown breakdown;
  for (size_t i = 0; i < durs.size(); ++i) {
    const Histogram& h = durs[i];
    if (h.Count() == 0) {
      continue;
    }
    StageStats stats;
    stats.stage = static_cast<Stage>(i);
    stats.count = h.Count();
    stats.total_ms = h.Sum() / 1e3;
    stats.mean_us = h.Mean();
    stats.p50_us = h.Percentile(50.0);
    stats.p99_us = h.Percentile(99.0);
    stats.max_us = h.Max();
    breakdown.stages.push_back(stats);
  }
  return breakdown;
}

std::vector<TaskTimeline> Collector::StitchTasks(const std::vector<TraceEvent>& events) {
  std::unordered_map<TaskId, size_t> index;
  std::vector<TaskTimeline> timelines;
  for (const TraceEvent& e : events) {
    if (e.task.IsNil()) {
      continue;
    }
    auto [it, inserted] = index.emplace(e.task, timelines.size());
    if (inserted) {
      timelines.emplace_back();
      timelines.back().task = e.task;
      timelines.back().first_us = e.start_us;
    }
    TaskTimeline& tl = timelines[it->second];
    tl.last_us = std::max(tl.last_us, e.start_us + e.dur_us);
    tl.first_us = std::min(tl.first_us, e.start_us);
    tl.events.push_back(e);
  }
  for (TaskTimeline& tl : timelines) {
    std::vector<NodeId> nodes;
    for (const TraceEvent& e : tl.events) {
      if (!e.node.IsNil() && std::find(nodes.begin(), nodes.end(), e.node) == nodes.end()) {
        nodes.push_back(e.node);
      }
    }
    tl.num_nodes = nodes.size();
  }
  std::sort(timelines.begin(), timelines.end(),
            [](const TaskTimeline& a, const TaskTimeline& b) { return a.first_us < b.first_us; });
  return timelines;
}

void DumpFlightRecord(const std::string& path, const std::string& reason) {
  std::string target = path;
  if (target.empty()) {
    const char* env = std::getenv("RAY_TRACE_FLIGHT_PATH");
    target = (env != nullptr && env[0] != '\0') ? env : "flight_record.json";
  }
  Tracer& tracer = Tracer::Instance();
  std::vector<TraceEvent> events = tracer.Snapshot();
  TraceEvent mark;
  mark.start_us = events.empty() ? NowMicros() : events.back().start_us + events.back().dur_us;
  mark.stage = Stage::kUser;
  mark.arg = tracer.Intern("flight-record: " + reason);
  events.push_back(mark);
  Collector collector(&tracer);
  std::string json = collector.ExportChromeTrace(events);
  if (FILE* f = std::fopen(target.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "[trace] flight record (%s): %zu events -> %s\n", reason.c_str(),
                 events.size(), target.c_str());
  } else {
    std::fprintf(stderr, "[trace] failed to write flight record to %s\n", target.c_str());
  }
}

void InstallFlightRecorderHook() {
  Logger::SetFatalHook([] { DumpFlightRecord("", "fatal-check"); });
}

}  // namespace trace
}  // namespace ray
