// Tests for the distributed tracing subsystem (src/trace/): ring-buffer
// overwrite semantics, concurrent emit vs snapshot, sampling coherence,
// cross-node span merging, Chrome-trace JSON validity, the flight recorder
// (hang watchdog and fatal checks), and the Profiler's tracer-backed fast
// path.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "runtime/api.h"
#include "tools/inspector.h"
#include "trace/collector.h"
#include "trace/trace.h"

namespace ray {
namespace {

trace::TraceConfig FullConfig(size_t ring_capacity = 4096) {
  trace::TraceConfig cfg;
  cfg.mode = trace::TraceMode::kFull;
  cfg.ring_capacity = ring_capacity;
  return cfg;
}

// Minimal recursive-descent JSON validator: accepts exactly the RFC 8259
// grammar subset the exporter can produce. Returns true iff `s` is one
// complete JSON value.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }
  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Value() {
    SkipWs();
    if (pos_ >= s_.size()) {
      return false;
    }
    char c = s_[pos_];
    if (c == '{') {
      return Object();
    }
    if (c == '[') {
      return Array();
    }
    if (c == '"') {
      return String();
    }
    if (c == 't') {
      return Literal("true");
    }
    if (c == 'f') {
      return Literal("false");
    }
    if (c == 'n') {
      return Literal("null");
    }
    return Number();
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') {
        return false;
      }
      ++pos_;
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= s_.size() || s_[pos_] != '}') {
      return false;
    }
    ++pos_;
    return true;
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= s_.size() || s_[pos_] != ']') {
      return false;
    }
    ++pos_;
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(TraceRingTest, OverwriteKeepsNewestBoundedWindow) {
  auto& tracer = trace::Tracer::Instance();
  tracer.Configure(FullConfig(/*ring_capacity=*/64));
  NodeId node = NodeId::FromRandom();
  for (int i = 0; i < 200; ++i) {
    tracer.Emit(trace::Stage::kMark, 1000 + i, 1, TaskId(), ObjectId(), node);
  }
  std::vector<trace::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 64u) << "ring must be bounded at its capacity";
  // Overwrite-oldest: exactly the newest 64 survive, in timestamp order.
  EXPECT_EQ(events.front().start_us, 1000 + 136);
  EXPECT_EQ(events.back().start_us, 1000 + 199);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].start_us, events[i - 1].start_us + 1);
  }
  EXPECT_EQ(tracer.EventsRecorded(), 200u);
  EXPECT_GE(tracer.EventsDropped(), 136u);
}

TEST(TraceRingTest, ConcurrentEmitAndSnapshotStaysConsistent) {
  auto& tracer = trace::Tracer::Instance();
  tracer.Configure(FullConfig(/*ring_capacity=*/256));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&tracer, t] {
      NodeId node = NodeId::FromRandom();
      for (int i = 0; i < kPerThread; ++i) {
        tracer.Emit(trace::Stage::kExec, static_cast<int64_t>(t) * kPerThread + i, 2, TaskId(),
                    ObjectId(), node);
      }
    });
  }
  // Snapshot concurrently with the emitters; every snapshot must be bounded
  // and time-ordered regardless of interleaving.
  std::thread collector([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::vector<trace::TraceEvent> events = tracer.Snapshot();
      EXPECT_LE(events.size(), static_cast<size_t>(kThreads + 1) * 256);
      for (size_t i = 1; i < events.size(); ++i) {
        EXPECT_LE(events[i - 1].start_us, events[i].start_us);
      }
    }
  });
  for (auto& e : emitters) {
    e.join();
  }
  stop.store(true, std::memory_order_release);
  collector.join();
  // Every Emit either landed (recorded) or was dropped while paused;
  // overwrites only add to the dropped count, so the sum covers all calls.
  EXPECT_GE(tracer.EventsRecorded() + tracer.EventsDropped(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(TraceSamplingTest, TaskTimelinesSampledWholesale) {
  auto& tracer = trace::Tracer::Instance();
  trace::TraceConfig cfg;
  cfg.mode = trace::TraceMode::kSampled;
  cfg.sample_period = 4;
  tracer.Configure(cfg);
  int kept = 0;
  for (int i = 0; i < 400; ++i) {
    TaskId task = TaskId::FromRandom();
    bool first = tracer.ShouldRecordTask(task);
    // Stable per task: every span of a sampled task is kept, on every node.
    for (int j = 0; j < 4; ++j) {
      EXPECT_EQ(tracer.ShouldRecordTask(task), first);
    }
    kept += first ? 1 : 0;
  }
  // ~1 in 4 by hash; loose bounds to stay deterministic-enough.
  EXPECT_GT(kept, 40);
  EXPECT_LT(kept, 220);

  tracer.SetMode(trace::TraceMode::kOff);
  EXPECT_FALSE(tracer.ShouldRecordTask(TaskId::FromRandom()));
  EXPECT_FALSE(tracer.ShouldRecordInfra());
  tracer.SetMode(trace::TraceMode::kFull);
  EXPECT_TRUE(tracer.ShouldRecordTask(TaskId::FromRandom()));
  EXPECT_TRUE(tracer.ShouldRecordInfra());
}

TEST(TraceCollectorTest, CrossNodeSpansMergeAndStitch) {
  auto& tracer = trace::Tracer::Instance();
  tracer.Configure(FullConfig());
  TaskId task_a = TaskId::FromRandom();
  TaskId task_b = TaskId::FromRandom();
  NodeId node1 = NodeId::FromRandom();
  NodeId node2 = NodeId::FromRandom();
  // task_a: submitted on node1, forwarded, executed on node2 — emitted out of
  // timestamp order to prove the merge sorts.
  tracer.Emit(trace::Stage::kExec, 300, 50, task_a, ObjectId(), node2);
  tracer.Emit(trace::Stage::kSubmit, 100, 10, task_a, ObjectId(), node1);
  tracer.Emit(trace::Stage::kForward, 120, 30, task_a, ObjectId(), node1, node2);
  // task_b: purely local on node1, later.
  tracer.Emit(trace::Stage::kExec, 500, 20, task_b, ObjectId(), node1);

  std::vector<trace::TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].stage, trace::Stage::kSubmit);
  EXPECT_EQ(events[1].stage, trace::Stage::kForward);
  EXPECT_EQ(events[2].stage, trace::Stage::kExec);
  EXPECT_EQ(events[3].stage, trace::Stage::kExec);

  auto timelines = trace::Collector::StitchTasks(events);
  ASSERT_EQ(timelines.size(), 2u);
  EXPECT_EQ(timelines[0].task, task_a);  // ordered by first event
  EXPECT_EQ(timelines[0].num_nodes, 2u) << "task_a spans two nodes";
  EXPECT_EQ(timelines[0].first_us, 100);
  EXPECT_EQ(timelines[0].last_us, 350);
  EXPECT_EQ(timelines[1].task, task_b);
  EXPECT_EQ(timelines[1].num_nodes, 1u);

  auto breakdown = trace::Collector::Breakdown(events);
  ASSERT_TRUE(breakdown.Covers(trace::Stage::kExec));
  EXPECT_EQ(breakdown.Find(trace::Stage::kExec)->count, 2u);
  EXPECT_DOUBLE_EQ(breakdown.Find(trace::Stage::kExec)->mean_us, 35.0);
}

TEST(TraceCollectorTest, ChromeTraceJsonIsValid) {
  auto& tracer = trace::Tracer::Instance();
  tracer.Configure(FullConfig());
  TaskId task = TaskId::FromRandom();
  NodeId node1 = NodeId::FromRandom();
  NodeId node2 = NodeId::FromRandom();
  tracer.Emit(trace::Stage::kSubmit, 10, 5, task, ObjectId(), node1);
  tracer.Emit(trace::Stage::kTransfer, 20, 8, TaskId(), ObjectId::FromRandom(), node2, node1,
              1 << 20);
  tracer.Emit(trace::Stage::kSpill, 40, 0, task, ObjectId(), node1);  // instant
  tracer.EmitUser("driver", "phase \"one\"\n", 50, 60);  // needs escaping

  trace::Collector collector(&tracer);
  std::string json = collector.ExportChromeTrace(collector.Snapshot());
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"submit\""), std::string::npos);
  EXPECT_NE(json.find("\"transfer\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << "instants use ph:i";
}

int AddOne(int x) { return x + 1; }

int SlowAddOne(int x) {
  SleepMicros(30'000);
  return x + 1;
}

TEST(TraceEndToEndTest, WorkloadBreakdownCoversLifecycle) {
  auto& tracer = trace::Tracer::Instance();
  tracer.Configure(FullConfig(/*ring_capacity=*/8192));
  {
    ClusterConfig config;
    config.num_nodes = 2;
    config.scheduler.total_resources = ResourceSet::Cpu(2);
    config.net.control_latency_us = 5;
    Cluster cluster(config);
    cluster.RegisterFunction("add_one", &AddOne);
    cluster.RegisterFunction("slow_add_one", &SlowAddOne);
    Ray ray = Ray::OnNode(cluster, 0);
    // Chain through a slow producer so consumers genuinely dep-wait.
    auto slow = ray.Call<int>("slow_add_one", 0);
    std::vector<ObjectRef<int>> refs;
    for (int i = 0; i < 30; ++i) {
      refs.push_back(ray.Call<int>("add_one", slow));
    }
    auto values = ray.GetAll(refs, 30'000'000);
    ASSERT_TRUE(values.ok());
  }
  std::vector<trace::TraceEvent> events = tracer.Snapshot();
  auto breakdown = trace::Collector::Breakdown(events);
  EXPECT_TRUE(breakdown.Covers(trace::Stage::kSubmit));
  EXPECT_TRUE(breakdown.Covers(trace::Stage::kDepWait));
  EXPECT_TRUE(breakdown.Covers(trace::Stage::kQueue));
  EXPECT_TRUE(breakdown.Covers(trace::Stage::kExec));
  EXPECT_TRUE(breakdown.Covers(trace::Stage::kPut));
  EXPECT_TRUE(breakdown.Covers(trace::Stage::kGcsCommit));
  // The rendered table names every covered stage.
  std::string table = breakdown.Render();
  EXPECT_NE(table.find("dep-wait"), std::string::npos);
  EXPECT_NE(table.find("gcs-commit"), std::string::npos);
  // And the full export is valid chrome://tracing JSON.
  trace::Collector collector(&tracer);
  std::string json = collector.ExportChromeTrace(events);
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid());
}

TEST(TraceFlightRecorderTest, HangWatchdogDumpsTimeline) {
  auto& tracer = trace::Tracer::Instance();
  tracer.Configure(FullConfig());
  tracer.Emit(trace::Stage::kExec, 100, 50, TaskId::FromRandom(), ObjectId(),
              NodeId::FromRandom());
  const std::string path = "trace_test_flight_record.json";
  std::remove(path.c_str());
  {
    trace::HangWatchdog watchdog(/*timeout_us=*/50'000, path);
    // Simulated hang: never disarm; wait for the dump.
    for (int i = 0; i < 200 && !watchdog.Fired(); ++i) {
      SleepMicros(10'000);
    }
    EXPECT_TRUE(watchdog.Fired());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "watchdog must write the flight record";
  std::stringstream buf;
  buf << in.rdbuf();
  std::string dump = buf.str();
  EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(dump.find("hang-watchdog"), std::string::npos) << "dump is tagged with its reason";
  JsonValidator validator(dump);
  EXPECT_TRUE(validator.Valid());
  std::remove(path.c_str());

  // A disarmed watchdog must not fire.
  std::remove(path.c_str());
  {
    trace::HangWatchdog watchdog(50'000, path);
    watchdog.Disarm();
    SleepMicros(80'000);
    EXPECT_FALSE(watchdog.Fired());
  }
  std::ifstream second(path);
  EXPECT_FALSE(second.good());
}

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)

// Creating the tracer arms the flight recorder: a failed RAY_CHECK in a
// traced process leaves the merged trace behind.
TEST(TraceFlightRecorderDeathTest, FatalCheckWritesFlightRecord) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = "trace_test_fatal_flight_record.json";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        setenv("RAY_TRACE_FLIGHT_PATH", path.c_str(), 1);
        auto& tracer = trace::Tracer::Instance();
        tracer.Configure(FullConfig());
        tracer.Emit(trace::Stage::kExec, 100, 50, TaskId::FromRandom(), ObjectId(),
                    NodeId::FromRandom());
        RAY_CHECK(false);
      },
      "Check failed");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "a fatal check must write the flight record";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("fatal-check"), std::string::npos) << "dump is tagged with its reason";
  std::remove(path.c_str());
}

#endif  // !sanitizers

TEST(TraceProfilerTest, RecordEventRoutesToTracerNotGcs) {
  trace::Tracer::Instance().Configure(trace::TraceConfig{});  // default: sampled
  ClusterConfig config;
  config.num_nodes = 2;
  config.scheduler.heartbeat_interval_us = 10'000;
  Cluster cluster(config);
  tools::Profiler profiler(&cluster);
  profiler.RecordEvent("worker-7", "rollout", 1000, 5000);

  // No GCS event-log round on the hot path...
  auto durable = cluster.tables().events.Get("worker-7");
  EXPECT_TRUE(!durable.ok() || durable->empty());
  // ...but the export still sees the event, via the tracer.
  std::string json = profiler.ExportChromeTrace({"worker-7"});
  EXPECT_NE(json.find("\"rollout\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4000"), std::string::npos);

  // The export also merges the durable EventLog, where the failure detector
  // records every node death under "cluster".
  cluster.KillNode(1);
  const int64_t deadline = NowMicros() + 10 * cluster.monitor().DetectionBoundUs();
  while (cluster.monitor().NumDeathsDeclared() < 1 && NowMicros() < deadline) {
    SleepMicros(5'000);
  }
  ASSERT_GE(cluster.monitor().NumDeathsDeclared(), 1u);
  EXPECT_NE(profiler.ExportChromeTrace({"cluster"}).find("node-death:"), std::string::npos);
}

TEST(TraceReportTest, ClusterReportSurfacesControlPlaneAndTraceStats) {
  trace::Tracer::Instance().Configure(FullConfig());
  ClusterConfig config;
  config.num_nodes = 2;
  Cluster cluster(config);
  cluster.RegisterFunction("add_one", &AddOne);
  Ray ray = Ray::OnNode(cluster, 0);
  ASSERT_TRUE(ray.Get(ray.Call<int>("add_one", 1), 10'000'000).ok());

  tools::ClusterInspector inspector(&cluster);
  tools::ClusterReport report = inspector.Snapshot();
  EXPECT_GT(report.control_plane.gcs_batch_rounds, 0u);
  EXPECT_GT(report.control_plane.trace_events_recorded, 0u);
  EXPECT_EQ(report.control_plane.trace_mode, "full");
  std::string rendered = inspector.Render();
  EXPECT_NE(rendered.find("control plane:"), std::string::npos);
  EXPECT_NE(rendered.find("trace=full"), std::string::npos);
  EXPECT_NE(inspector.RenderHtml().find("Control plane"), std::string::npos);
}

}  // namespace
}  // namespace ray
