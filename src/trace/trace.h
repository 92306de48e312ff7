// Low-overhead distributed tracing (the subsystem behind the paper's
// timeline visualizations, Section 4.2.1 / Fig. 18-style task timelines).
//
// The seed's tools::Profiler pushed every profiled event through a GCS
// EventLog::Append — a chain-replication round on the hot path, i.e. the
// observer perturbed exactly the control-plane latencies it was supposed to
// measure. This tracer replaces that path with per-thread lock-free SPSC
// ring buffers:
//
//   * Emit is wait-free for the owning thread: one relaxed mode load on the
//     disabled path; a flag handshake plus a ~96-byte slot write when
//     recording. No locks, no allocation after the first event per thread.
//   * Memory is bounded: each ring holds `ring_capacity` events and
//     overwrites the oldest (flight-recorder semantics — the tail of history
//     is always available, which is what you want when something hangs).
//   * Collection is rare and pays all the cost: the collector pauses writers
//     with an atomic flag handshake (writers drop events while paused, never
//     block), copies every ring, and merges by timestamp.
//
// Events are keyed by TaskId / ObjectId / NodeId so one task's spans stitch
// into a cross-node timeline: submit on the driver's node, forward through
// the global scheduler, dep-wait + queue + exec on the placed node, puts and
// transfers wherever they happen, GCS commit rounds underneath.
//
// Sampling: in kSampled mode, task-keyed spans are kept for 1 in
// `sample_period` tasks *by task-id hash*, so a sampled task keeps its whole
// timeline (a per-event coin flip would shred causality). Infrastructure
// events not keyed by a task (GCS batch commits, transfers, heartbeats) are
// counter-sampled per thread at the same period. kFull records everything —
// that is the mode the flight recorder and the paper-style timeline export
// use; kOff reduces every instrumentation site to a single relaxed load.
#ifndef RAY_TRACE_TRACE_H_
#define RAY_TRACE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/id.h"
#include "common/sync.h"

namespace ray {
namespace trace {

// One stage per distinct phase of the task lifecycle plus the
// infrastructure activity underneath it. The collector's latency breakdown
// is a histogram per stage.
enum class Stage : uint8_t {
  kSubmit = 0,    // driver-side submission: lineage writes + routing
  kLeaseRequest,  // direct transport: worker-lease grant/deny on the scheduler
  kDirectSubmit,  // direct transport: pipelined push onto a leased worker
  kSpill,         // bottom-up spillover to the global scheduler (instant)
  kForward,       // global scheduler: placement decision + forward hops
  kDepWait,       // enqueue until the last missing input became local
  kQueue,         // ready until handed to a worker / actor mailbox
  kExec,          // plain task / actor creation executor body
  kActorExec,     // actor method body (mailbox dequeue to result sealed)
  kPut,           // object store seal + location publish
  kGet,           // blocking object store get
  kFetch,         // pull of a remote replica into the local store
  kTransfer,      // simulated wire time of a blocking data transfer
  kChunkTransfer, // wire time of one chunk of an async pull (arg = bytes)
  kChunkCopy,     // assembly memcpy of one received chunk (arg = bytes)
  kEvict,         // LRU demotion to the disk tier (instant)
  kPromote,       // disk tier -> memory promotion
  kGcsCommit,     // one chain-replication round (arg = ops in the batch)
  kReconstruct,   // lineage reconstruction walk for a lost object
  kStranded,      // stranded-task rescue re-forward (instant)
  kHeartbeat,     // heartbeat publish to the GCS
  kServeQueue,    // serving: admission to dispatch (router queue + admission)
  kServeRoute,    // serving: dispatch to completion on the chosen replica
  kUser,          // app-level events from tools::Profiler::RecordEvent
  kMark,          // free-form instants (flight-recorder marks)
  kNumStages,
};

const char* StageName(Stage stage);

enum class TraceMode : uint8_t { kOff = 0, kSampled = 1, kFull = 2 };

const char* TraceModeName(TraceMode mode);

struct TraceConfig {
  TraceMode mode = TraceMode::kSampled;
  // kSampled keeps 1 in sample_period task timelines (by task-id hash) and
  // 1 in sample_period infrastructure events (per-thread counter).
  uint32_t sample_period = 16;
  // Events per thread ring; oldest overwritten when full.
  size_t ring_capacity = 4096;
};

// Fixed-size POD record. `node` is where the event happened (destination for
// transfers/forwards); `peer` is the other endpoint when there is one.
struct TraceEvent {
  int64_t start_us = 0;
  int64_t dur_us = 0;  // 0 = instant event
  uint64_t arg = 0;    // stage-specific: bytes, batch size, interned label ids
  uint64_t fiber = 0;  // emitting fiber id; 0 = emitted off-fiber
  TaskId task;
  ObjectId object;
  NodeId node;
  NodeId peer;
  Stage stage = Stage::kMark;
};

class Tracer {
 public:
  // Process-wide instance (one process simulates the whole cluster, so this
  // is the cluster-wide trace sink; mirrors ControlPlaneMetrics::Instance).
  static Tracer& Instance();

  // Replaces the config and drops all buffered events (rings re-register
  // lazily with the new capacity). Not meant to race with active emitters.
  void Configure(const TraceConfig& config);
  void SetMode(TraceMode mode);
  TraceMode mode() const { return mode_.load(std::memory_order_relaxed); }
  bool Enabled() const { return mode() != TraceMode::kOff; }

  // Should spans keyed by `task` be recorded? Stable per task id, so a kept
  // task keeps every span of its timeline on every node.
  bool ShouldRecordTask(const TaskId& task) const {
    TraceMode m = mode();
    if (m == TraceMode::kFull) {
      return true;
    }
    if (m == TraceMode::kOff) {
      return false;
    }
    return (task.Hash() >> 1) % sample_period_.load(std::memory_order_relaxed) == 0;
  }

  // Should an infrastructure event (no task key) be recorded? Counter-based
  // per thread: cheap and period-accurate in aggregate.
  bool ShouldRecordInfra() {
    TraceMode m = mode();
    if (m == TraceMode::kFull) {
      return true;
    }
    if (m == TraceMode::kOff) {
      return false;
    }
    thread_local uint32_t tick = 0;
    return ++tick % sample_period_.load(std::memory_order_relaxed) == 0;
  }

  // Records one event. Callers are expected to have passed the matching
  // ShouldRecord* gate; Emit itself only re-checks that tracing is on.
  void Emit(Stage stage, int64_t start_us, int64_t dur_us, const TaskId& task,
            const ObjectId& object, const NodeId& node, const NodeId& peer = NodeId(),
            uint64_t arg = 0);

  // App-level event (tools::Profiler): interned strings ride in `arg`
  // (source id in the high 32 bits, label id in the low 32).
  void EmitUser(const std::string& source, const std::string& label, int64_t start_us,
                int64_t end_us);

  // String interning for kUser events (registry-locked; not a hot path).
  uint32_t Intern(const std::string& s);
  // Empty string for unknown ids (e.g. events from before a Clear).
  std::string InternedString(uint32_t id) const;

  // Pauses writers, copies every ring, resumes, and returns the events
  // merged in timestamp order. Writers drop (never block) while paused.
  std::vector<TraceEvent> Snapshot();

  // Drops all buffered events and interned strings.
  void Clear();

  uint64_t EventsRecorded() const;
  // Ring overwrites plus events dropped while a snapshot was in progress.
  uint64_t EventsDropped() const;

 private:
  struct Ring {
    explicit Ring(size_t capacity) : slots(capacity) {}
    std::vector<TraceEvent> slots;
    // Total events ever written; slot index = head % capacity.
    std::atomic<uint64_t> head{0};
    // Writer-in-slot flag for the pause handshake.
    std::atomic<bool> writing{false};
    // Events skipped because a snapshot had writers paused.
    std::atomic<uint64_t> paused_drops{0};
  };

  Tracer() = default;
  Ring* LocalRing();

  std::atomic<TraceMode> mode_{TraceMode::kSampled};
  std::atomic<uint32_t> sample_period_{16};
  std::atomic<size_t> ring_capacity_{4096};
  std::atomic<bool> paused_{false};
  // Bumped by Configure/Clear so threads re-register their rings.
  std::atomic<uint64_t> generation_{1};

  mutable Mutex registry_mu_{"Tracer.registry_mu"};
  std::vector<std::shared_ptr<Ring>> rings_ GUARDED_BY(registry_mu_);
  std::unordered_map<std::string, uint32_t> intern_ids_ GUARDED_BY(registry_mu_);
  std::vector<std::string> intern_strings_ GUARDED_BY(registry_mu_);
};

// RAII span: samples and stamps the start at construction, emits on
// destruction. A span constructed while its gate says no (or tracing is
// off) costs nothing further — not even a clock read.
class Span {
 public:
  Span(Stage stage, const TaskId& task, const ObjectId& object = ObjectId(),
       const NodeId& node = NodeId(), const NodeId& peer = NodeId(), uint64_t arg = 0)
      : stage_(stage), task_(task), object_(object), node_(node), peer_(peer), arg_(arg) {
    Tracer& tracer = Tracer::Instance();
    armed_ = task.IsNil() ? tracer.ShouldRecordInfra() : tracer.ShouldRecordTask(task);
    if (armed_) {
      start_us_ = NowMicros();
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (armed_) {
      Tracer::Instance().Emit(stage_, start_us_, NowMicros() - start_us_, task_, object_,
                              node_, peer_, arg_);
    }
  }

  // Payload discovered mid-span (e.g. bytes fetched).
  void SetArg(uint64_t arg) { arg_ = arg; }
  void SetPeer(const NodeId& peer) { peer_ = peer; }
  void Cancel() { armed_ = false; }
  bool armed() const { return armed_; }

 private:
  Stage stage_;
  TaskId task_;
  ObjectId object_;
  NodeId node_;
  NodeId peer_;
  uint64_t arg_;
  int64_t start_us_ = 0;
  bool armed_ = false;
};

// Arms a background thread that dumps the merged trace (flight-recorder
// style) if Disarm is not called within `timeout_us` — wrap a test body in
// one and a hang leaves a postmortem timeline instead of nothing.
class HangWatchdog {
 public:
  HangWatchdog(int64_t timeout_us, std::string dump_path);
  ~HangWatchdog();

  void Disarm();
  bool Fired() const { return fired_.load(std::memory_order_acquire); }

 private:
  std::string dump_path_;
  std::atomic<bool> disarmed_{false};
  std::atomic<bool> fired_{false};
  Mutex mu_{"HangWatchdog.mu"};
  CondVar cv_;
  std::thread thread_;
};

}  // namespace trace
}  // namespace ray

#endif  // RAY_TRACE_TRACE_H_
