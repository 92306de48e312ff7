#include "trace/trace.h"

#include <algorithm>
#include <chrono>

#include "common/fiber.h"
#include "common/logging.h"
#include "trace/collector.h"

namespace ray {
namespace trace {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kSubmit:
      return "submit";
    case Stage::kLeaseRequest:
      return "lease-request";
    case Stage::kDirectSubmit:
      return "direct-submit";
    case Stage::kSpill:
      return "spill";
    case Stage::kForward:
      return "forward";
    case Stage::kDepWait:
      return "dep-wait";
    case Stage::kQueue:
      return "queue";
    case Stage::kExec:
      return "exec";
    case Stage::kActorExec:
      return "actor-exec";
    case Stage::kPut:
      return "put";
    case Stage::kGet:
      return "get";
    case Stage::kFetch:
      return "fetch";
    case Stage::kTransfer:
      return "transfer";
    case Stage::kChunkTransfer:
      return "chunk-transfer";
    case Stage::kChunkCopy:
      return "chunk-copy";
    case Stage::kEvict:
      return "evict";
    case Stage::kPromote:
      return "promote";
    case Stage::kGcsCommit:
      return "gcs-commit";
    case Stage::kReconstruct:
      return "reconstruct";
    case Stage::kStranded:
      return "stranded-rescue";
    case Stage::kHeartbeat:
      return "heartbeat";
    case Stage::kServeQueue:
      return "serve-queue";
    case Stage::kServeRoute:
      return "serve-route";
    case Stage::kUser:
      return "user";
    case Stage::kMark:
      return "mark";
    default:
      return "unknown";
  }
}

const char* TraceModeName(TraceMode mode) {
  switch (mode) {
    case TraceMode::kOff:
      return "off";
    case TraceMode::kSampled:
      return "sampled";
    case TraceMode::kFull:
      return "full";
  }
  return "unknown";
}

Tracer& Tracer::Instance() {
  // Leaked: emitter threads (schedulers, actors) may outlive static
  // destruction order, and the rings they hold must stay valid. Creating the
  // tracer arms the flight recorder, so a fatal check in any process that
  // traces dumps the merged trace to RAY_TRACE_FLIGHT_PATH (default
  // "flight_record.json").
  static Tracer* instance = [] {
    auto* tracer = new Tracer();
    InstallFlightRecorderHook();
    return tracer;
  }();
  return *instance;
}

void Tracer::Configure(const TraceConfig& config) {
  {
    MutexLock lock(registry_mu_);
    rings_.clear();
    intern_ids_.clear();
    intern_strings_.clear();
  }
  sample_period_.store(config.sample_period == 0 ? 1 : config.sample_period,
                       std::memory_order_relaxed);
  ring_capacity_.store(config.ring_capacity == 0 ? 1 : config.ring_capacity,
                       std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  mode_.store(config.mode, std::memory_order_relaxed);
}

void Tracer::SetMode(TraceMode mode) { mode_.store(mode, std::memory_order_relaxed); }

Tracer::Ring* Tracer::LocalRing() {
  struct TlsRef {
    uint64_t generation = 0;
    std::shared_ptr<Ring> ring;
  };
  thread_local TlsRef tls;
  uint64_t generation = generation_.load(std::memory_order_acquire);
  if (tls.ring == nullptr || tls.generation != generation) {
    auto ring = std::make_shared<Ring>(ring_capacity_.load(std::memory_order_relaxed));
    {
      MutexLock lock(registry_mu_);
      rings_.push_back(ring);
    }
    tls.ring = std::move(ring);
    tls.generation = generation;
  }
  return tls.ring.get();
}

void Tracer::Emit(Stage stage, int64_t start_us, int64_t dur_us, const TaskId& task,
                  const ObjectId& object, const NodeId& node, const NodeId& peer,
                  uint64_t arg) {
  if (!Enabled()) {
    return;
  }
  Ring* ring = LocalRing();
  // Pause handshake with Snapshot: announce the write, then re-check the
  // pause flag. Seq-cst on both sides makes this a Dekker pair — either the
  // collector sees `writing` and waits for the slot write to finish, or this
  // thread sees `paused` and drops the event without touching the slots.
  ring->writing.store(true, std::memory_order_seq_cst);
  if (paused_.load(std::memory_order_seq_cst)) {
    ring->paused_drops.fetch_add(1, std::memory_order_relaxed);
    ring->writing.store(false, std::memory_order_release);
    return;
  }
  uint64_t head = ring->head.load(std::memory_order_relaxed);
  TraceEvent& slot = ring->slots[head % ring->slots.size()];
  slot.start_us = start_us;
  slot.dur_us = dur_us;
  slot.arg = arg;
  // Fiber identity, not thread identity: worker/actor execution migrates
  // across carrier threads, and the per-fiber id is what stitches a task's
  // spans back together after a park/resume.
  slot.fiber = fiber::CurrentId();
  slot.task = task;
  slot.object = object;
  slot.node = node;
  slot.peer = peer;
  slot.stage = stage;
  ring->head.store(head + 1, std::memory_order_release);
  ring->writing.store(false, std::memory_order_release);
}

void Tracer::EmitUser(const std::string& source, const std::string& label, int64_t start_us,
                      int64_t end_us) {
  if (!Enabled()) {
    return;
  }
  // Explicit app-level events bypass sampling: callers already chose to
  // record them, and they are orders of magnitude rarer than system spans.
  uint64_t arg = (static_cast<uint64_t>(Intern(source)) << 32) | Intern(label);
  Emit(Stage::kUser, start_us, end_us - start_us, TaskId(), ObjectId(), NodeId(), NodeId(),
       arg);
}

uint32_t Tracer::Intern(const std::string& s) {
  MutexLock lock(registry_mu_);
  auto it = intern_ids_.find(s);
  if (it != intern_ids_.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(intern_strings_.size());
  intern_strings_.push_back(s);
  intern_ids_.emplace(s, id);
  return id;
}

std::string Tracer::InternedString(uint32_t id) const {
  MutexLock lock(registry_mu_);
  return id < intern_strings_.size() ? intern_strings_[id] : std::string();
}

std::vector<TraceEvent> Tracer::Snapshot() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    MutexLock lock(registry_mu_);
    rings = rings_;
  }
  paused_.store(true, std::memory_order_seq_cst);
  for (const auto& ring : rings) {
    // Slot writes are bounded (a ~100-byte copy), so this spin is short.
    while (ring->writing.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  std::vector<TraceEvent> events;
  for (const auto& ring : rings) {
    uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t count = std::min<uint64_t>(head, ring->slots.size());
    events.reserve(events.size() + count);
    for (uint64_t i = head - count; i < head; ++i) {
      events.push_back(ring->slots[i % ring->slots.size()]);
    }
  }
  paused_.store(false, std::memory_order_release);
  std::stable_sort(events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.start_us != b.start_us) {
      return a.start_us < b.start_us;
    }
    // Enclosing span first when starts tie, so nesting renders correctly.
    return a.dur_us > b.dur_us;
  });
  return events;
}

void Tracer::Clear() {
  {
    MutexLock lock(registry_mu_);
    rings_.clear();
    intern_ids_.clear();
    intern_strings_.clear();
  }
  generation_.fetch_add(1, std::memory_order_release);
}

uint64_t Tracer::EventsRecorded() const {
  MutexLock lock(registry_mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->head.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t Tracer::EventsDropped() const {
  MutexLock lock(registry_mu_);
  uint64_t total = 0;
  for (const auto& ring : rings_) {
    uint64_t head = ring->head.load(std::memory_order_relaxed);
    if (head > ring->slots.size()) {
      total += head - ring->slots.size();  // overwritten by wraparound
    }
    total += ring->paused_drops.load(std::memory_order_relaxed);
  }
  return total;
}

HangWatchdog::HangWatchdog(int64_t timeout_us, std::string dump_path)
    : dump_path_(std::move(dump_path)) {
  thread_ = std::thread([this, timeout_us] {
    const int64_t deadline_us = NowMicros() + timeout_us;
    MutexLock lock(mu_);
    while (!disarmed_.load(std::memory_order_acquire)) {
      if (!cv_.WaitUntilMicros(mu_, deadline_us)) {
        break;  // timed out
      }
    }
    if (disarmed_.load(std::memory_order_acquire)) {
      return;
    }
    lock.Unlock();
    RAY_LOG(ERROR) << "hang watchdog fired after " << timeout_us
                   << "us; dumping flight record to " << dump_path_;
    DumpFlightRecord(dump_path_, "hang-watchdog");
    fired_.store(true, std::memory_order_release);
  });
}

HangWatchdog::~HangWatchdog() {
  Disarm();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void HangWatchdog::Disarm() {
  {
    // Notify under the lock: the watchdog thread owns no reference that keeps
    // this object alive once it observes disarmed_.
    MutexLock lock(mu_);
    disarmed_.store(true, std::memory_order_release);
    cv_.NotifyAll();
  }
}

}  // namespace trace
}  // namespace ray
