#include "common/dst.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/clock.h"
#include "common/logging.h"

namespace ray {
namespace dst {

namespace internal {
thread_local constinit bool tl_dst_carrier = false;
std::atomic<bool> g_time_hooks{false};
}  // namespace internal

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Run state. One run at a time; choices and lock parking happen only on the
// single carrier thread, so none of this needs locking beyond the atomics the
// driver thread polls.
// ---------------------------------------------------------------------------
struct RunState {
  std::atomic<bool> active{false};
  std::atomic<bool> aborted{false};
  std::atomic<bool> failed{false};
  std::string failure;  // written on the carrier before `failed`, read after
  ScheduleStrategy* strategy = nullptr;
  Trace trace;
  uint64_t seed = 0;
  uint64_t steps = 0;
  uint64_t max_steps = 0;
  fiber::FiberScheduler* sched = nullptr;
  // Parked waiters of cooperative locks, keyed by the lock's address.
  // Node-based map: WaitQueue addresses stay stable across rehashes.
  std::unordered_map<void*, fiber::WaitQueue> lock_waiters;
};

RunState g_run;

// --- hookable time ---------------------------------------------------------

std::atomic<bool> g_virtual{false};
std::atomic<int64_t> g_vnow{0};
std::atomic<bool> g_skew_active{false};

struct DomainSkew {
  std::atomic<int64_t> offset_us{0};
  std::atomic<int64_t> drift_ppm{0};
  std::atomic<int64_t> epoch_us{0};
};
DomainSkew g_domains[kMaxClockDomains];

void RefreshTimeHooks() {
  internal::g_time_hooks.store(g_virtual.load() || g_skew_active.load(),
                               std::memory_order_relaxed);
}

int64_t BaseNowMicros() {
  if (g_virtual.load(std::memory_order_relaxed)) {
    return g_vnow.load(std::memory_order_relaxed);
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RecordFailure(const std::string& what) {
  if (!g_run.failed.load(std::memory_order_acquire)) {
    g_run.failure = what;
    g_run.failed.store(true, std::memory_order_release);
  }
}

// ---------------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------------

class RandomStrategy : public ScheduleStrategy {
 public:
  explicit RandomStrategy(double preempt_probability)
      : preempt_permille_(static_cast<uint32_t>(preempt_probability * 1000)) {}

  void BeginRun(uint64_t seed) override { state_ = SplitMix64(seed ^ 0x5bf03635u); }

  uint32_t Choose(ChoiceKind kind, uint32_t /*site*/, uint32_t n,
                  const uint64_t* /*ids*/) override {
    const uint64_t r = Next();
    if (kind == ChoiceKind::kPreempt) {
      return (r % 1000) < preempt_permille_ ? 1 : 0;
    }
    return static_cast<uint32_t>(r % n);
  }

 private:
  uint64_t Next() { return state_ = SplitMix64(state_); }
  uint64_t state_ = 0;
  uint32_t preempt_permille_;
};

// PCT (Burckhardt et al., ASPLOS'10): random per-fiber priorities, run the
// highest-priority runnable fiber, demote the current fiber at d-1 random
// change points. Detects any bug of depth d with probability >= 1/(n * k^(d-1)).
class PctStrategy : public ScheduleStrategy {
 public:
  PctStrategy(int depth, uint64_t expected_steps)
      : depth_(depth), expected_steps_(std::max<uint64_t>(1, expected_steps)) {}

  void BeginRun(uint64_t seed) override {
    state_ = SplitMix64(seed ^ 0x9c7);
    priorities_.clear();
    change_points_.clear();
    for (int i = 0; i + 1 < depth_; ++i) {
      change_points_.push_back(Next() % expected_steps_);
    }
    std::sort(change_points_.begin(), change_points_.end());
    step_ = 0;
    demote_counter_ = 0;
  }

  uint32_t Choose(ChoiceKind kind, uint32_t /*site*/, uint32_t n, const uint64_t* ids) override {
    switch (kind) {
      case ChoiceKind::kPreempt: {
        const uint64_t s = step_++;
        if (std::binary_search(change_points_.begin(), change_points_.end(), s)) {
          // Demote the current fiber below every priority handed out so far.
          if (ids != nullptr) {
            priorities_[ids[0]] = --demote_counter_;
          }
          return 1;
        }
        return 0;
      }
      case ChoiceKind::kPickFiber: {
        uint32_t best = 0;
        int64_t best_pri = 0;
        for (uint32_t i = 0; i < n; ++i) {
          const uint64_t id = ids != nullptr ? ids[i] : i;
          auto it = priorities_.find(id);
          if (it == priorities_.end()) {
            // First sighting: random positive priority (demotions go negative).
            it = priorities_.emplace(id, static_cast<int64_t>(Next() % (1u << 20)) + 1).first;
          }
          if (i == 0 || it->second > best_pri) {
            best = i;
            best_pri = it->second;
          }
        }
        return best;
      }
      default:
        return static_cast<uint32_t>(Next() % n);
    }
  }

 private:
  uint64_t Next() { return state_ = SplitMix64(state_); }
  uint64_t state_ = 0;
  int depth_;
  uint64_t expected_steps_;
  std::unordered_map<uint64_t, int64_t> priorities_;
  std::vector<uint64_t> change_points_;
  uint64_t step_ = 0;
  int64_t demote_counter_ = 0;
};

class ReplayStrategy : public ScheduleStrategy {
 public:
  explicit ReplayStrategy(Trace trace) : trace_(std::move(trace)) {}

  void BeginRun(uint64_t /*seed*/) override { cursor_ = 0; }

  uint32_t Choose(ChoiceKind /*kind*/, uint32_t /*site*/, uint32_t n,
                  const uint64_t* /*ids*/) override {
    if (cursor_ >= trace_.size()) {
      return 0;
    }
    const uint32_t d = trace_[cursor_++].decision;
    return d < n ? d : n - 1;
  }

 private:
  Trace trace_;
  size_t cursor_ = 0;
};

}  // namespace

std::unique_ptr<ScheduleStrategy> MakeRandomStrategy(double preempt_probability) {
  return std::make_unique<RandomStrategy>(preempt_probability);
}
std::unique_ptr<ScheduleStrategy> MakePctStrategy(int depth, uint64_t expected_steps) {
  return std::make_unique<PctStrategy>(depth, expected_steps);
}
std::unique_ptr<ScheduleStrategy> MakeReplayStrategy(Trace trace) {
  return std::make_unique<ReplayStrategy>(std::move(trace));
}

// ---------------------------------------------------------------------------
// Traces.
// ---------------------------------------------------------------------------

const char* ChoiceKindName(ChoiceKind kind) {
  switch (kind) {
    case ChoiceKind::kPickFiber:
      return "pick";
    case ChoiceKind::kPreempt:
      return "preempt";
    case ChoiceKind::kWakeOne:
      return "wake";
    case ChoiceKind::kTimerOrder:
      return "timer";
  }
  return "?";
}

uint64_t TraceHash(const Trace& trace) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const TraceEntry& e : trace) {
    mix((static_cast<uint64_t>(e.kind) << 56) | (static_cast<uint64_t>(e.site) << 32) | e.n);
    mix(e.decision);
  }
  return h;
}

size_t ScheduleLength(const Trace& trace) {
  size_t len = 0;
  for (const TraceEntry& e : trace) {
    len += e.decision != 0 ? 1 : 0;
  }
  return len;
}

std::string FormatTrace(const Trace& trace, size_t max_entries) {
  std::ostringstream os;
  os << trace.size() << " choices, " << ScheduleLength(trace) << " non-default:";
  size_t shown = 0;
  for (size_t i = 0; i < trace.size() && shown < max_entries; ++i) {
    const TraceEntry& e = trace[i];
    if (e.decision == 0) {
      continue;
    }
    os << " [" << i << "]" << ChoiceKindName(static_cast<ChoiceKind>(e.kind)) << "@" << e.site
       << "=" << e.decision << "/" << e.n;
    ++shown;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Choice points.
// ---------------------------------------------------------------------------

uint32_t Choice(ChoiceKind kind, uint32_t site, uint32_t n, const uint64_t* ids) {
  if (n <= 1 && kind != ChoiceKind::kPreempt) {
    return 0;
  }
  if (!internal::tl_dst_carrier || !g_run.active.load(std::memory_order_relaxed)) {
    return 0;
  }
  ++g_run.steps;
  if (g_run.steps > g_run.max_steps && !g_run.aborted.load(std::memory_order_relaxed)) {
    RecordFailure("step budget exceeded (livelock?) after " + std::to_string(g_run.steps) +
                  " steps");
    g_run.aborted.store(true, std::memory_order_release);
  }
  const uint32_t d = g_run.strategy->Choose(kind, site, kind == ChoiceKind::kPreempt ? 2 : n, ids);
  g_run.trace.push_back(TraceEntry{static_cast<uint8_t>(kind), site, n, d});
  return d;
}

void PreemptPoint(uint32_t site) {
  if (!OnDstFiber()) {
    return;
  }
  const uint64_t self_id = fiber::CurrentId();
  if (Choice(ChoiceKind::kPreempt, site, 2, &self_id) != 0) {
    fiber::Yield();
  }
}

void SchedulePoint(uint32_t site) { PreemptPoint(site); }

void LockAcquire(void* key, bool (*try_lock)(void*)) {
  PreemptPoint(kSiteLockAcquire);
  if (try_lock(key)) {
    return;
  }
  // Park instead of spinning: the holder is another fiber on this same
  // carrier, so blocking natively would wedge the run, and spinning would
  // starve under PCT priorities. Parked waiters also turn lock cycles into
  // detectable all-parked deadlocks.
  fiber::WaitQueue& wq = g_run.lock_waiters[key];
  for (;;) {
    wq.Link();
    if (try_lock(key)) {
      wq.CancelLink();
      return;
    }
    wq.ParkLinked(-1);
    if (try_lock(key)) {
      return;
    }
  }
}

void LockRelease(void* key) {
  if (g_run.active.load(std::memory_order_relaxed)) {
    auto it = g_run.lock_waiters.find(key);
    if (it != g_run.lock_waiters.end()) {
      // Wake every waiter and let the kPickFiber choice order their retries
      // (the handoff winner is itself a scheduling decision).
      it->second.WakeAll();
    }
  }
  PreemptPoint(kSiteLockRelease);
}

// ---------------------------------------------------------------------------
// Carrier hooks.
// ---------------------------------------------------------------------------

void BindDstCarrier(bool on) { internal::tl_dst_carrier = on; }

bool RunActive() { return g_run.active.load(std::memory_order_relaxed); }

bool RunAborted() { return g_run.aborted.load(std::memory_order_acquire); }

bool ConsumeStep() {
  if (!g_run.active.load(std::memory_order_relaxed)) {
    return true;
  }
  ++g_run.steps;
  if (g_run.steps > g_run.max_steps) {
    RecordFailure("step budget exceeded (livelock?) after " + std::to_string(g_run.steps) +
                  " steps");
    g_run.aborted.store(true, std::memory_order_release);
    return false;
  }
  return true;
}

void ReportDeadlock(size_t parked_fibers) {
  RecordFailure("deadlock: all " + std::to_string(parked_fibers) +
                " live fibers parked with no pending timers");
  g_run.aborted.store(true, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Hookable time.
// ---------------------------------------------------------------------------

uint32_t CurrentClockDomain() {
  return static_cast<uint32_t>(
      reinterpret_cast<uintptr_t>(fiber::GetFls(fiber::kFlsClockDomain)));
}

void SetCurrentClockDomain(uint32_t domain) {
  RAY_CHECK(domain < kMaxClockDomains) << "clock domain " << domain << " out of range";
  fiber::SetFls(fiber::kFlsClockDomain, reinterpret_cast<void*>(static_cast<uintptr_t>(domain)));
}

namespace {

int64_t DomainNow(uint32_t domain, int64_t base_us) {
  if (domain == 0) {
    return base_us;
  }
  const DomainSkew& s = g_domains[domain];
  const int64_t drift = s.drift_ppm.load(std::memory_order_relaxed);
  const int64_t offset = s.offset_us.load(std::memory_order_relaxed);
  const int64_t epoch = s.epoch_us.load(std::memory_order_relaxed);
  return base_us + offset + (base_us - epoch) * drift / 1000000;
}

}  // namespace

int64_t HookedNowMicros() { return DomainNow(CurrentClockDomain(), BaseNowMicros()); }

int64_t ToBaseDeadlineMicros(int64_t domain_deadline_us) {
  if (!TimeHooksActive() || domain_deadline_us < 0) {
    return domain_deadline_us;
  }
  const uint32_t domain = CurrentClockDomain();
  if (domain == 0) {
    return domain_deadline_us;
  }
  const DomainSkew& s = g_domains[domain];
  const double drift = static_cast<double>(s.drift_ppm.load(std::memory_order_relaxed));
  const int64_t offset = s.offset_us.load(std::memory_order_relaxed);
  const int64_t epoch = s.epoch_us.load(std::memory_order_relaxed);
  // Invert DomainNow: d = b + offset + (b - epoch) * drift/1e6.
  const double delta = static_cast<double>(domain_deadline_us - offset - epoch);
  return epoch + static_cast<int64_t>(delta / (1.0 + drift / 1e6));
}

void HookedSleepMicros(int64_t us) {
  // Re-check the hooked clock in short real slices (at most the time left,
  // so a short modelled delay is not stretched to a whole slice): under
  // virtual time the carrier advances it; under skew the slicing tracks
  // drift exactly.
  const int64_t deadline = HookedNowMicros() + us;
  for (int64_t left = deadline - HookedNowMicros(); left > 0;
       left = deadline - HookedNowMicros()) {
    std::this_thread::sleep_for(std::chrono::microseconds(std::min<int64_t>(left, 200)));
    if (!TimeHooksActive()) {
      return;  // hooks were torn down mid-sleep (run/test ended)
    }
  }
}

void AdvanceVirtualBaseTo(int64_t base_us) {
  int64_t cur = g_vnow.load(std::memory_order_relaxed);
  while (base_us > cur && !g_vnow.compare_exchange_weak(cur, base_us)) {
  }
}

void SetClockDomainSkew(uint32_t domain, int64_t offset_us, double drift_ppm) {
  RAY_CHECK(domain > 0 && domain < kMaxClockDomains)
      << "skew domain must be in [1, " << kMaxClockDomains << ")";
  g_domains[domain].epoch_us.store(BaseNowMicros(), std::memory_order_relaxed);
  g_domains[domain].offset_us.store(offset_us, std::memory_order_relaxed);
  g_domains[domain].drift_ppm.store(static_cast<int64_t>(drift_ppm), std::memory_order_relaxed);
  g_skew_active.store(true);
  RefreshTimeHooks();
}

void ResetClockDomains() {
  for (DomainSkew& d : g_domains) {
    d.offset_us.store(0, std::memory_order_relaxed);
    d.drift_ppm.store(0, std::memory_order_relaxed);
    d.epoch_us.store(0, std::memory_order_relaxed);
  }
  g_skew_active.store(false);
  RefreshTimeHooks();
}

uint64_t MixSeed(uint64_t seed) {
  if (!g_run.active.load(std::memory_order_relaxed)) {
    return seed;
  }
  return SplitMix64(seed ^ SplitMix64(g_run.seed));
}

// ---------------------------------------------------------------------------
// Scenario helpers.
// ---------------------------------------------------------------------------

std::shared_ptr<fiber::Fiber> Go(std::function<void()> body) {
  RAY_CHECK(g_run.active.load()) << "dst::Go outside a DST run";
  return g_run.sched->Spawn(std::move(body));
}

void Check(bool ok, const std::string& what) {
  if (ok) {
    return;
  }
  if (g_run.active.load(std::memory_order_relaxed)) {
    RecordFailure("check failed: " + what);
  } else {
    RAY_LOG(ERROR) << "dst::Check outside a run: " << what;
  }
}

// ---------------------------------------------------------------------------
// Drivers.
// ---------------------------------------------------------------------------

namespace {
// Explore's strategies: seeded-random preempts at this share of its choice
// points; PCT demotes the running fiber at kPctDepth - 1 points per run.
constexpr double kPreemptProbability = 0.25;
constexpr int kPctDepth = 3;
// Logical t0 of every run (1000s).
constexpr int64_t kVirtualStartUs = 1'000'000'000;
// Replays Minimize() may spend.
constexpr int kMinimizeBudget = 400;
}  // namespace

RunResult RunOnce(const Scenario& body, uint64_t seed, ScheduleStrategy* strategy,
                  const Options& opts) {
  RAY_CHECK(!g_run.active.load()) << "DST runs cannot nest";
  RAY_CHECK(!fiber::OnFiber()) << "RunOnce must be driven from a plain thread";
  strategy->BeginRun(seed);
  g_run.aborted.store(false);
  g_run.failed.store(false);
  g_run.failure.clear();
  g_run.trace.clear();
  g_run.strategy = strategy;
  g_run.seed = seed;
  g_run.steps = 0;
  g_run.max_steps = opts.max_steps;
  g_vnow.store(kVirtualStartUs);
  g_virtual.store(true);
  RefreshTimeHooks();

  {
    fiber::SchedulerOptions so;
    so.dst_mode = true;
    fiber::FiberScheduler sched(so);
    g_run.sched = &sched;
    g_run.active.store(true, std::memory_order_release);
    sched.Spawn(body);
    // The run ends when every fiber (root + anything it Go()ed) finished, or
    // the carrier abandoned it. Real-wall timeout guards non-yielding loops
    // the step budget cannot see; scenarios are test-owned, so it is fatal.
    const auto wall_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (sched.NumResident() > 0 && !g_run.aborted.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      RAY_CHECK(std::chrono::steady_clock::now() < wall_deadline)
          << "DST run wall-clock timeout: a fiber is neither yielding nor parking";
    }
    sched.Shutdown();
    g_run.active.store(false, std::memory_order_release);
    g_run.sched = nullptr;
  }

  g_virtual.store(false);
  RefreshTimeHooks();
  // Abandoned runs may leave leaked fibers linked into these queues; the
  // queues (and the fibers) are never touched again.
  g_run.lock_waiters.clear();

  RunResult r;
  r.failed = g_run.failed.load(std::memory_order_acquire);
  r.failure = g_run.failure;
  r.seed = seed;
  r.steps = g_run.steps;
  r.trace = std::move(g_run.trace);
  r.trace_hash = TraceHash(r.trace);
  g_run.trace.clear();
  g_run.strategy = nullptr;
  return r;
}

ExploreResult Explore(const Scenario& body, const Options& opts) {
  std::unique_ptr<ScheduleStrategy> strategy =
      opts.use_pct ? MakePctStrategy(kPctDepth, opts.max_steps / 4)
                   : MakeRandomStrategy(kPreemptProbability);
  ExploreResult result;
  for (int i = 0; i < opts.max_schedules; ++i) {
    RunResult r = RunOnce(body, opts.base_seed + static_cast<uint64_t>(i), strategy.get(), opts);
    ++result.schedules_run;
    if (r.failed) {
      result.failure = std::move(r);
      break;
    }
  }
  return result;
}

RunResult Replay(const Scenario& body, const Trace& trace, uint64_t seed, const Options& opts) {
  auto strategy = MakeReplayStrategy(trace);
  return RunOnce(body, seed, strategy.get(), opts);
}

RunResult Minimize(const Scenario& body, const RunResult& failing, const Options& opts) {
  RunResult best = failing;
  int budget = kMinimizeBudget;
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    for (size_t i = 0; i < best.trace.size() && budget > 0; ++i) {
      if (best.trace[i].decision == 0) {
        continue;
      }
      Trace candidate = best.trace;
      candidate[i].decision = 0;
      --budget;
      RunResult r = Replay(body, candidate, failing.seed, opts);
      if (r.failed) {
        // Adopt the re-recorded trace (it may be shorter than the candidate:
        // zeroing a decision can cut whole branches of choice points).
        best = std::move(r);
        progress = true;
      }
    }
  }
  return best;
}

}  // namespace dst
}  // namespace ray
