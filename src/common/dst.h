// Deterministic-schedule testing (DST): Loom/Coyote-style systematic
// concurrency testing on top of the cooperative fiber runtime.
//
// The fiber scheduler already owns every blocking point in the system (PR 8:
// CondVar waits, mailbox pops, object-store gets all park fibers). DST runs a
// scenario on a single-carrier FiberScheduler where every remaining source of
// nondeterminism is funneled through one pluggable ScheduleStrategy:
//
//   kPickFiber   which runnable fiber runs next (flattens the priority
//                queues: exploration may legally violate priority order)
//   kPreempt     inject a context switch at an instrumented point (mutex
//                acquire/release, CondVar wait entry, explicit
//                SchedulePoint() calls in scenario code)
//   kWakeOne     which waiter a CondVar NotifyOne / lock handoff wakes
//   kTimerOrder  firing order within a batch of due timers
//
// Time is virtual during a run: the carrier never sleeps for timers, it jumps
// the logical clock to the next deadline when nothing is runnable (discrete-
// event style, as UNIFERENCE argues for distributed-AI development). All
// Rng instances seeded while a run is active mix in the run seed, so a seed
// fully determines a schedule.
//
// Every consulted choice is appended to a compact trace (kind, site, n,
// decision). Replaying a trace through ReplayStrategy reproduces the run
// bit-identically (same trace, same TraceHash); Minimize() greedily rewrites
// non-default decisions back to 0 while the failure still reproduces.
//
// Failure modes a run can end in:
//   - an explicit dst::Check() violation recorded by the scenario,
//   - deadlock: every live fiber parked, no timers pending (lost wakeups and
//     lock cycles both surface here — cooperative locks park their waiters),
//   - step-budget exhaustion (livelock guard).
// A deadlocked run is abandoned: the carrier exits, parked fibers leak their
// Fiber objects (self-keepalive cycle). That is acceptable for exploration;
// the single-seed sanitizer mode only runs scenarios that drain cleanly.
//
// The hooks below are called from clock.h / sync.h / fiber.cc hot paths; when
// no run is active they cost one thread-local or relaxed-atomic load.
#ifndef RAY_COMMON_DST_H_
#define RAY_COMMON_DST_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fiber.h"

namespace ray {
namespace dst {

// ---------------------------------------------------------------------------
// Schedule traces.
// ---------------------------------------------------------------------------

enum class ChoiceKind : uint8_t { kPickFiber = 0, kPreempt = 1, kWakeOne = 2, kTimerOrder = 3 };
const char* ChoiceKindName(ChoiceKind kind);

// Stable choice-point site ids. Deliberately not addresses: traces from two
// runs of the same seed must hash identically across ASLR.
inline constexpr uint32_t kSiteRunqPick = 1;
inline constexpr uint32_t kSiteTimerFire = 2;
inline constexpr uint32_t kSiteWakeOne = 3;
inline constexpr uint32_t kSiteLockAcquire = 4;
inline constexpr uint32_t kSiteLockRelease = 5;
inline constexpr uint32_t kSiteCondWait = 6;
inline constexpr uint32_t kSiteScenario = 7;

struct TraceEntry {
  uint8_t kind;       // ChoiceKind
  uint32_t site;      // kSite* constant
  uint32_t n;         // number of alternatives offered
  uint32_t decision;  // chosen alternative; 0 is always the "default" choice
};
using Trace = std::vector<TraceEntry>;

// FNV-1a over every entry; identical runs produce identical hashes.
uint64_t TraceHash(const Trace& trace);
// Number of non-default (decision != 0) entries — the schedule's "length"
// for minimization purposes (a trace of all zeros is the unperturbed run).
size_t ScheduleLength(const Trace& trace);
std::string FormatTrace(const Trace& trace, size_t max_entries = 64);

// ---------------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------------

class ScheduleStrategy {
 public:
  virtual ~ScheduleStrategy() = default;
  // Called once before each run with that run's seed.
  virtual void BeginRun(uint64_t seed) = 0;
  // Pick one of n >= 2 alternatives. `ids` carries candidate fiber ids for
  // kPickFiber and the current fiber id for kPreempt; may be nullptr.
  virtual uint32_t Choose(ChoiceKind kind, uint32_t site, uint32_t n, const uint64_t* ids) = 0;
};

// Uniform choices; preempts with the given probability at each choice point.
std::unique_ptr<ScheduleStrategy> MakeRandomStrategy(double preempt_probability = 0.25);
// PCT-flavored (Burckhardt et al.): fibers get random priorities, the
// highest-priority runnable fiber runs, and `depth - 1` random points in the
// run demote the current fiber below everyone else.
std::unique_ptr<ScheduleStrategy> MakePctStrategy(int depth = 3, uint64_t expected_steps = 2000);
// Replays a recorded trace decision-for-decision (cursor order; out-of-range
// decisions clamp, exhausted traces answer 0).
std::unique_ptr<ScheduleStrategy> MakeReplayStrategy(Trace trace);

// ---------------------------------------------------------------------------
// Running scenarios.
// ---------------------------------------------------------------------------

struct Options {
  int max_schedules = 100;   // Explore: schedules per scenario
  uint64_t base_seed = 1;    // Explore: seed of schedule i is base_seed + i
  double preempt_probability = 0.25;
  bool use_pct = false;      // Explore: PCT instead of seeded-random
  int pct_depth = 3;
  uint64_t max_steps = 200000;  // dispatches+choices before a run is a livelock
  int64_t virtual_start_us = 1000000000;  // logical t0 (1000s)
  int minimize_budget = 400;  // replays Minimize() may spend
};

struct RunResult {
  bool failed = false;
  std::string failure;
  uint64_t seed = 0;
  uint64_t steps = 0;
  Trace trace;
  uint64_t trace_hash = 0;
};

struct ExploreResult {
  int schedules_run = 0;
  std::optional<RunResult> failure;  // first failing run, if any
};

using Scenario = std::function<void()>;

// Runs `body` as the root fiber of a fresh single-carrier scheduler under
// `strategy`, with virtual time, until every fiber finishes or the run
// aborts (deadlock / step budget). Not reentrant; one run at a time.
RunResult RunOnce(const Scenario& body, uint64_t seed, ScheduleStrategy* strategy,
                  const Options& opts = {});
// Runs up to max_schedules seeds, stopping at the first failure.
ExploreResult Explore(const Scenario& body, const Options& opts = {});
// Re-runs `body` driving every choice from `trace`. `seed` must be the
// failing run's seed (scenario Rngs mix it in).
RunResult Replay(const Scenario& body, const Trace& trace, uint64_t seed,
                 const Options& opts = {});
// Greedy ddmin-lite: zero one non-default decision at a time, keep any
// rewrite that still fails, until a fixed point or the replay budget runs out.
RunResult Minimize(const Scenario& body, const RunResult& failing, const Options& opts = {});

// --- scenario helpers -------------------------------------------------------

// Spawns a fiber on the active run's scheduler. Scenario code only.
std::shared_ptr<fiber::Fiber> Go(std::function<void()> body);
// Records a failure (first one wins) without stopping the run.
void Check(bool ok, const std::string& what);
// Explicit preemption point, for scenario code modelling lock-free protocols
// whose atomics the instrumentation cannot see.
void SchedulePoint(uint32_t site = kSiteScenario);

// ---------------------------------------------------------------------------
// Runtime hooks (fiber.cc / sync.h / clock.h seams). No-ops unless a DST run
// is active on the calling thread.
// ---------------------------------------------------------------------------

namespace internal {
extern thread_local bool tl_dst_carrier;
extern std::atomic<bool> g_time_hooks;
}  // namespace internal

// True on the active run's carrier thread (fiber bodies and the carrier loop).
inline bool OnDstCarrier() { return internal::tl_dst_carrier; }
// True while scenario code is executing on a DST fiber.
inline bool OnDstFiber() { return internal::tl_dst_carrier && fiber::OnFiber(); }

// Consult the strategy and record the decision. n <= 1 short-circuits to 0
// without consulting or recording (so record and replay stay aligned).
uint32_t Choice(ChoiceKind kind, uint32_t site, uint32_t n, const uint64_t* ids = nullptr);
// Preempt choice point: maybe yields the current fiber.
void PreemptPoint(uint32_t site);

// Cooperative lock used by sync.h under DST: try_lock, park on failure (so a
// held lock never blocks the single carrier, and lock cycles surface as
// parked-fiber deadlocks). `key` identifies the lock; `try_lock` is invoked
// with it. Includes acquire-side preempt point.
void LockAcquire(void* key, bool (*try_lock)(void*));
// Wakes parked waiters of `key` after an unlock; release-side preempt point.
void LockRelease(void* key);

// Carrier-loop hooks (fiber.cc DST mode).
void BindDstCarrier(bool on);
bool RunActive();
bool RunAborted();
// Counts a step against the livelock budget; false = budget exhausted (the
// carrier records the failure and abandons the run).
bool ConsumeStep();
void ReportDeadlock(size_t parked_fibers);

// ---------------------------------------------------------------------------
// Hookable time: virtual (DST runs) and per-domain skew (chaos clock-skew
// faults). A clock domain maps base time b to b + offset + drift_ppm
// * (b - skew_epoch) / 1e6; domain 0 is always the base clock. Fibers carry
// their domain in FLS slot kFlsClockDomain; plain threads in its
// thread-local fallback.
// ---------------------------------------------------------------------------

inline bool TimeHooksActive() {
  return internal::g_time_hooks.load(std::memory_order_relaxed);
}
// The current domain's notion of now (virtual base during DST runs).
int64_t HookedNowMicros();
// Sleep `us` of the current domain's time (off-fiber path; re-checks the
// hooked clock in short real slices).
void HookedSleepMicros(int64_t us);
// Converts a deadline on the current domain's clock to the base clock the
// fiber timer heap runs on. Identity when hooks are off.
int64_t ToBaseDeadlineMicros(int64_t domain_deadline_us);

// Carrier only: jump the virtual base clock forward (never backward).
void AdvanceVirtualBaseTo(int64_t base_us);

inline constexpr uint32_t kMaxClockDomains = 64;
// Domain 0 is reserved (base clock); offset in microseconds, drift in parts
// per million (20000 = +2%). Activates the time hooks process-wide.
void SetClockDomainSkew(uint32_t domain, int64_t offset_us, double drift_ppm);
// Clears all skew (and the time hooks, unless a virtual-time run is active).
void ResetClockDomains();
// Tags the calling fiber (or thread) with a clock domain.
void SetCurrentClockDomain(uint32_t domain);
uint32_t CurrentClockDomain();

// Mixes `seed` with the active run's seed; identity outside runs. random.h
// routes every Rng construction through this.
uint64_t MixSeed(uint64_t seed);

}  // namespace dst
}  // namespace ray

#endif  // RAY_COMMON_DST_H_
