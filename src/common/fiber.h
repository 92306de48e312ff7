// Cooperative fibers: user-level contexts multiplexed on a small pool of
// carrier threads, so one node can hold 100k+ resident actors (the paper's
// cheap stateful computations) where thread-per-actor caps out in the
// hundreds. Three pieces:
//
//   Fiber          — a user-level context with its own ~KB-scale stack. A
//                    fiber runs until it yields, parks, or finishes; it never
//                    migrates mid-slice, but may resume on a different
//                    carrier after a park (the run queue is scheduler-wide).
//   FiberScheduler — N carrier threads draining a priority round-robin run
//                    queue (kHigh / kNormal / kLow, FIFO within a level) plus
//                    a timer heap for timed parks. Shutdown() drains: it
//                    returns once every spawned fiber has finished.
//   WaitQueue      — intrusive FIFO of parked fibers, linked through Fiber
//                    fields (never through stack-allocated nodes, so a timed
//                    out waiter can always be unlinked safely). This is the
//                    building block the annotated CondVar in common/sync.h
//                    uses to suspend fibers instead of carrier threads.
//
// Park/unpark protocol: a fiber's `park_state_` walks
//     kRunning -> kParking -> kParked          (park)
//     kParked  -> kRunning (+ requeue)         (unpark after the switch)
//     kParking -> kPermit                      (unpark racing the switch;
//                                               the carrier requeues)
//     kRunning -> kPermit                      (unpark before the park; the
//                                               park consumes the permit and
//                                               returns immediately)
// All transitions are seq_cst CASes, so exactly one unparker wins and a
// fiber is never enqueued while its stack is still live on a carrier (the
// kParking->kParked transition happens on the carrier, after the switch).
// Parks may wake spuriously (a stale timer from an earlier park); timed
// waits therefore re-check their deadline and re-park.
//
// Blocking discipline: a fiber must not park while holding any lock other
// than the mutex a CondVar wait releases — the lockdep held-stack is
// per-carrier-thread, and a fiber that migrates mid-critical-section would
// leave it inconsistent (and deadlock real code anyway). Plain Mutex
// critical sections never park, so Lock/Unlock always pair on one carrier.
// Debug builds check the rule: ParkUntil raises a lockdep report when the
// carrier's held-lock stack is non-empty (DST fibers, whose cooperative lock
// acquisition parks by design, are exempt). Modelled delays (SleepMicros)
// park too, so they are charged only after every lock is released.
//
// Sanitizers: stacks are registered with ASan via
// __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber around
// every switch, and with TSan via the fiber API (__tsan_create_fiber /
// __tsan_switch_to_fiber), so both gates stay meaningful with 100k stacks.
//
// This header is included by common/sync.h (the fiber-aware CondVar) and
// must not include sync.h back; the scheduler's internals live behind a
// pimpl in fiber.cc where the annotated primitives are available.
#ifndef RAY_COMMON_FIBER_H_
#define RAY_COMMON_FIBER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

// Assembly entry thunks call back into this C++ trampoline (fiber.cc); it
// needs access to Fiber internals, hence the friend declarations below.
extern "C" void ray_fiber_entry_trampoline(void* fiber);

namespace ray {
namespace fiber {

class Fiber;
class FiberScheduler;

// Run-queue levels, drained high to low, FIFO within a level.
enum class Priority : uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr int kNumPriorities = 3;

// Fiber-local storage. thread_local breaks under fibers (a suspended fiber's
// successor on the same carrier would read its slots), so per-execution
// state — the runtime's ExecutionContext, the scheduler's current-lease
// pointer — lives in small per-fiber slots instead. Off-fiber callers fall
// back to a plain thread_local array, so call sites need no branches.
inline constexpr int kFlsExecutionContext = 0;
inline constexpr int kFlsCurrentLease = 1;
// Clock domain tag (common/dst.h skew + virtual time), stored as a uintptr.
inline constexpr int kFlsClockDomain = 3;
inline constexpr int kFlsSlots = 4;

void* GetFls(int slot);
void SetFls(int slot, void* value);

// True iff the calling thread is currently executing a fiber body.
bool OnFiber();
// The running fiber, or nullptr off-fiber.
Fiber* CurrentFiber();
// The running fiber's id, or 0 off-fiber (tracing stitches spans by this).
uint64_t CurrentId();

// Cooperative reschedule: back of the run queue at the fiber's priority.
void Yield();

// Parks the calling fiber until Unpark (true) or `deadline_us` on the
// NowMicros clock passes (false). deadline_us < 0 parks forever. May return
// true spuriously; deadline-sensitive callers re-check and re-park.
bool ParkUntil(int64_t deadline_us);

// Fiber-aware sleep: parks with a timer on a fiber, so the carrier thread
// stays free to run other fibers. (clock.h's SleepMicros routes here.)
void SleepUs(int64_t us);

// Test-byte spinlock guarding intrusive wait lists. A leaf lock by
// construction: nothing is acquired under it.
class SpinLock {
 public:
  void lock() {
    while (flag_.exchange(true, std::memory_order_acquire)) {
      while (flag_.load(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

// Intrusive FIFO of parked fibers (linked through Fiber::wait_next_). The
// caller's protocol, mirroring a condition variable wait:
//
//   wq.Link();            // register, while still holding the caller's lock
//   <release the lock>
//   bool ok = wq.ParkLinked(deadline_us);   // false = deadline passed
//   <reacquire the lock>
//
// A Wake* that pops the fiber between Link and the park resolves through
// the permit path; a timed-out waiter unlinks itself. Wake may be called
// from any thread or fiber.
class WaitQueue {
 public:
  WaitQueue() = default;
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  // Appends the calling fiber. Must be on a fiber; must not already be
  // linked anywhere.
  void Link();
  // Removes the calling fiber if a Wake* has not already popped it.
  void CancelLink();
  // Parks the previously Link()ed calling fiber. Returns true when a Wake*
  // popped it, false when `deadline_us` (NowMicros clock; < 0 = none)
  // passed first — in which case it has unlinked itself.
  bool ParkLinked(int64_t deadline_us);

  void WakeOne();
  void WakeAll();

 private:
  Fiber* PopLocked();

  SpinLock lock_;
  Fiber* head_ = nullptr;
  Fiber* tail_ = nullptr;
};

struct SchedulerOptions {
  // Carrier threads. 0 = max(2, hardware_concurrency). Two minimum so a
  // fiber that blocks a carrier natively (short mutex waits) never wedges
  // the whole scheduler.
  int num_carriers = 0;
  // Usable stack bytes per fiber, rounded up to the page size. 0 = 64KB
  // (256KB under ASan/TSan: redzones and shadow inflate frame sizes).
  // Stacks are carved from large MAP_NORESERVE slabs — pages commit lazily,
  // so 100k resident fibers cost ~a page of RSS each, and the process stays
  // far under vm.max_map_count where 100k individual mmaps would not.
  size_t stack_bytes = 0;
  // Place a PROT_NONE guard page below each stack so overflow faults
  // instead of corrupting a neighbour. Defaults on in debug builds. Each
  // guard costs two VMAs, so only the first 8192 stacks get one — a bounded
  // budget against vm.max_map_count (65530 default; kMaxGuardedStacks in
  // fiber.cc).
#ifdef NDEBUG
  bool guard_pages = false;
#else
  bool guard_pages = true;
#endif
  // Deterministic-schedule-testing mode (common/dst.h): a single carrier
  // whose every scheduling decision — runnable-fiber pick, timer firing
  // order, CondVar wake victim — is delegated to the active dst run's
  // ScheduleStrategy, with timers driven by the virtual clock. Forces
  // num_carriers = 1.
  bool dst_mode = false;
};

// One fiber. Created via FiberScheduler::Spawn; destroyed when the last
// shared_ptr drops (the scheduler holds one until the body returns).
class Fiber : public std::enable_shared_from_this<Fiber> {
 public:
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  uint64_t id() const { return id_; }
  Priority priority() const { return priority_; }
  FiberScheduler* scheduler() const { return scheduler_; }
  bool done() const { return done_.load(std::memory_order_acquire); }

  // Blocks (OS thread) or parks (fiber) until the body has returned.
  void Join();

  // Wakes the fiber from a park (or grants a permit consumed by its next
  // park). Callable from any thread or fiber, including other schedulers'.
  void Unpark();

 private:
  friend class FiberScheduler;
  friend class WaitQueue;
  friend bool ParkUntil(int64_t);
  friend void Yield();
  friend void* GetFls(int);
  friend void SetFls(int, void*);
  friend void ::ray_fiber_entry_trampoline(void*);

  // Park/unpark state machine (see file header).
  enum : int { kRunning = 0, kPermit = 1, kParking = 2, kParked = 3 };
  // Why the fiber last switched back to its carrier.
  enum class SwitchReason : uint8_t { kNone, kYield, kPark, kDone };

  Fiber() = default;

  uint64_t id_ = 0;
  Priority priority_ = Priority::kNormal;
  FiberScheduler* scheduler_ = nullptr;
  std::function<void()> body_;

  // Saved stack pointer while suspended; stack geometry for sanitizers.
  void* sp_ = nullptr;
  char* stack_base_ = nullptr;  // lowest usable address
  size_t stack_size_ = 0;
  void* stack_slot_ = nullptr;  // pool cookie (returned on finish)

  SwitchReason switch_reason_ = SwitchReason::kNone;
  std::atomic<int> park_state_{kRunning};
  // Bumped on every park entry; stale timers compare epochs before waking.
  std::atomic<uint64_t> park_epoch_{0};

  // Intrusive wait-queue linkage (guarded by the owning queue's spinlock).
  Fiber* wait_next_ = nullptr;
  WaitQueue* wait_queue_ = nullptr;

  void* fls_[kFlsSlots] = {nullptr, nullptr, nullptr, nullptr};

  std::atomic<bool> done_{false};
  WaitQueue join_wq_;
  // A parked fiber may be reachable only through raw intrusive links, so it
  // keeps itself alive until the body returns (reset on finish).
  std::shared_ptr<Fiber> self_keepalive_;

#if defined(__SANITIZE_THREAD__) || defined(RAY_TSAN_FIBERS)
  void* tsan_fiber_ = nullptr;
#endif
#if defined(__SANITIZE_ADDRESS__)
  void* asan_fake_stack_ = nullptr;
#endif
};

// N carrier threads + run queue + timer heap. Construction starts the
// carriers; Shutdown() (or the destructor) drains every spawned fiber and
// joins them. Owners therefore unblock their fibers (close queues, notify
// conditions) before shutting the scheduler down, exactly as they would
// before joining a thread.
class FiberScheduler {
 public:
  explicit FiberScheduler(const SchedulerOptions& options = {});
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  // Creates and enqueues a fiber. Callable from any thread or fiber.
  // Returns nullptr after Shutdown began.
  std::shared_ptr<Fiber> Spawn(std::function<void()> body,
                               Priority priority = Priority::kNormal);

  // Stops accepting spawns, runs every live fiber to completion, joins the
  // carriers. Idempotent.
  void Shutdown();

  // The scheduler whose carrier the calling thread is, or nullptr.
  static FiberScheduler* Current();

  int num_carriers() const;
  // Fibers spawned and not yet finished.
  size_t NumResident() const;
  size_t PeakResident() const;
  // Context switches into fibers (a yield that requeues counts once).
  uint64_t NumSwitches() const;
  // Completed parks: a blocked Get / mailbox wait that suspended a fiber
  // without parking its carrier thread shows up here.
  uint64_t NumParks() const;

 private:
  friend class Fiber;
  friend class WaitQueue;
  friend bool ParkUntil(int64_t);
  friend void Yield();
  friend void ::ray_fiber_entry_trampoline(void*);

  struct Impl;

  // Re-enqueues a runnable fiber (unpark, yield, spawn).
  void Enqueue(Fiber* f);
  // Registers a timer that unparks `f` at `deadline_us` unless its park
  // epoch moved on.
  void AddTimer(int64_t deadline_us, const std::shared_ptr<Fiber>& f, uint64_t epoch);
  // Switches the calling fiber back to its carrier with `reason`.
  static void SwitchOut(Fiber* f, Fiber::SwitchReason reason);

  std::unique_ptr<Impl> impl_;
};

}  // namespace fiber
}  // namespace ray

#endif  // RAY_COMMON_FIBER_H_
