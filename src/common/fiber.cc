#include "common/fiber.h"

#if !defined(__x86_64__)
// The switch below is x86-64 System V assembly. Porting = one new register
// frame + entry thunk (see DESIGN.md "Fiber workers"); a silent ucontext
// fallback would hide 10-100x slower switches, so fail loudly instead.
#error "fiber.cc only supports x86-64 System V; port ray_fiber_switch_asm first"
#endif

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/dst.h"
#include "common/logging.h"
#include "common/sync.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

// ---------------------------------------------------------------------------
// Context switch. Callee-saved integer registers + mxcsr/x87 control words
// are the only state the System V ABI requires across a call, so a switch is
// 6 pushes, 2 control-word stores, a stack-pointer swap, and the mirror
// restores — tens of cycles, no syscall, no signal-mask save (the 10-100x
// win over ucontext's swapcontext, which calls sigprocmask twice).
//
// Saved frame, from the saved rsp upward:
//   +0   mxcsr (4 bytes) | x87 fcw (2 bytes) | pad
//   +8   r15   +16 r14   +24 r13   +32 r12   +40 rbx   +48 rbp
//   +56  return address
//
// A new fiber's stack is seeded with this exact frame (InitStack): the
// return address slot holds ray_fiber_entry_asm and the r12 slot holds the
// Fiber*, so the first switch "returns" into the entry thunk, which moves
// r12 into rdi and calls the C++ trampoline. The thunk starts with rsp
// 16-aligned, so the call leaves rsp ≡ 8 (mod 16) at the trampoline's entry
// exactly as an ordinary call would.
// ---------------------------------------------------------------------------
asm(".text\n"
    ".align 16\n"
    ".globl ray_fiber_switch_asm\n"
    ".hidden ray_fiber_switch_asm\n"
    ".type ray_fiber_switch_asm,@function\n"
    "ray_fiber_switch_asm:\n"
    "  pushq %rbp\n"
    "  pushq %rbx\n"
    "  pushq %r12\n"
    "  pushq %r13\n"
    "  pushq %r14\n"
    "  pushq %r15\n"
    "  subq $8, %rsp\n"
    "  stmxcsr (%rsp)\n"
    "  fnstcw 4(%rsp)\n"
    "  movq %rsp, (%rdi)\n"  // *save_sp = rsp
    "  movq %rsi, %rsp\n"    // rsp = restore_sp
    "  ldmxcsr (%rsp)\n"
    "  fldcw 4(%rsp)\n"
    "  addq $8, %rsp\n"
    "  popq %r15\n"
    "  popq %r14\n"
    "  popq %r13\n"
    "  popq %r12\n"
    "  popq %rbx\n"
    "  popq %rbp\n"
    "  retq\n"
    ".size ray_fiber_switch_asm,.-ray_fiber_switch_asm\n"
    ".align 16\n"
    ".globl ray_fiber_entry_asm\n"
    ".hidden ray_fiber_entry_asm\n"
    ".type ray_fiber_entry_asm,@function\n"
    "ray_fiber_entry_asm:\n"
    "  movq %r12, %rdi\n"
    "  callq ray_fiber_entry_trampoline\n"
    "  ud2\n"  // trampoline never returns
    ".size ray_fiber_entry_asm,.-ray_fiber_entry_asm\n");

extern "C" void ray_fiber_switch_asm(void** save_sp, void* restore_sp);
extern "C" void ray_fiber_entry_asm();
extern "C" void ray_fiber_entry_trampoline(void* fiber);

namespace ray {
namespace fiber {

namespace {

size_t PageSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

size_t RoundUpToPage(size_t bytes) {
  const size_t page = PageSize();
  return (bytes + page - 1) / page * page;
}

constexpr size_t kDefaultStackBytes = 64 * 1024;
// Sanitizer redzones/fake frames inflate stack usage several-fold.
constexpr size_t kSanitizerStackBytes = 256 * 1024;
constexpr size_t kSlotsPerSlab = 256;
// With guard pages on, only the first kMaxGuardedStacks stacks get one: each
// guard costs two VMAs, a bounded budget against vm.max_map_count.
constexpr size_t kMaxGuardedStacks = 8192;

// ---------------------------------------------------------------------------
// Per-carrier-thread state. tl_carrier identifies the carrier a fiber is
// *currently* running on; fiber-side code may read it only before a switch
// (after resuming, the fiber may be on a different carrier, and any cached
// reference would point at the old thread's TLS).
// ---------------------------------------------------------------------------
struct CarrierState {
  FiberScheduler* scheduler = nullptr;
  Fiber* current = nullptr;
  void* carrier_sp = nullptr;  // saved carrier context while a fiber runs
#if defined(__SANITIZE_ADDRESS__)
  void* asan_fake_stack = nullptr;
  const void* stack_bottom = nullptr;
  size_t stack_size = 0;
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan_fiber = nullptr;  // the carrier's own TSan context
#endif
};

thread_local CarrierState tl_carrier;
thread_local void* tl_fls_fallback[kFlsSlots] = {nullptr, nullptr, nullptr, nullptr};

}  // namespace

// ---------------------------------------------------------------------------
// StackPool: fiber stacks carved from large MAP_NORESERVE slabs. Pages
// commit lazily on first touch, so an idle fiber costs roughly one resident
// page; a whole slab is two VMAs (or 2-per-slot while the guard budget
// lasts), which keeps 100k fibers far under vm.max_map_count (65530 default)
// where per-fiber mmap could not go. Freed slots are MADV_DONTNEED'd so a
// create/destroy churn of fibers does not ratchet RSS, and are reused LIFO.
// ---------------------------------------------------------------------------
class StackPool {
 public:
  struct Slot {
    char* base = nullptr;  // lowest usable byte (above the guard page)
    size_t size = 0;
    void* cookie = nullptr;
  };

  void Init(size_t stack_bytes, bool guard_pages) {
    stack_bytes_ = RoundUpToPage(stack_bytes);
    guard_pages_ = guard_pages;
    stride_ = stack_bytes_ + PageSize();  // always reserve the guard slot
  }

  Slot Acquire() {
    MutexLock lock(mu_);
    if (free_.empty()) {
      CarveSlab();
    }
    Slot s = free_.back();
    free_.pop_back();
    return s;
  }

  void Release(const Slot& s) {
    // Return the committed pages to the kernel; the virtual range stays
    // mapped and is recycled by the next Acquire.
    madvise(s.base, s.size, MADV_DONTNEED);
    MutexLock lock(mu_);
    free_.push_back(s);
  }

  ~StackPool() {
    for (const auto& [addr, len] : slabs_) {
      munmap(addr, len);
    }
  }

 private:
  void CarveSlab() REQUIRES(mu_) {
    const size_t len = stride_ * kSlotsPerSlab;
    void* addr = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    RAY_CHECK(addr != MAP_FAILED) << "fiber stack slab mmap(" << len << ") failed";
    slabs_.emplace_back(addr, len);
    char* p = static_cast<char*>(addr);
    for (size_t i = 0; i < kSlotsPerSlab; ++i) {
      char* slot_start = p + i * stride_;
      if (guard_pages_ && guarded_ < kMaxGuardedStacks) {
        RAY_CHECK(mprotect(slot_start, PageSize(), PROT_NONE) == 0);
        ++guarded_;
      }
      Slot s;
      s.base = slot_start + PageSize();
      s.size = stack_bytes_;
      s.cookie = slot_start;
      free_.push_back(s);
    }
  }

  Mutex mu_{"StackPool.mu"};
  std::vector<Slot> free_ GUARDED_BY(mu_);
  std::vector<std::pair<void*, size_t>> slabs_ GUARDED_BY(mu_);
  size_t stack_bytes_ = 0;
  size_t stride_ = 0;
  bool guard_pages_ = false;
  size_t guarded_ GUARDED_BY(mu_) = 0;
};

// ---------------------------------------------------------------------------
// FiberScheduler::Impl
// ---------------------------------------------------------------------------
struct FiberScheduler::Impl {
  SchedulerOptions opts;
  FiberScheduler* self = nullptr;

  Mutex queue_mu{"FiberScheduler.queue_mu"};
  CondVar queue_cv;
  std::deque<Fiber*> runq[kNumPriorities] GUARDED_BY(queue_mu);
  struct TimerEntry {
    int64_t deadline_us;
    std::shared_ptr<Fiber> fiber;
    uint64_t epoch;
    bool operator>(const TimerEntry& o) const { return deadline_us > o.deadline_us; }
  };
  // Min-heap by deadline (std::push_heap/pop_heap with greater<>).
  std::vector<TimerEntry> timers GUARDED_BY(queue_mu);
  bool stop GUARDED_BY(queue_mu) = false;

  std::vector<std::thread> carriers;
  bool joined = false;  // Shutdown completed (owner-thread only)

  // Fibers parked on plain WaitQueues are reachable only through raw
  // intrusive links, so every live fiber keeps itself alive via
  // self_keepalive until its body returns.
  std::atomic<uint64_t> next_id{1};
  std::atomic<size_t> resident{0};
  std::atomic<size_t> peak_resident{0};
  std::atomic<uint64_t> switches{0};
  std::atomic<uint64_t> parks{0};

  Mutex join_mu{"FiberScheduler.join_mu"};
  CondVar join_cv;
  std::atomic<int> os_join_waiters{0};

  StackPool stacks;

  void CarrierMain();
  void DstCarrierMain();
  void SetupCarrier(CarrierState& cs);
  void RunFiber(Fiber* f);
  void FinishFiber(Fiber* f);
  void InitStack(Fiber* f);
};

namespace {

// Seeds a fresh stack with the saved frame the switch restores (layout in
// the asm comment above). The control-word slot is copied from the spawning
// thread — restoring zeros would unmask every SSE exception.
void PlantInitialFrame(Fiber* f, char* stack_base, size_t stack_size, void** out_sp) {
  uintptr_t top = reinterpret_cast<uintptr_t>(stack_base + stack_size) & ~uintptr_t{15};
  char* sp = reinterpret_cast<char*>(top) - 80;
  std::memset(sp, 0, 80);
  uint32_t mxcsr;
  uint16_t fcw;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  std::memcpy(sp, &mxcsr, sizeof(mxcsr));
  std::memcpy(sp + 4, &fcw, sizeof(fcw));
  void* arg = f;  // r12 slot: the entry thunk moves it into rdi
  std::memcpy(sp + 32, &arg, sizeof(arg));
  void* entry = reinterpret_cast<void*>(&ray_fiber_entry_asm);
  std::memcpy(sp + 56, &entry, sizeof(entry));
  *out_sp = sp;
}

}  // namespace

// ---------------------------------------------------------------------------
// Free functions.
// ---------------------------------------------------------------------------

bool OnFiber() { return tl_carrier.current != nullptr; }

Fiber* CurrentFiber() { return tl_carrier.current; }

uint64_t CurrentId() {
  Fiber* f = tl_carrier.current;
  return f != nullptr ? f->id() : 0;
}

void* GetFls(int slot) {
  Fiber* f = tl_carrier.current;
  return f != nullptr ? f->fls_[slot] : tl_fls_fallback[slot];
}

void SetFls(int slot, void* value) {
  Fiber* f = tl_carrier.current;
  if (f != nullptr) {
    f->fls_[slot] = value;
  } else {
    tl_fls_fallback[slot] = value;
  }
}

void Yield() {
  Fiber* f = tl_carrier.current;
  if (f == nullptr) {
    std::this_thread::yield();
    return;
  }
  FiberScheduler::SwitchOut(f, Fiber::SwitchReason::kYield);
}

bool ParkUntil(int64_t deadline_us) {
  Fiber* f = tl_carrier.current;
  RAY_CHECK(f != nullptr) << "ParkUntil off-fiber";
  if (!dst::OnDstCarrier()) {
    // The blocking rule (fiber.h). DST fibers are exempt: their cooperative
    // lock acquisition parks while holding outer locks by design.
    lockdep::BeforePark();
  }
  uint64_t epoch = f->park_epoch_.fetch_add(1) + 1;
  int st = Fiber::kRunning;
  if (!f->park_state_.compare_exchange_strong(st, Fiber::kParking)) {
    // A permit was banked by an earlier Unpark; consume it and return
    // (possibly spuriously — callers re-check their condition).
    RAY_CHECK(st == Fiber::kPermit) << "park from state " << st;
    f->park_state_.store(Fiber::kRunning);
    return true;
  }
  if (deadline_us >= 0) {
    if (NowMicros() >= deadline_us) {
      int expected = Fiber::kParking;
      if (f->park_state_.compare_exchange_strong(expected, Fiber::kRunning)) {
        return false;
      }
      // An unparker upgraded us to kPermit in the window: count as woken.
      f->park_state_.store(Fiber::kRunning);
      return true;
    }
    // The timer heap runs on the base clock; the caller's deadline is on its
    // clock domain (identity unless dst time hooks are active).
    f->scheduler_->AddTimer(dst::ToBaseDeadlineMicros(deadline_us), f->shared_from_this(),
                            epoch);
  }
  FiberScheduler::SwitchOut(f, Fiber::SwitchReason::kPark);
  return !(deadline_us >= 0 && NowMicros() >= deadline_us);
}

void SleepUs(int64_t us) {
  if (us <= 0) {
    return;
  }
  const int64_t deadline = NowMicros() + us;
  while (NowMicros() < deadline) {
    ParkUntil(deadline);
  }
}

// ---------------------------------------------------------------------------
// WaitQueue.
// ---------------------------------------------------------------------------

void WaitQueue::Link() {
  Fiber* f = tl_carrier.current;
  RAY_CHECK(f != nullptr) << "WaitQueue::Link off-fiber";
  RAY_CHECK(f->wait_queue_ == nullptr) << "fiber already linked";
  lock_.lock();
  f->wait_queue_ = this;
  f->wait_next_ = nullptr;
  if (tail_ != nullptr) {
    tail_->wait_next_ = f;
  } else {
    head_ = f;
  }
  tail_ = f;
  lock_.unlock();
}

Fiber* WaitQueue::PopLocked() {
  Fiber* f = head_;
  if (f != nullptr) {
    head_ = f->wait_next_;
    if (head_ == nullptr) {
      tail_ = nullptr;
    }
    f->wait_next_ = nullptr;
    f->wait_queue_ = nullptr;
  }
  return f;
}

void WaitQueue::CancelLink() {
  Fiber* f = tl_carrier.current;
  RAY_CHECK(f != nullptr);
  lock_.lock();
  if (f->wait_queue_ == this) {
    Fiber* prev = nullptr;
    for (Fiber* it = head_; it != nullptr; prev = it, it = it->wait_next_) {
      if (it == f) {
        (prev != nullptr ? prev->wait_next_ : head_) = f->wait_next_;
        if (tail_ == f) {
          tail_ = prev;
        }
        break;
      }
    }
    f->wait_next_ = nullptr;
    f->wait_queue_ = nullptr;
  }
  lock_.unlock();
}

bool WaitQueue::ParkLinked(int64_t deadline_us) {
  Fiber* f = tl_carrier.current;
  RAY_CHECK(f != nullptr);
  for (;;) {
    ParkUntil(deadline_us);
    // Decide why we woke: popped by a Wake (off-queue) means success; still
    // linked past the deadline means timeout (unlink ourselves); still
    // linked early is a spurious wake (stale permit/timer) — park again.
    lock_.lock();
    const bool linked = (f->wait_queue_ == this);
    if (!linked) {
      lock_.unlock();
      return true;
    }
    if (deadline_us >= 0 && NowMicros() >= deadline_us) {
      lock_.unlock();
      CancelLink();
      return false;
    }
    lock_.unlock();
  }
}

void WaitQueue::WakeOne() {
  // Hold a strong ref across the Unpark: once unlinked, the fiber can win
  // the race, finish, and drop its self-keepalive before we touch it.
  std::shared_ptr<Fiber> target;
  lock_.lock();
  if (dst::OnDstCarrier() && head_ != nullptr && head_->wait_next_ != nullptr) {
    // DST: the wake victim is a scheduling decision, not FIFO position.
    constexpr uint32_t kMaxWakeCandidates = 64;  // scenario queues stay small
    uint32_t n = 0;
    uint64_t ids[kMaxWakeCandidates];
    for (Fiber* it = head_; it != nullptr && n < kMaxWakeCandidates; it = it->wait_next_) {
      ids[n++] = it->id();
    }
    uint32_t k = dst::Choice(dst::ChoiceKind::kWakeOne, dst::kSiteWakeOne, n, ids);
    Fiber* prev = nullptr;
    Fiber* victim = head_;
    while (k-- > 0) {
      prev = victim;
      victim = victim->wait_next_;
    }
    (prev != nullptr ? prev->wait_next_ : head_) = victim->wait_next_;
    if (tail_ == victim) {
      tail_ = prev;
    }
    victim->wait_next_ = nullptr;
    victim->wait_queue_ = nullptr;
    target = victim->shared_from_this();
    lock_.unlock();
    target->Unpark();
    return;
  }
  Fiber* f = PopLocked();
  if (f != nullptr) {
    target = f->shared_from_this();
  }
  lock_.unlock();
  if (target != nullptr) {
    target->Unpark();
  }
}

void WaitQueue::WakeAll() {
  std::vector<std::shared_ptr<Fiber>> targets;
  lock_.lock();
  for (Fiber* f = PopLocked(); f != nullptr; f = PopLocked()) {
    targets.push_back(f->shared_from_this());
  }
  lock_.unlock();
  for (const auto& f : targets) {
    f->Unpark();
  }
}

// ---------------------------------------------------------------------------
// Fiber.
// ---------------------------------------------------------------------------

Fiber::~Fiber() = default;

void Fiber::Unpark() {
  for (;;) {
    int st = park_state_.load();
    if (st == kParked) {
      if (park_state_.compare_exchange_weak(st, kRunning)) {
        scheduler_->Enqueue(this);
        return;
      }
    } else if (st == kParking || st == kRunning) {
      if (park_state_.compare_exchange_weak(st, kPermit)) {
        return;
      }
    } else {  // kPermit: already banked
      return;
    }
  }
}

void Fiber::Join() {
  if (done()) {
    return;
  }
  if (OnFiber()) {
    Fiber* self = CurrentFiber();
    RAY_CHECK(self != this) << "fiber joining itself";
    while (!done()) {
      join_wq_.Link();
      if (done()) {
        // The finisher's WakeAll may have run before our Link; its done
        // store is visible through the queue's lock, so re-check.
        join_wq_.CancelLink();
        return;
      }
      join_wq_.ParkLinked(-1);
    }
    return;
  }
  FiberScheduler::Impl& im = *scheduler_->impl_;
  im.os_join_waiters.fetch_add(1);
  {
    MutexLock lock(im.join_mu);
    while (!done()) {
      // Timed re-check keeps a lost notify from wedging the joiner.
      im.join_cv.WaitFor(im.join_mu, std::chrono::milliseconds(50));
    }
  }
  im.os_join_waiters.fetch_sub(1);
}

// ---------------------------------------------------------------------------
// Carrier loop and switching.
// ---------------------------------------------------------------------------

void FiberScheduler::SwitchOut(Fiber* f, Fiber::SwitchReason reason) {
  f->switch_reason_ = reason;
  // tl_carrier must not be touched after the switch: the fiber may resume
  // on a different carrier thread.
  CarrierState& cs = tl_carrier;
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(cs.tsan_fiber, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
  // On exit, pass nullptr so ASan releases this stack's fake frames.
  __sanitizer_start_switch_fiber(
      reason == Fiber::SwitchReason::kDone ? nullptr : &f->asan_fake_stack_, cs.stack_bottom,
      cs.stack_size);
#endif
  ray_fiber_switch_asm(&f->sp_, cs.carrier_sp);
  // Resumed (kYield/kPark only), possibly on a different carrier.
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(f->asan_fake_stack_, nullptr, nullptr);
#endif
}

void FiberScheduler::Impl::RunFiber(Fiber* f) {
  CarrierState& cs = tl_carrier;
  cs.current = f;
  switches.fetch_add(1, std::memory_order_relaxed);
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(f->tsan_fiber_, 0);
#endif
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_start_switch_fiber(&cs.asan_fake_stack, f->stack_base_, f->stack_size_);
#endif
  ray_fiber_switch_asm(&cs.carrier_sp, f->sp_);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(cs.asan_fake_stack, nullptr, nullptr);
#endif
  cs.current = nullptr;
  switch (f->switch_reason_) {
    case Fiber::SwitchReason::kYield:
      self->Enqueue(f);
      break;
    case Fiber::SwitchReason::kPark: {
      parks.fetch_add(1, std::memory_order_relaxed);
      int st = Fiber::kParking;
      if (!f->park_state_.compare_exchange_strong(st, Fiber::kParked)) {
        // An Unpark landed while the fiber was mid-switch (kPermit): its
        // stack is off the carrier now, so it is safe to requeue directly.
        RAY_CHECK(st == Fiber::kPermit);
        f->park_state_.store(Fiber::kRunning);
        self->Enqueue(f);
      }
      break;
    }
    case Fiber::SwitchReason::kDone:
      FinishFiber(f);
      break;
    case Fiber::SwitchReason::kNone:
      RAY_LOG(FATAL) << "fiber " << f->id() << " switched out without a reason";
  }
}

void FiberScheduler::Impl::FinishFiber(Fiber* f) {
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(f->tsan_fiber_);
  f->tsan_fiber_ = nullptr;
#endif
  StackPool::Slot slot;
  slot.base = f->stack_base_;
  slot.size = f->stack_size_;
  slot.cookie = f->stack_slot_;
  stacks.Release(slot);
  f->stack_base_ = nullptr;
  f->stack_slot_ = nullptr;
  f->sp_ = nullptr;
  resident.fetch_sub(1);
  // done (seq_cst) before the wakeups: a joiner that Links after our WakeAll
  // observes done=true through the queue lock and never parks.
  f->done_.store(true);
  f->join_wq_.WakeAll();
  if (os_join_waiters.load() > 0) {
    // Empty critical section: order the notify after the waiter's check.
    { MutexLock lock(join_mu); }
    join_cv.NotifyAll();
  }
  bool notify_idle = false;
  {
    MutexLock lock(queue_mu);
    notify_idle = stop;
  }
  if (notify_idle) {
    // Drain accounting: idle carriers re-check the exit condition.
    queue_cv.NotifyAll();
  }
  f->self_keepalive_.reset();  // may destroy *f — must be the last access
}

void FiberScheduler::Impl::SetupCarrier(CarrierState& cs) {
  cs.scheduler = self;
#if defined(__SANITIZE_THREAD__)
  cs.tsan_fiber = __tsan_get_current_fiber();
#endif
#if defined(__SANITIZE_ADDRESS__)
  {
    pthread_attr_t attr;
    RAY_CHECK(pthread_getattr_np(pthread_self(), &attr) == 0);
    void* addr = nullptr;
    size_t size = 0;
    RAY_CHECK(pthread_attr_getstack(&attr, &addr, &size) == 0);
    pthread_attr_destroy(&attr);
    cs.stack_bottom = addr;
    cs.stack_size = size;
  }
#endif
}

void FiberScheduler::Impl::CarrierMain() {
  CarrierState& cs = tl_carrier;
  SetupCarrier(cs);
  std::vector<TimerEntry> due;
  for (;;) {
    Fiber* next = nullptr;
    due.clear();
    {
      MutexLock lock(queue_mu);
      for (;;) {
        const int64_t now = NowMicros();
        while (!timers.empty() && timers.front().deadline_us <= now) {
          std::pop_heap(timers.begin(), timers.end(), std::greater<>());
          due.push_back(std::move(timers.back()));
          timers.pop_back();
        }
        if (!due.empty()) {
          break;  // fire outside the lock (Unpark re-enters Enqueue)
        }
        for (auto& q : runq) {
          if (!q.empty()) {
            next = q.front();
            q.pop_front();
            break;
          }
        }
        if (next != nullptr) {
          break;
        }
        if (stop && resident.load() == 0) {
          return;
        }
        if (timers.empty()) {
          // Bounded wait: a lost wakeup degrades to 100ms latency, not a hang.
          queue_cv.WaitFor(queue_mu, std::chrono::milliseconds(100));
        } else {
          const int64_t wait_us = std::max<int64_t>(1, timers.front().deadline_us - now);
          queue_cv.WaitFor(queue_mu, std::chrono::microseconds(wait_us));
        }
      }
    }
    for (TimerEntry& t : due) {
      // A fiber that re-parked since bumps its epoch; skip such stale timers.
      if (t.fiber->park_epoch_.load() == t.epoch) {
        t.fiber->Unpark();
      }
      t.fiber.reset();
    }
    if (next != nullptr) {
      RunFiber(next);
    }
  }
}

// Single-carrier, strategy-driven variant (common/dst.h). Differences from
// CarrierMain: the runnable pick flattens the priority queues through a
// kPickFiber choice, due-timer firing order is a kTimerOrder choice, timers
// advance the virtual clock instead of sleeping, and the loop detects
// deadlock (all fibers parked, no timers) and livelock (step budget),
// abandoning the run so the driver can harvest the failure.
void FiberScheduler::Impl::DstCarrierMain() {
  CarrierState& cs = tl_carrier;
  SetupCarrier(cs);
  dst::BindDstCarrier(true);
  std::vector<TimerEntry> due;
  std::vector<uint64_t> candidates;
  bool exit = false;
  while (!exit && !dst::RunAborted()) {
    Fiber* next = nullptr;
    due.clear();
    {
      MutexLock lock(queue_mu);
      for (;;) {
        const int64_t now = NowMicros();  // carrier = domain 0 = virtual base
        while (!timers.empty() && timers.front().deadline_us <= now) {
          std::pop_heap(timers.begin(), timers.end(), std::greater<>());
          due.push_back(std::move(timers.back()));
          timers.pop_back();
        }
        if (!due.empty()) {
          break;
        }
        const size_t runnable = runq[0].size() + runq[1].size() + runq[2].size();
        if (runnable > 0) {
          candidates.clear();
          for (const auto& q : runq) {
            for (Fiber* f : q) {
              candidates.push_back(f->id());
            }
          }
          uint32_t k = dst::Choice(dst::ChoiceKind::kPickFiber, dst::kSiteRunqPick,
                                   static_cast<uint32_t>(runnable), candidates.data());
          for (auto& q : runq) {
            if (k < q.size()) {
              next = q[k];
              q.erase(q.begin() + k);
              break;
            }
            k -= static_cast<uint32_t>(q.size());
          }
          break;
        }
        if (stop && resident.load() == 0) {
          exit = true;
          break;
        }
        if (!timers.empty()) {
          // Nothing runnable: discrete-event jump to the next deadline.
          dst::AdvanceVirtualBaseTo(timers.front().deadline_us);
          continue;
        }
        if (resident.load() > 0 && dst::RunActive()) {
          lock.Unlock();
          dst::ReportDeadlock(resident.load());
          exit = true;
          break;
        }
        // Idle: waiting for RunOnce's root spawn or Shutdown, both of
        // which change the state checked above under queue_mu and notify.
        // Untimed: a timed wait here would wait on the frozen virtual clock
        // in real slices, and a notify landing while a slice's timeout is
        // reacquiring queue_mu would be lost for good.
        queue_cv.Wait(queue_mu);
      }
    }
    while (!due.empty()) {
      const uint32_t k = dst::Choice(dst::ChoiceKind::kTimerOrder, dst::kSiteTimerFire,
                                     static_cast<uint32_t>(due.size()), nullptr);
      TimerEntry t = std::move(due[k]);
      due.erase(due.begin() + k);
      if (t.fiber->park_epoch_.load() == t.epoch) {
        t.fiber->Unpark();
      }
      t.fiber.reset();
    }
    if (next != nullptr) {
      if (!dst::ConsumeStep()) {
        break;
      }
      RunFiber(next);
    }
  }
  dst::BindDstCarrier(false);
}

// ---------------------------------------------------------------------------
// FiberScheduler.
// ---------------------------------------------------------------------------

FiberScheduler::FiberScheduler(const SchedulerOptions& options) : impl_(new Impl()) {
  Impl& im = *impl_;
  im.opts = options;
  im.self = this;
  if (im.opts.dst_mode) {
    // Systematic exploration owns all interleaving: exactly one carrier.
    im.opts.num_carriers = 1;
  } else if (im.opts.num_carriers <= 0) {
    im.opts.num_carriers =
        std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  }
  if (im.opts.stack_bytes == 0) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    im.opts.stack_bytes = kSanitizerStackBytes;
#else
    im.opts.stack_bytes = kDefaultStackBytes;
#endif
  }
  im.stacks.Init(im.opts.stack_bytes, im.opts.guard_pages);
  im.carriers.reserve(im.opts.num_carriers);
  for (int i = 0; i < im.opts.num_carriers; ++i) {
    im.carriers.emplace_back([this] {
      if (impl_->opts.dst_mode) {
        impl_->DstCarrierMain();
      } else {
        impl_->CarrierMain();
      }
    });
  }
}

FiberScheduler::~FiberScheduler() { Shutdown(); }

void FiberScheduler::Shutdown() {
  Impl& im = *impl_;
  if (im.joined) {
    return;
  }
  {
    // Notify under queue_mu: with time hooks active, a carrier's timed wait
    // (CondVar::WaitUntilMicros) re-waits between real slices without
    // re-checking `stop`, and a notify sent after the unlock can fall
    // between two slices and be lost.
    MutexLock lock(im.queue_mu);
    im.stop = true;
    im.queue_cv.NotifyAll();
  }
  for (std::thread& t : im.carriers) {
    t.join();
  }
  im.carriers.clear();
  im.joined = true;
}

std::shared_ptr<Fiber> FiberScheduler::Spawn(std::function<void()> body, Priority priority) {
  Impl& im = *impl_;
  RAY_CHECK(body != nullptr);
  std::shared_ptr<Fiber> f(new Fiber());
  f->id_ = im.next_id.fetch_add(1, std::memory_order_relaxed);
  f->priority_ = priority;
  f->scheduler_ = this;
  f->body_ = std::move(body);
  StackPool::Slot slot = im.stacks.Acquire();
  f->stack_base_ = slot.base;
  f->stack_size_ = slot.size;
  f->stack_slot_ = slot.cookie;
  PlantInitialFrame(f.get(), f->stack_base_, f->stack_size_, &f->sp_);
#if defined(__SANITIZE_THREAD__)
  f->tsan_fiber_ = __tsan_create_fiber(0);
#endif
  f->self_keepalive_ = f;
  {
    MutexLock lock(im.queue_mu);
    if (im.stop) {
      lock.Unlock();
      im.stacks.Release(slot);
      f->self_keepalive_.reset();
#if defined(__SANITIZE_THREAD__)
      __tsan_destroy_fiber(f->tsan_fiber_);
      f->tsan_fiber_ = nullptr;
#endif
      return nullptr;
    }
    const size_t now_resident = im.resident.fetch_add(1) + 1;
    size_t peak = im.peak_resident.load(std::memory_order_relaxed);
    while (now_resident > peak &&
           !im.peak_resident.compare_exchange_weak(peak, now_resident)) {
    }
    im.runq[static_cast<int>(priority)].push_back(f.get());
    im.queue_cv.NotifyOne();  // under queue_mu, as in Shutdown
  }
  return f;
}

void FiberScheduler::Enqueue(Fiber* f) {
  Impl& im = *impl_;
  {
    MutexLock lock(im.queue_mu);
    im.runq[static_cast<int>(f->priority_)].push_back(f);
  }
  im.queue_cv.NotifyOne();
}

void FiberScheduler::AddTimer(int64_t deadline_us, const std::shared_ptr<Fiber>& f,
                              uint64_t epoch) {
  Impl& im = *impl_;
  {
    MutexLock lock(im.queue_mu);
    im.timers.push_back(Impl::TimerEntry{deadline_us, f, epoch});
    std::push_heap(im.timers.begin(), im.timers.end(), std::greater<>());
  }
  // An idle carrier may need to shorten its wait to this deadline.
  im.queue_cv.NotifyOne();
}

FiberScheduler* FiberScheduler::Current() { return tl_carrier.scheduler; }

int FiberScheduler::num_carriers() const { return impl_->opts.num_carriers; }
size_t FiberScheduler::NumResident() const { return impl_->resident.load(); }
size_t FiberScheduler::PeakResident() const { return impl_->peak_resident.load(); }
uint64_t FiberScheduler::NumSwitches() const { return impl_->switches.load(); }
uint64_t FiberScheduler::NumParks() const { return impl_->parks.load(); }

}  // namespace fiber
}  // namespace ray

// Global scope: must match the ::ray_fiber_entry_trampoline friend
// declaration in fiber.h. First (and only) frame on every fiber stack.
extern "C" void ray_fiber_entry_trampoline(void* arg) {
  auto* f = static_cast<ray::fiber::Fiber*>(arg);
#if defined(__SANITIZE_ADDRESS__)
  // First landing on this stack: complete the switch the carrier started.
  __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
  f->body_();
  f->body_ = nullptr;  // run capture destructors while the fiber is still live
  ray::fiber::FiberScheduler::SwitchOut(f, ray::fiber::Fiber::SwitchReason::kDone);
  __builtin_unreachable();
}
