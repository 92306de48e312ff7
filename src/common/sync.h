// Annotated synchronization primitives. This is the only file in src/ that
// may name raw std:: synchronization types; everything else uses the wrappers
// so that two analyses see every lock in the system:
//
//   1. Clang Thread Safety Analysis (Hutchins et al., the capability system
//      used by Abseil and real Ray): Mutex/SharedMutex are CAPABILITY types,
//      the guards are SCOPED_CAPABILITY, and members/functions carry
//      GUARDED_BY / REQUIRES / EXCLUDES annotations. Built with
//      -Wthread-safety -Wthread-safety-beta -Werror under the `tidy` preset;
//      the macros compile away on non-Clang compilers.
//
//   2. The debug-build lock-order checker in common/lockdep.h: every Mutex
//      registers a site id, and acquisitions feed a global order graph that
//      aborts on cycles (potential deadlocks). Compiled out under NDEBUG.
//
// Waiting: CondVar pairs with Mutex. TSA cannot see through predicate
// lambdas, so the wait API is predicate-free — call sites write explicit
// `while (!condition) cv.Wait(mu);` loops in the function that holds the
// lock, where the analysis can check the condition's member accesses.
#ifndef RAY_COMMON_SYNC_H_
#define RAY_COMMON_SYNC_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/clock.h"
#include "common/dst.h"
#include "common/fiber.h"
#include "common/lockdep.h"

// ---------------------------------------------------------------------------
// Thread Safety Analysis macros (no-ops outside Clang).
// ---------------------------------------------------------------------------
#if defined(__clang__) && !defined(SWIG)
#define RAY_TSA_ATTRIBUTE(x) __attribute__((x))
#else
#define RAY_TSA_ATTRIBUTE(x)
#endif

#define CAPABILITY(x) RAY_TSA_ATTRIBUTE(capability(x))
#define SCOPED_CAPABILITY RAY_TSA_ATTRIBUTE(scoped_lockable)
#define GUARDED_BY(x) RAY_TSA_ATTRIBUTE(guarded_by(x))
#define PT_GUARDED_BY(x) RAY_TSA_ATTRIBUTE(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) RAY_TSA_ATTRIBUTE(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) RAY_TSA_ATTRIBUTE(acquired_after(__VA_ARGS__))
#define REQUIRES(...) RAY_TSA_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) RAY_TSA_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) RAY_TSA_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) RAY_TSA_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) RAY_TSA_ATTRIBUTE(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) RAY_TSA_ATTRIBUTE(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) RAY_TSA_ATTRIBUTE(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) RAY_TSA_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  RAY_TSA_ATTRIBUTE(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) RAY_TSA_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) RAY_TSA_ATTRIBUTE(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) RAY_TSA_ATTRIBUTE(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) RAY_TSA_ATTRIBUTE(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS RAY_TSA_ATTRIBUTE(no_thread_safety_analysis)

namespace ray {

// ---------------------------------------------------------------------------
// Mutex: annotated exclusive lock (std::mutex + lockdep site).
// ---------------------------------------------------------------------------
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() { lockdep::Register(&site_, "ray::Mutex"); }
  // Name shows up in lockdep cycle reports; use "Class.member" by convention.
  explicit Mutex(const char* name) { lockdep::Register(&site_, name); }
  ~Mutex() { lockdep::Unregister(&site_); }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    if (dst::OnDstFiber()) {
      // DST: acquisition is a choice point, and contention parks the fiber
      // instead of blocking the single carrier (common/dst.h). No lockdep
      // order check: the carrier's fibers share its held-lock stack, so a
      // fiber would read another fiber's hold as its own. DST reports a lock
      // cycle itself, as a deadlock of all-parked fibers.
      dst::LockAcquire(&mu_, [](void* m) { return static_cast<std::mutex*>(m)->try_lock(); });
    } else {
      lockdep::BeforeAcquire(site_);
      mu_.lock();
    }
    lockdep::AfterAcquire(site_);
  }

  bool TryLock() TRY_ACQUIRE(true) {
    if (mu_.try_lock()) {
      lockdep::AfterTryAcquire(site_);
      return true;
    }
    return false;
  }

  void Unlock() RELEASE() {
    lockdep::OnRelease(site_);
    mu_.unlock();
    if (dst::OnDstFiber()) {
      dst::LockRelease(&mu_);
    }
  }

 private:
  friend class CondVar;
  std::mutex mu_;
  [[no_unique_address]] lockdep::Site site_;
};

// ---------------------------------------------------------------------------
// SharedMutex: annotated reader-writer lock. Lockdep treats shared and
// exclusive acquisitions identically: reader/writer inversions deadlock too.
// ---------------------------------------------------------------------------
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() { lockdep::Register(&site_, "ray::SharedMutex"); }
  explicit SharedMutex(const char* name) { lockdep::Register(&site_, name); }
  ~SharedMutex() { lockdep::Unregister(&site_); }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() {
    if (dst::OnDstFiber()) {  // no order check: see Mutex::Lock
      dst::LockAcquire(&mu_,
                       [](void* m) { return static_cast<std::shared_mutex*>(m)->try_lock(); });
    } else {
      lockdep::BeforeAcquire(site_);
      mu_.lock();
    }
    lockdep::AfterAcquire(site_);
  }

  void Unlock() RELEASE() {
    lockdep::OnRelease(site_);
    mu_.unlock();
    if (dst::OnDstFiber()) {
      dst::LockRelease(&mu_);
    }
  }

  void ReaderLock() ACQUIRE_SHARED() {
    if (dst::OnDstFiber()) {  // no order check: see Mutex::Lock
      dst::LockAcquire(
          &mu_, [](void* m) { return static_cast<std::shared_mutex*>(m)->try_lock_shared(); });
    } else {
      lockdep::BeforeAcquire(site_);
      mu_.lock_shared();
    }
    lockdep::AfterAcquire(site_);
  }

  void ReaderUnlock() RELEASE_SHARED() {
    lockdep::OnRelease(site_);
    mu_.unlock_shared();
    if (dst::OnDstFiber()) {
      dst::LockRelease(&mu_);
    }
  }

 private:
  std::shared_mutex mu_;
  [[no_unique_address]] lockdep::Site site_;
};

// ---------------------------------------------------------------------------
// Scoped guards.
// ---------------------------------------------------------------------------

// Exclusive guard for Mutex; supports early Unlock() and re-Lock() (Clang
// models relockable scoped capabilities).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() {
    if (held_) {
      mu_.Unlock();
    }
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() RELEASE() {
    mu_.Unlock();
    held_ = false;
  }

  void Lock() ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  Mutex& mu_;
  bool held_ = true;
};

// Exclusive guard for SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~WriterMutexLock() RELEASE() {
    if (held_) {
      mu_.Unlock();
    }
  }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

  void Unlock() RELEASE() {
    mu_.Unlock();
    held_ = false;
  }

  void Lock() ACQUIRE() {
    mu_.Lock();
    held_ = true;
  }

 private:
  SharedMutex& mu_;
  bool held_ = true;
};

// Shared (reader) guard for SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.ReaderLock();
  }
  ~ReaderMutexLock() RELEASE() {
    if (held_) {
      mu_.ReaderUnlock();
    }
  }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

  void Unlock() RELEASE() {
    mu_.ReaderUnlock();
    held_ = false;
  }

 private:
  SharedMutex& mu_;
  bool held_ = true;
};

// ---------------------------------------------------------------------------
// CondVar: condition variable bound to ray::Mutex at each wait.
//
// Fiber-aware: a wait on a fiber registers on an intrusive WaitQueue and
// parks the fiber instead of blocking its carrier thread — this single
// branch is what turns every predicate wait in the system (object-store
// Get, actor mailboxes, dispatch queues, GCS commit waits) into a fiber
// suspension point. The waiter links while still holding the mutex, so a
// notify between release and park resolves through the park/permit
// protocol rather than being lost. Notifies wake both native and fiber
// waiters; for the population that wasn't meant, that is an ordinary
// spurious wake absorbed by the predicate loop. Lockdep sees the fiber
// path exactly like the native one: release before the suspension on the
// old carrier, acquire after resume on the (possibly different) new one.
// ---------------------------------------------------------------------------
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // All waits REQUIRE the mutex held and atomically release/reacquire it.
  // Spurious wakeups happen; always wait in a `while (!condition)` loop.
  void Wait(Mutex& mu) REQUIRES(mu) {
    if (fiber::OnFiber()) {
      FiberWait(mu, -1);
      return;
    }
    lockdep::OnRelease(mu.site_);
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
    lockdep::AfterAcquire(mu.site_);
  }

  // Returns false if `timeout` elapsed before a notification (the lock is
  // reacquired either way).
  template <typename Rep, typename Period>
  bool WaitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout) REQUIRES(mu) {
    const int64_t us =
        std::chrono::duration_cast<std::chrono::microseconds>(timeout).count();
    return WaitUntilMicros(mu, NowMicros() + (us > 0 ? us : 0));
  }

  // Returns false if `deadline_us` (NowMicros clock — i.e. the caller's
  // clock domain) passed before a notification. The only timed-wait
  // primitive: deadlines built from raw std::chrono clocks would bypass the
  // hookable clock seam (virtual time, skew domains) that dst relies on.
  bool WaitUntilMicros(Mutex& mu, int64_t deadline_us) REQUIRES(mu) {
    if (fiber::OnFiber()) {
      return FiberWait(mu, deadline_us);
    }
    lockdep::OnRelease(mu.site_);
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    bool notified = false;
    if (dst::TimeHooksActive()) {
      // A native thread cannot wait on virtual/skewed time: wait in short
      // real slices (at most the time left, so a skewed clock still wakes
      // on time) and re-check the hooked deadline between them.
      for (int64_t left = deadline_us - NowMicros(); left > 0;
           left = deadline_us - NowMicros()) {
        if (cv_.wait_for(native, std::chrono::microseconds(std::min<int64_t>(left, 1000))) ==
            std::cv_status::no_timeout) {
          notified = true;
          break;
        }
      }
    } else {
      const int64_t now = NowMicros();
      if (now < deadline_us) {
        notified = cv_.wait_for(native, std::chrono::microseconds(deadline_us - now)) ==
                   std::cv_status::no_timeout;
      }
    }
    native.release();
    lockdep::AfterAcquire(mu.site_);
    return notified;
  }

  void NotifyOne() {
    cv_.notify_one();
    fiber_waiters_.WakeOne();
  }
  void NotifyAll() {
    cv_.notify_all();
    fiber_waiters_.WakeAll();
  }

 private:
  // Returns false on deadline expiry (deadline_us < 0 waits forever).
  bool FiberWait(Mutex& mu, int64_t deadline_us) NO_THREAD_SAFETY_ANALYSIS {
    // TSA justification: release/reacquire of `mu` across the park is the
    // same adopt/release pattern as the native branch; the analysis cannot
    // model the suspension in between.
    //
    // DST: the window between the caller's predicate check and the Link
    // below is exactly where a misordered notify gets lost; surface it as an
    // explicit preemption point (no-op outside DST runs).
    dst::SchedulePoint(dst::kSiteCondWait);
    fiber_waiters_.Link();
    lockdep::OnRelease(mu.site_);
    mu.mu_.unlock();
    if (dst::OnDstFiber()) {
      // Wake fibers parked in dst::LockAcquire on this mutex — the raw
      // unlock above bypasses Mutex::Unlock, and a missed handoff here would
      // read as a (false) deadlock to the explorer.
      dst::LockRelease(&mu.mu_);
    }
    const bool notified = fiber_waiters_.ParkLinked(deadline_us);
    if (dst::OnDstFiber()) {
      // Reacquire cooperatively: a native lock() here would wedge the single
      // DST carrier if another fiber holds the mutex.
      dst::LockAcquire(&mu.mu_,
                       [](void* m) { return static_cast<std::mutex*>(m)->try_lock(); });
    } else {
      mu.mu_.lock();
    }
    lockdep::AfterAcquire(mu.site_);
    return notified;
  }

  std::condition_variable cv_;
  fiber::WaitQueue fiber_waiters_;
};

// ---------------------------------------------------------------------------
// Small waiting helpers built on the annotated primitives.
// ---------------------------------------------------------------------------

class CountDownLatch {
 public:
  explicit CountDownLatch(int count) : count_(count) {}

  void CountDown() {
    MutexLock lock(mu_);
    if (count_ > 0 && --count_ == 0) {
      cv_.NotifyAll();
    }
  }

  void Wait() {
    MutexLock lock(mu_);
    while (count_ != 0) {
      cv_.Wait(mu_);
    }
  }

  bool WaitFor(std::chrono::milliseconds timeout) {
    const int64_t deadline_us = NowMicros() + timeout.count() * 1000;
    MutexLock lock(mu_);
    while (count_ != 0) {
      if (!cv_.WaitUntilMicros(mu_, deadline_us)) {
        return count_ == 0;
      }
    }
    return true;
  }

 private:
  Mutex mu_{"CountDownLatch.mu"};
  CondVar cv_;
  int count_ GUARDED_BY(mu_);
};

class Notification {
 public:
  void Notify() {
    MutexLock lock(mu_);
    notified_ = true;
    cv_.NotifyAll();
  }

  void Wait() {
    MutexLock lock(mu_);
    while (!notified_) {
      cv_.Wait(mu_);
    }
  }

  bool WaitFor(std::chrono::milliseconds timeout) {
    const int64_t deadline_us = NowMicros() + timeout.count() * 1000;
    MutexLock lock(mu_);
    while (!notified_) {
      if (!cv_.WaitUntilMicros(mu_, deadline_us)) {
        return notified_;
      }
    }
    return true;
  }

  bool HasBeenNotified() const {
    MutexLock lock(mu_);
    return notified_;
  }

 private:
  mutable Mutex mu_{"Notification.mu"};
  CondVar cv_;
  bool notified_ GUARDED_BY(mu_) = false;
};

}  // namespace ray

#endif  // RAY_COMMON_SYNC_H_
