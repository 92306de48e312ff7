// Tests for the debug-build lock-order checker (common/lockdep.h) and the
// annotated primitives it instruments (common/sync.h).
//
// In debug builds (RAY_LOCKDEP defined) the checker must:
//   * report a deliberate A->B / B->A inversion, with the recorded stack of
//     the first edge and the stack of the closing acquisition;
//   * report a fiber that parks while holding a lock;
//   * stay silent on consistently-ordered re-acquisition, chains, try-locks,
//     and condvar waits (which release and reacquire the held lock).
//
// In release builds (NDEBUG) the whole subsystem must compile away:
// ray::Mutex is layout-identical to std::mutex and the checker reports
// nothing. scripts/run_checks.sh additionally nm-checks the release binary
// for stray lockdep symbols.

#include "common/sync.h"

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

namespace ray {
namespace {

#ifdef RAY_LOCKDEP

// The cycle handler is a plain function pointer (it must be installable
// before any C++ runtime machinery), so reports land in a global.
std::vector<std::string>& Reports() {
  static std::vector<std::string> reports;
  return reports;
}

void CaptureReport(const std::string& report) { Reports().push_back(report); }

// Installs the capturing handler for one test and restores print-and-abort
// afterwards; snapshots the global cycle counter so tests assert on deltas.
class HandlerScope {
 public:
  HandlerScope() : baseline_(lockdep::NumCyclesReported()) {
    Reports().clear();
    lockdep::SetCycleHandler(&CaptureReport);
  }
  ~HandlerScope() { lockdep::SetCycleHandler(nullptr); }

  uint64_t NewCycles() const { return lockdep::NumCyclesReported() - baseline_; }

 private:
  uint64_t baseline_;
};

TEST(LockdepTest, EnabledInDebugBuilds) { EXPECT_TRUE(lockdep::Enabled()); }

TEST(LockdepTest, DetectsAbBaInversion) {
  HandlerScope scope;
  Mutex a{"lockdep_test.A"};
  Mutex b{"lockdep_test.B"};

  // Establish the order A -> B.
  a.Lock();
  b.Lock();
  b.Unlock();
  a.Unlock();

  // Acquire in the reverse order. Nothing actually deadlocks (both locks are
  // free), but the order graph now has A -> B and we are about to record
  // B -> A: the checker must fire *before* blocking.
  b.Lock();
  a.Lock();
  a.Unlock();
  b.Unlock();

  ASSERT_EQ(scope.NewCycles(), 1u);
  ASSERT_EQ(Reports().size(), 1u);
  const std::string& report = Reports()[0];
  EXPECT_NE(report.find("lock-order inversion"), std::string::npos) << report;
  EXPECT_NE(report.find("lockdep_test.A"), std::string::npos) << report;
  EXPECT_NE(report.find("lockdep_test.B"), std::string::npos) << report;
  // Both acquisition stacks: the recorded A -> B edge and the closing B -> A.
  EXPECT_NE(report.find("previously recorded"), std::string::npos) << report;
  EXPECT_NE(report.find("current acquisition"), std::string::npos) << report;
  // The report carries actual frames for each stack, not just headers.
  size_t first_at = report.find("\" at:\n");
  ASSERT_NE(first_at, std::string::npos) << report;
  EXPECT_NE(report.find("\n      ", first_at), std::string::npos) << report;
}

TEST(LockdepTest, DetectsInversionAcrossThreads) {
  HandlerScope scope;
  Mutex a{"lockdep_test.XA"};
  Mutex b{"lockdep_test.XB"};

  // Thread 1 records A -> B and exits before thread 2 starts, so the test is
  // deterministic and deadlock-free; the edge lives in the global graph.
  std::thread t1([&] {
    MutexLock la(a);
    MutexLock lb(b);
  });
  t1.join();
  std::thread t2([&] {
    MutexLock lb(b);
    MutexLock la(a);
  });
  t2.join();

  EXPECT_EQ(scope.NewCycles(), 1u);
}

TEST(LockdepTest, DetectsTransitiveCycle) {
  HandlerScope scope;
  Mutex a{"lockdep_test.TA"};
  Mutex b{"lockdep_test.TB"};
  Mutex c{"lockdep_test.TC"};

  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    MutexLock lc(c);
  }
  // C -> A closes the 3-cycle A -> B -> C -> A.
  {
    MutexLock lc(c);
    MutexLock la(a);
  }

  ASSERT_EQ(scope.NewCycles(), 1u);
  ASSERT_EQ(Reports().size(), 1u);
  // The report walks the whole recorded path, naming every lock on it.
  const std::string& report = Reports()[0];
  EXPECT_NE(report.find("lockdep_test.TA"), std::string::npos) << report;
  EXPECT_NE(report.find("lockdep_test.TB"), std::string::npos) << report;
  EXPECT_NE(report.find("lockdep_test.TC"), std::string::npos) << report;
}

TEST(LockdepTest, OrderedReacquisitionIsSilent) {
  HandlerScope scope;
  Mutex a{"lockdep_test.OA"};
  Mutex b{"lockdep_test.OB"};
  Mutex c{"lockdep_test.OC"};

  // The same consistent order, many times, nested and chained — never a
  // cycle, never a report.
  for (int i = 0; i < 100; ++i) {
    MutexLock la(a);
    MutexLock lb(b);
    MutexLock lc(c);
  }
  {
    MutexLock la(a);
    MutexLock lc(c);  // skipping B keeps the partial order intact
  }
  EXPECT_EQ(scope.NewCycles(), 0u);
  EXPECT_TRUE(Reports().empty());
}

TEST(LockdepTest, SequentialOppositeOrdersWithoutOverlapAreSilent) {
  HandlerScope scope;
  Mutex a{"lockdep_test.SA"};
  Mutex b{"lockdep_test.SB"};

  // A then B — but A is *released* before B is taken: no edge, no ordering
  // constraint, so the reverse sequence later is fine too.
  a.Lock();
  a.Unlock();
  b.Lock();
  b.Unlock();
  b.Lock();
  b.Unlock();
  a.Lock();
  a.Unlock();
  EXPECT_EQ(scope.NewCycles(), 0u);
}

TEST(LockdepTest, CondVarWaitKeepsHeldStackConsistent) {
  HandlerScope scope;
  Mutex mu{"lockdep_test.CvMu"};
  CondVar cv;
  Mutex other{"lockdep_test.CvOther"};

  {
    MutexLock lock(mu);
    // The wait releases mu (lockdep sees the release) and reacquires it on
    // timeout; afterwards the held stack must contain exactly mu again.
    cv.WaitFor(mu, std::chrono::milliseconds(1));
    MutexLock inner(other);  // records mu -> other, fine
  }
  {
    // Same order again: still silent. If the wait had corrupted the held
    // stack this would record bogus edges.
    MutexLock lock(mu);
    MutexLock inner(other);
  }
  EXPECT_EQ(scope.NewCycles(), 0u);
}

TEST(LockdepTest, TryLockNeverReportsButOrdersSuccessors) {
  HandlerScope scope;
  Mutex a{"lockdep_test.YA"};
  Mutex b{"lockdep_test.YB"};

  {
    MutexLock la(a);
    MutexLock lb(b);
  }
  // A try-lock cannot deadlock, so taking B via TryLock while holding
  // nothing and then A while holding B *is* the reverse order — and the
  // blocking acquisition of A while B is held must still be caught.
  ASSERT_TRUE(b.TryLock());
  a.Lock();
  a.Unlock();
  b.Unlock();
  EXPECT_EQ(scope.NewCycles(), 1u);
}

TEST(LockdepTest, SharedMutexInversionDetected) {
  HandlerScope scope;
  SharedMutex a{"lockdep_test.RWA"};
  Mutex b{"lockdep_test.RWB"};

  {
    ReaderMutexLock la(a);
    MutexLock lb(b);
  }
  {
    MutexLock lb(b);
    WriterMutexLock la(a);  // reader/writer inversions deadlock too
  }
  EXPECT_EQ(scope.NewCycles(), 1u);
}

TEST(LockdepTest, DestroyedLockLeavesNoConstraints) {
  HandlerScope scope;
  Mutex a{"lockdep_test.DA"};
  {
    Mutex b{"lockdep_test.DB"};
    MutexLock la(a);
    MutexLock lb(b);
  }  // b unregistered: its edges are purged
  {
    Mutex b2{"lockdep_test.DB2"};  // fresh id even if same address
    MutexLock lb(b2);
    MutexLock la(a);  // would close a cycle only through the dead b's edges
  }
  EXPECT_EQ(scope.NewCycles(), 0u);
}

// The fiber blocking rule (common/fiber.h): a fiber that parks while holding
// a Mutex is reported; a CondVar wait, which releases its mutex before the
// park, is not.
TEST(LockdepTest, FiberParkWhileHoldingMutexIsReported) {
  HandlerScope scope;
  Mutex held{"lockdep_test.ParkHeld"};
  CondVar cv;
  fiber::SchedulerOptions opts;
  opts.num_carriers = 1;
  fiber::FiberScheduler sched(opts);
  auto waiter = sched.Spawn([&] {
    MutexLock lock(held);
    cv.WaitFor(held, std::chrono::microseconds(100));
  });
  ASSERT_NE(waiter, nullptr);
  waiter->Join();
  EXPECT_TRUE(Reports().empty()) << Reports()[0];

  auto sleeper = sched.Spawn([&] {
    MutexLock lock(held);
    SleepMicros(100);  // parks with `held` on the carrier's held stack
  });
  ASSERT_NE(sleeper, nullptr);
  sleeper->Join();
  ASSERT_EQ(Reports().size(), 1u);
  EXPECT_NE(Reports()[0].find("fiber parks while holding"), std::string::npos) << Reports()[0];
  EXPECT_NE(Reports()[0].find("lockdep_test.ParkHeld"), std::string::npos) << Reports()[0];
  EXPECT_EQ(scope.NewCycles(), 0u);
}

#else  // !RAY_LOCKDEP — release builds

TEST(LockdepTest, DisabledInReleaseBuilds) {
  EXPECT_FALSE(lockdep::Enabled());
  // The site member is [[no_unique_address]] and empty: the annotated wrapper
  // must cost nothing over the raw primitive.
  static_assert(sizeof(Mutex) == sizeof(std::mutex),
                "release ray::Mutex must be layout-identical to std::mutex");
  static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex),
                "release ray::SharedMutex must be layout-identical to std::shared_mutex");

  // Exercising the hooks is legal and free; nothing is ever reported.
  Mutex a{"release.A"};
  Mutex b{"release.B"};
  a.Lock();
  b.Lock();
  b.Unlock();
  a.Unlock();
  b.Lock();
  a.Lock();  // reverse order: no checker to care in release
  a.Unlock();
  b.Unlock();
  EXPECT_EQ(lockdep::NumCyclesReported(), 0u);
}

#endif  // RAY_LOCKDEP

}  // namespace
}  // namespace ray
