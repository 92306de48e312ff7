// Deterministic-schedule testing (common/dst.h) harness: scenario models of
// the concurrency protocols this repo has already shipped bugs in (mailbox
// notify ordering, pull-manager dedup, lease revocation, reconstruction vs
// lineage GC), explored under seeded interleaving search with virtual time.
//
// The regression centerpiece re-introduces the PR-5 notify-ordering bug
// behind RAY_DST_SEEDED_BUG (compiled into this binary only — the production
// header never carries the bug) and asserts the explorer finds it within a
// bounded schedule budget, that replaying the failing trace reproduces it
// bit-identically, and that minimization strictly shrinks the schedule.
//
// RAY_DST_SINGLE_SEED=1 (the TSan/ASan gates) skips exploration-heavy cases
// and keeps only single-seed scenarios that drain cleanly — abandoned
// (deadlocked) runs intentionally leak their parked fibers, which a leak
// checker would report. RAY_DST_SCHEDULES scales exploration budgets
// (scripts/run_dst.sh full mode raises it for the nightly bar).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/dst.h"
#include "common/queue.h"
#include "common/sync.h"

namespace ray {
namespace {

bool SingleSeedMode() { return std::getenv("RAY_DST_SINGLE_SEED") != nullptr; }

int BudgetEnv(int fallback) {
  if (const char* env = std::getenv("RAY_DST_SCHEDULES"); env != nullptr) {
    return static_cast<int>(std::strtol(env, nullptr, 10));
  }
  return fallback;
}

dst::Options QuickOpts(int schedules) {
  dst::Options opts;
  opts.max_schedules = BudgetEnv(schedules);
  opts.base_seed = 1;
  return opts;
}

// ---------------------------------------------------------------------------
// Mini mailbox: a faithful copy of the actor-mailbox push/pop protocol, small
// enough that the seeded bug can live in this test binary (compiling an
// #ifdef'd bug into the production header would be an ODR hazard between
// this binary and every other test).
//
// The buggy Push signals before publishing the item, outside the lock — the
// PR-5 notify-ordering bug. The lost wakeup needs the consumer preempted
// between its empty-check and linking onto the wait queue; the explicit
// kSiteCondWait preemption point inside CondVar::FiberWait is exactly that
// window, so the explorer can schedule:
//   consumer: lock, sees empty, [preempted pre-link]
//   producer: NotifyOne (wait queue empty — signal lost), push, done
//   consumer: links, parks — forever. Surfaces as an all-parked deadlock.
// ---------------------------------------------------------------------------
struct MiniMailbox {
  Mutex mu;
  CondVar cv;
  std::deque<int> items;

  void Push(int v) {
    MutexLock lock(mu);
    items.push_back(v);
    cv.NotifyOne();
  }

  void PushBuggy(int v) {
#ifdef RAY_DST_SEEDED_BUG
    cv.NotifyOne();  // signal-before-publish: the seeded lost-wakeup bug
    MutexLock lock(mu);
    items.push_back(v);
#else
    Push(v);
#endif
  }

  int Pop() {
    MutexLock lock(mu);
    while (items.empty()) {
      cv.Wait(mu);
    }
    int v = items.front();
    items.pop_front();
    return v;
  }
};

void MailboxScenario(bool buggy) {
  auto box = std::make_shared<MiniMailbox>();
  dst::Go([box] {
    const int v = box->Pop();
    dst::Check(v == 42, "popped wrong value");
  });
  dst::Go([box, buggy] {
    if (buggy) {
      box->PushBuggy(42);
    } else {
      box->Push(42);
    }
  });
}

// ---------------------------------------------------------------------------
// The seeded regression.
// ---------------------------------------------------------------------------

TEST(DstRegressionTest, ExplorerFindsSeededNotifyOrderingBug) {
#ifndef RAY_DST_SEEDED_BUG
  GTEST_SKIP() << "built without RAY_DST_SEEDED_BUG";
#endif
  if (SingleSeedMode()) {
    GTEST_SKIP() << "exploration abandons deadlocked runs (leaks parked fibers)";
  }
  // Documented budget: the race needs one preemption (p=0.25) plus one
  // adversarial fiber pick (p=0.5); 200 random schedules find it with
  // overwhelming probability, and the fixed base seed makes this exact.
  dst::Options opts = QuickOpts(200);
  const auto scenario = [] { MailboxScenario(/*buggy=*/true); };

  dst::ExploreResult explored = dst::Explore(scenario, opts);
  ASSERT_TRUE(explored.failure.has_value())
      << "seeded bug not found within " << opts.max_schedules << " schedules";
  const dst::RunResult& original = *explored.failure;
  EXPECT_NE(original.failure.find("deadlock"), std::string::npos) << original.failure;
  EXPECT_LE(explored.schedules_run, opts.max_schedules);

  // Replay is bit-identical: same trace + seed => same schedule, twice over.
  dst::RunResult replay1 = dst::Replay(scenario, original.trace, original.seed, opts);
  dst::RunResult replay2 = dst::Replay(scenario, original.trace, original.seed, opts);
  EXPECT_TRUE(replay1.failed) << "replay did not reproduce the failure";
  EXPECT_TRUE(replay2.failed);
  EXPECT_EQ(replay1.trace_hash, replay2.trace_hash);
  EXPECT_EQ(replay1.trace_hash, original.trace_hash)
      << "replay diverged from the recorded schedule";

  // Random exploration injects preemptions the failure does not need;
  // minimization must strictly shrink the non-default decision count.
  dst::RunResult minimized = dst::Minimize(scenario, original, opts);
  EXPECT_TRUE(minimized.failed);
  EXPECT_LT(dst::ScheduleLength(minimized.trace), dst::ScheduleLength(original.trace))
      << "original:  " << dst::FormatTrace(original.trace)
      << "\nminimized: " << dst::FormatTrace(minimized.trace);
}

TEST(DstTest, CorrectMailboxSurvivesExploration) {
  if (SingleSeedMode()) {
    GTEST_SKIP() << "exploration mode";
  }
  dst::Options opts = QuickOpts(120);
  dst::ExploreResult explored = dst::Explore([] { MailboxScenario(false); }, opts);
  EXPECT_FALSE(explored.failure.has_value())
      << explored.failure->failure << "\n"
      << dst::FormatTrace(explored.failure->trace);
  EXPECT_EQ(explored.schedules_run, opts.max_schedules);
}

TEST(DstTest, PctExplorationRunsClean) {
  if (SingleSeedMode()) {
    GTEST_SKIP() << "exploration mode";
  }
  dst::Options opts = QuickOpts(60);
  opts.use_pct = true;
  dst::ExploreResult explored = dst::Explore([] { MailboxScenario(false); }, opts);
  EXPECT_FALSE(explored.failure.has_value()) << explored.failure->failure;
}

// ---------------------------------------------------------------------------
// Determinism self-check: the same seed must drive the identical schedule
// (identical trace hash) through a fresh strategy; a perturbed seed must
// explore a different one.
// ---------------------------------------------------------------------------

TEST(DstTest, SameSeedReproducesIdenticalTrace) {
  const auto scenario = [] { MailboxScenario(false); };
  dst::Options opts;
  auto s1 = dst::MakeRandomStrategy(0.25);
  dst::RunResult r1 = dst::RunOnce(scenario, 7, s1.get(), opts);
  auto s2 = dst::MakeRandomStrategy(0.25);
  dst::RunResult r2 = dst::RunOnce(scenario, 7, s2.get(), opts);
  EXPECT_FALSE(r1.failed) << r1.failure;
  EXPECT_FALSE(r2.failed) << r2.failure;
  ASSERT_FALSE(r1.trace.empty());
  EXPECT_EQ(r1.trace_hash, r2.trace_hash) << "same seed, different schedule";

  bool perturbed_differs = false;
  for (uint64_t seed = 8; seed <= 12 && !perturbed_differs; ++seed) {
    auto s = dst::MakeRandomStrategy(0.25);
    perturbed_differs = dst::RunOnce(scenario, seed, s.get(), opts).trace_hash != r1.trace_hash;
  }
  EXPECT_TRUE(perturbed_differs) << "five perturbed seeds all replayed seed 7's schedule";
}

// ---------------------------------------------------------------------------
// Virtual time: sleeping fibers complete in deadline order without real
// waiting (the carrier jumps the clock when nothing is runnable).
// ---------------------------------------------------------------------------

TEST(DstTest, VirtualTimeSkipsRealSleeps) {
  const auto wall_start = std::chrono::steady_clock::now();
  auto order = std::make_shared<std::vector<int>>();
  const auto scenario = [order] {
    order->clear();
    auto mu = std::make_shared<Mutex>();
    for (int i = 0; i < 3; ++i) {
      // 4s / 3s / 2s of virtual time; deadline order is the reverse of
      // spawn order.
      dst::Go([order, mu, i] {
        SleepMicros((4 - i) * 1'000'000);
        MutexLock lock(*mu);
        order->push_back(i);
      });
    }
  };
  auto strategy = dst::MakeRandomStrategy(0.0);  // no preempts: pure timer order
  dst::RunResult r = dst::RunOnce(scenario, 1, strategy.get(), {});
  EXPECT_FALSE(r.failed) << r.failure;
  ASSERT_EQ(order->size(), 3u);
  EXPECT_EQ((*order)[0], 2);
  EXPECT_EQ((*order)[1], 1);
  EXPECT_EQ((*order)[2], 0);
  // 9 virtual seconds of sleeping must not cost 9 real ones.
  const auto wall_elapsed = std::chrono::steady_clock::now() - wall_start;
  EXPECT_LT(wall_elapsed, std::chrono::seconds(5)) << "virtual time fell back to real sleeps";
}

// ---------------------------------------------------------------------------
// Pull-manager dedup: two fibers notice the same missing object; the
// check-and-set must be atomic or both start a transfer. The racy variant
// hoists the decision out of the lock (the shape of the real PR-4 bug class).
// ---------------------------------------------------------------------------

struct PullModel {
  Mutex mu;
  bool fetching = false;
  int transfers = 0;

  void Request(bool racy) {
    if (racy) {
      bool start = false;
      {
        MutexLock lock(mu);
        start = !fetching;
      }
      dst::SchedulePoint();  // decision escaped the critical section
      if (start) {
        MutexLock lock(mu);
        fetching = true;
        ++transfers;
      }
    } else {
      MutexLock lock(mu);
      if (!fetching) {
        fetching = true;
        ++transfers;
      }
    }
  }
};

void PullScenario(bool racy) {
  auto model = std::make_shared<PullModel>();
  auto done = std::make_shared<std::atomic<int>>(0);
  for (int i = 0; i < 2; ++i) {
    dst::Go([model, done, racy] {
      model->Request(racy);
      if (done->fetch_add(1) + 1 == 2) {
        MutexLock lock(model->mu);
        dst::Check(model->transfers == 1,
                   "dedup violated: " + std::to_string(model->transfers) + " transfers");
      }
    });
  }
}

TEST(DstTest, PullDedupRaceIsFoundAndCorrectVersionIsClean) {
  if (SingleSeedMode()) {
    GTEST_SKIP() << "exploration mode";
  }
  dst::Options opts = QuickOpts(200);
  dst::ExploreResult racy = dst::Explore([] { PullScenario(true); }, opts);
  ASSERT_TRUE(racy.failure.has_value()) << "double transfer not found";
  EXPECT_NE(racy.failure->failure.find("dedup violated"), std::string::npos)
      << racy.failure->failure;
  // The failing schedule replays.
  dst::RunResult replay =
      dst::Replay([] { PullScenario(true); }, racy.failure->trace, racy.failure->seed, opts);
  EXPECT_TRUE(replay.failed);

  dst::ExploreResult correct = dst::Explore([] { PullScenario(false); }, QuickOpts(120));
  EXPECT_FALSE(correct.failure.has_value()) << correct.failure->failure;
}

// ---------------------------------------------------------------------------
// Lease revocation vs worker return: the reaper fires on a (virtual) timer
// while the worker is finishing; whichever side loses the guarded
// test-and-set must not release twice. Exercises timer choice points under
// virtual time alongside preemptions.
// ---------------------------------------------------------------------------

struct LeaseModel {
  Mutex mu;
  bool released = false;
  int releases = 0;

  void Release() {
    MutexLock lock(mu);
    if (!released) {
      released = true;
      ++releases;
    }
  }
};

void LeaseScenario() {
  auto model = std::make_shared<LeaseModel>();
  auto done = std::make_shared<std::atomic<int>>(0);
  auto finish = [model, done] {
    if (done->fetch_add(1) + 1 == 2) {
      MutexLock lock(model->mu);
      dst::Check(model->releases == 1,
                 "lease released " + std::to_string(model->releases) + " times");
    }
  };
  dst::Go([model, finish] {
    // Reaper: revoke when the lease expires (virtual 50ms).
    SleepMicros(50'000);
    model->Release();
    finish();
  });
  dst::Go([model, finish] {
    // Worker: a few scheduling points of work, then return the lease.
    for (int i = 0; i < 3; ++i) {
      dst::SchedulePoint();
    }
    SleepMicros(20'000);
    model->Release();
    finish();
  });
}

TEST(DstTest, LeaseRevocationReleasesExactlyOnce) {
  if (SingleSeedMode()) {
    GTEST_SKIP() << "exploration mode";
  }
  dst::ExploreResult explored = dst::Explore(LeaseScenario, QuickOpts(150));
  EXPECT_FALSE(explored.failure.has_value())
      << explored.failure->failure << "\n"
      << dst::FormatTrace(explored.failure->trace);
}

// ---------------------------------------------------------------------------
// Reconstruction vs lineage GC: lineage must be durable before the task's
// output becomes visible, or an eviction racing the finish can observe the
// output (and evict it) while there is not yet any lineage to re-execute
// from — permanent object loss. The buggy variant publishes output first.
// ---------------------------------------------------------------------------

struct LineageModel {
  Mutex mu;
  bool lineage_recorded = false;
  bool output_visible = false;
  bool lost = false;

  void FinishTask(bool buggy) {
    if (buggy) {
      {
        MutexLock lock(mu);
        output_visible = true;
      }
      dst::SchedulePoint();
      {
        MutexLock lock(mu);
        lineage_recorded = true;
      }
    } else {
      {
        MutexLock lock(mu);
        lineage_recorded = true;
      }
      dst::SchedulePoint();
      {
        MutexLock lock(mu);
        output_visible = true;
      }
    }
  }

  void EvictAndMaybeReconstruct() {
    MutexLock lock(mu);
    if (output_visible) {
      output_visible = false;  // eviction
      if (!lineage_recorded) {
        lost = true;  // nothing to reconstruct from
      }
    }
  }
};

void LineageScenario(bool buggy) {
  auto model = std::make_shared<LineageModel>();
  auto done = std::make_shared<std::atomic<int>>(0);
  auto finish = [model, done] {
    if (done->fetch_add(1) + 1 == 2) {
      MutexLock lock(model->mu);
      dst::Check(!model->lost, "object lost: output evicted before lineage was durable");
    }
  };
  dst::Go([model, finish, buggy] {
    model->FinishTask(buggy);
    finish();
  });
  dst::Go([model, finish] {
    model->EvictAndMaybeReconstruct();
    finish();
  });
}

TEST(DstTest, LineageBeforeOutputOrderingIsLoadBearing) {
  if (SingleSeedMode()) {
    GTEST_SKIP() << "exploration mode";
  }
  dst::Options opts = QuickOpts(200);
  dst::ExploreResult buggy = dst::Explore([] { LineageScenario(true); }, opts);
  ASSERT_TRUE(buggy.failure.has_value()) << "output-before-lineage race not found";
  EXPECT_NE(buggy.failure->failure.find("object lost"), std::string::npos)
      << buggy.failure->failure;

  dst::ExploreResult correct = dst::Explore([] { LineageScenario(false); }, QuickOpts(120));
  EXPECT_FALSE(correct.failure.has_value()) << correct.failure->failure;
}

// ---------------------------------------------------------------------------
// Mailbox teardown on the real BlockingQueue: producers, competing consumers
// and Close() under exploration; every run must drain (a lost wakeup or a
// Close/Pop race would park a consumer forever and read as a deadlock).
// ---------------------------------------------------------------------------

void QueueTeardownScenario() {
  auto queue = std::make_shared<BlockingQueue<int>>();
  auto popped = std::make_shared<std::atomic<int>>(0);
  auto done = std::make_shared<std::atomic<int>>(0);
  auto finish = [popped, done] {
    if (done->fetch_add(1) + 1 == 2) {
      dst::Check(popped->load() == 3, "teardown lost items: popped " +
                                          std::to_string(popped->load()) + "/3");
    }
  };
  for (int c = 0; c < 2; ++c) {
    dst::Go([queue, popped, finish] {
      while (queue->Pop().has_value()) {
        popped->fetch_add(1);
      }
      finish();
    });
  }
  dst::Go([queue] {
    for (int i = 0; i < 3; ++i) {
      queue->Push(i);
    }
    queue->Close();
  });
}

TEST(DstTest, BlockingQueueTeardownDrainsEveryScheduleClean) {
  if (SingleSeedMode()) {
    // Single clean seed only (sanitizer gates): one run, no exploration.
    auto strategy = dst::MakeRandomStrategy(0.25);
    dst::RunResult r = dst::RunOnce(QueueTeardownScenario, 1, strategy.get(), {});
    EXPECT_FALSE(r.failed) << r.failure;
    return;
  }
  dst::ExploreResult explored = dst::Explore(QueueTeardownScenario, QuickOpts(150));
  EXPECT_FALSE(explored.failure.has_value())
      << explored.failure->failure << "\n"
      << dst::FormatTrace(explored.failure->trace);
}

// ---------------------------------------------------------------------------
// A genuine lock cycle parks both fibers and surfaces as a deadlock (the
// cooperative locks park waiters instead of spinning). DST fibers are exempt
// from lockdep's order check, so debug builds run this too: the explorer,
// not lockdep, reports the intentional inversion.
// ---------------------------------------------------------------------------

TEST(DstTest, LockCycleSurfacesAsDeadlock) {
  if (SingleSeedMode()) {
    GTEST_SKIP() << "deadlocked runs leak parked fibers";
  }
  const auto scenario = [] {
    auto a = std::make_shared<Mutex>();
    auto b = std::make_shared<Mutex>();
    dst::Go([a, b] {
      MutexLock la(*a);
      dst::SchedulePoint();
      MutexLock lb(*b);
    });
    dst::Go([a, b] {
      MutexLock lb(*b);
      dst::SchedulePoint();
      MutexLock la(*a);
    });
  };
  dst::ExploreResult explored = dst::Explore(scenario, QuickOpts(200));
  ASSERT_TRUE(explored.failure.has_value()) << "AB-BA cycle not found";
  EXPECT_NE(explored.failure->failure.find("deadlock"), std::string::npos)
      << explored.failure->failure;
}

}  // namespace
}  // namespace ray
