// Unit tests for src/common: ids, status/result, buffers, serialization,
// resources, metrics (and the serve layer's LatencyWindow built on the
// histogram), queues, sync, and the thread pool. Includes
// parameterized property-style sweeps for the serialization codecs and
// resource algebra.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <thread>

#include "common/buffer.h"
#include "common/clock.h"
#include "common/id.h"
#include "common/metrics.h"
#include "common/queue.h"
#include "common/random.h"
#include "common/resource.h"
#include "common/serialization.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "serve/stats.h"

namespace ray {
namespace {

// --- ids ---

TEST(IdTest, RandomIdsAreUnique) {
  std::set<std::string> seen;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(ObjectId::FromRandom().Binary()).second);
  }
}

TEST(IdTest, NilDetection) {
  ObjectId nil;
  EXPECT_TRUE(nil.IsNil());
  EXPECT_FALSE(ObjectId::FromRandom().IsNil());
}

TEST(IdTest, BinaryRoundTrip) {
  TaskId id = TaskId::FromRandom();
  EXPECT_EQ(TaskId::FromBinary(id.Binary()), id);
  EXPECT_EQ(id.Binary().size(), TaskId::kSize);
  EXPECT_EQ(id.Hex().size(), TaskId::kSize * 2);
}

TEST(IdTest, DeriveIsDeterministicAndDistinct) {
  TaskId task = TaskId::FromRandom();
  EXPECT_EQ(task.Derive(0), task.Derive(0));
  EXPECT_NE(task.Derive(0), task.Derive(1));
  EXPECT_NE(task.Derive(0).Cast<ObjectIdTag>().Binary(), task.Binary());
}

TEST(IdTest, ReturnIdsDeterministicAcrossReexecution) {
  // The heart of lineage-based reconstruction: re-running the same task spec
  // must reproduce the same object ids.
  TaskId task = TaskId::FromRandom();
  EXPECT_EQ(ObjectIdForReturn(task, 0), ObjectIdForReturn(task, 0));
  EXPECT_NE(ObjectIdForReturn(task, 0), ObjectIdForReturn(task, 1));
}

TEST(IdTest, ReturnIdNamesItsTask) {
  // The Object Table stores no return -> task link: a return's creating task
  // is read back out of its ID, for any index a spec can have.
  for (int trial = 0; trial < 1000; ++trial) {
    TaskId task = TaskId::FromRandom();
    for (uint32_t index : {0u, 1u, 2u, 255u, 65'536u, 0x7ffffffdu, 0x7ffffffeu}) {
      ObjectId ret = ObjectIdForReturn(task, index);
      ASSERT_TRUE(IsTaskReturn(ret));
      ASSERT_EQ(ReturningTask(ret), task) << "index " << index;
    }
  }
  TaskId task = TaskId::FromRandom();
  EXPECT_NE(ObjectIdForReturn(task, 0x7ffffffeu), ObjectIdForReturn(task, 0x7ffffffdu));
  EXPECT_NE(ObjectIdForReturn(task, 0), ObjectIdForReturn(TaskId::FromRandom(), 0));
}

TEST(IdTest, PutsAndCursorsAreNeverReturnShaped) {
  ActorId actor = ActorId::FromRandom();
  for (uint64_t i = 0; i < 100'000; ++i) {
    ASSERT_FALSE(IsTaskReturn(ObjectId::FromRandom()));
    ASSERT_FALSE(IsTaskReturn(ActorCursorId(actor, i)));
  }
}

TEST(IdTest, ActorCursorsFormAChain) {
  ActorId actor = ActorId::FromRandom();
  std::set<std::string> cursors;
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(cursors.insert(ActorCursorId(actor, i).Binary()).second);
  }
  EXPECT_EQ(ActorCursorId(actor, 5), ActorCursorId(actor, 5));
}

// --- status / result ---

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::KeyNotFound("missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kKeyNotFound);
  EXPECT_NE(s.ToString().find("missing"), std::string::npos);
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.value_or(0), 42);

  Result<int> err = Status::TimedOut();
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kTimedOut);
  EXPECT_EQ(err.value_or(-1), -1);
}

// --- serialization: property sweep over sizes ---

class SerializationSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SerializationSizeTest, FloatVectorRoundTrip) {
  size_t n = GetParam();
  Rng rng(n + 1);
  std::vector<float> original = rng.NormalVector(n);
  auto buf = SerializeValue(original);
  EXPECT_EQ(DeserializeValue<std::vector<float>>(*buf), original);
}

TEST_P(SerializationSizeTest, StringRoundTrip) {
  size_t n = GetParam();
  std::string s(n, 'x');
  for (size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>('a' + i % 26);
  }
  auto buf = SerializeValue(s);
  EXPECT_EQ(DeserializeValue<std::string>(*buf), s);
}

// 56 and 57: an 8-byte prefix plus 56 bytes fills the Writer's first 64-byte
// block exactly, and one byte more makes it grow.
INSTANTIATE_TEST_SUITE_P(Sizes, SerializationSizeTest,
                         ::testing::Values(0, 1, 2, 7, 56, 57, 64, 1000, 4095, 65536,
                                           (1 << 20) + 7));

TEST(SerializationTest, NestedContainers) {
  std::vector<std::pair<std::string, std::vector<int>>> v = {
      {"a", {1, 2, 3}}, {"", {}}, {"long key here", {42}}};
  auto buf = SerializeValue(v);
  EXPECT_EQ((DeserializeValue<std::vector<std::pair<std::string, std::vector<int>>>>(*buf)), v);
}

TEST(SerializationTest, MapRoundTrip) {
  std::map<std::string, double> m = {{"CPU", 4.0}, {"GPU", 1.5}};
  auto buf = SerializeValue(m);
  EXPECT_EQ((DeserializeValue<std::map<std::string, double>>(*buf)), m);
}

TEST(SerializationTest, UnderrunThrows) {
  auto buf = SerializeValue(std::string("hello"));
  Reader r(buf->Data(), 2);  // truncated
  EXPECT_THROW(Take<std::string>(r), std::out_of_range);
}

// A corrupt length prefix is refused by the bounds check before anything is
// allocated: it must neither wrap the check nor size a vector.
TEST(SerializationTest, OversizedLengthPrefixThrows) {
  auto prefixed = [](uint64_t n) {
    Writer w;
    w.WritePod(n);
    w.WriteBytes("0123456789abcdef", 16);
    return w.Finish();
  };
  EXPECT_THROW(DeserializeValue<std::string>(*prefixed(UINT64_MAX)), std::out_of_range);
  EXPECT_THROW(DeserializeValue<std::vector<float>>(*prefixed(uint64_t{1} << 62)),
               std::out_of_range);
  EXPECT_THROW(DeserializeValue<std::vector<std::string>>(*prefixed(uint64_t{1} << 62)),
               std::out_of_range);
}

// --- resources ---

TEST(ResourceSetTest, ContainsSubtractAdd) {
  ResourceSet node{{"CPU", 4}, {"GPU", 2}};
  ResourceSet demand{{"CPU", 1}, {"GPU", 1}};
  EXPECT_TRUE(node.Contains(demand));
  node.Subtract(demand);
  EXPECT_DOUBLE_EQ(node.Get("CPU"), 3);
  EXPECT_DOUBLE_EQ(node.Get("GPU"), 1);
  node.Add(demand);
  EXPECT_DOUBLE_EQ(node.Get("CPU"), 4);
}

TEST(ResourceSetTest, MissingResourceFailsContains) {
  ResourceSet cpu_only = ResourceSet::Cpu(8);
  EXPECT_FALSE(cpu_only.Contains(ResourceSet{{"GPU", 1}}));
  EXPECT_TRUE(cpu_only.Contains(ResourceSet{}));  // empty demand always fits
}

TEST(ResourceSetTest, ZeroQuantityErased) {
  ResourceSet r{{"CPU", 1}};
  r.Subtract(ResourceSet{{"CPU", 1}});
  EXPECT_TRUE(r.IsEmpty());
}

// Property: for random a ⊇ b, (a - b) + b == a.
class ResourceAlgebraTest : public ::testing::TestWithParam<int> {};

TEST_P(ResourceAlgebraTest, SubtractAddRoundTrip) {
  Rng rng(GetParam());
  ResourceSet a;
  ResourceSet b;
  const char* names[] = {"CPU", "GPU", "mem", "custom"};
  for (const char* name : names) {
    double qb = rng.Uniform(0.0, 4.0);
    double qa = qb + rng.Uniform(0.1, 4.0);
    a.Set(name, qa);
    b.Set(name, qb);
  }
  ASSERT_TRUE(a.Contains(b));
  ResourceSet result = a;
  result.Subtract(b);
  result.Add(b);
  for (const char* name : names) {
    EXPECT_NEAR(result.Get(name), a.Get(name), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResourceAlgebraTest, ::testing::Range(1, 9));

// --- metrics ---

TEST(MetricsTest, EmaConvergesToConstant) {
  Ema ema(0.5);
  EXPECT_FALSE(ema.HasValue());
  for (int i = 0; i < 50; ++i) {
    ema.Observe(10.0);
  }
  EXPECT_NEAR(ema.Value(), 10.0, 1e-6);
}

TEST(MetricsTest, HistogramPercentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Observe(i);
  }
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.Min(), 1);
  EXPECT_DOUBLE_EQ(h.Max(), 100);
  EXPECT_NEAR(h.Mean(), 50.5, 1e-9);
  EXPECT_NEAR(h.Percentile(50), 50.5, 1.0);
  EXPECT_NEAR(h.Percentile(99), 99, 1.1);
}

TEST(MetricsTest, HistogramPercentilesWithinBucketErrorOfExactRanks) {
  Rng rng(7);
  std::vector<std::pair<const char*, std::function<double()>>> shapes = {
      {"lognormal", [&] { return std::exp(rng.Normal(5.0, 1.5)); }},
      {"uniform", [&] { return rng.Uniform(0.0, 1000.0); }},
      {"exponential", [&] { return -100.0 * std::log(1.0 - rng.Uniform()); }},
      {"small-integer", [&] { return static_cast<double>(rng.UniformInt(0, 20)); }},
  };
  for (auto& [name, draw] : shapes) {
    Histogram h;
    std::vector<double> sorted(200'000);
    for (double& v : sorted) {
      v = draw();
      h.Observe(v);
    }
    std::sort(sorted.begin(), sorted.end());
    for (double p : {1.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      // Exact nearest rank: the sample of rank floor(p/100 * (n - 1)).
      auto rank = static_cast<size_t>(p / 100.0 * static_cast<double>(sorted.size() - 1));
      double exact = sorted[rank];
      EXPECT_NEAR(h.Percentile(p), exact, 0.005 * exact) << name << " p" << p;
    }
  }
}

TEST(MetricsTest, HistogramAggregatesAreExact) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Min(), 0.0);
  EXPECT_EQ(h.Max(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);

  Rng rng(3);
  double sum = 0.0;
  double lo = 1e300;
  double hi = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    double v = std::exp(rng.Normal(3.0, 2.0));
    h.Observe(v);
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_EQ(h.Count(), 10'000u);
  EXPECT_EQ(h.Sum(), sum);
  EXPECT_EQ(h.Min(), lo);
  EXPECT_EQ(h.Max(), hi);

  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0.0);
  EXPECT_EQ(h.Max(), 0.0);
  EXPECT_EQ(h.Percentile(99), 0.0);
  h.Observe(5.0);  // the extremes restart from the first sample after a reset
  EXPECT_EQ(h.Min(), 5.0);
  EXPECT_EQ(h.Max(), 5.0);
}

TEST(MetricsTest, HistogramConcurrentObserversLoseNothing) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < 100'000; ++i) {
        h.Observe(static_cast<double>(t * 100'000 + i));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.Count(), 400'000u);
  EXPECT_EQ(h.Sum(), 399'999.0 * 400'000.0 / 2);  // 0 + 1 + ... + 399'999
  EXPECT_EQ(h.Min(), 0.0);
  EXPECT_EQ(h.Max(), 399'999.0);
}

TEST(MetricsTest, HistogramMergeOfHalvesEqualsWhole) {
  Rng rng(11);
  Histogram whole;
  Histogram first;
  Histogram second;
  for (int i = 0; i < 20'000; ++i) {
    // Whole microseconds, so both ways of summing are exact.
    double v = std::round(std::exp(rng.Normal(6.0, 1.0)));
    whole.Observe(v);
    (i % 2 == 0 ? first : second).Observe(v);
  }
  first.Merge(second);
  EXPECT_EQ(first.Count(), whole.Count());
  EXPECT_EQ(first.Sum(), whole.Sum());
  EXPECT_EQ(first.Min(), whole.Min());
  EXPECT_EQ(first.Max(), whole.Max());
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(first.Percentile(p), whole.Percentile(p)) << "p" << p;
  }
}

TEST(MetricsTest, LatencyWindowForgetsOldSamplesButTotalKeepsThem) {
  serve::LatencyWindow window(1'000'000);
  window.Observe(100'000, 500);
  window.Observe(1'500'000, 700);
  auto recent = window.Snap(1'500'000);
  EXPECT_EQ(recent->Count(), 1u);  // the 100 ms sample is more than 1 s old
  EXPECT_EQ(recent->Percentile(99.0), 700.0);
  EXPECT_EQ(window.total().Count(), 2u);
  EXPECT_EQ(window.total().Min(), 500.0);

  // A sample that arrives after its slot was reused is out of the window too.
  window.Observe(500'000, 900);
  EXPECT_EQ(window.Snap(1'500'000)->Count(), 1u);
  EXPECT_EQ(window.total().Count(), 3u);
  EXPECT_EQ(window.Snap(3'000'000)->Count(), 0u);
  EXPECT_EQ(window.Snap(3'000'000)->Percentile(99.0), 0.0);
}

TEST(MetricsTest, CounterIsThreadSafe) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        c.Add();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.Value(), 4000u);
}

// --- queue / sync / thread pool ---

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(q.Push(i));
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(*q.Pop(), i);
  }
}

TEST(BlockingQueueTest, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Close();
  EXPECT_FALSE(q.Push(2));  // rejected after close
  EXPECT_EQ(*q.Pop(), 1);   // drains existing
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, PopBlocksUntilPush) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    SleepMicros(10'000);
    q.Push(7);
  });
  EXPECT_EQ(*q.Pop(), 7);
  producer.join();
}

TEST(BlockingQueueTest, PopWithTimeoutExpires) {
  BlockingQueue<int> q;
  Timer t;
  EXPECT_FALSE(q.PopWithTimeout(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(t.ElapsedMicros(), 15'000);
}

TEST(SyncTest, CountDownLatchReleasesAtZero) {
  CountDownLatch latch(3);
  std::thread t([&] {
    for (int i = 0; i < 3; ++i) {
      latch.CountDown();
    }
  });
  latch.Wait();
  t.join();
  EXPECT_TRUE(latch.WaitFor(std::chrono::milliseconds(1)));
}

TEST(SyncTest, NotificationWaitFor) {
  Notification n;
  EXPECT_FALSE(n.WaitFor(std::chrono::milliseconds(5)));
  n.Notify();
  EXPECT_TRUE(n.WaitFor(std::chrono::milliseconds(5)));
  EXPECT_TRUE(n.HasBeenNotified());
}

TEST(ThreadPoolTest, RunsAllSubmittedWork) {
  ThreadPool pool(4);
  Counter done;
  CountDownLatch latch(100);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      done.Add();
      latch.CountDown();
    });
  }
  latch.Wait();
  EXPECT_EQ(done.Value(), 100u);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedWork) {
  Counter done;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { done.Add(); });
    }
  }  // destructor drains
  EXPECT_EQ(done.Value(), 50u);
}

// OS threads in this process (`Threads:` in /proc/self/status). Tests compare
// two readings, so threads a sanitizer runs for itself cancel out.
int64_t ThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoll(line.substr(8));
    }
  }
  ADD_FAILURE() << "no Threads: line in /proc/self/status";
  return 0;
}

// A sanitizer may start a helper thread at the process's first thread
// creation; start one first so a test's own readings do not see it.
void StartHelperThreads() { std::thread([] {}).join(); }

TEST(ThreadPoolTest, StartsNoThreadBeforeFirstSubmit) {
  StartHelperThreads();
  int64_t before = ThreadCount();
  ThreadPool pool(4);
  EXPECT_LE(ThreadCount() - before, 0) << "the constructor must not start threads";
  Notification ran;
  ASSERT_TRUE(pool.Submit([&] { ran.Notify(); }));
  ran.Wait();
  EXPECT_LE(ThreadCount() - before, 1) << "one job needs one thread";
}

TEST(ThreadPoolTest, NeverRunsMoreThreadsThanItsCap) {
  StartHelperThreads();
  constexpr int kCap = 3;
  constexpr int kJobs = 12;
  int64_t before = ThreadCount();
  ThreadPool pool(kCap);
  Mutex mu;
  CondVar cv;
  int running = 0;
  int max_running = 0;
  bool release = false;
  CountDownLatch done(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(pool.Submit([&] {
      {
        MutexLock lock(mu);
        max_running = std::max(max_running, ++running);
        cv.NotifyAll();
        while (!release) {
          cv.Wait(mu);
        }
        --running;
      }
      done.CountDown();
    }));
  }
  {
    MutexLock lock(mu);
    while (running < kCap) {
      cv.Wait(mu);
    }
  }
  SleepMicros(20'000);  // time for any thread beyond the cap to show up
  EXPECT_LE(ThreadCount() - before, kCap);
  {
    MutexLock lock(mu);
    EXPECT_EQ(running, kCap);
    release = true;
    cv.NotifyAll();
  }
  done.Wait();
  EXPECT_EQ(max_running, kCap);
  EXPECT_LE(ThreadCount() - before, kCap);
}

TEST(ThreadPoolTest, JobsSubmittedTogetherRunInParallelUpToTheCap) {
  // Each job waits for all kCap to start: with fewer threads than jobs this
  // would deadlock, so every job must get a thread of its own.
  constexpr int kCap = 6;
  ThreadPool pool(kCap);
  CountDownLatch started(kCap);
  std::atomic<int> met{0};
  CountDownLatch done(kCap);
  for (int i = 0; i < kCap; ++i) {
    ASSERT_TRUE(pool.Submit([&] {
      started.CountDown();
      if (started.WaitFor(std::chrono::seconds(10))) {
        met.fetch_add(1);
      }
      done.CountDown();
    }));
  }
  done.Wait();
  EXPECT_EQ(met.load(), kCap);
}

TEST(ThreadPoolTest, SubmitAfterShutdownStartsNothing) {
  StartHelperThreads();
  int64_t before = ThreadCount();
  ThreadPool pool(2);
  pool.Shutdown();
  bool ran = false;
  EXPECT_FALSE(pool.Submit([&] { ran = true; }));
  EXPECT_LE(ThreadCount() - before, 0);
  pool.Shutdown();  // idempotent; the destructor calls it again
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, UnusedPoolShutsDownCleanly) {
  { ThreadPool never_used(8); }
  ThreadPool shut(8);
  shut.Shutdown();
}

// --- buffer ---

TEST(BufferTest, CopiesSourceBytes) {
  std::string src = "immutable";
  Buffer b(src.data(), src.size());
  EXPECT_EQ(b.ToString(), src);
  EXPECT_EQ(b.Size(), src.size());
  EXPECT_TRUE(b == Buffer(src.data(), src.size()));
  EXPECT_FALSE(b == Buffer(src.data(), src.size() - 1));
  EXPECT_FALSE(b == Buffer("immutablE", src.size()));
}

TEST(BufferTest, FromString) {
  auto b = Buffer::FromString("abc");
  EXPECT_EQ(b->Size(), 3u);
  EXPECT_EQ(b->ToString(), "abc");
}

// Threads allocating and releasing 33 MiB buffers at once share the block
// cache; each must keep a block no other thread writes (run under TSan too).
TEST(BufferTest, ConcurrentLargeBuffersStayPrivate) {
  constexpr size_t kSize = 33 << 20;
  std::atomic<int> intact{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        Buffer b(kSize);
        const auto fill = static_cast<uint8_t>(t * 4 + round + 1);
        std::memset(b.MutableData(), fill, kSize);
        std::this_thread::yield();
        bool same = true;
        for (size_t i = 0; i < kSize; i += 4096) {
          same = same && b.Data()[i] == fill && b.Data()[i + 4095] == fill;
        }
        intact.fetch_add(same ? 1 : 0);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(intact.load(), 16);
}

#if defined(__SANITIZE_ADDRESS__)
// A released block of 32 MiB or more is cached, not unmapped, so a stale
// pointer into it still reads mapped memory. ASan poisons cached blocks to
// report that read as it would a read of freed heap memory.
TEST(BufferDeathTest, ReadOfCachedBlockIsReported) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const uint8_t* stale = nullptr;
        {
          Buffer b(33 << 20);
          std::memset(b.MutableData(), 1, b.Size());
          stale = b.Data();
        }
        volatile uint8_t byte = stale[4096];
        (void)byte;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace ray
