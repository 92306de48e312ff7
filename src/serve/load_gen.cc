#include "serve/load_gen.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"

namespace ray {
namespace serve {

namespace {
// Simulated user-session id space.
constexpr uint64_t kNumSessions = 1'000'000;
// After the offered window, wait this long for in-flight requests to finish
// before reporting.
constexpr int64_t kDrainTimeoutUs = 5'000'000;
}  // namespace

LoadGenReport RunOpenLoopLoad(Router& router, const LoadGenConfig& config) {
  RAY_CHECK(config.threads > 0 && config.qps > 0);
  const uint64_t admitted_before = router.NumAdmitted();
  const uint64_t shed_before = router.NumShed();
  const uint64_t completed_before = router.NumCompleted();
  const uint64_t timed_out_before = router.NumTimedOut();
  const uint64_t rerouted_before = router.NumRerouted();

  // Session bitmap: one bit per simulated user session, shared across
  // generator threads (relaxed OR; exact distinct count at the end).
  std::vector<std::atomic<uint64_t>> session_bits((kNumSessions + 63) / 64);

  std::atomic<uint64_t> offered{0};
  Histogram shed_latency_us;    // Submit() duration when it fast-rejects
  Histogram behind_us;          // how late each arrival actually fired

  const double per_thread_qps = config.qps / config.threads;
  const int64_t start_us = NowMicros() + 10'000;  // common epoch for all threads
  std::vector<std::thread> threads;
  threads.reserve(config.threads);
  for (int t = 0; t < config.threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(config.seed * 1000003 + t);
      std::exponential_distribution<double> gap_s(per_thread_qps);
      uint64_t seq = 0;
      // The schedule is pre-committed: next += gap, never re-based on how
      // long Submit (or a stall) took.
      double next_us = static_cast<double>(start_us);
      const int64_t end_us = start_us + config.duration_us;
      while (true) {
        next_us += gap_s(rng.Engine()) * 1e6;
        int64_t scheduled = static_cast<int64_t>(next_us);
        if (scheduled >= end_us) {
          break;
        }
        int64_t now = NowMicros();
        if (scheduled > now) {
          SleepMicros(scheduled - now);
          now = NowMicros();
        }
        behind_us.Observe(static_cast<double>(std::max<int64_t>(0, now - scheduled)));
        uint64_t session = static_cast<uint64_t>(
            rng.UniformInt(0, static_cast<int64_t>(kNumSessions) - 1));
        session_bits[session / 64].fetch_or(1ULL << (session % 64), std::memory_order_relaxed);
        uint64_t id = (static_cast<uint64_t>(t) << 48) | ++seq;
        offered.fetch_add(1, std::memory_order_relaxed);
        int64_t submit_start = NowMicros();
        if (!router.Submit(id, scheduled)) {
          shed_latency_us.Observe(static_cast<double>(NowMicros() - submit_start));
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  // Drain: open-loop offering has stopped; give in-flight requests time to
  // finish so the report covers them.
  int64_t drain_deadline = NowMicros() + kDrainTimeoutUs;
  while (router.NumOutstanding() > 0 && NowMicros() < drain_deadline) {
    SleepMicros(5000);
  }

  LoadGenReport report;
  report.offered = offered.load();
  report.admitted = router.NumAdmitted() - admitted_before;
  report.shed = router.NumShed() - shed_before;
  report.completed = router.NumCompleted() - completed_before;
  report.timed_out = router.NumTimedOut() - timed_out_before;
  report.rerouted = router.NumRerouted() - rerouted_before;
  uint64_t sessions = 0;
  for (const auto& word : session_bits) {
    sessions += static_cast<uint64_t>(__builtin_popcountll(word.load(std::memory_order_relaxed)));
  }
  report.sessions_touched = sessions;
  report.achieved_qps =
      static_cast<double>(report.completed) / (static_cast<double>(config.duration_us) / 1e6);
  report.p50_ms = router.latency().total().Percentile(50.0) / 1e3;
  report.p99_ms = router.latency().total().Percentile(99.0) / 1e3;
  report.p999_ms = router.latency().total().Percentile(99.9) / 1e3;
  report.shed_p99_us = shed_latency_us.Percentile(99.0);
  report.behind_p99_us = behind_us.Percentile(99.0);
  return report;
}

}  // namespace serve
}  // namespace ray
