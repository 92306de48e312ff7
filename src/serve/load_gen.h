// Open-loop load generation. Each generator thread draws Poisson arrivals
// (exponential inter-arrival gaps) and walks a pre-committed schedule: the
// next arrival time is start + sum of gaps, independent of how long any
// Submit took. A generator that falls behind fires the overdue arrivals
// immediately *without* re-basing the schedule, and every request's latency
// is measured from its scheduled arrival — the two halves of avoiding
// coordinated omission (a closed-loop client would silently stop offering
// load exactly when the system is slow, hiding the worst latencies).
//
// Requests are attributed to simulated user sessions drawn uniformly from a
// large id space; the report counts distinct sessions touched.
#ifndef RAY_SERVE_LOAD_GEN_H_
#define RAY_SERVE_LOAD_GEN_H_

#include <cstdint>
#include <string>

#include "serve/router.h"

namespace ray {
namespace serve {

struct LoadGenConfig {
  double qps = 500.0;
  int64_t duration_us = 2'000'000;
  int threads = 2;
  uint64_t seed = 1;
};

struct LoadGenReport {
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;
  uint64_t timed_out = 0;
  uint64_t rerouted = 0;
  uint64_t sessions_touched = 0;
  double achieved_qps = 0.0;   // completions / offered-window duration
  double p50_ms = 0.0;         // from scheduled arrival, over the whole run
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double shed_p99_us = 0.0;    // fast-reject latency of Submit() on shed
  double behind_p99_us = 0.0;  // schedule slip: fire time - scheduled time
};

// Drives `router` with open-loop load and returns the report. Counters in
// the report are deltas over this run, so several runs can share a router.
LoadGenReport RunOpenLoopLoad(Router& router, const LoadGenConfig& config);

}  // namespace serve
}  // namespace ray

#endif  // RAY_SERVE_LOAD_GEN_H_
