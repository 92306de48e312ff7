// Time utilities. All latencies in the system are measured with the steady
// clock; benches report microseconds/milliseconds derived from it. This is
// the hookable time seam: when dst's time hooks are active (virtual time
// during deterministic-schedule runs, per-node skew domains under chaos),
// NowMicros/SleepMicros route through them, which is why nothing outside
// src/common/ may call std::chrono::steady_clock::now() or
// std::this_thread::sleep_for directly (run_checks.sh enforces this).
#ifndef RAY_COMMON_CLOCK_H_
#define RAY_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/dst.h"
#include "common/fiber.h"

namespace ray {

inline int64_t NowMicros() {
  if (dst::TimeHooksActive()) {
    return dst::HookedNowMicros();
  }
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NowSeconds() { return static_cast<double>(NowMicros()) / 1e6; }

// Also the one way to charge a modelled delay (chain hop, control RPC, disk
// read, accelerator time): it costs time, not CPU. Callers release every lock
// first — a fiber must not park holding one (common/fiber.h).
inline void SleepMicros(int64_t us) {
  if (us <= 0) {
    return;
  }
  // On a fiber, sleeping must not hold the carrier thread hostage: park with
  // a timer instead, so thousands of "sleeping" actors/tasks (simulated work,
  // poll backoffs) coexist on a handful of carriers. (ParkUntil converts the
  // domain deadline for the timer heap, so skewed fibers sleep skewed time.)
  if (fiber::OnFiber()) {
    fiber::SleepUs(us);
    return;
  }
  if (dst::TimeHooksActive()) {
    dst::HookedSleepMicros(us);
    return;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

// Scoped stopwatch.
class Timer {
 public:
  Timer() : start_(NowMicros()) {}
  void Reset() { start_ = NowMicros(); }
  int64_t ElapsedMicros() const { return NowMicros() - start_; }
  double ElapsedSeconds() const { return static_cast<double>(ElapsedMicros()) / 1e6; }
  double ElapsedMillis() const { return static_cast<double>(ElapsedMicros()) / 1e3; }

 private:
  int64_t start_;
};

}  // namespace ray

#endif  // RAY_COMMON_CLOCK_H_
