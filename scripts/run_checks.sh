#!/usr/bin/env bash
# Static-analysis & concurrency-hygiene gate (see DESIGN.md):
#
#   1. Grep gate: no raw std::mutex / std::shared_mutex / std::lock_guard /
#      std::unique_lock / std::shared_lock / std::condition_variable outside
#      common/sync.h. All locking goes through the annotated wrappers so the
#      thread-safety analysis sees every acquisition.
#   2. Escape-hatch budget: at most 5 NO_THREAD_SAFETY_ANALYSIS uses in src/,
#      each carrying a justification comment on the same or preceding line.
#   3. Time gate: no raw sleep / clock / entropy primitive outside
#      src/common/, and no busy-wait on modelled latency anywhere in src/
#      (PreciseDelayMicros, empty-bodied `while (NowMicros() < ...)` loops).
#   4. Clang thread-safety analysis: build the tidy preset with
#      -Wthread-safety -Wthread-safety-beta as errors. Loud skip when clang
#      is not installed (gcc-only containers).
#   5. clang-tidy lint (scripts/run_lint.sh; loud skip without clang-tidy).
#   6. Lockdep soak: debug build (NDEBUG unset => runtime lock-order checker
#      compiled in), full ctest suite plus the seeded chaos soak. Any cycle
#      in the lock-order graph aborts with both acquisition stacks.
#
# Usage: run_checks.sh [quick]
#   quick — grep gates only (checks 1-3); used by run_tier1.sh so every CI
#   run enforces the annotation discipline even without clang or a debug
#   build. The full six-gate run is the pre-merge bar.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"

echo "== check 1/6: raw sync primitives outside common/sync.h =="
# Strip // comments before matching so prose mentioning std::mutex (e.g. the
# layout notes in lockdep.h) doesn't trip the gate.
raw_hits=$(grep -rnE 'std::(mutex|shared_mutex|lock_guard|unique_lock|shared_lock|condition_variable(_any)?)' \
  src/ --include='*.h' --include='*.cc' \
  | grep -v '^src/common/sync\.h:' \
  | grep -vE ':[0-9]+:\s*//' \
  | sed -E 's/([0-9]+:).*\/\/.*std::(mutex|shared_mutex|lock_guard|unique_lock|shared_lock|condition_variable).*/\1 COMMENT/' \
  | grep -v 'COMMENT$' || true)
if [[ -n "$raw_hits" ]]; then
  echo "FAIL: raw standard sync primitives found outside src/common/sync.h:" >&2
  echo "$raw_hits" >&2
  exit 1
fi
echo "OK: all locking goes through ray::Mutex / ray::SharedMutex"

echo "== check 2/6: NO_THREAD_SAFETY_ANALYSIS budget =="
nts_hits=$(grep -rn 'NO_THREAD_SAFETY_ANALYSIS' src/ --include='*.h' --include='*.cc' \
  | grep -v '^src/common/sync\.h:' || true)
nts_count=$(printf '%s' "$nts_hits" | grep -c . || true)
if (( nts_count > 5 )); then
  echo "FAIL: $nts_count NO_THREAD_SAFETY_ANALYSIS uses (budget: 5):" >&2
  echo "$nts_hits" >&2
  exit 1
fi
# Every use must say why: a comment on the annotated line or the line above.
while IFS=: read -r file line _; do
  [[ -z "$file" ]] && continue
  prev=$(( line > 1 ? line - 1 : 1 ))
  if ! sed -n "${prev},${line}p" "$file" | grep -q '//'; then
    echo "FAIL: NO_THREAD_SAFETY_ANALYSIS at $file:$line lacks a justification comment" >&2
    exit 1
  fi
done <<< "$nts_hits"
echo "OK: $nts_count/5 escape hatches, all justified"

echo "== check 3/6: raw time / randomness primitives outside src/common/ =="
# Everything that observes wall-clock time, sleeps, or draws entropy must go
# through the hookable seams in src/common/ (clock.h NowMicros/SleepMicros,
# random.h Rng) so deterministic-schedule testing (common/dst.h) can virtualise
# it. Raw std::this_thread::sleep_for, steady_clock::now(), rand() or
# std::random_device anywhere else bypasses the hook and makes DST runs
# non-reproducible. Comments are stripped with the same idiom as check 1.
time_hits=$(grep -rnE 'std::this_thread::sleep_for|std::chrono::steady_clock::now|std::random_device|[^_[:alnum:]]rand\(\)' \
  src/ --include='*.h' --include='*.cc' \
  | grep -v '^src/common/' \
  | grep -vE ':[0-9]+:\s*//' \
  | sed -E 's/([0-9]+:).*\/\/.*(sleep_for|steady_clock|random_device|rand\(\)).*/\1 COMMENT/' \
  | grep -v 'COMMENT$' || true)
if [[ -n "$time_hits" ]]; then
  echo "FAIL: raw time/randomness primitives found outside src/common/:" >&2
  echo "$time_hits" >&2
  echo "Use ray::NowMicros / ray::SleepMicros / ray::Rng so DST can hook them." >&2
  exit 1
fi
# Modelled latency costs time, not CPU (DESIGN.md "Modelled latency"): no
# PreciseDelayMicros, and no empty-bodied `while (NowMicros() < ...)` spin
# anywhere in src/, src/common/ included. A spin burns the CPU the benchmark
# charges to the runtime, and never ends on DST's frozen virtual clock.
spin_hits=$({
  grep -rn 'PreciseDelayMicros' src/ --include='*.h' --include='*.cc' || true
  find src/ \( -name '*.h' -o -name '*.cc' \) -exec perl -0777 -ne '
    while (/while\s*\(\s*NowMicros\(\)\s*<[^;{]*\)\s*(\{\s*\}|;)/g) {
      my $line = 1 + (substr($_, 0, $-[0]) =~ tr/\n//);
      print "$ARGV:$line: empty-bodied NowMicros() wait loop\n";
    }' {} +
})
if [[ -n "$spin_hits" ]]; then
  echo "FAIL: busy-wait on modelled latency in src/:" >&2
  echo "$spin_hits" >&2
  echo "Charge modelled delays with ray::SleepMicros, after releasing every lock." >&2
  exit 1
fi
echo "OK: all time and entropy flows through the hookable seams in src/common/, no spin waits"

if [[ "$MODE" == "quick" ]]; then
  echo "run_checks: quick mode — grep gates passed (run without 'quick' for the full bar)"
  exit 0
fi

echo "== check 4/6: clang thread-safety analysis (tidy preset) =="
if command -v clang++ >/dev/null 2>&1; then
  cmake --preset tidy >/dev/null
  cmake --build --preset tidy -j"$(nproc)"
  echo "OK: -Wthread-safety clean"
else
  echo "SKIPPED — clang++ not found on PATH; the annotation build gate needs clang." >&2
  echo "Install LLVM (clang) to verify GUARDED_BY/REQUIRES annotations compile-time." >&2
fi

echo "== check 5/6: clang-tidy lint =="
./scripts/run_lint.sh

echo "== check 6/6: lockdep soak (debug build) =="
cmake --preset debug >/dev/null
cmake --build --preset debug -j"$(nproc)"
ctest --test-dir build-debug --output-on-failure -j"$(nproc)"
# Seeded chaos soak under lockdep. No detection-window widening: the monitor
# measures this host's scheduling slack and pads the window itself (4x under
# !NDEBUG builds) — see SchedulingSlackUs in src/gcs/monitor.cc.
BUILD_DIR=build-debug ./scripts/run_chaos.sh
echo "OK: no lock-order cycles across tier-1 + chaos soak"

# Release-overhead check: the optimized (NDEBUG) build must contain no
# lockdep machinery at all — the stubs inline away and the Site member is
# empty. lockdep_test's release branch additionally static_asserts that
# ray::Mutex is layout-identical to std::mutex.
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)" --target lockdep_test
if nm -C build/tests/lockdep_test | grep -q 'lockdep.*\(Graph\|BeforeAcquire\|Backtrace\)'; then
  echo "FAIL: lockdep symbols survive in the release binary:" >&2
  nm -C build/tests/lockdep_test | grep 'lockdep' >&2
  exit 1
fi
echo "OK: release binary carries no lockdep symbols"

echo "run_checks: all gates passed"
