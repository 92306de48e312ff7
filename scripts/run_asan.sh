#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer gate, mirroring run_tsan.sh.
# -fno-sanitize-recover=all turns every UBSan diagnostic into a hard failure,
# so a passing run means zero reports, not "reports were printed".
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset asan >/dev/null
cmake --build --preset asan -j"$(nproc)" \
  --target common_test fiber_test gcs_test pubsub_test scheduler_test net_objectstore_test \
  pull_manager_test trace_test lease_test lineage_buffer_test chaos_test serving_test dst_test

export ASAN_OPTIONS="detect_leaks=1:halt_on_error=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
for t in common_test fiber_test gcs_test pubsub_test scheduler_test net_objectstore_test \
  pull_manager_test trace_test; do
  echo "== ASan/UBSan: $t =="
  ./build-asan/tests/"$t"
done

# No detection-window env widenings here: the GCS monitor measures this
# host's scheduling slack at startup and pads the heartbeat window itself
# (with an extra factor under sanitizers) — see SchedulingSlackUs in
# src/gcs/monitor.cc.
echo "== ASan/UBSan: lease_test =="
./build-asan/tests/lease_test

echo "== ASan/UBSan: lineage_buffer_test =="
./build-asan/tests/lineage_buffer_test

echo "== ASan/UBSan: chaos_test =="
./build-asan/tests/chaos_test

# Single-seed mode: clean-drain schedules only — abandoned (deadlocked)
# exploration runs leak their parked fibers by design, which detect_leaks
# would report. The coverage here is the DST runtime's own memory safety.
echo "== ASan/UBSan: dst_test (single-seed) =="
RAY_DST_SINGLE_SEED=1 ./build-asan/tests/dst_test

# Serving tests still widen their SLO/latency/recovery bounds: under the
# sanitizers the point is the memory check, not the SLO figures.
echo "== ASan/UBSan: serving_test =="
RAY_SERVE_SLO_US=2000000 \
  RAY_SERVE_SHED_P99_US=200000 RAY_SERVE_RECOVERY_BOUND_US=15000000 \
  RAY_SERVE_SCALE_DOWN_BOUND_US=30000000 ./build-asan/tests/serving_test
echo "ASan/UBSan: all clean"
