#!/usr/bin/env bash
# ThreadSanitizer gate for the concurrency-heavy test binaries. The control
# plane leans on fine-grained locking (GCS batcher, sharded pub-sub, the
# scheduler's two-lock split), so every binary listed here must stay
# TSan-clean:
#   common_test          - queues, sync helpers, thread pool, shared buffer cache
#   fiber_test           - fiber context switches, park/unpark permit races
#   gcs_test             - batcher, chain replication, pub-sub tables
#   pubsub_test          - subscribe/unsubscribe/publish churn, ordering
#   scheduler_test       - submit -> dispatch handoff, spillover, heartbeats, placement
#   net_objectstore_test - shared-mutex object store, sim network
#   pull_manager_test    - async pull dedup, chunk pipeline, mid-pull failover
#   trace_test           - lock-free trace rings, pause handshake vs snapshot
#   lease_test           - direct transport: lease grant/revoke races, async lineage
#   lineage_buffer_test  - the one lineage writer: record, durability hooks, submit rounds
#   chaos_test           - chaos soak: detector + recovery under seeded faults
#   serving_test         - serving router event loop, admission atomics, autoscaler
#   dst_test             - the deterministic schedule explorer's runtime (single seed)
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan >/dev/null
cmake --build --preset tsan -j"$(nproc)" \
  --target common_test fiber_test gcs_test pubsub_test scheduler_test net_objectstore_test \
  pull_manager_test trace_test lease_test lineage_buffer_test chaos_test serving_test dst_test

export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
for t in common_test fiber_test gcs_test pubsub_test scheduler_test net_objectstore_test \
  pull_manager_test trace_test; do
  echo "== TSan: $t =="
  ./build-tsan/tests/"$t"
done

# No detection-window env widenings here: the GCS monitor measures this
# host's scheduling slack at startup and pads the heartbeat window itself
# (with an extra factor under sanitizers) — see SchedulingSlackUs in
# src/gcs/monitor.cc.
echo "== TSan: lease_test =="
./build-tsan/tests/lease_test

echo "== TSan: lineage_buffer_test =="
./build-tsan/tests/lineage_buffer_test

echo "== TSan: chaos_test =="
./build-tsan/tests/chaos_test

# Single-seed mode: clean-drain schedules only. Exploration abandons
# deadlocked runs (leaking their parked fibers by design), which the
# sanitizers would flag; the race coverage here is the DST runtime itself.
echo "== TSan: dst_test (single-seed) =="
RAY_DST_SINGLE_SEED=1 ./build-tsan/tests/dst_test

# Serving tests still widen their latency/recovery bounds: under TSan the
# point is the race check, not the SLO figures.
echo "== TSan: serving_test =="
RAY_SERVE_SLO_US=2000000 \
  RAY_SERVE_SHED_P99_US=200000 RAY_SERVE_RECOVERY_BOUND_US=15000000 \
  RAY_SERVE_SCALE_DOWN_BOUND_US=30000000 ./build-tsan/tests/serving_test
echo "TSan: all clean"
