#!/usr/bin/env sh
# Concurrency stress campaign under ThreadSanitizer:
# configures a dedicated build tree with -DRADB_SANITIZE=thread, runs
# the concurrency-labeled ctest suites (service admission/sessions,
# cancellation/deadlines, the multi-session spill regression, and the
# ablation_concurrency smoke — every result cross-checked bit-for-bit
# against single-session execution), then a multi-session
# differential-fuzzer round: 4 concurrent service sessions replaying
# generated query batches against the serial oracle. Exits non-zero on
# any divergence, test failure, or TSan report.
#
# Usage: scripts/stress.sh [build-dir] [queries] [seed]
#   defaults: build-tsan 120 1
set -eu

BUILD_DIR="${1:-build-tsan}"
QUERIES="${2:-120}"
SEED="${3:-1}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

cmake -S "$(dirname "$0")/.." -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRADB_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target common_test service_test cancel_test systab_test vectorized_test \
  cache_test persist_test storage_test serialize_test sparse_test \
  spool_test la_test tiled_test \
  kernel_test sql_la_test sql_agg_test exec_test spill_exec_test \
  relational_multiply_test ablation_concurrency ablation_cache \
  ablation_storage ablation_sparse fuzz_queries

# halt_on_error so a race report fails the run instead of scrolling by.
# die_after_fork=0: the storage crash-recovery battery forks children
# that open their own Database (worker threads after fork); the forks
# happen while the parent is single-threaded, which TSan supports.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:die_after_fork=0}"

# Concurrency suites (ctest label shared with scripts/fuzz.sh), with
# the thread pool's units: nested regions joined by idle workers, a
# nested caller finishing alone while every worker is held, cross-pool
# regions.
(cd "$BUILD_DIR" && ctest -L concurrency --output-on-failure)

# Observability suite: system-table scans racing workload sessions,
# the exporter sampler thread, and the telemetry ring — the prime
# TSan targets this tree adds.
(cd "$BUILD_DIR" && ctest -L obs --output-on-failure)

# Budget suites: spill, Grace join and aggregation admission, and the
# SQL-LA / aggregation / executor / batch-engine / relational multiply
# / spool suites rerun under a 16 MB budget — spill buffers and the shared tracker are touched from
# every worker thread (same label scripts/fuzz.sh runs under ASan).
(cd "$BUILD_DIR" && ctest -L memory_budget --output-on-failure)

# Join suite: every join strategy's probe loop runs one pool task per
# worker over a shared broadcast build or its own hash build, streaming
# into the pipeline's per-worker sink (same label scripts/fuzz.sh runs
# under ASan).
(cd "$BUILD_DIR" && ctest -L join --output-on-failure)

# Batch engine suite: every pipeline fans partitions out over the
# worker pool and merges per-worker aggregate states, so the
# bit-identity battery doubles as a race detector for typed and Value
# lanes alike (same label scripts/fuzz.sh runs under ASan).
(cd "$BUILD_DIR" && ctest -L vectorized --output-on-failure)

# Cache suite: the plan/result caches are shared mutable state across
# sessions — the 8-session hit storm, cancel-during-fill, and the
# ablation smoke's warm phase are the races TSan should chew on
# (same label scripts/fuzz.sh runs under ASan).
(cd "$BUILD_DIR" && ctest -L cache --output-on-failure)

# Storage suite: the persistence battery — buffer-pool loads race
# across worker threads during concurrent scans, and checkpoint vs
# reader interleavings are exactly what TSan should chew on (same
# label scripts/fuzz.sh runs under ASan).
(cd "$BUILD_DIR" && ctest -L storage --output-on-failure)

# Sparse suite: the multiply dispatch counters are process-global
# atomics updated from every worker thread, and the sparse kernels run
# inside the parallel pipeline — the bit-identity assertions double as
# race detectors (same label scripts/fuzz.sh runs under ASan).
(cd "$BUILD_DIR" && ctest -L sparse --output-on-failure)

# Spool suite: eight sessions run one plan-cached spooled statement at
# once — spool state must live in each execution's Executor, never on
# the shared plan — and held copies are copied out on pool threads
# (same label scripts/fuzz.sh runs under ASan).
(cd "$BUILD_DIR" && ctest -L spool --output-on-failure)

# Kernel suite: the dense products split output rows into parallel
# bands on the pool (4 threads in kernel_test); each band writes only
# its own rows, which TSan checks here (same label scripts/fuzz.sh
# runs under ASan).
(cd "$BUILD_DIR" && ctest -L kernels --output-on-failure)

# Relational multiply suite: workers gather tile cells in parallel and
# the product runs on the kernels' pool bands; 1- and 8-thread results
# must agree bit for bit (same label scripts/fuzz.sh runs under ASan).
(cd "$BUILD_DIR" && ctest -L relational_multiply --output-on-failure)

# Multi-session differential fuzzing: 4 concurrent sessions vs the
# serial oracle, plus the usual single-threaded sweep for coverage,
# then the DDL-interleaved caches-on-vs-off rounds and the
# close-reopen-compare persistence rounds.
"$BUILD_DIR/bench/fuzz_queries" --queries "$QUERIES" --seed "$SEED" \
  --sessions 4
"$BUILD_DIR/bench/fuzz_queries" --queries 0 --ddl-churn 100 --seed "$SEED"
"$BUILD_DIR/bench/fuzz_queries" --queries 0 --reopen 4 --seed "$SEED"
