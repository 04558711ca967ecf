#!/usr/bin/env sh
# Differential fuzz campaign under AddressSanitizer + UBSan:
# configures a dedicated build tree with -DRADB_SANITIZE=address,undefined
# and -Werror, builds the fuzz_queries driver, replays the pinned
# regression seeds, then runs a seeded random sweep (>= 500 queries,
# each executed under all six configurations — {DP, greedy,
# no-early-projection} x {1t, 8t} — and compared cell-exactly against
# the brute-force reference evaluator). Exits non-zero on any
# divergence or sanitizer report; divergences are shrunk to a minimal
# repro to paste into src/testing/regression_seeds.h.
#
# Usage: scripts/fuzz.sh [build-dir] [queries] [seed]
#   defaults: build-fuzz 600 1
set -eu

BUILD_DIR="${1:-build-fuzz}"
QUERIES="${2:-600}"
SEED="${3:-1}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

# -Werror: a warning that only the sanitizer build raises (GCC's
# -Wmaybe-uninitialized sees more under ASan+UBSan) fails the campaign.
cmake -S "$(dirname "$0")/.." -B "$BUILD_DIR" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRADB_SANITIZE=address,undefined \
  -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD_DIR" -j "$JOBS" --target fuzz_queries
# halt_on_error so a UBSan report fails the run instead of scrolling by.
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
  "$BUILD_DIR/bench/fuzz_queries" --queries "$QUERIES" --seed "$SEED"

# Kernel pass: the dense LA suites (label `kernels`) — every ISA
# variant of the register-tile and row-update kernels against the
# reference loops and sparse twins, with ±0/±inf/NaN/subnormal cells
# and every tile remainder, so an out-of-bounds tile edge surfaces here
# (scripts/stress.sh runs the same label under TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" --target la_test tiled_test kernel_test
(cd "$BUILD_DIR" && ctest -L kernels --output-on-failure)

# Tight-budget pass: rerun the SQL-LA / aggregation / executor /
# batch-engine / relational multiply / spool suites with a 16 MB
# per-query memory budget, plus the spill and admission suites (ctest
# label memory_budget), so the spill paths face the same assertions as
# the unbudgeted runs — under the sanitizers (scripts/stress.sh runs the
# same label under TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target sql_la_test sql_agg_test exec_test vectorized_test spill_exec_test \
  relational_multiply_test spool_test
(cd "$BUILD_DIR" && ctest -L memory_budget --output-on-failure)

# Join pass: the executor suites (label `join`) — every join strategy,
# Grace, the index-nested-loop join and the pipeline's streaming sink,
# unbudgeted — under ASan+UBSan (scripts/stress.sh runs the same label
# under TSan). exec_test is built above.
(cd "$BUILD_DIR" && ctest -L join --output-on-failure)

# Concurrency pass: the thread pool units, the service/cancellation
# suites and the multi-session bench smoke under ASan+UBSan
# (scripts/stress.sh runs the same label under TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target common_test service_test cancel_test systab_test \
  ablation_concurrency
(cd "$BUILD_DIR" && ctest -L concurrency --output-on-failure)

# Observability pass: system tables, telemetry ring, exporter — the
# same `obs` label scripts/stress.sh runs under TSan.
(cd "$BUILD_DIR" && ctest -L obs --output-on-failure)

# Batch engine pass: the pipeline-vs-reference battery (typed and
# Value lanes, batch edges, error order, budgets) under ASan+UBSan —
# columnar kernels index through selection vectors, so out-of-bounds
# lane math surfaces here first (scripts/stress.sh runs the same label
# under TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" --target vectorized_test
(cd "$BUILD_DIR" && ctest -L vectorized --output-on-failure)

# Cache pass: plan/result cache hit/miss/invalidation suites and the
# cache ablation smoke (label `cache`), then the DDL-interleaved
# differential rounds — caches-on vs caches-off databases replaying
# hot statements across INSERT / CREATE-DROP / PREPARE churn — all
# under ASan+UBSan. A stale-cache bug surfaces here as a divergence;
# a lifetime bug in the shared entries surfaces as a sanitizer report
# (scripts/stress.sh runs the same label + rounds under TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" --target cache_test ablation_cache
(cd "$BUILD_DIR" && ctest -L cache --output-on-failure)
"$BUILD_DIR/bench/fuzz_queries" --queries 0 --ddl-churn 200 --seed "$SEED"

# Storage pass: the persistence battery (pager/B+ tree/buffer-pool
# units, cold restarts, fork+SIGKILL crash recovery, larger-than-pool
# scans), the table and codec units (segment records cut at every
# byte, corrupt counts and tags) and the fuzzer's close-reopen-compare
# rounds — page-file, segment and WAL framing code is pointer-heavy,
# so ASan+UBSan is its first line of defense (scripts/stress.sh runs
# the same label under TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" \
  --target persist_test storage_test serialize_test ablation_storage
(cd "$BUILD_DIR" && ctest -L storage --output-on-failure)
"$BUILD_DIR/bench/fuzz_queries" --queries 0 --reopen 8 --seed "$SEED"

# Spool pass: shared-subtree spools — held results copied, moved on
# their last use, spilled under a budget and dropped on cancel; buffer
# lifetimes across those hand-offs are what ASan+UBSan should watch
# (scripts/stress.sh runs the same label under TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" --target spool_test
(cd "$BUILD_DIR" && ctest -L spool --output-on-failure)

# Relational multiply pass: the tile path reads its inputs in place,
# scatters cells into dense tiles and, on fallback, hands the held
# inputs to the join — index math and buffer hand-offs are what
# ASan+UBSan should watch (scripts/stress.sh runs the same label under
# TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" --target relational_multiply_test
(cd "$BUILD_DIR" && ctest -L relational_multiply --output-on-failure)

# Sparse pass: CSR/COO kernels, semiring dispatch, sparse Value
# serialization through spill / cache / reopen, and the graph
# workload — pointer-walking CSR merge loops are classic off-by-one
# territory, so ASan+UBSan runs the whole label (scripts/stress.sh
# runs the same label under TSan).
cmake --build "$BUILD_DIR" -j "$JOBS" --target sparse_test ablation_sparse
(cd "$BUILD_DIR" && ctest -L sparse --output-on-failure)
