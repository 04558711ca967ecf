// Ablation: concurrent query service. A closed-loop multi-session
// stress driver (standalone, like fuzz_queries — not a Google
// benchmark): N sessions on one Database each run a mixed
// Gram / linear-regression / short-scan workload back to back, and
// EVERY result is cross-checked bit-for-bit against single-session
// execution of the same query — the determinism contract must survive
// admission, fair scheduling, and interleaved execution. Sweeps
// N in {1, 2, 4, 8} on the default 8-thread pool, plus an
// {8 sessions, 16-thread pool} point: the PR 6 phase attribution
// concluded the 4→8-session flatline is pool capacity, not
// scheduling, so doubling Config::num_threads should move the qps
// ceiling where a scheduler fix would not. A final {8 sessions,
// caches on} point re-runs the workload with the plan/result caches
// enabled and asserts every warm hit is bit-identical to the
// caches-off cold-miss oracle (the fingerprint covers column
// metadata as well as row bytes). Emits
// BENCH_concurrency.json with per-point throughput plus queue-wait
// and end-to-end latency percentiles from the service histograms.
//
// Usage:
//   ablation_concurrency [--quick] [--per-session N]
//
// --quick shrinks the dataset and per-session query count (the ctest
// `concurrency` smoke configuration).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/database.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "la/random.h"
#include "service/session.h"
#include "storage/serialize.h"

namespace {

using namespace radb;
using service::SessionManager;

constexpr size_t kWorkers = 8;
constexpr size_t kThreads = 8;
constexpr uint64_t kSeed = 20170419;  // ICDE 2017

struct Args {
  size_t dims = 40;
  size_t rows = 1500;
  size_t per_session = 6;  // closed-loop queries per session
  bool quick = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
      args.dims = 16;
      args.rows = 300;
      args.per_session = 3;
    } else if (std::strcmp(argv[i], "--per-session") == 0 && i + 1 < argc) {
      args.per_session = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--per-session N]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (args.per_session == 0) args.per_session = 1;
  return args;
}

/// The mixed workload: a heavy Gram aggregate, the paper's §3.2
/// linear-regression solve, and a short scan — so the fair scheduler
/// has to multiplex long LA work with latency-sensitive queries.
std::vector<std::string> WorkloadQueries() {
  return {
      // Gram matrix (Figure 1 vector coding).
      "SELECT SUM(outer_product(x.value, x.value)) FROM x_vm AS x",
      // Linear regression (§3.2 code, verbatim shape).
      "SELECT matrix_vector_multiply("
      "  matrix_inverse(SUM(outer_product(x.x_i, x.x_i))), "
      "  SUM(x.x_i * y.y_i)) "
      "FROM (SELECT id AS i, value AS x_i FROM x_vm) AS x, y "
      "WHERE x.i = y.i",
      // Short scan: must not be starved behind the LA queries.
      "SELECT COUNT(*), SUM(y.y_i) FROM y WHERE y.y_i > 0.0",
  };
}

Status LoadDataset(Database* db, size_t n, size_t d) {
  RADB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE x_vm (id INTEGER, value VECTOR[" +
                  std::to_string(d) + "])")
          .status());
  RADB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE y (i INTEGER, y_i DOUBLE)").status());
  Rng rng(kSeed);
  std::vector<Row> xs, ys;
  for (size_t i = 0; i < n; ++i) {
    xs.push_back({Value::Int(static_cast<int64_t>(i)),
                  Value::FromVector(la::RandomVector(rng, d))});
    ys.push_back({Value::Int(static_cast<int64_t>(i)),
                  Value::Double(rng.NextDouble() * 2.0 - 1.0)});
  }
  RADB_RETURN_NOT_OK(db->BulkInsert("x_vm", std::move(xs)));
  return db->BulkInsert("y", std::move(ys));
}

/// Serialized bytes of the whole visible result: column names and
/// types first, then every row. A cache hit replays stored column
/// metadata as well as rows, so the fingerprint must cover both — the
/// old rows-only fingerprint would have called a hit with mangled
/// column names or types "identical".
std::string Fingerprint(const ResultSet& rs) {
  std::ostringstream os(std::ios::binary);
  for (const SlotInfo& c : rs.columns) {
    os << c.name << '\0' << c.type.ToString() << '\0';
  }
  for (const Row& row : rs.rows) WriteRowBinary(os, row);
  return os.str();
}

Database::Config MakeConfig(size_t threads = kThreads, bool caches = false) {
  Database::Config config;
  config.num_workers = kWorkers;
  config.num_threads = threads;
  config.obs.enable_metrics = true;
  // The contention sweep runs caches-off so its numbers keep measuring
  // admission/scheduling, not cache residency; the dedicated
  // caches-on point flips this to assert warm hits stay bit-identical.
  config.cache.enable_plan_cache = caches;
  config.cache.enable_result_cache = caches;
  // Large enough that no sweep point evicts a record before the
  // post-run radb_query_phases rollup reads it.
  config.telemetry.query_log_capacity = 8192;
  return config;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SweepEntry {
  size_t sessions = 0;
  size_t threads = kThreads;  // Config::num_threads at this point
  bool caches = false;        // plan + result caches enabled
  uint64_t result_hits = 0, plan_hits = 0;
  size_t queries = 0;
  size_t mismatches = 0;
  size_t errors = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;           // end-to-end seconds
  double queue_p50 = 0.0, queue_p95 = 0.0, queue_p99 = 0.0;
  uint64_t admitted = 0, queued = 0;
  /// Where the time went, summed across every session query at this
  /// sweep point: radb_query_phases rolled up through SQL. Index is
  /// obs::QueryPhase.
  uint64_t phase_micros[obs::kNumQueryPhases] = {};
  /// Catalog-latch and thread-pool contention distributions (seconds).
  double latch_read_p50 = 0.0, latch_read_p95 = 0.0, latch_read_p99 = 0.0;
  double latch_write_p95 = 0.0;
  double region_wait_p50 = 0.0, region_wait_p95 = 0.0,
         region_wait_p99 = 0.0;
};

/// Rolls up the per-phase time of every session-issued query at this
/// sweep point, read back through the system tables themselves
/// (session_id > 0 excludes the dataset-loading DDL/DML, which runs
/// through Database::Execute directly).
Status RollupPhases(Database* db, SweepEntry* entry) {
  auto rs = db->Execute(
      "SELECT phase, SUM(micros) AS total FROM radb_query_phases "
      "WHERE session_id > 0 GROUP BY phase");
  if (!rs.ok()) return rs.status();
  const ResultSet& result = rs->last();
  for (size_t r = 0; r < result.num_rows(); ++r) {
    const std::string& phase = result.at(r, 0).string_value();
    for (size_t p = 0; p < obs::kNumQueryPhases; ++p) {
      if (phase == obs::QueryPhaseName(static_cast<obs::QueryPhase>(p))) {
        const Value& total = result.at(r, 1);
        entry->phase_micros[p] = static_cast<uint64_t>(
            total.kind() == TypeKind::kInteger ? total.int_value()
                                               : total.double_value());
      }
    }
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::vector<std::string> queries = WorkloadQueries();

  // Single-session reference fingerprints: the oracle every
  // concurrent result must match bit for bit.
  Database ref_db(MakeConfig());
  if (Status s = LoadDataset(&ref_db, args.rows, args.dims); !s.ok()) {
    std::fprintf(stderr, "reference load failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::vector<std::string> want;
  for (const auto& q : queries) {
    auto rs = ref_db.Execute(q);
    if (!rs.ok() || !rs->has_results()) {
      std::fprintf(stderr, "reference query failed: %s\n",
                   rs.ok() ? "no result set" : rs.status().ToString().c_str());
      return 1;
    }
    want.push_back(Fingerprint(rs->last()));
  }

  std::vector<SweepEntry> entries;
  size_t total_mismatches = 0;
  size_t total_errors = 0;
  // (sessions, pool threads, caches): the 1→8-session sweep on the
  // default 8-thread pool, then 8 sessions against a 16-thread pool —
  // the capacity experiment the PR 6 saturation diagnosis called for —
  // and finally 8 sessions with the plan/result caches enabled, where
  // every warm hit must still fingerprint-match the caches-off
  // cold-miss oracle computed above.
  struct Point {
    size_t sessions;
    size_t threads;
    bool caches;
  };
  const Point sweep[] = {{1, kThreads, false}, {2, kThreads, false},
                         {4, kThreads, false}, {8, kThreads, false},
                         {8, 2 * kThreads, false}, {8, kThreads, true}};
  for (const auto& [sessions, threads, caches] : sweep) {
    // Fresh Database per sweep point so the service histograms cover
    // exactly this window (SessionManager resolves instrument pointers
    // at construction, so clearing a live registry is not an option).
    Database db(MakeConfig(threads, caches));
    if (Status s = LoadDataset(&db, args.rows, args.dims); !s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
      return 1;
    }
    SessionManager manager(&db);

    SweepEntry entry;
    entry.sessions = sessions;
    entry.threads = threads;
    entry.caches = caches;
    entry.queries = sessions * args.per_session;
    std::atomic<size_t> mismatches{0};
    std::atomic<size_t> errors{0};
    std::vector<std::thread> session_threads;
    const double start = NowSeconds();
    for (size_t s = 0; s < sessions; ++s) {
      session_threads.emplace_back([&, s] {
        auto session = manager.CreateSession();
        // Closed loop: each session issues its next query as soon as
        // the previous one returns; sessions start at staggered
        // offsets so the mix stays mixed.
        for (size_t i = 0; i < args.per_session; ++i) {
          const size_t qi = (s + i) % queries.size();
          auto got = session->Execute(queries[qi]);
          if (!got.ok() || !got->has_results()) {
            errors.fetch_add(1);
          } else if (Fingerprint(got->last()) != want[qi]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : session_threads) t.join();
    entry.wall_seconds = NowSeconds() - start;
    entry.mismatches = mismatches.load();
    entry.errors = errors.load();
    entry.qps = entry.wall_seconds > 0.0
                    ? static_cast<double>(entry.queries) / entry.wall_seconds
                    : 0.0;
    obs::MetricsRegistry* metrics = db.metrics_registry();
    obs::Histogram* lat = metrics->histogram("service.query_seconds");
    obs::Histogram* qw = metrics->histogram("service.queue_wait_seconds");
    entry.p50 = lat->Percentile(0.5);
    entry.p95 = lat->Percentile(0.95);
    entry.p99 = lat->Percentile(0.99);
    entry.queue_p50 = qw->Percentile(0.5);
    entry.queue_p95 = qw->Percentile(0.95);
    entry.queue_p99 = qw->Percentile(0.99);
    entry.admitted = metrics->counter("service.queries_admitted")->value();
    entry.queued = metrics->counter("service.queries_queued")->value();
    entry.result_hits = metrics->counter("cache.result_hits")->value();
    entry.plan_hits = metrics->counter("cache.plan_hits")->value();
    if (caches && entry.result_hits == 0) {
      // A caches-on point that never hits proves nothing about warm
      // correctness — treat it as a bench failure, not a quiet pass.
      std::fprintf(stderr,
                   "FAIL: caches-on sweep point recorded zero result-cache "
                   "hits\n");
      return 1;
    }
    obs::Histogram* lr = metrics->histogram("service.latch_wait_read_seconds");
    obs::Histogram* lw = metrics->histogram("service.latch_wait_write_seconds");
    obs::Histogram* rw = metrics->histogram("pool.region_wait_seconds");
    entry.latch_read_p50 = lr->Percentile(0.5);
    entry.latch_read_p95 = lr->Percentile(0.95);
    entry.latch_read_p99 = lr->Percentile(0.99);
    entry.latch_write_p95 = lw->Percentile(0.95);
    entry.region_wait_p50 = rw->Percentile(0.5);
    entry.region_wait_p95 = rw->Percentile(0.95);
    entry.region_wait_p99 = rw->Percentile(0.99);
    if (Status s = RollupPhases(&db, &entry); !s.ok()) {
      std::fprintf(stderr, "phase rollup failed: %s\n", s.ToString().c_str());
      return 1;
    }
    total_mismatches += entry.mismatches;
    total_errors += entry.errors;
    entries.push_back(entry);
    std::printf(
        "sessions=%zu  threads=%zu  caches=%s  queries=%zu  wall=%.3fs  "
        "qps=%.2f  p50=%.4fs p95=%.4fs p99=%.4fs  queue_p95=%.4fs  "
        "result_hits=%llu plan_hits=%llu  mismatches=%zu errors=%zu\n",
        entry.sessions, entry.threads, entry.caches ? "on" : "off",
        entry.queries, entry.wall_seconds, entry.qps, entry.p50, entry.p95,
        entry.p99, entry.queue_p95,
        static_cast<unsigned long long>(entry.result_hits),
        static_cast<unsigned long long>(entry.plan_hits), entry.mismatches,
        entry.errors);
    std::printf("  phases(ms):");
    for (size_t p = 0; p < obs::kNumQueryPhases; ++p) {
      std::printf(" %s=%.1f",
                  obs::QueryPhaseName(static_cast<obs::QueryPhase>(p)),
                  static_cast<double>(entry.phase_micros[p]) / 1000.0);
    }
    std::printf("  latch_read_p95=%.4fs region_wait_p95=%.4fs\n",
                entry.latch_read_p95, entry.region_wait_p95);
  }

  std::vector<std::string> json;
  for (const SweepEntry& e : entries) {
    bench::JsonFields phases;
    for (size_t p = 0; p < obs::kNumQueryPhases; ++p) {
      phases.Int(obs::QueryPhaseName(static_cast<obs::QueryPhase>(p)),
                 e.phase_micros[p]);
    }
    json.push_back(bench::JsonFields()
                       .Str("label", "sessions=" + std::to_string(e.sessions) +
                                         ",threads=" +
                                         std::to_string(e.threads) +
                                         ",caches=" + (e.caches ? "on" : "off"))
                       .Int("sessions", e.sessions)
                       .Int("threads", e.threads)
                       .Bool("caches", e.caches)
                       .Int("cache_result_hits", e.result_hits)
                       .Int("cache_plan_hits", e.plan_hits)
                       .Int("queries", e.queries)
                       .Num("wall_seconds", e.wall_seconds)
                       .Num("qps", e.qps)
                       .Num("latency_p50", e.p50)
                       .Num("latency_p95", e.p95)
                       .Num("latency_p99", e.p99)
                       .Num("queue_wait_p50", e.queue_p50)
                       .Num("queue_wait_p95", e.queue_p95)
                       .Num("queue_wait_p99", e.queue_p99)
                       .Int("admitted", e.admitted)
                       .Int("queued", e.queued)
                       .Raw("phase_micros", phases.ToString())
                       .Num("latch_read_p50", e.latch_read_p50)
                       .Num("latch_read_p95", e.latch_read_p95)
                       .Num("latch_read_p99", e.latch_read_p99)
                       .Num("latch_write_p95", e.latch_write_p95)
                       .Num("region_wait_p50", e.region_wait_p50)
                       .Num("region_wait_p95", e.region_wait_p95)
                       .Num("region_wait_p99", e.region_wait_p99)
                       .Int("mismatches", e.mismatches)
                       .Int("errors", e.errors)
                       .ToString());
  }
  bench::WriteBenchJson("concurrency",
                        bench::JsonFields()
                            .Int("workers", kWorkers)
                            .Int("threads", kThreads)
                            .Int("rows", args.rows)
                            .Int("dims", args.dims)
                            .Int("per_session", args.per_session),
                        json);

  if (total_mismatches + total_errors > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu mismatched / %zu errored results vs the "
                 "single-session oracle\n",
                 total_mismatches, total_errors);
    return 1;
  }
  std::printf("all concurrent results bit-identical to single-session "
              "execution\n");
  return 0;
}
