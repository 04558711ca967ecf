// Ablation: plan/result caching for hot repeated traffic. A
// standalone closed-loop driver (no Google-benchmark harness, like
// ablation_concurrency): 8 sessions replay a small pool of
// deterministic read-only queries back to back against one Database,
// once with the plan + result caches enabled and once with both off.
// Three phases per mode:
//
//   cold  — single session, each hot query once (fills the caches in
//           the caches-on run);
//   warm  — the hit-heavy steady state: N sessions x per-session
//           closed loop over the hot pool. EVERY result — cache hit
//           or not — is fingerprint-checked bit-for-bit against a
//           caches-off cold-miss oracle;
//   churn — DDL/DML interleaving: each round mutates the catalog
//           (INSERT into a scanned table, or CREATE/DROP of a scratch
//           table) on BOTH the caches-on and caches-off databases,
//           then replays the hot pool on each and cross-checks the
//           two row-for-row. Measures how invalidation storms erode
//           the hit rate without ever serving stale rows.
//
// Emits BENCH_cache.json with per-phase qps, cache hit counters, and
// the warm-phase speedup. In the full configuration the driver FAILS
// unless warm caches-on qps is >= 5x warm caches-off qps (the PR
// acceptance gate) and every fingerprint matched.
//
// Usage:
//   ablation_cache [--quick] [--per-session N] [--churn-rounds R]
//
// --quick shrinks the dataset and loop counts (the ctest `cache`
// smoke configuration); it keeps the correctness assertions but skips
// the 5x throughput gate, which is meaningless at toy sizes.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
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

constexpr size_t kSessions = 8;
constexpr uint64_t kSeed = 20170419;  // ICDE 2017

struct Args {
  size_t dims = 32;
  size_t rows = 1500;
  size_t per_session = 40;  // warm-phase closed-loop queries/session
  size_t churn_rounds = 20;
  bool quick = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
      args.dims = 16;
      args.rows = 300;
      args.per_session = 6;
      args.churn_rounds = 4;
    } else if (std::strcmp(argv[i], "--per-session") == 0 && i + 1 < argc) {
      args.per_session = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--churn-rounds") == 0 && i + 1 < argc) {
      args.churn_rounds = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--per-session N] [--churn-rounds R]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (args.per_session == 0) args.per_session = 1;
  return args;
}

/// The hot pool: repeated-traffic read-only statements, all
/// deterministic and result-cacheable (no radb_* scans). The two LA
/// queries make a cold execution expensive enough that a warm result
/// hit is a different regime, not a rounding error.
std::vector<std::string> HotQueries() {
  return {
      // Gram matrix (Figure 1 vector coding).
      "SELECT SUM(outer_product(x.value, x.value)) FROM x_vm AS x",
      // Linear regression (§3.2 code, verbatim shape).
      "SELECT matrix_vector_multiply("
      "  matrix_inverse(SUM(outer_product(x.x_i, x.x_i))), "
      "  SUM(x.x_i * y.y_i)) "
      "FROM (SELECT id AS i, value AS x_i FROM x_vm) AS x, y "
      "WHERE x.i = y.i",
      // Scalar aggregate scan.
      "SELECT COUNT(*), SUM(y.y_i) FROM y WHERE y.y_i > 0.0",
      // Ordered top-of-table probe.
      "SELECT y.i, y.y_i FROM y WHERE y.i < 32 ORDER BY y.i",
      // Trivial count — the latency floor.
      "SELECT COUNT(*) FROM x_vm",
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

/// Column metadata + row bytes, same contract as ablation_concurrency:
/// a cached result replays stored columns as well as rows, so both
/// must be covered for "bit-identical" to mean anything.
std::string Fingerprint(const ResultSet& rs) {
  std::ostringstream os(std::ios::binary);
  for (const SlotInfo& c : rs.columns) {
    os << c.name << '\0' << c.type.ToString() << '\0';
  }
  for (const Row& row : rs.rows) WriteRowBinary(os, row);
  return os.str();
}

Database::Config MakeConfig(bool caches) {
  Database::Config config;
  config.num_workers = 8;
  config.num_threads = 8;
  config.obs.enable_metrics = true;
  config.cache.enable_plan_cache = caches;
  config.cache.enable_result_cache = caches;
  config.telemetry.query_log_capacity = 8192;
  return config;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PhaseStats {
  std::string phase;
  bool caches = false;
  size_t queries = 0;
  size_t mismatches = 0;
  size_t errors = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  uint64_t result_hits = 0;  // delta over this phase
  uint64_t plan_hits = 0;
};

struct CacheCounters {
  uint64_t result_hits = 0, plan_hits = 0;
};

CacheCounters ReadCounters(Database* db) {
  obs::MetricsRegistry* m = db->metrics_registry();
  return {m->counter("cache.result_hits")->value(),
          m->counter("cache.plan_hits")->value()};
}

void FinishPhase(Database* db, const CacheCounters& before, double start,
                 PhaseStats* p) {
  p->wall_seconds = NowSeconds() - start;
  p->qps = p->wall_seconds > 0.0
               ? static_cast<double>(p->queries) / p->wall_seconds
               : 0.0;
  const CacheCounters after = ReadCounters(db);
  p->result_hits = after.result_hits - before.result_hits;
  p->plan_hits = after.plan_hits - before.plan_hits;
  std::printf("%-5s caches=%-3s  queries=%-5zu wall=%.3fs  qps=%9.1f  "
              "result_hits=%llu plan_hits=%llu  mismatches=%zu errors=%zu\n",
              p->phase.c_str(), p->caches ? "on" : "off", p->queries,
              p->wall_seconds, p->qps,
              static_cast<unsigned long long>(p->result_hits),
              static_cast<unsigned long long>(p->plan_hits), p->mismatches,
              p->errors);
}

/// cold: one session, each hot query once, results recorded (the
/// caches-off run's outputs double as the cold-miss oracle).
PhaseStats RunCold(Database* db, SessionManager* manager,
                   const std::vector<std::string>& queries, bool caches,
                   std::vector<std::string>* got_fingerprints) {
  PhaseStats p;
  p.phase = "cold";
  p.caches = caches;
  const CacheCounters before = ReadCounters(db);
  const double start = NowSeconds();
  auto session = manager->CreateSession();
  for (const std::string& q : queries) {
    auto rs = session->Execute(q);
    ++p.queries;
    if (!rs.ok() || !rs->has_results()) {
      ++p.errors;
      got_fingerprints->push_back("");
    } else {
      got_fingerprints->push_back(Fingerprint(rs->last()));
    }
  }
  FinishPhase(db, before, start, &p);
  return p;
}

/// warm: the hit-heavy steady state. Every result must match the
/// cold-miss oracle fingerprints bit for bit.
PhaseStats RunWarm(Database* db, SessionManager* manager,
                   const std::vector<std::string>& queries,
                   const std::vector<std::string>& want, bool caches,
                   size_t sessions, size_t per_session) {
  PhaseStats p;
  p.phase = "warm";
  p.caches = caches;
  p.queries = sessions * per_session;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> errors{0};
  const CacheCounters before = ReadCounters(db);
  const double start = NowSeconds();
  std::vector<std::thread> threads;
  for (size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      auto session = manager->CreateSession();
      for (size_t i = 0; i < per_session; ++i) {
        const size_t qi = (s + i) % queries.size();
        auto rs = session->Execute(queries[qi]);
        if (!rs.ok() || !rs->has_results()) {
          errors.fetch_add(1);
        } else if (Fingerprint(rs->last()) != want[qi]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  p.mismatches = mismatches.load();
  p.errors = errors.load();
  FinishPhase(db, before, start, &p);
  return p;
}

/// churn: mutate BOTH databases in lockstep, then replay the hot pool
/// on each and cross-check row for row. The caches-on side must
/// invalidate, never serve pre-mutation rows.
struct ChurnOutcome {
  PhaseStats on;   // timed replay on the caches-on database
  PhaseStats off;  // same replay on the caches-off reference
};

ChurnOutcome RunChurn(Database* on_db, SessionManager* on_mgr,
                      Database* off_db, SessionManager* off_mgr,
                      const std::vector<std::string>& queries,
                      size_t rounds) {
  ChurnOutcome out;
  out.on.phase = out.off.phase = "churn";
  out.on.caches = true;
  out.off.caches = false;
  const CacheCounters on_before = ReadCounters(on_db);
  const CacheCounters off_before = ReadCounters(off_db);
  auto on_session = on_mgr->CreateSession();
  auto off_session = off_mgr->CreateSession();
  double on_wall = 0.0, off_wall = 0.0;
  bool scratch_exists = false;
  for (size_t r = 0; r < rounds; ++r) {
    // The mutation: every round invalidates something a hot query
    // depends on, alternating DML against a scanned table with DDL
    // creating/dropping a scratch table.
    std::string ddl;
    if (r % 2 == 0) {
      ddl = "INSERT INTO y VALUES (" + std::to_string(1000000 + r) + ", " +
            std::to_string(0.25 * static_cast<double>(r % 8)) + ")";
    } else if (!scratch_exists) {
      ddl = "CREATE TABLE churn_scratch (k INTEGER)";
      scratch_exists = true;
    } else {
      ddl = "DROP TABLE churn_scratch";
      scratch_exists = false;
    }
    for (Database* db : {on_db, off_db}) {
      auto rs = db->Execute(ddl);
      if (!rs.ok()) {
        ++out.on.errors;
        std::fprintf(stderr, "churn mutation failed: %s\n",
                     rs.status().ToString().c_str());
        return out;
      }
    }
    for (const std::string& q : queries) {
      double t0 = NowSeconds();
      auto on_rs = on_session->Execute(q);
      on_wall += NowSeconds() - t0;
      t0 = NowSeconds();
      auto off_rs = off_session->Execute(q);
      off_wall += NowSeconds() - t0;
      ++out.on.queries;
      ++out.off.queries;
      if (!on_rs.ok() || !off_rs.ok() || !on_rs->has_results() ||
          !off_rs->has_results()) {
        ++out.on.errors;
      } else if (Fingerprint(on_rs->last()) != Fingerprint(off_rs->last())) {
        ++out.on.mismatches;
      }
    }
  }
  out.on.wall_seconds = on_wall;
  out.off.wall_seconds = off_wall;
  out.on.qps = on_wall > 0.0
                   ? static_cast<double>(out.on.queries) / on_wall
                   : 0.0;
  out.off.qps = off_wall > 0.0
                    ? static_cast<double>(out.off.queries) / off_wall
                    : 0.0;
  const CacheCounters on_after = ReadCounters(on_db);
  const CacheCounters off_after = ReadCounters(off_db);
  out.on.result_hits = on_after.result_hits - on_before.result_hits;
  out.on.plan_hits = on_after.plan_hits - on_before.plan_hits;
  out.off.result_hits = off_after.result_hits - off_before.result_hits;
  out.off.plan_hits = off_after.plan_hits - off_before.plan_hits;
  for (const PhaseStats* p : {&out.on, &out.off}) {
    std::printf("%-5s caches=%-3s  queries=%-5zu wall=%.3fs  qps=%9.1f  "
                "result_hits=%llu plan_hits=%llu  mismatches=%zu errors=%zu\n",
                p->phase.c_str(), p->caches ? "on" : "off", p->queries,
                p->wall_seconds, p->qps,
                static_cast<unsigned long long>(p->result_hits),
                static_cast<unsigned long long>(p->plan_hits), p->mismatches,
                p->errors);
  }
  return out;
}

std::string EntryJson(const PhaseStats& p) {
  return bench::JsonFields()
      .Str("phase", p.phase)
      .Bool("caches", p.caches)
      .Int("queries", p.queries)
      .Num("wall_seconds", p.wall_seconds)
      .Num("qps", p.qps)
      .Int("result_hits", p.result_hits)
      .Int("plan_hits", p.plan_hits)
      .Int("mismatches", p.mismatches)
      .Int("errors", p.errors)
      .ToString();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::vector<std::string> queries = HotQueries();

  // Two identically-loaded databases: caches on vs off. The off run's
  // cold pass is the cold-miss oracle every cache hit is held to.
  Database on_db(MakeConfig(/*caches=*/true));
  Database off_db(MakeConfig(/*caches=*/false));
  for (Database* db : {&on_db, &off_db}) {
    if (Status s = LoadDataset(db, args.rows, args.dims); !s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  SessionManager on_mgr(&on_db);
  SessionManager off_mgr(&off_db);

  std::vector<PhaseStats> entries;

  // cold — caches-off first: its outputs are the oracle.
  std::vector<std::string> want, on_cold;
  entries.push_back(RunCold(&off_db, &off_mgr, queries, false, &want));
  entries.push_back(RunCold(&on_db, &on_mgr, queries, true, &on_cold));
  size_t cold_mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (on_cold[i] != want[i]) ++cold_mismatches;
  }
  entries[1].mismatches += cold_mismatches;

  // warm — the hit-heavy steady state, both modes, against the
  // cold-miss oracle.
  PhaseStats warm_off = RunWarm(&off_db, &off_mgr, queries, want, false,
                                kSessions, args.per_session);
  PhaseStats warm_on = RunWarm(&on_db, &on_mgr, queries, want, true,
                               kSessions, args.per_session);
  entries.push_back(warm_off);
  entries.push_back(warm_on);

  // churn — DDL/DML interleaving in lockstep on both databases.
  ChurnOutcome churn = RunChurn(&on_db, &on_mgr, &off_db, &off_mgr, queries,
                                args.churn_rounds);
  entries.push_back(churn.off);
  entries.push_back(churn.on);

  const double speedup =
      warm_off.qps > 0.0 ? warm_on.qps / warm_off.qps : 0.0;
  size_t mismatches = 0, errors = 0;
  for (const PhaseStats& p : entries) {
    mismatches += p.mismatches;
    errors += p.errors;
  }

  std::vector<std::string> json;
  for (const PhaseStats& p : entries) json.push_back(EntryJson(p));
  bench::WriteBenchJson("cache",
                        bench::JsonFields()
                            .Int("rows", args.rows)
                            .Int("dims", args.dims)
                            .Int("sessions", kSessions)
                            .Int("per_session", args.per_session)
                            .Int("churn_rounds", args.churn_rounds)
                            .Num("warm_speedup", speedup)
                            .Int("mismatches", mismatches)
                            .Int("errors", errors),
                        json);

  std::printf("warm speedup (caches on vs off, %zu sessions): %.2fx\n",
              kSessions, speedup);
  if (mismatches + errors > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu mismatched / %zu errored results — a cache hit "
                 "diverged from cold-miss execution\n",
                 mismatches, errors);
    return 1;
  }
  if (warm_on.result_hits == 0) {
    std::fprintf(stderr, "FAIL: warm caches-on phase recorded zero result "
                         "hits — the workload never exercised the cache\n");
    return 1;
  }
  if (!args.quick && speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: warm speedup %.2fx < 5x acceptance threshold\n",
                 speedup);
    return 1;
  }
  std::printf("all results bit-identical across cache hits, cold misses, "
              "and DDL churn\n");
  return 0;
}
