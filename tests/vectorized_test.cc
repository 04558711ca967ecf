// Vectorized-engine battery: the columnar batch engine must be
// bit-identical to the row engine on every query it accepts, fall
// back (silently and correctly) on everything else, and honor
// selection-vector edge cases at any batch size or thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"

#include "test_util.h"
#include "common/rng.h"
#include "storage/serialize.h"
#include "testing/catalog_gen.h"
#include "testing/differ.h"
#include "testing/query_gen.h"

namespace radb {
namespace {

using testing::Normalized;
using testing::SameCells;

Database::Config EngineConfig(bool vectorized, size_t threads,
                              size_t batch_rows = 1024) {
  Database::Config cfg;
  cfg.num_workers = 8;
  cfg.num_threads = threads;
  cfg.enable_vectorized = vectorized;
  cfg.vectorized_batch_rows = batch_rows;
  return cfg;
}

/// Runs `sql` (after `setup`) on the row engine at 1 thread — the
/// baseline — and on {row-8t, batch-1t, batch-8t}; every run must
/// produce the same cells (or the same error) as the baseline.
void ExpectEnginesAgree(const std::string& setup, const std::string& sql,
                        size_t batch_rows = 1024) {
  struct Variant {
    const char* name;
    bool vectorized;
    size_t threads;
  };
  const Variant variants[] = {{"row-1t", false, 1},
                              {"row-8t", false, 8},
                              {"batch-1t", true, 1},
                              {"batch-8t", true, 8}};
  Result<ResultSet> baseline = Status::OK();
  for (const Variant& v : variants) {
    Database db(EngineConfig(v.vectorized, v.threads, batch_rows));
    ASSERT_TRUE(Exec(db, setup).ok()) << v.name;
    Result<ResultSet> got = Exec(db, sql);
    if (std::string(v.name) == "row-1t") {
      baseline = std::move(got);
      continue;
    }
    ASSERT_EQ(baseline.ok(), got.ok())
        << v.name << ": " << (got.ok() ? "ok" : got.status().message());
    if (!baseline.ok()) {
      EXPECT_EQ(baseline.status().code(), got.status().code()) << v.name;
      EXPECT_EQ(baseline.status().message(), got.status().message())
          << v.name;
      continue;
    }
    EXPECT_TRUE(SameCells(Normalized(baseline->rows), Normalized(got->rows)))
        << v.name << " diverged on: " << sql;
  }
}

constexpr const char* kSetup =
    "CREATE TABLE t (a INTEGER, b DOUBLE, c STRING, d INTEGER);"
    "INSERT INTO t VALUES"
    " (1, 1.5, 'x', 10), (2, 2.5, 'y', NULL), (3, -3.5, 'x', 30),"
    " (4, 0.0, 'z', 40), (NULL, 4.5, NULL, 50), (6, NULL, 'y', NULL),"
    " (-7, 7.25, 'w', 70), (8, -0.0, 'x', 80)";

TEST(VectorizedTest, FilterProjectBitIdentity) {
  ExpectEnginesAgree(kSetup, "SELECT a * 2 + d, b - a FROM t WHERE a > 1");
  ExpectEnginesAgree(kSetup, "SELECT -a, -b, a - d * 2 FROM t WHERE b < 3.0");
  ExpectEnginesAgree(kSetup, "SELECT a FROM t WHERE c = 'x' OR c = 'y'");
  ExpectEnginesAgree(kSetup, "SELECT a, b FROM t WHERE NOT (a >= 4)");
  ExpectEnginesAgree(kSetup, "SELECT a + b FROM t WHERE a <> d");
}

TEST(VectorizedTest, MixedIntDoubleArithmeticWidensIdentically) {
  // INTEGER x INTEGER stays int64; any DOUBLE operand widens through
  // AsDouble — the cell kinds must match exactly, not just the values.
  ExpectEnginesAgree(kSetup, "SELECT a + 1, a + 1.0, b * a, a * a FROM t");
}

TEST(VectorizedTest, ThreeValuedLogicAndNullPropagation) {
  ExpectEnginesAgree(kSetup, "SELECT a FROM t WHERE d > 20 AND b > 0.0");
  ExpectEnginesAgree(kSetup, "SELECT a FROM t WHERE d > 20 OR b > 0.0");
  ExpectEnginesAgree(kSetup,
                     "SELECT a FROM t WHERE (a > 2 AND d < 60) OR c = 'w'");
  // NULL comparisons stay NULL and the filter drops them.
  ExpectEnginesAgree(kSetup, "SELECT a FROM t WHERE d = d");
}

TEST(VectorizedTest, LogicShortCircuitSuppressesRhsErrors) {
  // Row engine: a non-null false lhs skips the rhs entirely, so the
  // division never errors on the a = 0 row. The batch engine must
  // evaluate the rhs only on undecided lanes to match.
  const char* setup =
      "CREATE TABLE s (a INTEGER);"
      "INSERT INTO s VALUES (0), (1), (2), (5)";
  ExpectEnginesAgree(setup,
                     "SELECT a FROM s WHERE a <> 0 AND 10 / a > 1");
}

TEST(VectorizedTest, DivisionByZeroErrorsIdentically) {
  const char* setup =
      "CREATE TABLE s (a INTEGER);"
      "INSERT INTO s VALUES (4), (0), (2)";
  // Both engines must fail with the same NumericError.
  ExpectEnginesAgree(setup, "SELECT 8 / a FROM s");
  // Double division by zero is inf, never an error.
  ExpectEnginesAgree(setup, "SELECT 8.0 / a FROM s");
}

TEST(VectorizedTest, AggregateBattery) {
  ExpectEnginesAgree(kSetup,
                     "SELECT COUNT(*), COUNT(a), COUNT(d), SUM(a), SUM(b), "
                     "AVG(a), AVG(b), MIN(a), MAX(b), MIN(c), MAX(c) FROM t");
  ExpectEnginesAgree(kSetup,
                     "SELECT c, COUNT(*), SUM(a), AVG(b), MIN(d), MAX(a) "
                     "FROM t GROUP BY c");
  ExpectEnginesAgree(kSetup,
                     "SELECT a > 2, SUM(b), COUNT(d) FROM t GROUP BY a > 2");
  // Aggregate over a filtered + projected chain.
  ExpectEnginesAgree(kSetup,
                     "SELECT c, SUM(a * 2 + 1) FROM t WHERE a > 0 GROUP BY c");
}

TEST(VectorizedTest, NullGroupKeysAndNullArguments) {
  // NULL keys form their own group in both engines; SUM of an all-NULL
  // group is NULL while COUNT is 0.
  ExpectEnginesAgree(kSetup, "SELECT c, COUNT(b), SUM(d) FROM t GROUP BY c");
  ExpectEnginesAgree(kSetup, "SELECT d, COUNT(*) FROM t GROUP BY d");
}

TEST(VectorizedTest, ScalarAggregateOverZeroRows) {
  ExpectEnginesAgree(kSetup,
                     "SELECT COUNT(*), SUM(a), AVG(b), MIN(c) FROM t "
                     "WHERE a > 1000");
  ExpectEnginesAgree("CREATE TABLE e (x INTEGER);",
                     "SELECT COUNT(*), SUM(x) FROM e");
  // Grouped aggregate over zero rows emits zero rows.
  ExpectEnginesAgree("CREATE TABLE e (x INTEGER);",
                     "SELECT x, COUNT(*) FROM e GROUP BY x");
}

TEST(VectorizedTest, NegativeZeroSurvivesSumFirstValue) {
  // SUM keeps the first non-null value raw: a leading -0.0 must
  // surface as -0.0 from both engines (SameCells treats -0.0 == 0.0,
  // so compare the sign bit explicitly).
  for (const bool vectorized : {false, true}) {
    Database db(EngineConfig(vectorized, 1));
    ASSERT_TRUE(Exec(db, "CREATE TABLE z (g INTEGER, v DOUBLE);"
                              "INSERT INTO z VALUES (1, -0.0)")
                    .ok());
    auto rs = Exec(db, "SELECT SUM(v) FROM z GROUP BY g");
    ASSERT_TRUE(rs.ok()) << rs.status();
    ASSERT_EQ(rs->num_rows(), 1u);
    EXPECT_TRUE(std::signbit(rs->at(0, 0).double_value()))
        << (vectorized ? "batch" : "row");
  }
}

TEST(VectorizedTest, JoinFeedsVectorizedAggregate) {
  // The join runs on the row engine; its output crosses the boundary
  // into a vectorized aggregate chain.
  const char* setup =
      "CREATE TABLE r (k INTEGER, v INTEGER);"
      "CREATE TABLE s (k INTEGER, w DOUBLE);"
      "INSERT INTO r VALUES (1, 10), (2, 20), (2, 21), (3, 30), (4, 40);"
      "INSERT INTO s VALUES (1, 0.5), (2, 1.5), (3, 2.5), (3, 3.5), (5, 9.9)";
  ExpectEnginesAgree(setup,
                     "SELECT r.k, SUM(r.v), AVG(s.w) FROM r, s "
                     "WHERE r.k = s.k GROUP BY r.k");
  ExpectEnginesAgree(setup,
                     "SELECT COUNT(*) FROM r, s WHERE r.k = s.k AND r.v > 15");
}

TEST(VectorizedTest, FallbackOperatorsStillAgree) {
  // DISTINCT / ORDER BY / LIMIT run on the row engine above (or
  // below) vectorized segments; results must be unchanged.
  ExpectEnginesAgree(kSetup, "SELECT DISTINCT c FROM t");
  ExpectEnginesAgree(kSetup, "SELECT a, b FROM t ORDER BY a, b");
  ExpectEnginesAgree(kSetup,
                     "SELECT a FROM t WHERE a > 0 ORDER BY a LIMIT 3");
  ExpectEnginesAgree(kSetup,
                     "SELECT c, SUM(a) FROM t GROUP BY c HAVING SUM(a) > 2");
}

TEST(VectorizedTest, LinearAlgebraStaysOnRowEngine) {
  const char* setup =
      "CREATE TABLE v (id INTEGER, vec VECTOR[3]);"
      "INSERT INTO v VALUES (1, ones_vector(3)), (2, ones_vector(3))";
  ExpectEnginesAgree(setup, "SELECT SUM(outer_product(vec, vec)) FROM v");
  ExpectEnginesAgree(setup, "SELECT id + 1 FROM v WHERE id > 0");
}

TEST(VectorizedTest, BatchBoundaryAndOddBatchSizes) {
  // 1030 rows with batch sizes that do and do not divide the row
  // count: partial batches, batch-spanning groups, LIMIT across a
  // batch edge.
  std::string setup = "CREATE TABLE big (a INTEGER, b DOUBLE);";
  setup += "INSERT INTO big VALUES ";
  for (int i = 0; i < 1030; ++i) {
    if (i > 0) setup += ", ";
    setup += "(" + std::to_string(i % 97) + ", " +
             std::to_string((i % 13) * 0.25) + ")";
  }
  for (const size_t batch_rows : {1u, 3u, 256u, 1024u, 4096u}) {
    ExpectEnginesAgree(setup,
                       "SELECT a, COUNT(*), SUM(b) FROM big GROUP BY a",
                       batch_rows);
    ExpectEnginesAgree(setup, "SELECT SUM(a), AVG(b) FROM big WHERE a > 11",
                       batch_rows);
  }
  ExpectEnginesAgree(setup, "SELECT a FROM big ORDER BY a, b LIMIT 1024");
  ExpectEnginesAgree(setup, "SELECT a FROM big ORDER BY a, b LIMIT 1025");
}

TEST(VectorizedTest, AllRowsFilteredOutMidPipeline) {
  // The selection vector collapses to empty before the project /
  // aggregate stages — downstream stages must cope with 0 live lanes.
  ExpectEnginesAgree(kSetup, "SELECT a * 2 FROM t WHERE a > 100");
  ExpectEnginesAgree(kSetup,
                     "SELECT c, SUM(a) FROM t WHERE a > 100 GROUP BY c");
}

TEST(VectorizedTest, KindImpureColumnFallsBackToRowEngine) {
  // ValidateRow legally admits an INTEGER value into a DOUBLE column;
  // the row engine then groups/aggregates by the RUNTIME kind. The
  // scan's purity flag must force the row path so the stored Int cell
  // survives identically.
  for (const bool vectorized : {false, true}) {
    Database db(EngineConfig(vectorized, 1));
    ASSERT_TRUE(Exec(db, "CREATE TABLE p (d DOUBLE)").ok());
    // The INSERT parser may coerce; BulkInsert stores the raw value.
    ASSERT_TRUE(db.BulkInsert("p", {{Value::Int(1)}, {Value::Double(1.0)},
                                    {Value::Double(2.5)}})
                    .ok());
    auto rs = Exec(db, "SELECT d, COUNT(*) FROM p GROUP BY d");
    ASSERT_TRUE(rs.ok()) << rs.status();
    // Int(1) and Double(1.0) are distinct group keys in the row
    // engine; the batch config must agree (by falling back).
    EXPECT_EQ(rs->num_rows(), 3u) << (vectorized ? "batch" : "row");
  }
}

TEST(VectorizedTest, ExplainAnalyzeReportsExecMode) {
  Database batch_db(EngineConfig(true, 1));
  ASSERT_TRUE(Exec(batch_db, kSetup).ok());
  auto rs = Exec(batch_db, 
      "EXPLAIN ANALYZE SELECT c, SUM(a) FROM t WHERE a > 0 GROUP BY c");
  ASSERT_TRUE(rs.ok()) << rs.status();
  std::string plan;
  for (size_t i = 0; i < rs->num_rows(); ++i) {
    plan += rs->at(i, 0).string_value() + "\n";
  }
  EXPECT_NE(plan.find("exec=batch"), std::string::npos) << plan;
  EXPECT_NE(plan.find("batches="), std::string::npos) << plan;

  Database row_db(EngineConfig(false, 1));
  ASSERT_TRUE(Exec(row_db, kSetup).ok());
  auto row_rs = Exec(row_db, 
      "EXPLAIN ANALYZE SELECT c, SUM(a) FROM t WHERE a > 0 GROUP BY c");
  ASSERT_TRUE(row_rs.ok()) << row_rs.status();
  std::string row_plan;
  for (size_t i = 0; i < row_rs->num_rows(); ++i) {
    row_plan += row_rs->at(i, 0).string_value() + "\n";
  }
  EXPECT_EQ(row_plan.find("exec=batch"), std::string::npos) << row_plan;
}

TEST(VectorizedTest, RadbOperatorsExposesExecMode) {
  Database db(EngineConfig(true, 1));
  ASSERT_TRUE(Exec(db, kSetup).ok());
  ASSERT_TRUE(Exec(db, "SELECT c, SUM(a) FROM t GROUP BY c").ok());
  auto rs = Exec(db, 
      "SELECT COUNT(*) FROM radb_operators WHERE exec_mode = 'batch' "
      "AND batches > 0");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_GT(rs->at(0, 0).AsInt().value(), 0);
}

TEST(VectorizedTest, MiniFuzzRowVsBatch) {
  // A focused row-vs-batch sweep over generated queries: quicker than
  // the full 12-config differ, run on every ctest invocation.
  const testing::CatalogSpec spec = testing::GenerateCatalog(20170419);
  Database row_db(EngineConfig(false, 1));
  Database batch_db(EngineConfig(true, 8, 256));
  ASSERT_TRUE(testing::LoadCatalog(spec, &row_db).ok());
  ASSERT_TRUE(testing::LoadCatalog(spec, &batch_db).ok());
  Rng rng(7);
  int compared = 0;
  for (int i = 0; i < 60; ++i) {
    const testing::QuerySpec q = testing::GenerateQuery(spec, &rng);
    const std::string sql = q.ToSql();
    auto a = Exec(row_db, sql);
    auto b = Exec(batch_db, sql);
    ASSERT_EQ(a.ok(), b.ok()) << sql << "\nrow: "
                              << (a.ok() ? "ok" : a.status().message())
                              << "\nbatch: "
                              << (b.ok() ? "ok" : b.status().message());
    if (!a.ok()) continue;
    EXPECT_TRUE(SameCells(Normalized(a->rows), Normalized(b->rows)))
        << "row-vs-batch divergence on: " << sql;
    ++compared;
  }
  EXPECT_GT(compared, 30);
}

// ---------------------------------------------------------------------
// Budgeted batch chains: under a memory budget the batch engine keeps
// the row engine's admission rules instead of declining the query.
// ---------------------------------------------------------------------

/// Byte-exact fingerprint: FP bit patterns and row order.
std::string Fingerprint(const ResultSet& rs) {
  std::ostringstream os(std::ios::binary);
  for (const Row& row : rs.rows) WriteRowBinary(os, row);
  return os.str();
}

/// The EXPLAIN ANALYZE annotation line of the first plan node whose
/// label starts with `kind` ("" when absent).
std::string AnnotationOf(const ResultSet& plan, const std::string& kind) {
  for (size_t i = 0; i + 1 < plan.num_rows(); ++i) {
    const std::string line = plan.at(i, 0).string_value();
    const size_t at = line.find_first_not_of(' ');
    if (at != std::string::npos && line.compare(at, kind.size(), kind) == 0) {
      return plan.at(i + 1, 0).string_value();
    }
  }
  return "";
}

/// One-thread databases for the budget tests: the result cache off (a
/// budgeted rerun must execute) and metrics on (spill counters).
Database::Config BudgetConfig(bool vectorized) {
  Database::Config cfg = EngineConfig(vectorized, 1);
  cfg.cache.enable_result_cache = false;
  cfg.obs.enable_metrics = true;
  return cfg;
}

/// g(k, x, s): `rows` rows over `groups` keys, x on a 0.25 grid; each
/// key's s alternates between a long string and a shorter, larger one,
/// so its MAX state grows and shrinks again.
std::vector<Row> GroupedRows(int64_t rows, int64_t groups) {
  std::vector<Row> out;
  for (int64_t i = 0; i < rows; ++i) {
    out.push_back({Value::Int(i % groups), Value::Double(0.25 * (i % 29)),
                   Value::String((i / groups) % 2 == 0 ? std::string(12, 'a')
                                                       : std::string("b"))});
  }
  return out;
}

QueryOptions Budgeted(size_t bytes, size_t threads = 0) {
  QueryOptions options;
  options.memory_budget_bytes = bytes;
  options.num_threads_override = threads;
  return options;
}

uint64_t SpillCounter(Database& db) {
  return db.metrics_registry()->counter("mem.spill_bytes")->value();
}

TEST(VectorizedBudgetTest, BudgetedScanAggregateRunsBatchBitIdentical) {
  const std::string sql =
      "SELECT k, COUNT(*), SUM(x), AVG(x), MIN(x), MAX(x) FROM g "
      "GROUP BY k ORDER BY k";
  Database db(BudgetConfig(true));
  ASSERT_TRUE(Exec(db, "CREATE TABLE g (k INTEGER, x DOUBLE)").ok());
  Rng rng(20170419);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 20000; ++i) {
    rows.push_back({Value::Int(i % 100), Value::Double(rng.NextDouble())});
  }
  ASSERT_TRUE(db.BulkInsert("g", std::move(rows)).ok());
  auto ref = Exec(db, sql);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->num_rows(), 100u);
  const std::string want = Fingerprint(*ref);

  // 100 groups on each of 8 workers take ~170 KB of group state; the
  // 20000 scanned rows (360 KB) are never materialized, so nothing
  // spills.
  constexpr size_t kBudget = 512u << 10;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    const QueryOptions opts = Budgeted(kBudget, threads);
    auto got = db.Execute(sql, opts);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(Fingerprint(got->last()), want) << "threads=" << threads;
    EXPECT_EQ(got->statements[0].spill_bytes, 0u) << "threads=" << threads;
    EXPECT_LE(got->statements[0].peak_memory_bytes, kBudget);

    auto plan = db.Execute("EXPLAIN ANALYZE " + sql, opts);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_NE(AnnotationOf(plan->last(), "Scan").find("exec=batch"),
              std::string::npos);
    EXPECT_NE(AnnotationOf(plan->last(), "Aggregate").find("exec=batch"),
              std::string::npos);
  }
}

TEST(VectorizedBudgetTest, BatchesCloseEarlySoPeakStaysUnderTwiceTheBudget) {
  // 2000 rows of ~520 bytes: a full 1024-row batch alone would be 8x
  // the 64 KB budget. Under the budget batches close early, and the
  // chain's output spills instead.
  constexpr size_t kBudget = 64u << 10;
  const std::string sql = "SELECT k, pad FROM w WHERE k >= 0";
  Database db(BudgetConfig(true));
  ASSERT_TRUE(Exec(db, "CREATE TABLE w (k INTEGER, pad STRING)").ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 2000; ++i) {
    rows.push_back(
        {Value::Int(i), Value::String(std::string(500, 'a' + i % 26))});
  }
  ASSERT_TRUE(db.BulkInsert("w", std::move(rows)).ok());
  auto ref = Exec(db, sql);
  ASSERT_TRUE(ref.ok()) << ref.status();
  const RowSet want = Normalized(ref->rows);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    const QueryOptions opts = Budgeted(kBudget, threads);
    auto got = db.Execute(sql, opts);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(SameCells(want, Normalized(got->last().rows)));
    EXPECT_GT(got->statements[0].spill_bytes, 0u) << "threads=" << threads;
    EXPECT_LT(got->statements[0].peak_memory_bytes, 2 * kBudget)
        << "threads=" << threads;

    auto plan = db.Execute("EXPLAIN ANALYZE " + sql, opts);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_NE(AnnotationOf(plan->last(), "Filter").find("exec=batch"),
              std::string::npos);
  }
}

TEST(VectorizedBudgetTest, AdmissionMatchesRowEngineAcrossBudgetsAtOneThread) {
  // 1000 groups on every worker: ~1.5 MB of partial state in all. The
  // sweep runs from budgets that refuse groups early to ones that admit
  // them all; at one thread both engines must agree at every budget.
  const std::string sql =
      "SELECT k, COUNT(*), SUM(x), MAX(s) FROM g GROUP BY k";
  Database row_db(BudgetConfig(false));
  Database batch_db(BudgetConfig(true));
  for (Database* db : {&row_db, &batch_db}) {
    ASSERT_TRUE(
        Exec(*db, "CREATE TABLE g (k INTEGER, x DOUBLE, s STRING)").ok());
    ASSERT_TRUE(db->BulkInsert("g", GroupedRows(16000, 1000)).ok());
  }
  size_t ok = 0, refused = 0;
  size_t max_refused = 0, min_ok = 0;
  for (size_t budget = 64u << 10; budget <= (3u << 20); budget += budget / 4) {
    const QueryOptions opts = Budgeted(budget);
    const uint64_t spilled_before = SpillCounter(batch_db);
    auto row = row_db.Execute(sql, opts);
    auto batch = batch_db.Execute(sql, opts);
    ASSERT_EQ(row.ok(), batch.ok())
        << "budget=" << budget << " row: "
        << (row.ok() ? "ok" : row.status().ToString())
        << " batch: " << (batch.ok() ? "ok" : batch.status().ToString());
    if (!row.ok()) {
      EXPECT_EQ(row.status().code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(batch.status().code(), row.status().code());
      // The refused groups' rows went to an overflow pass, spilling.
      EXPECT_GT(SpillCounter(batch_db), spilled_before) << "budget=" << budget;
      ++refused;
      max_refused = budget;
      continue;
    }
    EXPECT_TRUE(SameCells(Normalized(row->last().rows),
                          Normalized(batch->last().rows)))
        << "budget=" << budget;
    ++ok;
    if (min_ok == 0) min_ok = budget;
  }
  ASSERT_GT(ok, 0u);
  ASSERT_GT(refused, 0u);

  // Both engines charge the same bytes per group, so the smallest
  // budget that admits every group is the same to the byte.
  size_t lo = max_refused, hi = min_ok;  // row engine: lo fails, hi runs
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (row_db.Execute(sql, Budgeted(mid)).ok()) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  EXPECT_FALSE(batch_db.Execute(sql, Budgeted(lo)).ok()) << "budget=" << lo;
  EXPECT_TRUE(batch_db.Execute(sql, Budgeted(hi)).ok()) << "budget=" << hi;

  auto plan = batch_db.Execute("EXPLAIN ANALYZE " + sql, Budgeted(3u << 20));
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(AnnotationOf(plan->last(), "Aggregate").find("exec=batch"),
            std::string::npos);
}

TEST(VectorizedBudgetTest, SpilledJoinOutputFeedsBatchAggregate) {
  // Under a budget the boundary join materializes; its 8000-row output
  // is over the 64 KB budget, so it reaches the batch aggregate from
  // disk.
  const std::string sql =
      "SELECT l.g, COUNT(*), SUM(r.x) FROM l, r WHERE l.k = r.k "
      "GROUP BY l.g ORDER BY l.g";
  Database db(BudgetConfig(true));
  ASSERT_TRUE(Exec(db, "CREATE TABLE l (k INTEGER, g INTEGER)").ok());
  ASSERT_TRUE(Exec(db, "CREATE TABLE r (k INTEGER, x DOUBLE)").ok());
  Rng rng(7);
  std::vector<Row> l, r;
  for (int64_t i = 0; i < 8000; ++i) {
    l.push_back({Value::Int(i), Value::Int(i % 10)});
    r.push_back({Value::Int(i), Value::Double(rng.NextDouble())});
  }
  ASSERT_TRUE(db.BulkInsert("l", std::move(l)).ok());
  ASSERT_TRUE(db.BulkInsert("r", std::move(r)).ok());
  auto ref = Exec(db, sql);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->num_rows(), 10u);
  const std::string want = Fingerprint(*ref);

  for (size_t threads : {size_t{1}, size_t{8}}) {
    const QueryOptions opts = Budgeted(64u << 10, threads);
    auto got = db.Execute(sql, opts);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(Fingerprint(got->last()), want) << "threads=" << threads;
    EXPECT_GT(got->statements[0].spill_bytes, 0u);

    auto plan = db.Execute("EXPLAIN ANALYZE " + sql, opts);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_NE(AnnotationOf(plan->last(), "Join").find("spilled="),
              std::string::npos);
    EXPECT_NE(AnnotationOf(plan->last(), "Aggregate").find("exec=batch"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace radb
