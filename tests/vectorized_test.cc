// Batch-engine battery: every Filter, Project and Aggregate runs as a
// batch pipeline — typed lanes and kernels where the columns allow it,
// Value lanes and per-lane stages everywhere else — and must agree bit
// for bit with the reference evaluator at 1 and 8 threads, across batch
// edges, on scalar and LA chains alike; keep its budget outcomes; and
// fail with the error of the earliest failing operator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "exec/executor.h"

#include "test_util.h"
#include "common/rng.h"
#include "storage/serialize.h"
#include "testing/catalog_gen.h"
#include "testing/differ.h"
#include "testing/query_gen.h"
#include "testing/reference_eval.h"

namespace radb {
namespace {

using testing::Normalized;
using testing::SameCells;

Database::Config EngineConfig(size_t threads) {
  Database::Config cfg;
  cfg.num_workers = 8;
  cfg.num_threads = threads;
  return cfg;
}

using Loader = std::function<void(Database&)>;

Loader Script(const std::string& setup) {
  return [setup](Database& db) { ASSERT_TRUE(Exec(db, setup).ok()) << setup; };
}

/// Each row serialized bit-exactly (FP bit patterns, NaN payloads and
/// the sign of zero included), in arrival order.
std::vector<std::string> OrderedBits(const RowSet& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::ostringstream os(std::ios::binary);
    WriteRowBinary(os, row);
    out.push_back(os.str());
  }
  return out;
}

/// Rows in a canonical, bit-exact form: OrderedBits, sorted.
std::vector<std::string> Bits(const RowSet& rows) {
  std::vector<std::string> out = OrderedBits(rows);
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs `sql` at 1 and 8 threads (8 workers) and compares each run with
/// the reference evaluator over the same catalog: the same status code,
/// or the same rows bit for bit, row order aside.
void ExpectMatchesReference(const Loader& load, const std::string& sql) {
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(sql + " at " + std::to_string(threads) + " threads");
    Database db(EngineConfig(threads));
    load(db);
    const Result<ResultSet> want = testing::ReferenceExecute(sql, db.catalog());
    const Result<ResultSet> got = Exec(db, sql);
    ASSERT_EQ(want.ok(), got.ok())
        << "reference: " << (want.ok() ? "ok" : want.status().ToString())
        << "\nengine: " << (got.ok() ? "ok" : got.status().ToString());
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), got.status().code());
      continue;
    }
    EXPECT_EQ(Bits(want->rows), Bits(got->rows));
  }
}

void ExpectMatchesReference(const std::string& setup, const std::string& sql) {
  ExpectMatchesReference(Script(setup), sql);
}

/// The EXPLAIN ANALYZE text of `sql`.
std::string Analyzed(Database& db, const std::string& sql,
                     const QueryOptions& options = {}) {
  auto rs = db.Execute("EXPLAIN ANALYZE " + sql, options);
  EXPECT_TRUE(rs.ok()) << rs.status();
  if (!rs.ok()) return "";
  std::string plan;
  for (size_t i = 0; i < rs->last().num_rows(); ++i) {
    plan += rs->last().at(i, 0).string_value() + "\n";
  }
  return plan;
}

/// Whether every Filter, Project and Aggregate line of an EXPLAIN
/// ANALYZE text is followed by an `exec=batch` annotation.
bool EveryChainNodeRunsBatch(const std::string& plan) {
  std::istringstream is(plan);
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  size_t chain_nodes = 0;
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    const size_t at = lines[i].find_first_not_of(' ');
    if (at == std::string::npos) continue;
    const std::string label = lines[i].substr(at);
    if (label.rfind("Filter", 0) != 0 && label.rfind("Project", 0) != 0 &&
        label.rfind("Aggregate", 0) != 0) {
      continue;
    }
    ++chain_nodes;
    if (lines[i + 1].find("exec=batch") == std::string::npos) return false;
  }
  return chain_nodes > 0;
}

constexpr const char* kSetup =
    "CREATE TABLE t (a INTEGER, b DOUBLE, c STRING, d INTEGER);"
    "INSERT INTO t VALUES"
    " (1, 1.5, 'x', 10), (2, 2.5, 'y', NULL), (3, -3.5, 'x', 30),"
    " (4, 0.0, 'z', 40), (NULL, 4.5, NULL, 50), (6, NULL, 'y', NULL),"
    " (-7, 7.25, 'w', 70), (8, -0.0, 'x', 80)";

TEST(VectorizedTest, FilterProjectBitIdentity) {
  ExpectMatchesReference(kSetup, "SELECT a * 2 + d, b - a FROM t WHERE a > 1");
  ExpectMatchesReference(kSetup,
                         "SELECT -a, -b, a - d * 2 FROM t WHERE b < 3.0");
  ExpectMatchesReference(kSetup, "SELECT a FROM t WHERE c = 'x' OR c = 'y'");
  ExpectMatchesReference(kSetup, "SELECT a, b FROM t WHERE NOT (a >= 4)");
  ExpectMatchesReference(kSetup, "SELECT a + b FROM t WHERE a <> d");
}

TEST(VectorizedTest, MixedIntDoubleArithmeticWidensIdentically) {
  // INTEGER x INTEGER stays int64; any DOUBLE operand widens through
  // AsDouble — the cell kinds must match exactly, not just the values.
  ExpectMatchesReference(kSetup,
                         "SELECT a + 1, a + 1.0, b * a, a * a FROM t");
}

TEST(VectorizedTest, ThreeValuedLogicAndNullPropagation) {
  ExpectMatchesReference(kSetup, "SELECT a FROM t WHERE d > 20 AND b > 0.0");
  ExpectMatchesReference(kSetup, "SELECT a FROM t WHERE d > 20 OR b > 0.0");
  ExpectMatchesReference(
      kSetup, "SELECT a FROM t WHERE (a > 2 AND d < 60) OR c = 'w'");
  // NULL comparisons stay NULL and the filter drops them.
  ExpectMatchesReference(kSetup, "SELECT a FROM t WHERE d = d");
}

TEST(VectorizedTest, LogicShortCircuitSuppressesRhsErrors) {
  // A non-null false lhs skips the rhs entirely, so the division never
  // errors on the a = 0 row: the kernels evaluate the rhs only on
  // undecided lanes.
  const char* setup =
      "CREATE TABLE s (a INTEGER);"
      "INSERT INTO s VALUES (0), (1), (2), (5)";
  ExpectMatchesReference(setup, "SELECT a FROM s WHERE a <> 0 AND 10 / a > 1");
}

TEST(VectorizedTest, DivisionByZeroErrorsIdentically) {
  const char* setup =
      "CREATE TABLE s (a INTEGER);"
      "INSERT INTO s VALUES (4), (0), (2)";
  ExpectMatchesReference(setup, "SELECT 8 / a FROM s");
  // Double division by zero is inf, never an error.
  ExpectMatchesReference(setup, "SELECT 8.0 / a FROM s");
}

TEST(VectorizedTest, AggregateBattery) {
  ExpectMatchesReference(
      kSetup,
      "SELECT COUNT(*), COUNT(a), COUNT(d), SUM(a), SUM(b), "
      "AVG(a), AVG(b), MIN(a), MAX(b), MIN(c), MAX(c) FROM t");
  ExpectMatchesReference(kSetup,
                         "SELECT c, COUNT(*), SUM(a), AVG(b), MIN(d), MAX(a) "
                         "FROM t GROUP BY c");
  ExpectMatchesReference(
      kSetup, "SELECT a > 2, SUM(b), COUNT(d) FROM t GROUP BY a > 2");
  // Aggregate over a filtered + projected chain.
  ExpectMatchesReference(
      kSetup, "SELECT c, SUM(a * 2 + 1) FROM t WHERE a > 0 GROUP BY c");
}

TEST(VectorizedTest, NullGroupKeysAndNullArguments) {
  // NULL keys form their own group; SUM of an all-NULL group is NULL
  // while COUNT is 0.
  ExpectMatchesReference(kSetup,
                         "SELECT c, COUNT(b), SUM(d) FROM t GROUP BY c");
  ExpectMatchesReference(kSetup, "SELECT d, COUNT(*) FROM t GROUP BY d");
}

TEST(VectorizedTest, ScalarAggregateOverZeroRows) {
  ExpectMatchesReference(kSetup,
                         "SELECT COUNT(*), SUM(a), AVG(b), MIN(c) FROM t "
                         "WHERE a > 1000");
  ExpectMatchesReference("CREATE TABLE e (x INTEGER);",
                         "SELECT COUNT(*), SUM(x) FROM e");
  // Grouped aggregate over zero rows emits zero rows.
  ExpectMatchesReference("CREATE TABLE e (x INTEGER);",
                         "SELECT x, COUNT(*) FROM e GROUP BY x");
}

TEST(VectorizedTest, NegativeZeroSurvivesSumFirstValue) {
  // SUM keeps the first non-null value raw: a leading -0.0 surfaces as
  // -0.0 from the typed accumulator and from the row Aggregator a
  // per-lane stage folds into.
  for (const char* sql : {"SELECT SUM(v) FROM z GROUP BY g",
                          "SELECT SUM(v) FROM z GROUP BY abs_val(g + 0.0)"}) {
    Database db(EngineConfig(1));
    ASSERT_TRUE(Exec(db, "CREATE TABLE z (g INTEGER, v DOUBLE);"
                         "INSERT INTO z VALUES (1, -0.0)")
                    .ok());
    auto rs = Exec(db, sql);
    ASSERT_TRUE(rs.ok()) << rs.status();
    ASSERT_EQ(rs->num_rows(), 1u);
    EXPECT_TRUE(std::signbit(rs->at(0, 0).double_value())) << sql;
  }
}

TEST(VectorizedTest, JoinFeedsVectorizedAggregate) {
  // The join streams its pairs into the aggregate chain's batches.
  const char* setup =
      "CREATE TABLE r (k INTEGER, v INTEGER);"
      "CREATE TABLE s (k INTEGER, w DOUBLE);"
      "INSERT INTO r VALUES (1, 10), (2, 20), (2, 21), (3, 30), (4, 40);"
      "INSERT INTO s VALUES (1, 0.5), (2, 1.5), (3, 2.5), (3, 3.5), (5, 9.9)";
  ExpectMatchesReference(setup,
                         "SELECT r.k, SUM(r.v), AVG(s.w) FROM r, s "
                         "WHERE r.k = s.k GROUP BY r.k");
  ExpectMatchesReference(
      setup, "SELECT COUNT(*) FROM r, s WHERE r.k = s.k AND r.v > 15");
}

TEST(VectorizedTest, FallbackOperatorsStillAgree) {
  // DISTINCT / ORDER BY / LIMIT run as row operators above (or below)
  // batch chains; results must be unchanged.
  ExpectMatchesReference(kSetup, "SELECT DISTINCT c FROM t");
  ExpectMatchesReference(kSetup, "SELECT a, b FROM t ORDER BY a, b");
  ExpectMatchesReference(kSetup,
                         "SELECT a FROM t WHERE a > 0 ORDER BY a LIMIT 3");
  ExpectMatchesReference(
      kSetup, "SELECT c, SUM(a) FROM t GROUP BY c HAVING SUM(a) > 2");
}

// ---------------------------------------------------------------------
// LA chains: Value lanes and per-lane stages.
// ---------------------------------------------------------------------

/// v(id, g, vec VECTOR[3], m MATRIX[2][2], x DOUBLE): `rows` rows over
/// 4 groups. Cells sit on a 0.25 grid, so every SUM is exact whatever
/// its order and the reference's single-phase fold agrees bit for bit.
Loader LaTable(int64_t rows) {
  return [rows](Database& db) {
    ASSERT_TRUE(Exec(db, "CREATE TABLE v (id INTEGER, g INTEGER, "
                         "vec VECTOR[3], m MATRIX[2][2], x DOUBLE)")
                    .ok());
    std::vector<Row> data;
    for (int64_t i = 0; i < rows; ++i) {
      const double s = 0.25 * static_cast<double>(i % 17) - 2.0;
      la::Matrix m(2, 2);
      m.At(0, 0) = s;
      m.At(0, 1) = 0.5 * static_cast<double>(i % 5);
      m.At(1, 0) = -s;
      m.At(1, 1) = 1.0;
      data.push_back({Value::Int(i), Value::Int(i % 4),
                      Value::FromVector(la::Vector(std::vector<double>{
                          s, 0.25 * static_cast<double>(i % 3), -1.5})),
                      Value::FromMatrix(std::move(m)), Value::Double(s)});
    }
    ASSERT_TRUE(db.BulkInsert("v", std::move(data)).ok());
  };
}

TEST(VectorizedTest, LinearAlgebraRunsOnBatchEngine) {
  const Loader load = LaTable(40);
  ExpectMatchesReference(load, "SELECT SUM(outer_product(vec, vec)) FROM v");
  ExpectMatchesReference(load, "SELECT id + 1 FROM v WHERE id > 0");
  ExpectMatchesReference(
      load, "SELECT id, inner_product(vec, vec), matrix_multiply(m, m) "
            "FROM v WHERE id % 3 = 1");

  Database db(EngineConfig(1));
  load(db);
  for (const char* sql :
       {"SELECT SUM(outer_product(vec, vec)) FROM v",
        "SELECT g, SUM(matrix_multiply(m, m)) FROM v WHERE id > 3 GROUP BY g",
        "SELECT id, trans_matrix(m) FROM v WHERE inner_product(vec, vec) > 5.0",
        "SELECT g, EMIN(vec) FROM v, (SELECT MAX(x) AS mx FROM v) AS t "
        "WHERE x < t.mx GROUP BY g"}) {
    const std::string plan = Analyzed(db, sql);
    EXPECT_TRUE(EveryChainNodeRunsBatch(plan)) << plan;
  }
}

TEST(VectorizedTest, LaAggregatesMatchReference) {
  const Loader load = LaTable(200);
  ExpectMatchesReference(load, "SELECT g, SUM(vec), SUM(m) FROM v GROUP BY g");
  ExpectMatchesReference(load, "SELECT g, EMIN(vec), EMAX(vec) FROM v "
                               "GROUP BY g");
  ExpectMatchesReference(
      load, "SELECT g, VECTORIZE(label_scalar(x, id / 4)) FROM v GROUP BY g");
  ExpectMatchesReference(
      load, "SELECT ROWMATRIX(label_vector(vec, id)) FROM v WHERE id < 10");
  ExpectMatchesReference(
      load, "SELECT g, COLMATRIX(label_vector(vec, id / 4)) FROM v GROUP BY g");
  // Typed keys beside Value arguments, and typed aggregates beside LA
  // ones: the whole stage folds per lane.
  ExpectMatchesReference(load,
                         "SELECT g, COUNT(*), SUM(x), MIN(id), "
                         "SUM(matrix_multiply(m, trans_matrix(m))) "
                         "FROM v WHERE x > -1.0 GROUP BY g");
  // An aggregate over an aggregate: the per-lane groups feed a chain.
  ExpectMatchesReference(
      load,
      "SELECT SUM(s) FROM (SELECT g, SUM(matrix_multiply(m, m)) AS s "
      "FROM v GROUP BY g) AS q");
}

TEST(VectorizedTest, LaFiltersAndProjections) {
  const Loader load = LaTable(120);
  ExpectMatchesReference(
      load, "SELECT id, vec FROM v WHERE inner_product(vec, vec) > 6.0");
  ExpectMatchesReference(load,
                         "SELECT id, get_entry(m, 0, 1) * 2.0, "
                         "matrix_vector_multiply(m, get_row(m, 0)) FROM v "
                         "WHERE get_scalar(vec, 0) < 0.0 AND g <> 2");
  // Typed and per-lane stages in one chain: a typed filter, a per-lane
  // projection, a typed filter over its typed output, a per-lane one.
  ExpectMatchesReference(
      load,
      "SELECT q.id, q.n FROM (SELECT id, x * 2.0 AS y, "
      "inner_product(vec, vec) AS n, trace(m) AS tr FROM v WHERE g < 3) "
      "AS q WHERE q.y > -3.0 AND q.tr > 0.0");
}

TEST(VectorizedTest, LaSpecialValuesKeepTheirBits) {
  // ±0, ±inf and NaN cells and NULL LA values through sums and
  // projections. Each special value sits alone in its cell of a group,
  // so every fold order gives the same bits.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Loader load = [&](Database& db) {
    ASSERT_TRUE(Exec(db, "CREATE TABLE sv (id INTEGER, g INTEGER, "
                         "vec VECTOR[4])")
                    .ok());
    std::vector<Row> data;
    for (int64_t i = 0; i < 64; ++i) {
      const int64_t g = i % 4;
      std::vector<double> cells = {-0.0, 0.25 * static_cast<double>(i % 7),
                                   1.0, 0.0};
      if (i / 4 == 3) cells[1] = g == 0 ? nan : (g == 1 ? inf : -inf);
      if (i / 4 == 5) cells[2] = g == 2 ? nan : -inf;
      Value vec = (i % 9 == 4) ? Value::Null()
                               : Value::FromVector(la::Vector(cells));
      data.push_back({Value::Int(i), Value::Int(g), std::move(vec)});
    }
    ASSERT_TRUE(db.BulkInsert("sv", std::move(data)).ok());
  };
  ExpectMatchesReference(load, "SELECT g, SUM(vec), COUNT(vec) FROM sv "
                               "GROUP BY g");
  ExpectMatchesReference(load, "SELECT id, vec, outer_product(vec, vec) "
                               "FROM sv WHERE id > 8");
  ExpectMatchesReference(load, "SELECT g, SUM(outer_product(vec, vec)) "
                               "FROM sv WHERE id % 2 = 0 GROUP BY g");
  ExpectMatchesReference(
      load, "SELECT id, get_scalar(vec, 1) FROM sv WHERE vector_size(vec) = 4");
}

TEST(VectorizedTest, KindImpureColumnRunsPerLane) {
  // An INTEGER value legally stored in a DOUBLE column keeps its
  // runtime kind: it groups apart from Double(1.0), and a SUM whose
  // first value it is stays INTEGER until a DOUBLE arrives. The column
  // gets a Value lane and its stages run per lane with row semantics.
  const Loader load = [](Database& db) {
    ASSERT_TRUE(Exec(db, "CREATE TABLE p (k INTEGER, d DOUBLE)").ok());
    ASSERT_TRUE(db.BulkInsert("p", {{Value::Int(1), Value::Int(1)},
                                    {Value::Int(2), Value::Double(1.0)},
                                    {Value::Int(1), Value::Double(2.5)},
                                    {Value::Int(3), Value::Int(4)}})
                    .ok());
  };
  ExpectMatchesReference(load, "SELECT d, COUNT(*) FROM p GROUP BY d");
  ExpectMatchesReference(load, "SELECT k, SUM(d), MIN(d) FROM p GROUP BY k");
  ExpectMatchesReference(load, "SELECT d + 1, k FROM p WHERE d > 0.5");

  Database db(EngineConfig(1));
  load(db);
  // Int(1) and Double(1.0) are distinct keys: four groups, not three.
  auto rs = Exec(db, "SELECT d, COUNT(*) FROM p GROUP BY d");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 4u);
  EXPECT_TRUE(EveryChainNodeRunsBatch(
      Analyzed(db, "SELECT d, COUNT(*) FROM p WHERE k > 0 GROUP BY d")));
}

TEST(VectorizedTest, BatchBoundaryAndOddBatchSizes) {
  // Rows land on the 8 workers round-robin, so 8n rows give every
  // worker n: just under, at, just over and twice over one 1024-lane
  // batch. Partial batches, batch-spanning groups, and LIMIT across a
  // batch edge, on typed and on per-lane chains.
  for (const int64_t per_worker : {1023, 1024, 1025, 2049}) {
    SCOPED_TRACE(std::to_string(per_worker) + " rows per worker");
    const Loader load = [per_worker](Database& db) {
      ASSERT_TRUE(Exec(db, "CREATE TABLE big (a INTEGER, b DOUBLE, "
                           "vec VECTOR[2])")
                      .ok());
      std::vector<Row> rows;
      for (int64_t i = 0; i < 8 * per_worker; ++i) {
        const double b = 0.25 * static_cast<double>(i % 13);
        rows.push_back({Value::Int(i % 97), Value::Double(b),
                        Value::FromVector(la::Vector(
                            std::vector<double>{b, 1.0}))});
      }
      ASSERT_TRUE(db.BulkInsert("big", std::move(rows)).ok());
    };
    ExpectMatchesReference(load,
                           "SELECT a, COUNT(*), SUM(b) FROM big GROUP BY a");
    ExpectMatchesReference(load,
                           "SELECT SUM(a), AVG(b) FROM big WHERE a > 11");
    ExpectMatchesReference(
        load, "SELECT a, SUM(vec) FROM big WHERE b > 0.5 GROUP BY a");
    ExpectMatchesReference(load, "SELECT a FROM big ORDER BY a, b LIMIT 1025");
  }
}

TEST(VectorizedTest, AllRowsFilteredOutMidPipeline) {
  // The selection vector collapses to empty before the project /
  // aggregate stages — downstream stages must cope with 0 live lanes.
  ExpectMatchesReference(kSetup, "SELECT a * 2 FROM t WHERE a > 100");
  ExpectMatchesReference(kSetup,
                         "SELECT c, SUM(a) FROM t WHERE a > 100 GROUP BY c");
  ExpectMatchesReference(LaTable(16),
                         "SELECT g, SUM(m) FROM v WHERE id > 100 GROUP BY g");
}

TEST(VectorizedTest, ExplainAnalyzeReportsExecMode) {
  Database db(EngineConfig(1));
  ASSERT_TRUE(Exec(db, kSetup).ok());
  const std::string plan =
      Analyzed(db, "SELECT c, SUM(a) FROM t WHERE a > 0 GROUP BY c");
  EXPECT_TRUE(EveryChainNodeRunsBatch(plan)) << plan;
  EXPECT_NE(plan.find("batches="), std::string::npos) << plan;
}

TEST(VectorizedTest, RadbOperatorsExposesExecMode) {
  Database db(EngineConfig(1));
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
  // Generated queries against the row-at-a-time reference evaluator,
  // as the differential fuzzer compares them: quicker than the full
  // sweep, run on every ctest invocation.
  const testing::CatalogSpec spec = testing::GenerateCatalog(20170419);
  Database db(EngineConfig(8));
  ASSERT_TRUE(testing::LoadCatalog(spec, &db).ok());
  Rng rng(7);
  int compared = 0;
  for (int i = 0; i < 60; ++i) {
    const testing::QuerySpec q = testing::GenerateQuery(spec, &rng);
    const std::string sql = q.ToSql();
    auto want = testing::ReferenceExecute(sql, db.catalog());
    auto got = Exec(db, sql);
    ASSERT_EQ(want.ok(), got.ok())
        << sql << "\nreference: "
        << (want.ok() ? "ok" : want.status().message())
        << "\nengine: " << (got.ok() ? "ok" : got.status().message());
    if (!want.ok()) {
      EXPECT_EQ(want.status().code(), got.status().code()) << sql;
      continue;
    }
    EXPECT_TRUE(SameCells(Normalized(want->rows), Normalized(got->rows)))
        << "divergence on: " << sql;
    ++compared;
  }
  EXPECT_GT(compared, 30);
}

// ---------------------------------------------------------------------
// Error order: a statement fails with its earliest operator's error,
// as if every operator ran over all rows before the next one started.
// ---------------------------------------------------------------------

TEST(VectorizedErrorTest, EarlierStageErrorWinsOverLaterStageError) {
  // Row 0 (worker 0's first row) multiplies mismatched shapes; the
  // filter divides by zero on worker 3's 1201st row, two batches in.
  // The filter runs before the projection, so its error wins.
  const Loader load = [](Database& db) {
    ASSERT_TRUE(Exec(db, "CREATE TABLE t (k INTEGER, a MATRIX[][], b MATRIX[][])")
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 8 * 1500; ++i) {
      la::Matrix a(2, 2), b(i == 0 ? 3 : 2, 2);
      a.At(0, 0) = 1.0;
      b.At(1, 1) = 2.0;
      rows.push_back({Value::Int(i == 8 * 1200 + 3 ? 0 : 1),
                      Value::FromMatrix(std::move(a)),
                      Value::FromMatrix(std::move(b))});
    }
    ASSERT_TRUE(db.BulkInsert("t", std::move(rows)).ok());
  };
  const std::string sql = "SELECT matrix_multiply(a, b) FROM t WHERE 1 / k > 0";
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    Database db(EngineConfig(threads));
    load(db);
    auto got = Exec(db, sql);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kNumericError)
        << "threads=" << threads << ": " << got.status();
    EXPECT_EQ(got.status().message(), "integer division by zero");
  }
}

TEST(VectorizedErrorTest, StreamingJoinErrorWinsOverAggregateError) {
  // The join's fused projection divides by zero on a late row; the
  // aggregate above it sums products of two shapes from the first rows
  // on. The join runs to its end before the aggregate, so its error
  // wins, though it streams its rows into the aggregate's batches.
  const Loader load = [](Database& db) {
    ASSERT_TRUE(Exec(db, "CREATE TABLE l (k INTEGER, d INTEGER, m MATRIX[][])")
                    .ok());
    ASSERT_TRUE(Exec(db, "CREATE TABLE r (k INTEGER, m MATRIX[][])").ok());
    std::vector<Row> ls, rs;
    for (int64_t i = 0; i < 8 * 1500; ++i) {
      const size_t n = i % 2 == 0 ? 2 : 3;
      ls.push_back({Value::Int(i), Value::Int(i == 8 * 1400 + 5 ? 0 : 1),
                    Value::FromMatrix(la::Matrix(n, n))});
      rs.push_back({Value::Int(i), Value::FromMatrix(la::Matrix(n, n))});
    }
    ASSERT_TRUE(db.BulkInsert("l", std::move(ls)).ok());
    ASSERT_TRUE(db.BulkInsert("r", std::move(rs)).ok());
  };
  // Early projection computes both arguments in the join.
  const std::string sql =
      "SELECT SUM(matrix_multiply(l.m, r.m)), SUM(10 / l.d) FROM l, r "
      "WHERE l.k = r.k";
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    Database db(EngineConfig(threads));
    load(db);
    auto plan = db.PlanQuery(sql);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const LogicalOp* join = plan->get();
    while (join->kind != LogicalOp::Kind::kJoin) join = join->children[0].get();
    ASSERT_EQ(join->exprs.size(), 2u);
    auto got = Exec(db, sql);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kNumericError)
        << "threads=" << threads << ": " << got.status();
    EXPECT_EQ(got.status().message(), "integer division by zero");
  }
}

// ---------------------------------------------------------------------
// Budgeted batch chains: under a memory budget groups are admitted,
// charged and refused one at a time, typed or per lane.
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
Database::Config BudgetConfig() {
  Database::Config cfg = EngineConfig(1);
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
  Database db(BudgetConfig());
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
  Database db(BudgetConfig());
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
  // them all. The typed aggregate and its per-lane twin (the abs_val
  // call sends the stage through the per-row aggregate loop and the
  // row Aggregators; x >= 0, so the cells are equal) must agree at
  // every budget: both charge the same bytes per group.
  const std::string typed =
      "SELECT k, COUNT(*), SUM(x), MAX(s) FROM g GROUP BY k";
  const std::string per_lane =
      "SELECT k, COUNT(*), SUM(abs_val(x)), MAX(s) FROM g GROUP BY k";
  Database db(BudgetConfig());
  ASSERT_TRUE(Exec(db, "CREATE TABLE g (k INTEGER, x DOUBLE, s STRING)").ok());
  ASSERT_TRUE(db.BulkInsert("g", GroupedRows(16000, 1000)).ok());
  size_t ok = 0, refused = 0;
  size_t max_refused = 0, min_ok = 0;
  for (size_t budget = 64u << 10; budget <= (3u << 20); budget += budget / 4) {
    const QueryOptions opts = Budgeted(budget);
    const uint64_t spilled_before = SpillCounter(db);
    auto row = db.Execute(per_lane, opts);
    auto batch = db.Execute(typed, opts);
    ASSERT_EQ(row.ok(), batch.ok())
        << "budget=" << budget << " per lane: "
        << (row.ok() ? "ok" : row.status().ToString())
        << " typed: " << (batch.ok() ? "ok" : batch.status().ToString());
    if (!row.ok()) {
      EXPECT_EQ(row.status().code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(batch.status().ToString(), row.status().ToString());
      // The refused groups' rows went to an overflow pass, spilling.
      EXPECT_GT(SpillCounter(db), spilled_before) << "budget=" << budget;
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

  // The smallest budget that admits every group is the same to the
  // byte.
  size_t lo = max_refused, hi = min_ok;  // per lane: lo fails, hi runs
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (db.Execute(per_lane, Budgeted(mid)).ok()) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  EXPECT_FALSE(db.Execute(typed, Budgeted(lo)).ok()) << "budget=" << lo;
  EXPECT_TRUE(db.Execute(typed, Budgeted(hi)).ok()) << "budget=" << hi;

  for (const std::string& sql : {typed, per_lane}) {
    auto plan = db.Execute("EXPLAIN ANALYZE " + sql, Budgeted(3u << 20));
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_NE(AnnotationOf(plan->last(), "Aggregate").find("exec=batch"),
              std::string::npos);
  }
}

TEST(VectorizedBudgetTest, SpilledJoinOutputFeedsBatchAggregate) {
  // Under a budget the boundary join materializes; its 8000-row output
  // is over the 64 KB budget, so it reaches the batch aggregate from
  // disk.
  const std::string sql =
      "SELECT l.g, COUNT(*), SUM(r.x) FROM l, r WHERE l.k = r.k "
      "GROUP BY l.g ORDER BY l.g";
  Database db(BudgetConfig());
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

TEST(VectorizedBudgetTest, LaAggregateAdmitsSpillsOrFailsAsBefore) {
  // SUM of 8x8 matrix products over a join, 4 groups: about 17 KB of
  // per-worker group state over a 212 KB join output. A roomy budget
  // admits everything without spilling; 64 KB spills the join output
  // and still fits the state; 8 KB cannot hold the state and fails with
  // the same refusal (level and all) operator-at-a-time execution gave.
  const std::string sql =
      "SELECT l.g, SUM(matrix_multiply(l.m, r.m)) FROM l, r "
      "WHERE l.k = r.k GROUP BY l.g ORDER BY l.g";
  Database db(BudgetConfig());
  ASSERT_TRUE(
      Exec(db, "CREATE TABLE l (k INTEGER, g INTEGER, m MATRIX[8][8])").ok());
  ASSERT_TRUE(Exec(db, "CREATE TABLE r (k INTEGER, m MATRIX[8][8])").ok());
  std::vector<Row> ls, rs;
  for (int64_t i = 0; i < 400; ++i) {
    la::Matrix a(8, 8), b(8, 8);
    for (size_t c = 0; c < 64; ++c) {
      a.data()[c] = 0.25 * static_cast<double>((i + c) % 5);
      b.data()[c] = 0.5 * static_cast<double>((i * c) % 3);
    }
    ls.push_back({Value::Int(i), Value::Int(i % 4),
                  Value::FromMatrix(std::move(a))});
    rs.push_back({Value::Int(i), Value::FromMatrix(std::move(b))});
  }
  ASSERT_TRUE(db.BulkInsert("l", std::move(ls)).ok());
  ASSERT_TRUE(db.BulkInsert("r", std::move(rs)).ok());
  auto ref = Exec(db, sql);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->num_rows(), 4u);
  const std::string want = Fingerprint(*ref);

  auto roomy = db.Execute(sql, Budgeted(1u << 20));
  ASSERT_TRUE(roomy.ok()) << roomy.status();
  EXPECT_EQ(Fingerprint(roomy->last()), want);
  EXPECT_EQ(roomy->statements[0].spill_bytes, 0u);

  auto spills = db.Execute(sql, Budgeted(64u << 10));
  ASSERT_TRUE(spills.ok()) << spills.status();
  EXPECT_EQ(Fingerprint(spills->last()), want);
  EXPECT_GT(spills->statements[0].spill_bytes, 0u);

  auto fails = db.Execute(sql, Budgeted(8u << 10));
  ASSERT_FALSE(fails.ok());
  EXPECT_EQ(fails.status().ToString(),
            "ResourceExhausted: Aggregate state needs 512.00 B of "
            "unspillable memory but only 150.00 B of the 8.00 KiB query "
            "budget remains; raise QueryOptions::memory_budget_bytes");
}

// ---------------------------------------------------------------------------
// Scans: every base-table read, full or through a B+ tree index, is a
// batch pipeline — a bare scan is a chain with no middle stages.
// ---------------------------------------------------------------------------

/// Whether the last statement ran `want` Scan(...)/IndexScan(...)
/// entries, each in batch mode with at least one batch.
::testing::AssertionResult ScansRunBatch(const Database& db, size_t want) {
  size_t scans = 0;
  for (const OperatorMetrics& op : db.last_metrics().operators) {
    if (op.name.rfind("Scan(", 0) != 0 && op.name.rfind("IndexScan(", 0) != 0) {
      continue;
    }
    ++scans;
    if (!op.vectorized || op.batches == 0) {
      return ::testing::AssertionFailure()
             << op.name << " ran exec=" << op.ExecMode()
             << " batches=" << op.batches << "\n"
             << db.last_metrics().ToString();
    }
  }
  if (scans != want) {
    return ::testing::AssertionFailure()
           << scans << " scans, expected " << want << "\n"
           << db.last_metrics().ToString();
  }
  return ::testing::AssertionSuccess();
}

/// Whether the last statement ran an operator named `name`.
bool Ran(const Database& db, const std::string& name) {
  for (const OperatorMetrics& op : db.last_metrics().operators) {
    if (op.name == name) return true;
  }
  return false;
}

TEST(VectorizedScanTest, EveryScanAndIndexScanRunsBatch) {
  Database db(EngineConfig(4));
  ASSERT_TRUE(Exec(db,
                   "CREATE TABLE l (k INTEGER, i INTEGER, v DOUBLE);"
                   "CREATE TABLE r (k INTEGER, i INTEGER, v DOUBLE);"
                   "CREATE TABLE p (id INTEGER, v VECTOR[3])")
                  .ok());
  std::vector<Row> lrows, rrows, prows;
  for (int64_t k = 0; k < 12; ++k) {
    for (int64_t i = 0; i < 5; ++i) {
      lrows.push_back({Value::Int(k), Value::Int(i), Value::Double(0.25 * (k + i))});
      rrows.push_back({Value::Int(k), Value::Int(i), Value::Double(0.5 * (k - i))});
    }
  }
  for (int64_t id = 0; id < 10; ++id) {
    const double x = static_cast<double>(id);
    prows.push_back({Value::Int(id), Value::FromVector(la::Vector(
                                         std::vector<double>{x, 1.0, -x}))});
  }
  ASSERT_TRUE(db.BulkInsert("l", lrows).ok());
  ASSERT_TRUE(db.BulkInsert("r", rrows).ok());
  ASSERT_TRUE(db.BulkInsert("p", prows).ok());

  // Bare scans under a hash join.
  auto rs = Exec(db, "SELECT l.i, r.v FROM l, r WHERE l.k = r.k AND l.i = r.i");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 60u);
  EXPECT_TRUE(ScansRunBatch(db, 2));

  // Under the relational multiply, tuple coding.
  rs = Exec(db,
            "SELECT a.i, b.i, SUM(a.v * b.v) FROM l AS a, r AS b "
            "WHERE a.k = b.k GROUP BY a.i, b.i");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_TRUE(Ran(db, "RelationalMultiply(kernel)"))
      << db.last_metrics().ToString();
  EXPECT_TRUE(ScansRunBatch(db, 2));

  // Under the relational multiply, vector coding.
  rs = Exec(db,
            "SELECT a.id, MIN(inner_product(b.v, a.v)) FROM p AS a, p AS b "
            "WHERE a.id <> b.id GROUP BY a.id");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_TRUE(Ran(db, "RelationalMultiply(kernel)"))
      << db.last_metrics().ToString();
  EXPECT_TRUE(ScansRunBatch(db, 2));

  // Index probes: a bare range, and a point probe under Filter/Project.
  ASSERT_TRUE(Exec(db, "CREATE INDEX l_k ON l (k)").ok());
  rs = Exec(db, "SELECT k, i, v FROM l WHERE k >= 3 AND k < 6");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 15u);
  EXPECT_TRUE(Ran(db, "IndexScan(l.l_k)")) << db.last_metrics().ToString();
  EXPECT_TRUE(ScansRunBatch(db, 1));
  rs = Exec(db, "SELECT v FROM l WHERE k = 4 AND i = 2");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->at(0, 0).double_value(), 1.5);
  EXPECT_TRUE(Ran(db, "IndexScan(l.l_k)")) << db.last_metrics().ToString();
  EXPECT_TRUE(ScansRunBatch(db, 1));
}

/// `many`: 12 partitions over 8 workers, two segments each, every key
/// on 30 scattered rows. `hashed`: the same rows hash-partitioned on
/// k. Both indexed on k. `small`: one row per key below 20.
void LoadIndexedTables(Database& db) {
  Schema schema;
  schema.Add(Column{"", "k", DataType::Integer()});
  schema.Add(Column{"", "j", DataType::Integer()});
  schema.Add(Column{"", "v", DataType::Double()});
  schema.Add(Column{"", "s", DataType::String()});
  ASSERT_TRUE(db.catalog().CreateTable("many", schema, 12).ok());
  ASSERT_TRUE(
      Exec(db, "CREATE TABLE hashed (k INTEGER, j INTEGER, v DOUBLE, s STRING)")
          .ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 12000; ++i) {
    rows.push_back({Value::Int(i * 7 % 400), Value::Int(i % 13),
                    Value::Double(0.25 * (i % 50)),
                    Value::String(std::string(80, 'a' + i % 26))});
  }
  ASSERT_TRUE(db.BulkInsert("many", rows).ok());
  ASSERT_TRUE(db.BulkInsert("hashed", rows).ok());
  ASSERT_TRUE(db.RepartitionTable("hashed", "k").ok());
  ASSERT_TRUE(Exec(db, "CREATE INDEX many_k ON many (k);"
                       "CREATE INDEX hashed_k ON hashed (k);"
                       "CREATE TABLE small (k INTEGER, w DOUBLE)")
                  .ok());
  std::vector<Row> small;
  for (int64_t k = 0; k < 20; ++k) {
    small.push_back({Value::Int(k), Value::Double(0.5 * k)});
  }
  ASSERT_TRUE(db.BulkInsert("small", small).ok());
}

TEST(VectorizedScanTest, IndexScansMatchReferenceAndFullScanOrder) {
  const std::vector<std::string> queries = {
      "SELECT k, j, v, s FROM many WHERE k >= 100 AND k < 130",
      "SELECT j, COUNT(*), SUM(v) FROM many WHERE k = 42 GROUP BY j",
      "SELECT k, v FROM hashed WHERE k <= 20",
      "SELECT k, SUM(v), MAX(s) FROM hashed WHERE k >= 5 AND k <= 9 "
      "GROUP BY k",
      "SELECT a.j, b.w FROM many AS a, small AS b WHERE a.k = b.k AND a.k < 3",
  };
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    Database db(EngineConfig(threads));
    LoadIndexedTables(db);
    std::vector<std::vector<std::string>> indexed;
    for (const std::string& sql : queries) {
      SCOPED_TRACE(sql + " at " + std::to_string(threads) + " threads");
      const Result<ResultSet> want =
          testing::ReferenceExecute(sql, db.catalog());
      ASSERT_TRUE(want.ok()) << want.status();
      const Result<ResultSet> got = Exec(db, sql);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_TRUE(Ran(db, "IndexScan(many.many_k)") ||
                  Ran(db, "IndexScan(hashed.hashed_k)"))
          << db.last_metrics().ToString();
      EXPECT_FALSE(Bits(got->rows).empty());
      EXPECT_EQ(Bits(want->rows), Bits(got->rows));
      indexed.push_back(OrderedBits(got->rows));
    }
    // Without the indexes every query runs its full scans, and returns
    // the same rows in the same order.
    ASSERT_TRUE(Exec(db, "DROP INDEX many_k; DROP INDEX hashed_k").ok());
    for (size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE(queries[q] + " at " + std::to_string(threads) + " threads");
      const Result<ResultSet> full = Exec(db, queries[q]);
      ASSERT_TRUE(full.ok()) << full.status();
      EXPECT_EQ(OrderedBits(full->rows), indexed[q]);
    }
  }
}

TEST(VectorizedScanTest, StaleIndexAnnotationRunsTheFullScan) {
  // A plan annotated with an index scan, executed directly (as a caller
  // holding a plan across statements does) after its index was dropped
  // and after it degraded, reads the full table instead.
  Database db(EngineConfig(1));
  ASSERT_TRUE(Exec(db, "CREATE TABLE t (k INTEGER, v DOUBLE)").ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 200; ++i) {
    rows.push_back({Value::Int(i % 40), Value::Double(0.5 * i)});
  }
  ASSERT_TRUE(db.BulkInsert("t", rows).ok());
  ASSERT_TRUE(Exec(db, "CREATE INDEX t_k ON t (k)").ok());
  const std::string sql = "SELECT k, v FROM t WHERE k >= 10 AND k < 14";

  // Runs `plan` through an Executor; its rows in worker order.
  const auto run = [&db](const LogicalOp& plan, QueryMetrics* metrics) {
    Executor executor(db.cluster(), metrics, obs::ObsContext{}, db.pool());
    Result<Dist> dist = executor.Execute(plan);
    EXPECT_TRUE(dist.ok()) << dist.status();
    RowSet out;
    if (!dist.ok()) return out;
    for (RowSet& part : *dist) {
      for (Row& row : part) out.push_back(std::move(row));
    }
    return out;
  };
  const auto scan_names = [](const QueryMetrics& m) {
    std::string names;
    for (const OperatorMetrics& op : m.operators) {
      if (op.name.find("Scan(") != std::string::npos) names += op.name + " ";
    }
    return names;
  };

  Result<LogicalOpPtr> plan = db.PlanQuery(sql);
  ASSERT_TRUE(plan.ok()) << plan.status();
  QueryMetrics fresh;
  const RowSet indexed = run(**plan, &fresh);
  EXPECT_EQ(indexed.size(), 20u);
  EXPECT_EQ(scan_names(fresh), "IndexScan(t.t_k) ");

  ASSERT_TRUE(Exec(db, "DROP INDEX t_k").ok());
  QueryMetrics dropped;
  EXPECT_EQ(OrderedBits(run(**plan, &dropped)), OrderedBits(indexed));
  EXPECT_EQ(scan_names(dropped), "Scan(t) ");

  ASSERT_TRUE(Exec(db, "CREATE INDEX t_k ON t (k)").ok());
  plan = db.PlanQuery(sql);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // An integral DOUBLE in the INTEGER key column degrades the index.
  ASSERT_TRUE(db.BulkInsert("t", {Row{Value::Double(12.0), Value::Double(-1.0)}})
                  .ok());
  const Result<ResultSet> want = Exec(db, sql);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_EQ(want->num_rows(), 21u);
  QueryMetrics degraded;
  EXPECT_EQ(OrderedBits(run(**plan, &degraded)), OrderedBits(want->rows));
  EXPECT_EQ(scan_names(degraded), "Scan(t) ");
}

}  // namespace
}  // namespace radb
