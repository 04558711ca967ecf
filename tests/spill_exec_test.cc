#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"

#include "test_util.h"
#include "common/rng.h"
#include "la/random.h"
#include "storage/serialize.h"

namespace radb {
namespace {

/// Binary fingerprint of a result set — byte-exact row comparison,
/// including FP bit patterns and row order.
std::string Fingerprint(const ResultSet& rs) {
  std::ostringstream os(std::ios::binary);
  for (const Row& row : rs.rows) WriteRowBinary(os, row);
  return os.str();
}

constexpr size_t kTinyBudget = 64u << 10;
constexpr size_t kSmallBudget = 256u << 10;

QueryOptions Budgeted(size_t bytes, size_t threads) {
  QueryOptions options;
  options.memory_budget_bytes = bytes;
  options.num_threads_override = threads;
  return options;
}

/// Every suite here reruns the same SQL under a tight budget to drive
/// the spill paths. With the result cache on, the rerun can be served
/// from the unbudgeted reference fill and never execute — so these
/// databases run with it off.
Database::Config SpillConfig() {
  Database::Config config;
  config.cache.enable_result_cache = false;
  return config;
}

// ----------------------------------------------------------------------
// Join build spill (Grace-hash partitions).
// ----------------------------------------------------------------------

class SpillJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>(SpillConfig());
    ASSERT_TRUE(Exec(*db_, "CREATE TABLE lhs (k INTEGER, pad STRING)")
                    .ok());
    ASSERT_TRUE(Exec(*db_, "CREATE TABLE rhs (k INTEGER, pad STRING)")
                    .ok());
    // ~470 KB per side: far over the 64 KB budget, so the shuffle-hash
    // join's per-worker build always misses TryReserve and takes the
    // Grace partition-spill path.
    std::vector<Row> l, r;
    for (int64_t i = 0; i < 4000; ++i) {
      l.push_back({Value::Int(i),
                   Value::String(std::string(100, 'a' + (i % 26)))});
      r.push_back({Value::Int(i),
                   Value::String(std::string(100, 'A' + (i % 26)))});
    }
    ASSERT_TRUE(db_->BulkInsert("lhs", std::move(l)).ok());
    ASSERT_TRUE(db_->BulkInsert("rhs", std::move(r)).ok());
  }

  std::unique_ptr<Database> db_;
};

TEST_F(SpillJoinTest, GraceSpillIsBitIdenticalAt1And8Threads) {
  const std::string sql =
      "SELECT lhs.k, lhs.pad, rhs.pad FROM lhs, rhs WHERE lhs.k = rhs.k";
  auto ref = Exec(*db_, sql);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->num_rows(), 4000u);
  const std::string want = Fingerprint(*ref);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    auto got = db_->Execute(sql, QueryOptions{
                                     .memory_budget_bytes = kTinyBudget,
                                     .num_threads_override = threads,
                                 });
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(got->has_results());
    EXPECT_EQ(Fingerprint(got->last()), want) << "threads=" << threads;
    EXPECT_GT(got->statements[0].spill_bytes, 0u) << "threads=" << threads;
    // The tracked peak respects the budget (replay windows and single
    // oversized items may overshoot it slightly, never unboundedly).
    EXPECT_LT(got->statements[0].peak_memory_bytes, 2 * kTinyBudget);
  }
}

// ----------------------------------------------------------------------
// Aggregation state spill (multi-pass admission overflow).
// ----------------------------------------------------------------------

class SpillAggTest : public ::testing::Test {
 protected:
  // Under a budget the join materializes its output, which spills, so
  // the aggregate above it streams its input back from disk.
  static constexpr char kJoinSql[] =
      "SELECT p.k, SUM(p.x), COUNT(*) FROM pts AS p, ks WHERE p.k = ks.k "
      "GROUP BY p.k ORDER BY p.k";
  // The scan feeds the aggregate batch by batch; nothing materializes.
  static constexpr char kScanSql[] =
      "SELECT k, SUM(x), COUNT(*) FROM pts GROUP BY k ORDER BY k";
  // The same aggregate through a function call, which runs it per lane
  // on the row Aggregators (x >= 0, so abs_val(x) is x, bit for bit).
  static constexpr char kPerLaneSql[] =
      "SELECT k, SUM(abs_val(x)), COUNT(*) FROM pts GROUP BY k ORDER BY k";

  void SetUp() override {
    db_ = std::make_unique<Database>(SpillConfig());
    // 100 groups of accumulator state fit the 256 KB budget even with
    // per-worker phase-1 partials (8 workers x 100 groups x ~190 B
    // each, about 150 KB) — group state is unspillable, so it must.
    // The 30000 input rows (~540 KB) do not.
    Rng rng(20170419);
    std::vector<Row> rows;
    for (int64_t i = 0; i < 30000; ++i) {
      rows.push_back({Value::Int(i / 300), Value::Double(rng.NextDouble())});
    }
    std::vector<Row> keys;
    for (int64_t k = 0; k < 100; ++k) keys.push_back({Value::Int(k)});
    ASSERT_TRUE(Exec(*db_, "CREATE TABLE pts (k INTEGER, x DOUBLE)").ok());
    ASSERT_TRUE(Exec(*db_, "CREATE TABLE ks (k INTEGER)").ok());
    ASSERT_TRUE(db_->BulkInsert("pts", std::move(rows)).ok());
    ASSERT_TRUE(db_->BulkInsert("ks", std::move(keys)).ok());
  }

  std::unique_ptr<Database> db_;
};

constexpr char SpillAggTest::kJoinSql[];
constexpr char SpillAggTest::kScanSql[];
constexpr char SpillAggTest::kPerLaneSql[];

TEST_F(SpillAggTest, AggregationOverSpilledInputIsBitIdenticalAt1And8Threads) {
  auto ref = Exec(*db_, kJoinSql);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->num_rows(), 100u);
  const std::string want = Fingerprint(*ref);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    auto got = db_->Execute(kJoinSql, Budgeted(kSmallBudget, threads));
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(got->has_results());
    EXPECT_EQ(Fingerprint(got->last()), want) << "threads=" << threads;
    EXPECT_GT(got->statements[0].spill_bytes, 0u) << "threads=" << threads;
  }
}

TEST_F(SpillAggTest, DefaultEngineUnderBudgetMatchesTheRowEngine) {
  // The typed aggregate and the per-lane one, which runs the row
  // engine's per-row aggregate code, agree bit for bit under the
  // budget with each other and with the unbudgeted run.
  auto ref = Exec(*db_, kScanSql);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->num_rows(), 100u);
  const std::string want = Fingerprint(*ref);
  for (const char* sql : {kScanSql, kPerLaneSql}) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      auto got = db_->Execute(sql, Budgeted(kSmallBudget, threads));
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_TRUE(got->has_results());
      EXPECT_EQ(Fingerprint(got->last()), want)
          << sql << " threads=" << threads;
    }
  }
}

// ----------------------------------------------------------------------
// The §3.4 tiled-multiply SQL path under the 16 MB acceptance budget.
// ----------------------------------------------------------------------

TEST(TiledSqlTest, SixteenMbBudgetSpillsAndStaysBitIdentical) {
  // 16x16 grids of 25x25 tiles (400x400 matrices). The join emits
  // 16^3 product tiles (~20 MB) through the shuffle — over budget, so
  // those buffers spill — while the aggregate's unspillable state is
  // 16^2 groups seen by up to 8 workers (~10 MB), which must fit.
  constexpr size_t kGrid = 16;
  constexpr size_t kTile = 25;
  Database db(SpillConfig());
  ASSERT_TRUE(Exec(db, "CREATE TABLE lhs (tileRow INTEGER, "
                            "tileCol INTEGER, mat MATRIX[25][25])")
                  .ok());
  ASSERT_TRUE(Exec(db, "CREATE TABLE rhs (tileRow INTEGER, "
                            "tileCol INTEGER, mat MATRIX[25][25])")
                  .ok());
  Rng rng(20170419);
  std::vector<Row> l, r;
  for (size_t i = 0; i < kGrid; ++i) {
    for (size_t j = 0; j < kGrid; ++j) {
      l.push_back({Value::Int(static_cast<int64_t>(i)),
                   Value::Int(static_cast<int64_t>(j)),
                   Value::FromMatrix(la::RandomMatrix(rng, kTile, kTile))});
      r.push_back({Value::Int(static_cast<int64_t>(i)),
                   Value::Int(static_cast<int64_t>(j)),
                   Value::FromMatrix(la::RandomMatrix(rng, kTile, kTile))});
    }
  }
  ASSERT_TRUE(db.BulkInsert("lhs", std::move(l)).ok());
  ASSERT_TRUE(db.BulkInsert("rhs", std::move(r)).ok());

  const std::string sql =
      "SELECT lhs.tileRow, rhs.tileCol, "
      "SUM(matrix_multiply(lhs.mat, rhs.mat)) "
      "FROM lhs, rhs WHERE lhs.tileCol = rhs.tileRow "
      "GROUP BY lhs.tileRow, rhs.tileCol "
      "ORDER BY lhs.tileRow, rhs.tileCol";
  auto ref = Exec(db, sql);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->num_rows(), kGrid * kGrid);
  const std::string want = Fingerprint(*ref);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    auto got = db.Execute(sql, QueryOptions{
                                   .memory_budget_bytes = 16u << 20,
                                   .num_threads_override = threads,
                               });
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(got->has_results());
    EXPECT_EQ(Fingerprint(got->last()), want) << "threads=" << threads;
    EXPECT_GT(got->statements[0].spill_bytes, 0u) << "threads=" << threads;
  }
}

// ----------------------------------------------------------------------
// Unspillable over-budget state fails the query, not the Database.
// ----------------------------------------------------------------------

TEST(ResourceExhaustedTest, FailedQueryDoesNotPoisonTheDatabase) {
  Database db(SpillConfig());
  ASSERT_TRUE(Exec(db, "CREATE TABLE t (k INTEGER, pad STRING)").ok());
  std::vector<Row> rows;
  for (int64_t i = 0; i < 4000; ++i) {
    rows.push_back({Value::Int(i),
                    Value::String(std::string(200, 'x'))});
  }
  ASSERT_TRUE(db.BulkInsert("t", std::move(rows)).ok());

  // ORDER BY gathers everything in memory (~830 KB) — unspillable,
  // and far over a 64 KB budget.
  auto sorted = db.Execute("SELECT k, pad FROM t ORDER BY k",
                           QueryOptions{.memory_budget_bytes = kTinyBudget});
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kResourceExhausted)
      << sorted.status();

  // The same Database keeps answering: unbudgeted...
  auto count = Exec(db, "SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->at(0, 0).int_value(), 4000);
  // ...and under the same tight budget, when the query can spill.
  auto filtered =
      db.Execute("SELECT k FROM t WHERE k < 10",
                 QueryOptions{.memory_budget_bytes = kTinyBudget});
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  EXPECT_EQ(filtered->last().num_rows(), 10u);
}

// ----------------------------------------------------------------------
// Redesigned API: ScriptResult and safe ResultSet accessors.
// ----------------------------------------------------------------------

TEST(ScriptResultTest, CarriesAllSelectResultsAndPerStatementStats) {
  Database db(SpillConfig());
  auto script = db.Execute(
      "CREATE TABLE s (k INTEGER);"
      "INSERT INTO s VALUES (1), (2), (3);"
      "SELECT k FROM s ORDER BY k;"
      "SELECT SUM(k) FROM s");
  ASSERT_TRUE(script.ok()) << script.status();
  ASSERT_EQ(script->statements.size(), 4u);
  // Both SELECTs are kept, in script order — not just the last one.
  ASSERT_EQ(script->result_sets.size(), 2u);
  ASSERT_EQ(script->result_sets[0].num_rows(), 3u);
  EXPECT_EQ(script->result_sets[0].at(0, 0).int_value(), 1);
  EXPECT_EQ(script->last().at(0, 0).int_value(), 6);
  EXPECT_EQ(script->statements[2].rows, 3u);
  EXPECT_EQ(script->statements[3].rows, 1u);
  for (const QueryStats& stats : script->statements) {
    EXPECT_GE(stats.wall_seconds, 0.0);
  }
}

TEST(ResultSetAccessorTest, GetAndColumnIndexAreBoundsChecked) {
  Database db(SpillConfig());
  ASSERT_TRUE(Exec(db, "CREATE TABLE s (k INTEGER, name STRING)").ok());
  ASSERT_TRUE(Exec(db, "INSERT INTO s VALUES (7, 'seven')").ok());
  auto rs = Exec(db, "SELECT k, name FROM s");
  ASSERT_TRUE(rs.ok()) << rs.status();

  auto cell = rs->Get(0, 1);
  ASSERT_TRUE(cell.ok());
  EXPECT_EQ(cell->string_value(), "seven");
  EXPECT_FALSE(rs->Get(1, 0).ok());  // row out of range
  EXPECT_FALSE(rs->Get(0, 2).ok());  // column out of range
  EXPECT_EQ(rs->Get(5, 9).status().code(), StatusCode::kInvalidArgument);

  auto idx = rs->ColumnIndex("name");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  auto missing = rs->ColumnIndex("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace radb
