#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"

#include "test_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "la/matrix.h"
#include "la/vector.h"
#include "obs/query_metrics.h"
#include "storage/serialize.h"
#include "testing/reference_eval.h"
#include "workloads/computations.h"
#include "workloads/datagen.h"

namespace radb {
namespace {

/// Executor-level behaviours exercised through the public API: join
/// strategy selection, two-phase aggregation, shuffle accounting,
/// NULL semantics, and operator metrics.
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Config config;
    config.num_workers = 4;
    db_ = std::make_unique<Database>(config);
  }
  std::unique_ptr<Database> db_;
};

TEST_F(ExecTest, BroadcastJoinChosenForTinySide) {
  ASSERT_TRUE(Exec(*db_, "CREATE TABLE big (k INTEGER, v DOUBLE); "
                              "CREATE TABLE tiny (k INTEGER)")
                  .ok());
  std::vector<Row> big_rows;
  for (int i = 0; i < 2000; ++i) {
    big_rows.push_back({Value::Int(i % 100), Value::Double(i)});
  }
  ASSERT_TRUE(db_->BulkInsert("big", std::move(big_rows)).ok());
  ASSERT_TRUE(
      db_->BulkInsert("tiny", {{Value::Int(7)}, {Value::Int(13)}}).ok());
  auto rs = Exec(*db_, 
      "SELECT COUNT(*) FROM big, tiny WHERE big.k = tiny.k");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 40);
  bool saw_broadcast = false;
  for (const auto& op : db_->last_metrics().operators) {
    if (op.name.find("bcast") == std::string::npos) continue;
    saw_broadcast = true;
    // Both tiny rows go to each of the other three workers.
    EXPECT_EQ(op.rows_shuffled, 2u * 3u) << op.name;
  }
  EXPECT_TRUE(saw_broadcast);
}

TEST_F(ExecTest, ShuffleJoinForComparableSides) {
  ASSERT_TRUE(Exec(*db_, "CREATE TABLE l (k INTEGER, p DOUBLE); "
                              "CREATE TABLE r (k INTEGER, q DOUBLE)")
                  .ok());
  std::vector<Row> lr, rr;
  for (int i = 0; i < 500; ++i) {
    lr.push_back({Value::Int(i), Value::Double(i)});
    rr.push_back({Value::Int(i), Value::Double(-i)});
  }
  ASSERT_TRUE(db_->BulkInsert("l", std::move(lr)).ok());
  ASSERT_TRUE(db_->BulkInsert("r", std::move(rr)).ok());
  auto rs = Exec(*db_, 
      "SELECT COUNT(*), SUM(l.p + r.q) FROM l, r WHERE l.k = r.k");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 500);
  EXPECT_DOUBLE_EQ(rs->at(0, 1).AsDouble().value(), 0.0);
  bool saw_shuffle_join = false;
  size_t shuffled = 0;
  for (const auto& op : db_->last_metrics().operators) {
    if (op.name == "HashJoin(shuffle)") {
      saw_shuffle_join = true;
      shuffled = op.bytes_shuffled;
    }
  }
  EXPECT_TRUE(saw_shuffle_join);
  EXPECT_GT(shuffled, 0u);
}

TEST_F(ExecTest, PrePartitionedSideSkipsShuffle) {
  // The paper's §2.1 scenario: one side is already hash-partitioned on
  // the join key, so only the other side moves.
  ASSERT_TRUE(Exec(*db_, "CREATE TABLE lhs (k INTEGER, p DOUBLE); "
                              "CREATE TABLE rhs (k INTEGER, q DOUBLE)")
                  .ok());
  std::vector<Row> lr, rr;
  for (int i = 0; i < 400; ++i) {
    lr.push_back({Value::Int(i), Value::Double(i)});
    rr.push_back({Value::Int(i), Value::Double(-i)});
  }
  ASSERT_TRUE(db_->BulkInsert("lhs", std::move(lr)).ok());
  ASSERT_TRUE(db_->BulkInsert("rhs", std::move(rr)).ok());
  ASSERT_TRUE(db_->RepartitionTable("rhs", "k").ok());
  ASSERT_FALSE(db_->RepartitionTable("rhs", "nope").ok());

  auto rs = Exec(*db_, 
      "SELECT COUNT(*) FROM lhs, rhs WHERE lhs.k = rhs.k");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 400);
  bool saw_elision = false;
  for (const auto& op : db_->last_metrics().operators) {
    if (op.name == "HashJoin(shuffle one side)") saw_elision = true;
  }
  EXPECT_TRUE(saw_elision) << db_->last_metrics().ToString();

  // Both sides pre-partitioned: co-located join with zero shuffle.
  ASSERT_TRUE(db_->RepartitionTable("lhs", "k").ok());
  auto rs2 = Exec(*db_, 
      "SELECT COUNT(*) FROM lhs, rhs WHERE lhs.k = rhs.k");
  ASSERT_TRUE(rs2.ok()) << rs2.status();
  EXPECT_EQ(rs2->at(0, 0).AsInt().value(), 400);
  for (const auto& op : db_->last_metrics().operators) {
    if (op.name.find("HashJoin") != std::string::npos) {
      EXPECT_EQ(op.name, "HashJoin(co-located)");
      EXPECT_EQ(op.bytes_shuffled, 0u);
    }
  }
  // Predicates on the partitioned side don't break co-location.
  auto rs3 = Exec(*db_, 
      "SELECT COUNT(*) FROM lhs, rhs WHERE lhs.k = rhs.k AND rhs.q < 0");
  ASSERT_TRUE(rs3.ok()) << rs3.status();
  EXPECT_EQ(rs3->at(0, 0).AsInt().value(), 399);
}

TEST_F(ExecTest, CompositeJoinKeys) {
  ASSERT_TRUE(Exec(*db_, "CREATE TABLE a (x INTEGER, y INTEGER); "
                              "CREATE TABLE b (x INTEGER, y INTEGER)")
                  .ok());
  std::vector<Row> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back({Value::Int(i % 5), Value::Int(i % 3)});
  }
  ASSERT_TRUE(db_->BulkInsert("a", rows).ok());
  ASSERT_TRUE(db_->BulkInsert("b", std::move(rows)).ok());
  auto rs = Exec(*db_, 
      "SELECT COUNT(*) FROM a, b WHERE a.x = b.x AND a.y = b.y");
  ASSERT_TRUE(rs.ok()) << rs.status();
  // Each (x, y) combo appears exactly twice in 30 rows (15 combos).
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 60);
}

TEST_F(ExecTest, JoinOnExpressionKeys) {
  // Keys may be arbitrary expressions over one side — the paper's
  // blocking join `x.id / 1000 = ind.mi` is the canonical use.
  ASSERT_TRUE(Exec(*db_, "CREATE TABLE items (id INTEGER); "
                              "CREATE TABLE groups (g INTEGER)")
                  .ok());
  std::vector<Row> items, groups;
  for (int i = 0; i < 40; ++i) items.push_back({Value::Int(i)});
  for (int g = 0; g < 4; ++g) groups.push_back({Value::Int(g)});
  ASSERT_TRUE(db_->BulkInsert("items", std::move(items)).ok());
  ASSERT_TRUE(db_->BulkInsert("groups", std::move(groups)).ok());
  auto rs = Exec(*db_, 
      "SELECT groups.g, COUNT(*) FROM items, groups "
      "WHERE items.id / 10 = groups.g GROUP BY groups.g ORDER BY groups.g");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 4u);
  for (size_t g = 0; g < 4; ++g) {
    EXPECT_EQ(rs->at(g, 1).AsInt().value(), 10);
  }
}

TEST_F(ExecTest, NullSemantics) {
  ASSERT_TRUE(Exec(*db_, "CREATE TABLE t (a INTEGER, b DOUBLE); "
                              "INSERT INTO t VALUES (1, 1.0), (2, NULL), "
                              "(NULL, 3.0), (4, 4.0)")
                  .ok());
  // NULLs don't match in equality predicates.
  auto rs = Exec(*db_, "SELECT COUNT(*) FROM t WHERE a = a");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 3);
  // Aggregates skip NULLs; COUNT(col) counts non-null.
  auto rs2 = Exec(*db_, "SELECT COUNT(b), SUM(b), AVG(b) FROM t");
  ASSERT_TRUE(rs2.ok()) << rs2.status();
  EXPECT_EQ(rs2->at(0, 0).AsInt().value(), 3);
  EXPECT_DOUBLE_EQ(rs2->at(0, 1).AsDouble().value(), 8.0);
  EXPECT_NEAR(rs2->at(0, 2).AsDouble().value(), 8.0 / 3.0, 1e-12);
  // Three-valued logic: NULL OR TRUE is TRUE, NULL AND TRUE is NULL.
  auto rs3 = Exec(*db_, 
      "SELECT COUNT(*) FROM t WHERE a = 1 OR b > 0");
  ASSERT_TRUE(rs3.ok()) << rs3.status();
  EXPECT_EQ(rs3->at(0, 0).AsInt().value(), 3);
}

TEST_F(ExecTest, NullJoinKeysNeverMatch) {
  ASSERT_TRUE(Exec(*db_, "CREATE TABLE n1 (k INTEGER); "
                              "CREATE TABLE n2 (k INTEGER); "
                              "INSERT INTO n1 VALUES (1), (NULL); "
                              "INSERT INTO n2 VALUES (1), (NULL)")
                  .ok());
  auto rs =
      Exec(*db_, "SELECT COUNT(*) FROM n1, n2 WHERE n1.k = n2.k");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 1);
}

TEST_F(ExecTest, TwoPhaseAggregationShufflesPartialStates) {
  ASSERT_TRUE(Exec(*db_, "CREATE TABLE t (g INTEGER, v DOUBLE)").ok());
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back({Value::Int(i % 10), Value::Double(1.0)});
  }
  ASSERT_TRUE(db_->BulkInsert("t", std::move(rows)).ok());
  auto rs = Exec(*db_, "SELECT g, SUM(v) FROM t GROUP BY g");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 10u);
  // The shuffle moved partial states (at most groups x workers), not
  // the thousand input rows.
  for (const auto& op : db_->last_metrics().operators) {
    if (op.name == "Aggregate(final)") {
      EXPECT_LE(op.rows_shuffled, 10u * 4u);
      EXPECT_GT(op.rows_shuffled, 0u);
    }
  }
}

TEST_F(ExecTest, SortStabilityAndDirections) {
  ASSERT_TRUE(Exec(*db_, 
                    "CREATE TABLE t (a INTEGER, b STRING); "
                    "INSERT INTO t VALUES (2, 'x'), (1, 'y'), (2, 'a'), "
                    "(1, 'b')")
                  .ok());
  auto rs = Exec(*db_, "SELECT a, b FROM t ORDER BY a DESC, b");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 4u);
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 2);
  EXPECT_EQ(rs->at(0, 1).string_value(), "a");
  EXPECT_EQ(rs->at(1, 1).string_value(), "x");
  EXPECT_EQ(rs->at(2, 0).AsInt().value(), 1);
  EXPECT_EQ(rs->at(2, 1).string_value(), "b");
}

TEST_F(ExecTest, LimitEdgeCases) {
  ASSERT_TRUE(Exec(*db_, "CREATE TABLE t (a INTEGER); "
                              "INSERT INTO t VALUES (1), (2), (3)")
                  .ok());
  auto rs = Exec(*db_, "SELECT a FROM t LIMIT 0");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 0u);
  auto rs2 = Exec(*db_, "SELECT a FROM t LIMIT 99");
  ASSERT_TRUE(rs2.ok());
  EXPECT_EQ(rs2->num_rows(), 3u);
  auto rs3 = Exec(*db_, "SELECT a FROM t ORDER BY a DESC LIMIT 1");
  ASSERT_TRUE(rs3.ok());
  ASSERT_EQ(rs3->num_rows(), 1u);
  EXPECT_EQ(rs3->at(0, 0).AsInt().value(), 3);
}

TEST_F(ExecTest, DistinctOnLaValues) {
  ASSERT_TRUE(Exec(*db_, "CREATE TABLE v (vec VECTOR[2])").ok());
  la::Vector a(std::vector<double>{1, 2});
  la::Vector b(std::vector<double>{3, 4});
  ASSERT_TRUE(db_->BulkInsert("v", {{Value::FromVector(a)},
                                    {Value::FromVector(b)},
                                    {Value::FromVector(a)}})
                  .ok());
  auto rs = Exec(*db_, "SELECT DISTINCT vec FROM v");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 2u);
}

TEST_F(ExecTest, CrossJoinOfEmptyInput) {
  ASSERT_TRUE(Exec(*db_, "CREATE TABLE e (a INTEGER); "
                              "CREATE TABLE f (b INTEGER); "
                              "INSERT INTO f VALUES (1)")
                  .ok());
  auto rs = Exec(*db_, "SELECT COUNT(*) FROM e, f");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 0);
}

TEST_F(ExecTest, MetricsSkewAndSimulatedTime) {
  ASSERT_TRUE(Exec(*db_, "CREATE TABLE t (a INTEGER)").ok());
  std::vector<Row> rows;
  for (int i = 0; i < 400; ++i) rows.push_back({Value::Int(i)});
  ASSERT_TRUE(db_->BulkInsert("t", std::move(rows)).ok());
  ASSERT_TRUE(Exec(*db_, "SELECT SUM(a) FROM t").ok());
  const QueryMetrics& m = db_->last_metrics();
  EXPECT_GT(m.operators.size(), 0u);
  EXPECT_GE(m.wall_seconds, m.SimulatedParallelSeconds() * 0.0);
  for (const auto& op : m.operators) {
    EXPECT_GE(op.Skew(), 1.0 - 1e-9) << op.name;
    EXPECT_EQ(op.worker_seconds.size(), 4u);
  }
}

TEST_F(ExecTest, RuntimeErrorsCarryOperatorContext) {
  // Division by zero inside a projection aborts the query cleanly.
  ASSERT_TRUE(Exec(*db_, "CREATE TABLE t (a INTEGER); "
                              "INSERT INTO t VALUES (0), (1)")
                  .ok());
  auto rs = Exec(*db_, "SELECT 10 / a FROM t");
  EXPECT_EQ(rs.status().code(), StatusCode::kNumericError);
}

TEST(OperatorMetricsTest, SkewMath) {
  OperatorMetrics m;
  m.worker_seconds = {1.0, 1.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(m.TotalSeconds(), 8.0);
  EXPECT_DOUBLE_EQ(m.MaxWorkerSeconds(), 5.0);
  EXPECT_DOUBLE_EQ(m.Skew(), 5.0 / 2.0);
  OperatorMetrics idle;
  idle.worker_seconds = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(idle.Skew(), 1.0);
}

TEST(QueryMetricsTest, AggregationAcrossOperators) {
  QueryMetrics q;
  OperatorMetrics a;
  a.name = "HashJoin(shuffle)";
  a.worker_seconds = {1.0, 3.0};
  a.bytes_shuffled = 100;
  a.rows_out = 5;
  OperatorMetrics b;
  b.name = "Aggregate(final)";
  b.worker_seconds = {2.0, 2.0};
  b.bytes_shuffled = 50;
  b.rows_out = 2;
  q.operators = {a, b};
  EXPECT_DOUBLE_EQ(q.SimulatedParallelSeconds(), 5.0);
  EXPECT_EQ(q.TotalBytesShuffled(), 150u);
  EXPECT_EQ(q.TotalRowsProcessed(), 7u);
  EXPECT_DOUBLE_EQ(q.SecondsForOperatorsContaining("Join"), 4.0);
  EXPECT_DOUBLE_EQ(q.SecondsForOperatorsContaining("Aggregate"), 4.0);
  EXPECT_NE(q.ToString().find("HashJoin"), std::string::npos);
}

// --- join strategies -------------------------------------------------
//
// Every row join runs one placement rule, one lookup per worker and one
// probe loop; these cases pin each strategy's rows and row order.

/// Each row serialized bit-exactly (FP bit patterns and the sign of
/// zero included), in arrival order.
std::vector<std::string> OrderedBits(const RowSet& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string bytes;
    AppendRowBinary(bytes, row);
    out.push_back(std::move(bytes));
  }
  return out;
}

std::vector<std::string> SortedBits(const RowSet& rows) {
  std::vector<std::string> out = OrderedBits(rows);
  std::sort(out.begin(), out.end());
  return out;
}

using Loader = std::function<void(Database&)>;

/// The join tables, with random (not grid) doubles: `big` (2,000 rows
/// over 100 keys) and `tiny` (5 rows) for the broadcasts, `l` and `r`
/// (600 rows each over 300 keys) for the shuffles. `place` hash-places
/// the named tables on k.
Loader JoinTables(std::vector<std::string> place = {}) {
  return [place](Database& db) {
    ASSERT_TRUE(Exec(db, "CREATE TABLE big (k INTEGER, v DOUBLE); "
                         "CREATE TABLE tiny (k INTEGER, w DOUBLE); "
                         "CREATE TABLE l (k INTEGER, p DOUBLE); "
                         "CREATE TABLE r (k INTEGER, q DOUBLE)")
                    .ok());
    Rng rng(17);
    std::vector<Row> big, tiny, l, r;
    for (int i = 0; i < 2000; ++i) {
      big.push_back({Value::Int(i % 100), Value::Double(rng.Uniform(-1, 1))});
    }
    for (int i = 0; i < 5; ++i) {
      tiny.push_back({Value::Int(i * 7), Value::Double(rng.Uniform(-1, 1))});
    }
    for (int i = 0; i < 600; ++i) {
      l.push_back({Value::Int(rng.NextBelow(300)),
                   Value::Double(rng.Uniform(-1, 1))});
      r.push_back({Value::Int(rng.NextBelow(300)),
                   Value::Double(rng.Uniform(-1, 1))});
    }
    ASSERT_TRUE(db.BulkInsert("big", std::move(big)).ok());
    ASSERT_TRUE(db.BulkInsert("tiny", std::move(tiny)).ok());
    ASSERT_TRUE(db.BulkInsert("l", std::move(l)).ok());
    ASSERT_TRUE(db.BulkInsert("r", std::move(r)).ok());
    for (const std::string& t : place) {
      ASSERT_TRUE(db.RepartitionTable(t, "k").ok());
    }
  };
}

/// `probe` (40 rows) and `build` (400 rows, indexed on k alone) joined
/// on two column pairs, so the index probes k and the join rechecks j.
/// The join also carries a residual predicate and, fused by the
/// optimizer, the projection of the inner product.
Loader IndexTables() {
  return [](Database& db) {
    ASSERT_TRUE(Exec(db, "CREATE TABLE probe (k INTEGER, j INTEGER, "
                         "w DOUBLE, pv VECTOR[16]); "
                         "CREATE TABLE build (k INTEGER, j INTEGER, "
                         "v DOUBLE, bv VECTOR[16])")
                    .ok());
    Rng rng(23);
    const auto vec = [&] {
      la::Vector x(16);
      for (size_t c = 0; c < 16; ++c) x[c] = rng.Uniform(-1, 1);
      return Value::FromVector(std::move(x));
    };
    for (const auto& [table, n] :
         {std::pair<std::string, int>{"probe", 40}, {"build", 400}}) {
      std::vector<Row> rows;
      for (int i = 0; i < n; ++i) {
        rows.push_back({Value::Int(rng.NextBelow(100)),
                        Value::Int(rng.NextBelow(3)),
                        Value::Double(rng.Uniform(0, 1)), vec()});
      }
      ASSERT_TRUE(db.BulkInsert(table, std::move(rows)).ok());
    }
    ASSERT_TRUE(Exec(db, "CREATE INDEX bk ON build (k)").ok());
  };
}

constexpr char kIndexJoin[] =
    "SELECT probe.k, inner_product(probe.pv, build.bv) * probe.w "
    "FROM probe, build "
    "WHERE probe.k = build.k AND probe.j = build.j AND probe.w < build.v";
constexpr char kIndexSum[] =
    "SELECT SUM(inner_product(probe.pv, build.bv) * probe.w) "
    "FROM probe, build "
    "WHERE probe.k = build.k AND probe.j = build.j AND probe.w < build.v";

Database::Config JoinConfig(size_t threads) {
  Database::Config config;
  config.num_workers = 4;
  config.num_threads = threads;
  config.cache.enable_result_cache = false;
  return config;
}

/// The operator of the last statement named `name`, or null.
const OperatorMetrics* FindOp(Database& db, const std::string& name) {
  for (const OperatorMetrics& op : db.last_metrics().operators) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

/// `sql` runs as the join operator `op`; its rows equal the reference
/// evaluator's as a multiset; its rows in order, and the result of
/// `sum_sql` (an order-sensitive SUM over the same join), are the same
/// bits at 1 and 8 threads.
void ExpectJoinStrategy(const Loader& load, const std::string& sql,
                        const std::string& sum_sql, const std::string& op) {
  std::vector<std::string> rows_at_1, sum_at_1;
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(sql + " at " + std::to_string(threads) + " threads");
    Database db(JoinConfig(threads));
    load(db);
    const Result<ResultSet> got = Exec(db, sql);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_NE(FindOp(db, op), nullptr) << db.last_metrics().ToString();
    const Result<ResultSet> sum = Exec(db, sum_sql);
    ASSERT_TRUE(sum.ok()) << sum.status();
    EXPECT_NE(FindOp(db, op), nullptr) << db.last_metrics().ToString();
    if (threads == 1) {
      const Result<ResultSet> want =
          testing::ReferenceExecute(sql, db.catalog());
      ASSERT_TRUE(want.ok()) << want.status();
      EXPECT_GT(got->num_rows(), 0u);
      EXPECT_EQ(SortedBits(got->rows), SortedBits(want->rows));
      rows_at_1 = OrderedBits(got->rows);
      sum_at_1 = OrderedBits(sum->rows);
      continue;
    }
    EXPECT_EQ(OrderedBits(got->rows), rows_at_1);
    EXPECT_EQ(OrderedBits(sum->rows), sum_at_1);
  }
}

TEST(JoinStrategyTest, CrossJoinBroadcastRight) {
  ExpectJoinStrategy(
      JoinTables(),
      "SELECT big.k, big.v, tiny.w FROM big, tiny WHERE big.v < tiny.w",
      "SELECT SUM(big.v * tiny.w) FROM big, tiny WHERE big.v < tiny.w",
      "CrossJoin(bcast right)");
}

TEST(JoinStrategyTest, CrossJoinBroadcastLeft) {
  ExpectJoinStrategy(JoinTables(), "SELECT tiny.k, big.v, tiny.w FROM tiny, big",
                     "SELECT SUM(big.v * tiny.w) FROM tiny, big",
                     "CrossJoin(bcast left)");
}

TEST(JoinStrategyTest, HashJoinBroadcastRight) {
  ExpectJoinStrategy(
      JoinTables(),
      "SELECT big.k, big.v, tiny.w FROM big, tiny WHERE big.k = tiny.k",
      "SELECT SUM(big.v * tiny.w) FROM big, tiny WHERE big.k = tiny.k",
      "HashJoin(bcast right)");
}

TEST(JoinStrategyTest, HashJoinBroadcastLeft) {
  ExpectJoinStrategy(
      JoinTables(),
      "SELECT big.k, big.v, tiny.w FROM tiny, big WHERE big.k = tiny.k",
      "SELECT SUM(big.v * tiny.w) FROM tiny, big WHERE big.k = tiny.k",
      "HashJoin(bcast left)");
}

TEST(JoinStrategyTest, HashJoinShuffle) {
  ExpectJoinStrategy(JoinTables(),
                     "SELECT l.k, l.p, r.q FROM l, r WHERE l.k = r.k",
                     "SELECT SUM(l.p * r.q) FROM l, r WHERE l.k = r.k",
                     "HashJoin(shuffle)");
}

TEST(JoinStrategyTest, HashJoinShuffleOneSide) {
  ExpectJoinStrategy(JoinTables({"r"}),
                     "SELECT l.k, l.p, r.q FROM l, r WHERE l.k = r.k",
                     "SELECT SUM(l.p * r.q) FROM l, r WHERE l.k = r.k",
                     "HashJoin(shuffle one side)");
}

TEST(JoinStrategyTest, HashJoinCoLocated) {
  ExpectJoinStrategy(JoinTables({"l", "r"}),
                     "SELECT l.k, l.p, r.q FROM l, r WHERE l.k = r.k",
                     "SELECT SUM(l.p * r.q) FROM l, r WHERE l.k = r.k",
                     "HashJoin(co-located)");
}

TEST(JoinStrategyTest, IndexJoin) {
  ExpectJoinStrategy(IndexTables(), kIndexJoin, kIndexSum,
                     "IndexJoin(build.bk)");
}

TEST(JoinStrategyTest, GraceFallbackKeepsRowsAndOrder) {
  // One thread: the budget's in-memory-or-Grace decisions are then
  // deterministic.
  const std::string sql = "SELECT l.k, l.p, r.q FROM l, r WHERE l.k = r.k";
  Database db(JoinConfig(1));
  JoinTables()(db);
  const Result<ResultSet> free = Exec(db, sql);
  ASSERT_TRUE(free.ok()) << free.status();
  QueryOptions tight;
  tight.memory_budget_bytes = 16 << 10;
  tight.num_threads_override = 1;
  const Result<ResultSet> budgeted = Exec(db, sql, tight);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status();
  const OperatorMetrics* join = FindOp(db, "HashJoin(shuffle)");
  ASSERT_NE(join, nullptr) << db.last_metrics().ToString();
  EXPECT_GT(join->bytes_spilled, 0u);
  EXPECT_GT(free->num_rows(), 0u);
  EXPECT_EQ(OrderedBits(budgeted->rows), OrderedBits(free->rows));
}

TEST(JoinStrategyTest, IndexJoinRechecksFiltersAndProjects) {
  Database db(JoinConfig(1));
  IndexTables()(db);
  const Result<std::string> explain = db.Explain(kIndexJoin);
  ASSERT_TRUE(explain.ok()) << explain.status();
  const size_t at = explain->find("Join (indexed)");
  ASSERT_NE(at, std::string::npos) << *explain;
  const std::string line = explain->substr(at, explain->find('\n', at) - at);
  EXPECT_NE(line.find("(probe.w < build.v)"), std::string::npos) << line;
  EXPECT_NE(line.find("project=["), std::string::npos) << line;
  EXPECT_NE(line.find("(inner_product(probe.pv, build.bv) * probe.w) AS"),
            std::string::npos)
      << line;
  const Result<ResultSet> indexed = Exec(db, kIndexJoin);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  ASSERT_NE(FindOp(db, "IndexJoin(build.bk)"), nullptr);
  ASSERT_TRUE(Exec(db, "DROP INDEX bk").ok());
  const Result<ResultSet> hashed = Exec(db, kIndexJoin);
  ASSERT_TRUE(hashed.ok()) << hashed.status();
  EXPECT_EQ(FindOp(db, "IndexJoin(build.bk)"), nullptr);
  EXPECT_GT(indexed->num_rows(), 0u);
  EXPECT_EQ(SortedBits(indexed->rows), SortedBits(hashed->rows));
}

// --- thread-count determinism ----------------------------------------

/// Runs a full workload — scans, filters, shuffle and broadcast
/// joins, two-phase group-by aggregation, DISTINCT, ORDER BY, and a
/// vector-coded Gram computation — on a database with the given
/// thread count and returns every result set.
std::vector<ResultSet> RunWorkloadWithThreads(size_t num_threads) {
  Database::Config config;
  config.num_workers = 4;
  config.num_threads = num_threads;
  Database db(config);
  EXPECT_TRUE(Exec(db, "CREATE TABLE points (id INTEGER, grp INTEGER, "
                            "val DOUBLE, vec VECTOR[8]); "
                            "CREATE TABLE labels (grp INTEGER, bonus DOUBLE)")
                  .ok());
  std::vector<Row> point_rows;
  for (int i = 0; i < 600; ++i) {
    la::Vector v(8);
    for (size_t c = 0; c < 8; ++c) {
      v[c] = static_cast<double>((i * 31 + static_cast<int>(c) * 7) % 97) / 9.0;
    }
    point_rows.push_back({Value::Int(i), Value::Int(i % 23),
                          Value::Double(static_cast<double>(i % 41) / 3.0),
                          Value::FromVector(std::move(v))});
  }
  EXPECT_TRUE(db.BulkInsert("points", std::move(point_rows)).ok());
  std::vector<Row> label_rows;
  for (int g = 0; g < 23; ++g) {
    label_rows.push_back({Value::Int(g), Value::Double(g * 1.5)});
  }
  EXPECT_TRUE(db.BulkInsert("labels", std::move(label_rows)).ok());

  const std::vector<std::string> queries = {
      "SELECT grp, COUNT(*), SUM(val), AVG(val) FROM points GROUP BY grp",
      "SELECT points.id, labels.bonus FROM points, labels "
      "WHERE points.grp = labels.grp AND points.val > 5.0",
      "SELECT DISTINCT grp FROM points WHERE id < 400",
      "SELECT id, val FROM points ORDER BY val DESC, id LIMIT 50",
      "SELECT SUM(outer_product(vec, vec)) FROM points",
      "SELECT grp, SUM(outer_product(vec, vec)) FROM points GROUP BY grp",
  };
  std::vector<ResultSet> results;
  for (const std::string& q : queries) {
    auto rs = Exec(db, q);
    EXPECT_TRUE(rs.ok()) << q << ": " << rs.status();
    results.push_back(rs.ok() ? std::move(*rs) : ResultSet{});
  }
  return results;
}

TEST(ExecDeterminismTest, ResultsIdenticalAtOneAndEightThreads) {
  const std::vector<ResultSet> seq = RunWorkloadWithThreads(1);
  const std::vector<ResultSet> par = RunWorkloadWithThreads(8);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t q = 0; q < seq.size(); ++q) {
    ASSERT_EQ(seq[q].num_rows(), par[q].num_rows()) << "query " << q;
    ASSERT_EQ(seq[q].num_columns(), par[q].num_columns()) << "query " << q;
    for (size_t r = 0; r < seq[q].num_rows(); ++r) {
      for (size_t c = 0; c < seq[q].num_columns(); ++c) {
        // Deep bit-exact equality, including row order: the parallel
        // runtime must be invisible in every result.
        EXPECT_TRUE(seq[q].at(r, c).Equals(par[q].at(r, c)))
            << "query " << q << " row " << r << " col " << c << ": "
            << seq[q].at(r, c).ToString() << " vs "
            << par[q].at(r, c).ToString();
      }
    }
  }
}

TEST(ExecDeterminismTest, ShuffleAccountingMatchesAcrossThreadCounts) {
  // Shuffle accounting is summed from per-worker tallies when
  // parallel; totals must equal the sequential run's exactly.
  std::vector<std::pair<size_t, size_t>> totals;  // (rows, bytes) per run
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    Database::Config config;
    config.num_workers = 4;
    config.num_threads = threads;
    Database db(config);
    ASSERT_TRUE(Exec(db, "CREATE TABLE t (k INTEGER, v DOUBLE)").ok());
    std::vector<Row> rows;
    for (int i = 0; i < 800; ++i) {
      rows.push_back({Value::Int(i % 50), Value::Double(i)});
    }
    ASSERT_TRUE(db.BulkInsert("t", std::move(rows)).ok());
    auto rs = Exec(db, "SELECT k, SUM(v) FROM t GROUP BY k");
    ASSERT_TRUE(rs.ok()) << rs.status();
    EXPECT_EQ(rs->num_rows(), 50u);
    size_t rows_shuffled = 0;
    size_t bytes_shuffled = 0;
    for (const auto& op : db.last_metrics().operators) {
      rows_shuffled += op.rows_shuffled;
      bytes_shuffled += op.bytes_shuffled;
    }
    EXPECT_GT(rows_shuffled, 0u);
    totals.emplace_back(rows_shuffled, bytes_shuffled);
  }
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0], totals[1]);
}

std::vector<uint64_t> Bits(const double* x, size_t n) {
  std::vector<uint64_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = std::bit_cast<uint64_t>(x[i]);
  return out;
}

TEST(ExecDeterminismTest, BlockLinRegAndDistanceIdenticalAcrossThreadCounts) {
  // At d = 72 the regression's inverse spans three LU panels and two
  // solve strips, and runs inside the worker that holds the Gram row.
  const workloads::Dataset data = workloads::GenerateDataset(72, 80, 72);
  std::vector<uint64_t> beta_bits;
  int64_t nearest = -1;
  uint64_t distance_bits = 0;
  for (const size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    Database::Config config;
    config.num_workers = 4;
    config.num_threads = threads;
    workloads::SqlWorkload linreg(config);
    ASSERT_TRUE(linreg.LoadVector(data).ok());
    auto lr = linreg.LinRegBlock(20);
    ASSERT_TRUE(lr.ok()) << lr.status();
    ASSERT_EQ(lr->beta.size(), data.d);
    workloads::SqlWorkload distance(config);
    ASSERT_TRUE(distance.LoadVector(data).ok());
    auto dist = distance.DistanceBlock(40);
    ASSERT_TRUE(dist.ok()) << dist.status();
    const std::vector<uint64_t> bits = Bits(lr->beta.data(), lr->beta.size());
    const uint64_t value_bits = std::bit_cast<uint64_t>(dist->distance.value);
    if (threads == 1) {
      beta_bits = bits;
      nearest = dist->distance.point_id;
      distance_bits = value_bits;
      continue;
    }
    EXPECT_EQ(bits, beta_bits);
    EXPECT_EQ(dist->distance.point_id, nearest);
    EXPECT_EQ(value_bits, distance_bits);
  }
}

TEST(ExecDeterminismTest, OneRowMatrixInverseRunsOnSeveralPoolThreads) {
  // The one row lands on one simulated worker, so the inverse runs
  // inside one pool body; its panels and strips are nested regions
  // that the other threads join.
  Database::Config config;
  config.num_workers = 4;
  config.num_threads = 4;
  // Every run must execute, not hit the result cache.
  config.cache.enable_result_cache = false;
  Database db(config);
  struct Delta {
    uint64_t regions = 0;
    size_t threads_with_tasks = 0;
  };
  // Pool deltas over `runs` executions of a one-row inverse of order d.
  // Idle threads join a nested region only once they are scheduled, so
  // a run on a loaded machine may finish on its caller alone; over
  // several runs some thread joins.
  const auto run_inverse = [&](size_t d, size_t runs) {
    const std::string table = "t" + std::to_string(d);
    EXPECT_TRUE(Exec(db, "CREATE TABLE " + table + " (m MATRIX[" +
                             std::to_string(d) + "][" + std::to_string(d) +
                             "])")
                    .ok());
    Rng rng(d);
    la::Matrix m(d, d);
    for (size_t i = 0; i < d * d; ++i) m.data()[i] = rng.Uniform(-1.0, 1.0);
    for (size_t i = 0; i < d; ++i) m.At(i, i) = m.At(i, i) + 2.0 * d;
    EXPECT_TRUE(db.BulkInsert(table, {{Value::FromMatrix(std::move(m))}}).ok());
    const ThreadPool::PoolStats before = db.pool()->Stats();
    for (size_t run = 0; run < runs; ++run) {
      auto rs = Exec(db, "SELECT matrix_inverse(m) FROM " + table);
      EXPECT_TRUE(rs.ok()) << rs.status();
      EXPECT_EQ(rs.ok() ? rs->num_rows() : 0, 1u);
    }
    const ThreadPool::PoolStats after = db.pool()->Stats();
    Delta delta;
    delta.regions = (after.regions_started - before.regions_started) / runs;
    delta.threads_with_tasks = after.caller.tasks > before.caller.tasks;
    for (size_t w = 0; w < after.workers.size(); ++w) {
      delta.threads_with_tasks += after.workers[w].tasks > before.workers[w].tasks;
    }
    return delta;
  };
  // A d = 8 inverse starts no kernel region: its count is the query's
  // own regions.
  const Delta small = run_inverse(8, 1);
  const Delta large = run_inverse(256, 5);
  EXPECT_GT(large.regions, small.regions);
  EXPECT_GE(large.threads_with_tasks, 2u);
}

}  // namespace
}  // namespace radb
