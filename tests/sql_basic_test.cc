#include <gtest/gtest.h>

#include "api/database.h"

#include "test_util.h"

namespace radb {
namespace {

class SqlBasicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(Exec(db_, "CREATE TABLE t (a INTEGER, b DOUBLE, "
                               "c STRING)")
                    .ok());
    ASSERT_TRUE(Exec(db_, "INSERT INTO t VALUES "
                               "(1, 1.5, 'x'), (2, 2.5, 'y'), "
                               "(3, 3.5, 'x'), (4, 4.5, 'z')")
                    .ok());
  }
  Database db_;
};

TEST_F(SqlBasicTest, SelectStar) {
  auto rs = Exec(db_, "SELECT * FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 4u);
  EXPECT_EQ(rs->num_columns(), 3u);
}

TEST_F(SqlBasicTest, WhereFilter) {
  auto rs = Exec(db_, "SELECT a FROM t WHERE b > 2.0 AND c = 'x'");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 3);
}

TEST_F(SqlBasicTest, Projection) {
  auto rs = Exec(db_, "SELECT a * 2 + 1 AS v FROM t WHERE a = 2");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 5);
  EXPECT_EQ(rs->columns[0].name, "v");
}

TEST_F(SqlBasicTest, ScalarAggregates) {
  auto rs = Exec(db_, 
      "SELECT COUNT(*), SUM(a), AVG(b), MIN(a), MAX(c) FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 4);
  EXPECT_EQ(rs->at(0, 1).AsInt().value(), 10);
  EXPECT_DOUBLE_EQ(rs->at(0, 2).AsDouble().value(), 3.0);
  EXPECT_EQ(rs->at(0, 3).AsInt().value(), 1);
  EXPECT_EQ(rs->at(0, 4).string_value(), "z");
}

TEST_F(SqlBasicTest, GroupBy) {
  auto rs = Exec(db_, 
      "SELECT c, SUM(a) AS s FROM t GROUP BY c ORDER BY c");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(rs->at(0, 0).string_value(), "x");
  EXPECT_EQ(rs->at(0, 1).AsInt().value(), 4);
  EXPECT_EQ(rs->at(2, 0).string_value(), "z");
}

TEST_F(SqlBasicTest, GroupByExpression) {
  // GROUP BY an arithmetic expression; SELECT references it verbatim.
  auto rs = Exec(db_, 
      "SELECT a / 2, COUNT(*) FROM t GROUP BY a / 2 ORDER BY a / 2");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 3u);  // groups 0 (a=1), 1 (a=2,3), 2 (a=4)
  EXPECT_EQ(rs->at(1, 1).AsInt().value(), 2);
}

TEST_F(SqlBasicTest, HavingFiltersGroups) {
  auto rs = Exec(db_, 
      "SELECT c, SUM(a) AS s FROM t GROUP BY c HAVING SUM(a) > 3 "
      "ORDER BY c");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 2u);  // 'x' (4) and 'z' (4); 'y' (2) dropped
  EXPECT_EQ(rs->at(0, 0).string_value(), "x");
  EXPECT_EQ(rs->at(1, 0).string_value(), "z");
  // HAVING may reference group keys.
  auto rs2 = Exec(db_, 
      "SELECT c, COUNT(*) FROM t GROUP BY c HAVING c = 'x'");
  ASSERT_TRUE(rs2.ok()) << rs2.status();
  EXPECT_EQ(rs2->num_rows(), 1u);
  // HAVING without aggregates/GROUP BY is rejected.
  EXPECT_EQ(Exec(db_, "SELECT a FROM t HAVING a > 1").status().code(),
            StatusCode::kBindError);
  // HAVING must be boolean.
  EXPECT_EQ(Exec(db_, "SELECT c FROM t GROUP BY c HAVING 1 + 1")
                .status()
                .code(),
            StatusCode::kTypeError);
}

TEST_F(SqlBasicTest, JoinTwoTables) {
  ASSERT_TRUE(Exec(db_, "CREATE TABLE u (a INTEGER, d DOUBLE); "
                             "INSERT INTO u VALUES (1, 10.0), (3, 30.0)")
                  .ok());
  auto rs = Exec(db_, 
      "SELECT t.a, u.d FROM t, u WHERE t.a = u.a ORDER BY t.a");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 1);
  EXPECT_DOUBLE_EQ(rs->at(1, 1).AsDouble().value(), 30.0);
}

TEST_F(SqlBasicTest, SelfJoinWithAliases) {
  auto rs = Exec(db_, 
      "SELECT x1.a, x2.a FROM t AS x1, t AS x2 "
      "WHERE x1.a = x2.a ORDER BY x1.a");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 4u);
}

TEST_F(SqlBasicTest, CrossJoinCount) {
  auto rs = Exec(db_, 
      "SELECT COUNT(*) FROM t AS x1, t AS x2");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 16);
}

TEST_F(SqlBasicTest, NonEquiJoinPredicate) {
  auto rs = Exec(db_, 
      "SELECT COUNT(*) FROM t AS x1, t AS x2 WHERE x1.a < x2.a");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 6);
}

TEST_F(SqlBasicTest, DistinctAndLimit) {
  auto rs = Exec(db_, "SELECT DISTINCT c FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 3u);
  auto rs2 = Exec(db_, "SELECT a FROM t ORDER BY a DESC LIMIT 2");
  ASSERT_TRUE(rs2.ok()) << rs2.status();
  ASSERT_EQ(rs2->num_rows(), 2u);
  EXPECT_EQ(rs2->at(0, 0).AsInt().value(), 4);
}

TEST_F(SqlBasicTest, ViewsExpand) {
  ASSERT_TRUE(Exec(db_, "CREATE VIEW big (a) AS "
                             "SELECT a FROM t WHERE b > 2.0")
                  .ok());
  auto rs = Exec(db_, "SELECT COUNT(*) FROM big");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 3);
  // Views compose with joins.
  auto rs2 =
      Exec(db_, "SELECT COUNT(*) FROM big AS b1, big AS b2 "
                     "WHERE b1.a = b2.a");
  ASSERT_TRUE(rs2.ok()) << rs2.status();
  EXPECT_EQ(rs2->at(0, 0).AsInt().value(), 3);
}

TEST_F(SqlBasicTest, SubqueryInFrom) {
  auto rs = Exec(db_, 
      "SELECT s.c, s.total FROM "
      "(SELECT c, SUM(a) AS total FROM t GROUP BY c) AS s "
      "WHERE s.total > 3 ORDER BY s.c");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 2u);
  EXPECT_EQ(rs->at(0, 0).string_value(), "x");
}

TEST_F(SqlBasicTest, CreateTableAs) {
  ASSERT_TRUE(
      Exec(db_, "CREATE TABLE t2 AS SELECT a, b FROM t WHERE a > 2")
          .ok());
  auto rs = Exec(db_, "SELECT COUNT(*) FROM t2");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 2);
}

TEST_F(SqlBasicTest, BindErrors) {
  EXPECT_EQ(Exec(db_, "SELECT nope FROM t").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(Exec(db_, "SELECT a FROM missing").status().code(),
            StatusCode::kCatalogError);
  EXPECT_EQ(Exec(db_, "SELECT t.a FROM t, t").status().code(),
            StatusCode::kBindError);  // duplicate alias
  EXPECT_EQ(Exec(db_, "SELECT a, SUM(b) FROM t").status().code(),
            StatusCode::kBindError);  // a not grouped
  EXPECT_EQ(Exec(db_, "SELECT SUM(SUM(a)) FROM t").status().code(),
            StatusCode::kBindError);  // nested aggregate
  EXPECT_EQ(Exec(db_, "SELECT no_such_fn(a) FROM t").status().code(),
            StatusCode::kCatalogError);
}

TEST_F(SqlBasicTest, TypeErrors) {
  EXPECT_EQ(Exec(db_, "SELECT a FROM t WHERE a + 1").status().code(),
            StatusCode::kTypeError);  // WHERE must be boolean
  EXPECT_EQ(Exec(db_, "SELECT a + c FROM t").status().code(),
            StatusCode::kTypeError);  // int + string
  EXPECT_EQ(Exec(db_, "SELECT a FROM t WHERE c > 1").status().code(),
            StatusCode::kTypeError);  // string vs numeric ordering
}

TEST_F(SqlBasicTest, EmptyTableAggregates) {
  ASSERT_TRUE(Exec(db_, "CREATE TABLE empty (a INTEGER)").ok());
  auto rs = Exec(db_, "SELECT COUNT(*), SUM(a) FROM empty");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 0);
  EXPECT_TRUE(rs->at(0, 1).is_null());
}

TEST_F(SqlBasicTest, IntegerDivisionTruncates) {
  auto rs = Exec(db_, "SELECT a / 2 FROM t WHERE a = 3");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->at(0, 0).AsInt().value(), 1);
}

TEST_F(SqlBasicTest, MetricsPopulated) {
  ASSERT_TRUE(Exec(db_, "SELECT c, SUM(a) FROM t GROUP BY c").ok());
  const QueryMetrics& m = db_.last_metrics();
  EXPECT_GT(m.operators.size(), 0u);
  bool saw_aggregate = false;
  for (const auto& op : m.operators) {
    if (op.name.find("Aggregate") != std::string::npos) {
      saw_aggregate = true;
    }
  }
  EXPECT_TRUE(saw_aggregate);
}

TEST_F(SqlBasicTest, ExplainAnalyzeAnnotatesEveryNode) {
  auto rs =
      Exec(db_, "EXPLAIN ANALYZE SELECT c, SUM(a) FROM t GROUP BY c");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_columns(), 1u);
  std::string text;
  for (size_t r = 0; r < rs->num_rows(); ++r) {
    text += rs->at(r, 0).string_value();
    text += "\n";
  }
  EXPECT_NE(text.find("Aggregate"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan t"), std::string::npos) << text;
  EXPECT_NE(text.find("est rows="), std::string::npos) << text;
  EXPECT_NE(text.find("actual rows="), std::string::npos) << text;
  EXPECT_NE(text.find("max-worker="), std::string::npos) << text;
  EXPECT_NE(text.find("skew="), std::string::npos) << text;
  EXPECT_NE(text.find("wall time:"), std::string::npos) << text;
  // EXPLAIN ANALYZE executed the query, so last_metrics() is the run
  // it reports.
  const QueryMetrics& m = db_.last_metrics();
  EXPECT_GT(m.operators.size(), 0u);
  EXPECT_GT(m.wall_seconds, 0.0);
  // The Scan annotation carries that operator's actual row count.
  EXPECT_NE(text.find("actual rows=4"), std::string::npos) << text;
}

TEST_F(SqlBasicTest, PlainExplainDoesNotExecute) {
  auto rs = Exec(db_, "EXPLAIN SELECT a FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status();
  std::string text;
  for (size_t r = 0; r < rs->num_rows(); ++r) {
    text += rs->at(r, 0).string_value();
    text += "\n";
  }
  EXPECT_EQ(text.find("actual rows="), std::string::npos) << text;
  EXPECT_NE(text.find("estimated cost:"), std::string::npos) << text;
}

TEST_F(SqlBasicTest, ExplainApiMatchesExplainStatement) {
  // One renderer: Database::Explain is the EXPLAIN statement's rows,
  // each ended by a newline (the cost line included).
  const std::string q =
      "SELECT c, SUM(b) FROM t WHERE a > 1 GROUP BY c ORDER BY c";
  auto api = db_.Explain(q);
  ASSERT_TRUE(api.ok()) << api.status();
  auto rs = Exec(db_, "EXPLAIN " + q);
  ASSERT_TRUE(rs.ok()) << rs.status();
  std::string joined;
  for (size_t r = 0; r < rs->num_rows(); ++r) {
    joined += rs->at(r, 0).string_value() + "\n";
  }
  EXPECT_EQ(*api, joined);
}

TEST_F(SqlBasicTest, DropTableAndView) {
  ASSERT_TRUE(Exec(db_, "CREATE VIEW v AS SELECT a FROM t").ok());
  ASSERT_TRUE(Exec(db_, "DROP VIEW v").ok());
  EXPECT_FALSE(Exec(db_, "SELECT * FROM v").ok());
  ASSERT_TRUE(Exec(db_, "DROP TABLE t").ok());
  EXPECT_FALSE(Exec(db_, "SELECT * FROM t").ok());
}

// Distribution sanity: results are identical across cluster sizes.
class ClusterSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ClusterSizeTest, SameAnswerAnyWorkerCount) {
  Database::Config config;
  config.num_workers = GetParam();
  Database db(config);
  ASSERT_TRUE(Exec(db, "CREATE TABLE t (k INTEGER, v DOUBLE)").ok());
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(
        Row{Value::Int(i % 7), Value::Double(static_cast<double>(i))});
  }
  ASSERT_TRUE(db.BulkInsert("t", std::move(rows)).ok());
  auto rs = Exec(db, 
      "SELECT k, SUM(v) AS s, COUNT(*) AS c FROM t GROUP BY k ORDER BY k");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 7u);
  double total = 0;
  int64_t count = 0;
  for (size_t r = 0; r < rs->num_rows(); ++r) {
    total += rs->at(r, 1).AsDouble().value();
    count += rs->at(r, 2).AsInt().value();
  }
  EXPECT_DOUBLE_EQ(total, 99.0 * 100 / 2);
  EXPECT_EQ(count, 100);
}

INSTANTIATE_TEST_SUITE_P(Workers, ClusterSizeTest,
                         ::testing::Values(1, 2, 3, 8, 16));

}  // namespace
}  // namespace radb
