#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"

#include "test_util.h"
#include "service/session.h"

namespace radb {
namespace {

using service::ServiceConfig;
using service::SessionManager;

/// Sizable cross join (~10M pairs) whose row loops poll the token
/// every 256 rows — long enough that a cancel landing ~50 ms in is
/// always mid-flight, short enough to finish if never cancelled.
constexpr char kLongJoin[] =
    "SELECT a.k, COUNT(*) FROM pts a, pts b WHERE a.k < 20 GROUP BY a.k";

class CancelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(
        Exec(*db_, "CREATE TABLE pts (k INTEGER, x DOUBLE)").ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 5000; ++i) {
      rows.push_back({Value::Int(i % 50), Value::Double(0.5 * (i % 31))});
    }
    ASSERT_TRUE(db_->BulkInsert("pts", std::move(rows)).ok());
  }

  std::unique_ptr<Database> db_;
};

// ----------------------------------------------------------------------
// Mid-join cancellation from another thread.
// ----------------------------------------------------------------------

TEST_F(CancelTest, CancelMidJoinAbortsPromptlyAndKeepsDatabaseHealthy) {
  QueryOptions opts;
  opts.cancellation = std::make_shared<CancellationToken>();
  std::thread canceller([token = opts.cancellation] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token->Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  auto got = db_->Execute(kLongJoin, opts);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << got.status();
  // Cooperative polling is row-batch granular: the abort lands well
  // before the join would have finished.
  EXPECT_LT(seconds, 5.0);

  // The Database is not poisoned: the same query runs to completion.
  auto again = Exec(*db_, "SELECT COUNT(*) FROM pts");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->at(0, 0).int_value(), 5000);
}

TEST_F(CancelTest, DeadlineMidExecutionReturnsDeadlineExceeded) {
  QueryOptions opts;
  opts.deadline_ms = 50;
  auto got = db_->Execute(kLongJoin, opts);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded)
      << got.status();
}

TEST_F(CancelTest, CancelBetweenStatementsDropsTheRestOfTheScript) {
  // The token fires during the long first statement; the script's
  // later DDL must not run.
  QueryOptions opts;
  opts.cancellation = std::make_shared<CancellationToken>();
  std::thread canceller([token = opts.cancellation] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token->Cancel();
  });
  auto got = db_->Execute(std::string(kLongJoin) +
                              "; CREATE TABLE leftover (v INTEGER)",
                          opts);
  canceller.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
  // leftover was never created.
  EXPECT_FALSE(Exec(*db_, "SELECT COUNT(*) FROM leftover").ok());
}

// ----------------------------------------------------------------------
// Vectorized-pipeline cancellation: the batch engine polls the token
// once per ColumnBatch (the columnar analogue of the row loops'
// 256-row granularity).
// ----------------------------------------------------------------------

class VectorizedCancelTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 1000000;

  void SetUp() override {
    db_ = std::make_unique<Database>(Database::Config{});
    ASSERT_TRUE(
        Exec(*db_, "CREATE TABLE pts (k INTEGER, x DOUBLE)").ok());
    // About a thousand 1024-row batches over the table, so a cancel
    // landing anywhere mid-aggregate hits a per-batch poll soon.
    std::vector<Row> rows;
    rows.reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      rows.push_back({Value::Int(i % 997), Value::Double(0.5 * (i % 31))});
    }
    ASSERT_TRUE(db_->BulkInsert("pts", std::move(rows)).ok());
  }

  // Scan -> filter -> group-by chain on typed lanes, so the whole
  // pipeline (including the typed hash aggregate) runs the columnar
  // kernels.
  static constexpr char kVectorizedAgg[] =
      "SELECT k, COUNT(*), SUM(x), AVG(x) FROM pts WHERE x >= 0.0 "
      "GROUP BY k";

  std::unique_ptr<Database> db_;
};

constexpr char VectorizedCancelTest::kVectorizedAgg[];

TEST_F(VectorizedCancelTest, QueryActuallyRunsVectorized) {
  // Guard for the cancellation tests below: this exact query must
  // run as a batch pipeline.
  auto rs = Exec(*db_, std::string("EXPLAIN ANALYZE ") +
                            kVectorizedAgg);
  ASSERT_TRUE(rs.ok()) << rs.status();
  std::string plan;
  for (size_t i = 0; i < rs->num_rows(); ++i) {
    plan += rs->at(i, 0).string_value() + "\n";
  }
  EXPECT_NE(plan.find("exec=batch"), std::string::npos) << plan;
}

TEST_F(VectorizedCancelTest, PreCancelledTokenStopsVectorizedAggregate) {
  QueryOptions opts;
  opts.cancellation = std::make_shared<CancellationToken>();
  opts.cancellation->Cancel();
  auto got = db_->Execute(kVectorizedAgg, opts);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << got.status();
}

TEST_F(VectorizedCancelTest, CancelMidVectorizedAggregateAbortsPromptly) {
  QueryOptions opts;
  opts.cancellation = std::make_shared<CancellationToken>();
  std::thread canceller([token = opts.cancellation] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    token->Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  auto got = db_->Execute(kVectorizedAgg, opts);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << got.status();
  EXPECT_LT(seconds, 5.0);

  // Aggregate state charged mid-flight was released and the Database
  // is healthy: the same query completes and agrees with COUNT(*).
  auto again = Exec(*db_, "SELECT COUNT(*) FROM pts");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->at(0, 0).int_value(), kRows);
}

// ----------------------------------------------------------------------
// Cancelled budgeted queries leave no spill files and no tracker
// charges behind.
// ----------------------------------------------------------------------

TEST(CancelCleanupTest, CancelledSpillingQueryLeavesNoFilesOrCharges) {
  namespace fs = std::filesystem;
  // Private spill dir so the emptiness check cannot see anyone else's
  // files.
  std::string dir_template =
      (fs::temp_directory_path() / "radb-cancel-XXXXXX").string();
  ASSERT_NE(mkdtemp(dir_template.data()), nullptr);
  const fs::path spill_dir(dir_template);

  {
    Database::Config cfg;
    cfg.spill_dir = spill_dir.string();
    Database db(cfg);
    ASSERT_TRUE(Exec(db, "CREATE TABLE big (k INTEGER, pad STRING)")
                    .ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 4000; ++i) {
      rows.push_back(
          {Value::Int(i % 40), Value::String(std::string(100, 'p'))});
    }
    ASSERT_TRUE(db.BulkInsert("big", std::move(rows)).ok());

    SessionManager manager(&db);
    auto session = manager.CreateSession();
    // A spilling join (64 KB budget) cancelled mid-flight.
    QueryOptions opts;
    opts.memory_budget_bytes = 64u << 10;
    // One thread: at 4 or more this budget's join often ends in
    // ResourceExhausted before the cancel lands, because the
    // admit/spill/fail decision still depends on interleaving (ROADMAP:
    // "Deterministic budgets and integrity-checked storage").
    opts.num_threads_override = 1;
    // The sequence number the upcoming Execute will get, captured
    // before launching the canceller so nothing races on it.
    const uint64_t seq = session->next_query_seq();
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      session->Cancel(seq);
    });
    auto got = session->Execute(
        "SELECT a.k, COUNT(*) FROM big a, big b WHERE a.k = b.k GROUP BY a.k",
        opts);
    canceller.join();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << got.status();

    // No tracker charges survived the abort, at either level.
    EXPECT_EQ(manager.admission().global_tracker()->bytes_in_use(), 0u);
    EXPECT_EQ(manager.admission().claimed_bytes(), 0u);
    // Spill files are mkstemp'd and unlinked at creation, so even
    // mid-spill cancellation leaves the directory empty.
    EXPECT_TRUE(fs::is_empty(spill_dir));
  }
  std::error_code ec;
  fs::remove_all(spill_dir, ec);
}

TEST(CancelCleanupTest, CancelledBudgetedBatchAggregateLeavesNoFilesOrCharges) {
  namespace fs = std::filesystem;
  std::string dir_template =
      (fs::temp_directory_path() / "radb-cancel-XXXXXX").string();
  ASSERT_NE(mkdtemp(dir_template.data()), nullptr);
  const fs::path spill_dir(dir_template);

  {
    Database::Config cfg;
    cfg.spill_dir = spill_dir.string();
    cfg.cache.enable_result_cache = false;
    // One worker holds every row, so its first pass is long.
    cfg.num_workers = 1;
    Database db(cfg);
    ASSERT_TRUE(Exec(db, "CREATE TABLE pts (k INTEGER, x DOUBLE)").ok());
    std::vector<Row> rows;
    for (int64_t i = 0; i < 300000; ++i) {
      rows.push_back({Value::Int(i % 4000), Value::Double(0.5 * (i % 31))});
    }
    ASSERT_TRUE(db.BulkInsert("pts", std::move(rows)).ok());
    const std::string sql = "SELECT k, COUNT(*), SUM(x) FROM pts GROUP BY k";

    // Guard: under a budget this chain runs on the batch engine.
    QueryOptions roomy;
    roomy.memory_budget_bytes = 64u << 20;
    auto plan = db.Execute("EXPLAIN ANALYZE " + sql, roomy);
    ASSERT_TRUE(plan.ok()) << plan.status();
    std::string text;
    for (size_t i = 0; i < plan->last().num_rows(); ++i) {
      text += plan->last().at(i, 0).string_value() + "\n";
    }
    ASSERT_NE(text.find("exec=batch"), std::string::npos) << text;

    SessionManager manager(&db);
    auto session = manager.CreateSession();
    // 64 KB admits a few hundred of the 4000 groups; the other rows
    // overflow to disk for a second pass, and the cancel lands while
    // they spill (uncancelled, that pass fails ResourceExhausted only
    // after the whole table has been read).
    QueryOptions opts;
    opts.memory_budget_bytes = 64u << 10;
    opts.num_threads_override = 1;
    const uint64_t seq = session->next_query_seq();
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      session->Cancel(seq);
    });
    const auto start = std::chrono::steady_clock::now();
    auto got = session->Execute(sql, opts);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    canceller.join();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << got.status();
    EXPECT_LT(seconds, 5.0);

    EXPECT_EQ(manager.admission().global_tracker()->bytes_in_use(), 0u);
    EXPECT_EQ(manager.admission().claimed_bytes(), 0u);
    EXPECT_TRUE(fs::is_empty(spill_dir));
  }
  std::error_code ec;
  fs::remove_all(spill_dir, ec);
}

// ----------------------------------------------------------------------
// Every reader polls: a trap (test_util.h) fires the token on the last
// row of one plan node's input, so the node's own reader is the first
// to poll it. The plan runs on an Executor without a pool, so the rows
// reach the trap in worker order.
// ----------------------------------------------------------------------

using Pick = std::function<bool(const LogicalOp&)>;

Pick KindIs(LogicalOp::Kind kind) {
  return [kind](const LogicalOp& op) { return op.kind == kind; };
}

class CancelEachReaderTest : public ::testing::Test {
 protected:
  static constexpr int64_t kT = 20000;  // rows of t
  static constexpr int64_t kU = 2000;   // rows of u
  static constexpr int64_t kS = 600;    // rows of s
  static constexpr int64_t kG = 800;    // rows of gl and of gr

  void SetUp() override {
    Database::Config cfg;
    cfg.num_workers = 4;
    cfg.num_threads = 1;
    cfg.cache.enable_result_cache = false;
    db_ = std::make_unique<Database>(cfg);
    const auto load = [&](const std::string& ddl, const std::string& table,
                          int64_t n, const std::function<Row(int64_t)>& row) {
      ASSERT_TRUE(Exec(*db_, ddl).ok());
      std::vector<Row> rows;
      for (int64_t i = 0; i < n; ++i) rows.push_back(row(i));
      ASSERT_TRUE(db_->BulkInsert(table, std::move(rows)).ok());
    };
    load("CREATE TABLE t (k INTEGER, x DOUBLE)", "t", kT, [](int64_t i) {
      return Row{Value::Int(i % 50), Value::Double(0.5 * double(i % 31))};
    });
    load("CREATE TABLE u (k INTEGER, x DOUBLE)", "u", kU, [](int64_t i) {
      return Row{Value::Int(i), Value::Double(0.25 * double(i % 7))};
    });
    load("CREATE TABLE s (k INTEGER, y DOUBLE)", "s", kS, [](int64_t i) {
      return Row{Value::Int(i % 50), Value::Double(double(i))};
    });
    for (const char* g : {"gl", "gr"}) {
      load(std::string("CREATE TABLE ") + g + " (k INTEGER, pad VARCHAR)", g,
           kG, [](int64_t i) {
             return Row{Value::Int(i), Value::String(std::string(100, 'p'))};
           });
    }
    // A 400 x 8 matrix as (row, col, value) cells, and two sets of
    // 1000 8-element vectors.
    load("CREATE TABLE xm (k INTEGER, i INTEGER, v DOUBLE)", "xm", 400 * 8,
         [](int64_t c) {
           return Row{Value::Int(c / 8), Value::Int(c % 8),
                      Value::Double(0.25 * double(c % 13))};
         });
    for (const char* v : {"p", "q"}) {
      load(std::string("CREATE TABLE ") + v + " (id INTEGER, v VECTOR[8])", v,
           1000, [](int64_t i) {
             std::vector<double> x(8);
             for (size_t e = 0; e < x.size(); ++e) x[e] = double((i + e) % 5);
             return Row{Value::Int(i), Value::FromVector(la::Vector(x))};
           });
    }
    ASSERT_TRUE(Exec(*db_,
                     "CREATE VIEW w AS SELECT k, SUM(x) AS sx FROM u GROUP BY k")
                    .ok());
  }

  /// Traps input `input` of the first node `pick` accepts on its last
  /// (`rows`-th) row and runs the plan: unbudgeted, or under `budget`
  /// bytes spilling to a private directory. It must end Cancelled with
  /// the trap having seen exactly `rows` rows, no tracker charge left
  /// and the spill directory empty. `stops_in`, when given, starts the
  /// name of the last operator the plan entered.
  void ExpectCancelled(const std::string& sql, const Pick& pick, size_t input,
                       size_t rows, size_t budget = 0,
                       const std::string& stops_in = "") {
    namespace fs = std::filesystem;
    std::string dir =
        (fs::temp_directory_path() / "radb-cancel-XXXXXX").string();
    ASSERT_NE(mkdtemp(dir.data()), nullptr);
    {
      auto trap = TrapCancel(*db_, sql, pick, input, rows);
      ASSERT_TRUE(trap.ok()) << trap.status();
      mem::MemoryTracker tracker("query", budget);
      const Status status = (*trap)->Run(*db_, &tracker, dir);
      EXPECT_EQ(status.code(), StatusCode::kCancelled) << status;
      EXPECT_EQ((*trap)->calls, rows);
      EXPECT_EQ(tracker.bytes_in_use(), 0u);
      EXPECT_EQ(tracker.unspillable_bytes(), 0u);
      EXPECT_TRUE(fs::is_empty(dir));
      const std::vector<OperatorMetrics>& ops = (*trap)->metrics.operators;
      if (!stops_in.empty()) {
        ASSERT_FALSE(ops.empty());
        EXPECT_EQ(ops.back().name.rfind(stops_in, 0), 0u) << ops.back().name;
      }
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  std::unique_ptr<Database> db_;
};

TEST_F(CancelEachReaderTest, CrossJoin) {
  // s is the smaller side, so it is broadcast; the probe polls.
  ExpectCancelled("SELECT a.k, b.y FROM u a, s b WHERE a.k < b.k",
                  KindIs(LogicalOp::Kind::kJoin), 1, kS, 0, "CrossJoin");
}

TEST_F(CancelEachReaderTest, BroadcastHashJoin) {
  // u's rows carry two columns to s's one, so s is broadcast.
  ExpectCancelled("SELECT a.k, a.x, b.y FROM u a, s b WHERE a.k = b.k",
                  KindIs(LogicalOp::Kind::kJoin), 1, kS, 0,
                  "HashJoin(bcast right)");
}

TEST_F(CancelEachReaderTest, ShuffledHashJoin) {
  ExpectCancelled("SELECT a.k, b.x FROM u a, u b WHERE a.k = b.k",
                  KindIs(LogicalOp::Kind::kJoin), 1, kU, 0,
                  "HashJoin(shuffle)");
}

TEST_F(CancelEachReaderTest, GraceHashJoin) {
  // 16 KiB admits no worker's build of about 200 padded rows, so each
  // worker runs Grace. Routing reads fewer than kCancelCheckRows rows
  // per buffer, so Grace's split is the first to poll.
  ExpectCancelled("SELECT a.k, b.k FROM gl a, gr b WHERE a.k = b.k",
                  KindIs(LogicalOp::Kind::kJoin), 1, kG, 16u << 10,
                  "HashJoin(shuffle)");
}

TEST_F(CancelEachReaderTest, Distinct) {
  ExpectCancelled("SELECT DISTINCT k FROM t",
                  KindIs(LogicalOp::Kind::kDistinct), 0, kT, 0, "Distinct");
}

TEST_F(CancelEachReaderTest, OrderBy) {
  ExpectCancelled("SELECT k, x FROM t ORDER BY x",
                  KindIs(LogicalOp::Kind::kSort), 0, kT, 0, "Sort");
}

TEST_F(CancelEachReaderTest, RootLimit) {
  ExpectCancelled("SELECT k, x FROM t LIMIT 15000",
                  KindIs(LogicalOp::Kind::kLimit), 0, kT, 0, "Limit");
}

TEST_F(CancelEachReaderTest, SpoolCopy) {
  // The view is read twice, so its first use holds its rows (one group
  // per row of u) and copies them for the join; under a budget the
  // held rows spill at once and the copy replays them from disk.
  for (size_t budget : {size_t{0}, size_t{1} << 20}) {
    SCOPED_TRACE(budget);
    ExpectCancelled(
        "SELECT a.k, b.sx FROM w AS a, w AS b WHERE a.k = b.k",
        [](const LogicalOp& op) { return op.spool_id != 0; }, 0, kU, budget);
  }
}

TEST_F(CancelEachReaderTest, PipelineOverABoundary) {
  // The LIMIT reads fewer than kCancelCheckRows rows, so the aggregate's
  // pipeline, ingesting them, is the first to poll.
  ExpectCancelled(
      "SELECT k, COUNT(*) FROM (SELECT k FROM t LIMIT 200) AS l GROUP BY k",
      KindIs(LogicalOp::Kind::kLimit), 0, kT);
}

TEST_F(CancelEachReaderTest, TupleMultiply) {
  // A self product: its Join's first input is the one that runs.
  ExpectCancelled(
      "SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM xm AS x1, xm AS x2 "
      "WHERE x1.k = x2.k GROUP BY x1.i, x2.i",
      KindIs(LogicalOp::Kind::kJoin), 0, 400 * 8, 0, "RelationalMultiply");
}

TEST_F(CancelEachReaderTest, VectorMultiply) {
  ExpectCancelled(
      "SELECT a.id, MIN(inner_product(b.v, a.v)) FROM p AS a, q AS b "
      "WHERE a.id <> b.id GROUP BY a.id",
      KindIs(LogicalOp::Kind::kJoin), 1, 1000, 0, "RelationalMultiply");
}

}  // namespace
}  // namespace radb
