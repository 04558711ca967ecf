#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "service/session.h"
#include "test_util.h"
#include "workloads/computations.h"
#include "workloads/datagen.h"

/// Shared-subtree spools: a statement that reads one view (or one
/// derived table) twice computes it once. Covers the Figure 3 counts,
/// the annotation rules, bit-identity against an unshared twin across
/// engines / threads / budgets, placement, cancellation and concurrent
/// sessions sharing one cached plan.

namespace radb {
namespace {

size_t CountOps(const QueryMetrics& qm, const std::string& prefix) {
  size_t n = 0;
  for (const OperatorMetrics& op : qm.operators) {
    if (op.name.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

/// Every spool-annotated node, in pre-order.
void CollectSpooled(const LogicalOp& op, std::vector<const LogicalOp*>* out) {
  if (op.spool_id != 0) out->push_back(&op);
  for (const auto& c : op.children) CollectSpooled(*c, out);
}

std::vector<const LogicalOp*> Spooled(const LogicalOp& plan) {
  std::vector<const LogicalOp*> out;
  CollectSpooled(plan, &out);
  return out;
}

// ---------------------------------------------------------------------
// Figure 3: both distance codings read their per-point minimum view
// twice (per point, and for the global MAX).
// ---------------------------------------------------------------------

TEST(SpoolTest, DistanceCodingsComputeTheRepeatedViewOnce) {
  const workloads::Dataset data = workloads::GenerateDataset(77, 48, 6);
  auto expected = workloads::ReferenceDistance(data);
  ASSERT_TRUE(expected.ok()) << expected.status();

  workloads::SqlWorkload blk(4);
  ASSERT_TRUE(blk.LoadVector(data).ok());
  auto block = blk.DistanceBlock(12);
  ASSERT_TRUE(block.ok()) << block.status();
  EXPECT_EQ(block->distance.point_id, expected->point_id);
  EXPECT_NEAR(block->distance.value, expected->value, 1e-6);
  // One blockmin evaluation: mlx x mlx x mm is two cross joins (four
  // without the spool). blockmin is reused once, and the two mlx
  // copies inside the blockmin that runs share one result.
  EXPECT_EQ(CountOps(block->metrics, "CrossJoin"), 2u);
  EXPECT_EQ(CountOps(block->metrics, "SpoolReuse"), 2u);

  workloads::SqlWorkload vec(4);
  ASSERT_TRUE(vec.LoadVector(data).ok());
  auto vector = vec.DistanceVector();
  ASSERT_TRUE(vector.ok()) << vector.status();
  EXPECT_EQ(vector->distance.point_id, expected->point_id);
  EXPECT_NEAR(vector->distance.value, expected->value, 1e-6);
  // distancesm runs once, on the relational multiply kernel; mx is the
  // one cross join left.
  EXPECT_EQ(CountOps(vector->metrics, "CrossJoin"), 1u);
  EXPECT_EQ(CountOps(vector->metrics, "RelationalMultiply(kernel)"), 1u);
  EXPECT_EQ(CountOps(vector->metrics, "SpoolReuse"), 1u);
}

TEST(SpoolTest, NestedRepeatCountsOnlyCopiesThatRun) {
  const workloads::Dataset data = workloads::GenerateDataset(5, 24, 4);
  workloads::SqlWorkload blk(4);
  ASSERT_TRUE(blk.LoadVector(data).ok());
  ASSERT_TRUE(blk.DistanceBlock(6).ok());  // creates mlx / blockmin
  const std::string sql =
      "SELECT b.id1, argmax_vector(b.mins), max_vector(b.mins) "
      "FROM blockmin AS b, "
      "(SELECT MAX(max_vector(mins)) AS mx FROM blockmin) AS t "
      "WHERE max_vector(b.mins) = t.mx";
  auto plan = blk.db().PlanQuery(sql);
  ASSERT_TRUE(plan.ok()) << plan.status();

  // blockmin twice, and mlx four times in the plan: twice inside each
  // blockmin copy. Only the two inside the producing blockmin ever
  // run, so mlx is one spool of two uses, not four.
  const std::vector<const LogicalOp*> spooled = Spooled(**plan);
  ASSERT_EQ(spooled.size(), 4u);
  const LogicalOp* outer_reuse = nullptr;
  for (const LogicalOp* op : spooled) {
    EXPECT_EQ(op->spool_uses, 2u) << op->NodeLabel();
    if (op->spool_id == 1 && op->spool_reuse) outer_reuse = op;
  }
  ASSERT_NE(outer_reuse, nullptr);
  // The copies inside the reused blockmin never run: unannotated.
  EXPECT_TRUE(Spooled(*outer_reuse).size() == 1u);

  auto explain = blk.db().Explain(sql);
  ASSERT_TRUE(explain.ok());
  for (const char* label : {"spool#1 (uses=2)", "spool#1 reuse",
                            "spool#2 (uses=2)", "spool#2 reuse"}) {
    EXPECT_NE(explain->find(label), std::string::npos) << label << "\n"
                                                       << *explain;
  }
}

// ---------------------------------------------------------------------
// What is never spooled.
// ---------------------------------------------------------------------

class SpoolFixture : public ::testing::Test {
 protected:
  static Database::Config DefaultConfig() {
    Database::Config cfg;
    cfg.num_workers = 4;
    cfg.cache.enable_result_cache = false;
    cfg.obs.enable_metrics = true;
    return cfg;
  }

  /// p(k, g, x, v): 96 rows, 6 groups, doubles off any exact grid so
  /// a changed summation order would show in the last bits.
  /// q(g, w): one row per group.
  static void Load(Database& db) {
    ASSERT_TRUE(Exec(db,
                     "CREATE TABLE p (k INTEGER, g INTEGER, x DOUBLE, "
                     "v VECTOR[3]); CREATE TABLE q (g INTEGER, w DOUBLE)")
                    .ok());
    Rng rng(11);
    std::vector<Row> rows;
    for (int64_t i = 0; i < 96; ++i) {
      std::vector<double> v = {rng.NextDouble(), rng.NextDouble() * 3.1,
                               -rng.NextDouble()};
      rows.push_back({Value::Int(i), Value::Int(i % 6),
                      Value::Double(rng.NextDouble() * 10.0 / 3.0),
                      Value::FromVector(la::Vector(std::move(v)))});
    }
    ASSERT_TRUE(db.BulkInsert("p", std::move(rows)).ok());
    std::vector<Row> qrows;
    for (int64_t g = 0; g < 6; ++g) {
      qrows.push_back({Value::Int(g), Value::Double(0.1 * (g + 1))});
    }
    ASSERT_TRUE(db.BulkInsert("q", std::move(qrows)).ok());
  }
};

TEST_F(SpoolFixture, ScansAndScanChainsAreNeverSpooled) {
  Database db(DefaultConfig());
  Load(db);
  for (const char* sql : {
           // The tuple-coded Gram shape: a self-join of two bare scans.
           "SELECT a.g, b.g, SUM(a.x * b.x) FROM p AS a, p AS b "
           "WHERE a.k = b.k GROUP BY a.g, b.g",
           // Filter/Project chains over one scan, read twice.
           "SELECT a.g, COUNT(*) FROM "
           "(SELECT k, g FROM p WHERE x > 1.0) AS a, "
           "(SELECT k, g FROM p WHERE x > 1.0) AS b, q "
           "WHERE a.k = b.k AND a.g = q.g GROUP BY a.g",
           // A single Join/Aggregate: nothing can repeat.
           "SELECT g, SUM(x) FROM p GROUP BY g",
       }) {
    auto plan = db.PlanQuery(sql);
    ASSERT_TRUE(plan.ok()) << plan.status();
    EXPECT_TRUE(Spooled(**plan).empty()) << sql << "\n"
                                         << (*plan)->ToString();
  }
}

TEST_F(SpoolFixture, SubtreesDifferingOnlyInALiteralAreNotShared) {
  Database db(DefaultConfig());
  Load(db);
  const std::string agg = "SELECT g, SUM(x) AS s FROM p WHERE x > ";
  auto plan = db.PlanQuery("SELECT a.g, a.s, b.s FROM (" + agg +
                           "1.0 GROUP BY g) AS a, (" + agg +
                           "1.5 GROUP BY g) AS b WHERE a.g = b.g");
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(Spooled(**plan).empty()) << (*plan)->ToString();
}

// ---------------------------------------------------------------------
// Bit-identity against an unshared twin: the second copy gets a no-op
// WHERE 1 = 1, which changes its plan fingerprint, so it recomputes.
// ---------------------------------------------------------------------

struct TwinCase {
  const char* name;
  std::string spooled;
  std::string twin;
};

std::vector<TwinCase> TwinCases() {
  const std::string agg = "SELECT g, SUM(x) AS s, SUM(v) AS vs, COUNT(*) AS n "
                          "FROM p GROUP BY g";
  const std::string agg_twin =
      "SELECT g, SUM(x) AS s, SUM(v) AS vs, COUNT(*) AS n "
      "FROM p WHERE 1 = 1 GROUP BY g";
  // A trailing 1 = 1 would sit above the join and leave the join
  // itself shared, so the twin's no-op goes under it.
  const std::string join = "SELECT p.k AS k, p.x * q.w AS xw FROM p, q "
                           "WHERE p.g = q.g";
  const std::string join_twin =
      "SELECT p.k AS k, p.x * q.w AS xw FROM "
      "(SELECT k, g, x FROM p WHERE 1 = 1) AS p, q WHERE p.g = q.g";
  std::vector<TwinCase> out;
  // A repeated aggregate, joined to itself on its key.
  out.push_back({"aggregate",
                 "SELECT a.g, a.s, b.s, a.vs, a.n + b.n FROM (" + agg +
                     ") AS a, (" + agg + ") AS b WHERE a.g = b.g ORDER BY a.g",
                 "SELECT a.g, a.s, b.s, a.vs, a.n + b.n FROM (" + agg +
                     ") AS a, (" + agg_twin +
                     ") AS b WHERE a.g = b.g ORDER BY a.g"});
  // A repeated join under a projection.
  out.push_back({"join",
                 "SELECT COUNT(*), SUM(a.xw * b.xw) FROM (" + join +
                     ") AS a, (" + join + ") AS b WHERE a.k = b.k",
                 "SELECT COUNT(*), SUM(a.xw * b.xw) FROM (" + join +
                     ") AS a, (" + join_twin + ") AS b WHERE a.k = b.k"});
  // The repeated subtree is the join itself (the projections above
  // order its columns differently), under an aggregate chain: the
  // spooled join must materialize rather than stream into that chain.
  const std::string sum = "SELECT SUM(j.x) AS t FROM ";
  out.push_back(
      {"bare_join",
       "SELECT s.t, c.t FROM (" + sum +
           "(SELECT p.x AS x, p.k AS k FROM p, q WHERE p.g = q.g) AS j) AS s, (" +
           sum +
           "(SELECT p.k AS k, p.x AS x FROM p, q WHERE p.g = q.g) AS j) AS c",
       "SELECT s.t, c.t FROM (" + sum +
           "(SELECT p.x AS x, p.k AS k FROM p, q WHERE p.g = q.g) AS j) AS s, (" +
           sum +
           "(SELECT p.k AS k, p.x AS x FROM (SELECT k, g, x FROM p "
           "WHERE 1 = 1) AS p, q WHERE p.g = q.g) AS j) AS c"});
  return out;
}

TEST_F(SpoolFixture, ResultsBitIdenticalToUnsharedTwin) {
  {
    Database db(DefaultConfig());
    Load(db);
    auto plan = db.PlanQuery(TwinCases()[2].spooled);
    ASSERT_TRUE(plan.ok()) << plan.status();
    const std::vector<const LogicalOp*> spooled = Spooled(**plan);
    ASSERT_EQ(spooled.size(), 2u);
    EXPECT_EQ(spooled[0]->kind, LogicalOp::Kind::kJoin);
  }
  struct Engine {
    size_t threads;
    size_t budget;
  };
  for (const Engine& e : {Engine{1, 0}, Engine{8, 0}, Engine{1, 256u << 10},
                          Engine{8, 256u << 10}}) {
    SCOPED_TRACE(std::to_string(e.threads) + " threads, budget " +
                 std::to_string(e.budget));
    Database::Config cfg = DefaultConfig();
    cfg.num_threads = e.threads;
    Database db(cfg);
    Load(db);
    QueryOptions opts;
    opts.memory_budget_bytes = e.budget;
    for (const TwinCase& c : TwinCases()) {
      SCOPED_TRACE(c.name);
      auto twin = db.Execute(c.twin, opts);
      ASSERT_TRUE(twin.ok()) << twin.status();
      EXPECT_EQ(CountOps(db.last_metrics(), "SpoolReuse"), 0u);
      auto spooled = db.Execute(c.spooled, opts);
      ASSERT_TRUE(spooled.ok()) << spooled.status();
      EXPECT_EQ(CountOps(db.last_metrics(), "SpoolReuse"), 1u);

      const RowSet& a = spooled->last().rows;
      const RowSet& b = twin->last().rows;
      ASSERT_EQ(a.size(), b.size());
      for (size_t r = 0; r < a.size(); ++r) {
        ASSERT_EQ(a[r].size(), b[r].size());
        for (size_t i = 0; i < a[r].size(); ++i) {
          EXPECT_TRUE(a[r][i].Equals(b[r][i]))
              << "row " << r << " col " << i << ": " << a[r][i].ToString()
              << " vs " << b[r][i].ToString();
        }
      }
      if (e.budget != 0) {
        // Nothing else spills at this size: the held copy went to disk
        // right after production.
        EXPECT_EQ(twin->statements.back().spill_bytes, 0u);
        EXPECT_GT(spooled->statements.back().spill_bytes, 0u);
      }
    }
  }
}

/// The `shuffled=` figure of the first Join line of an EXPLAIN ANALYZE.
std::string TopJoinShuffle(const ResultSet& rs) {
  for (size_t i = 0; i + 1 < rs.rows.size(); ++i) {
    const std::string line = rs.rows[i][0].string_value();
    if (line.find_first_not_of(' ') != line.find("Join")) continue;
    const std::string next = rs.rows[i + 1][0].string_value();
    const size_t at = next.find("shuffled=");
    if (at == std::string::npos) return "";
    return next.substr(at, next.find(',', at) - at);
  }
  return "";
}

TEST_F(SpoolFixture, ReusedCopyShufflesLikeARecomputedTwin) {
  Database db(DefaultConfig());
  Load(db);
  const TwinCase c = TwinCases()[0];
  auto spooled = Exec(db, "EXPLAIN ANALYZE " + c.spooled);
  ASSERT_TRUE(spooled.ok()) << spooled.status();
  auto twin = Exec(db, "EXPLAIN ANALYZE " + c.twin);
  ASSERT_TRUE(twin.ok()) << twin.status();
  const std::string shuffle = TopJoinShuffle(*spooled);
  ASSERT_FALSE(shuffle.empty());
  EXPECT_EQ(shuffle, TopJoinShuffle(*twin));

  // EXPLAIN ANALYZE annotates the reused copy with its own actuals.
  std::ostringstream text;
  for (const Row& row : spooled->rows) text << row[0].string_value() << "\n";
  EXPECT_NE(text.str().find("spool#1 (uses=2)"), std::string::npos)
      << text.str();
  EXPECT_NE(text.str().find("spool#1 reuse"), std::string::npos) << text.str();
  obs::MetricsRegistry* reg = db.metrics_registry();
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->counter("exec.spool_reuses")->value(), 1u);
}

TEST_F(SpoolFixture, PreparedStatementKeepsItsSpool) {
  Database db(DefaultConfig());
  Load(db);
  // EXECUTE runs a clone of the parameter-abstract template plan; the
  // clone must carry the spool annotation.
  const std::string agg = "(SELECT g, SUM(x) AS s FROM p GROUP BY g)";
  ASSERT_TRUE(Exec(db, "PREPARE q AS SELECT a.g, a.s + ? FROM " + agg +
                           " AS a, " + agg +
                           " AS b WHERE a.g = b.g ORDER BY a.g")
                  .ok());
  auto prepared = Exec(db, "EXECUTE q(0.5)");
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  EXPECT_EQ(CountOps(db.last_metrics(), "SpoolReuse"), 1u);
  auto direct = Exec(db, "SELECT a.g, a.s + 0.5 FROM " + agg + " AS a, " +
                             agg + " AS b WHERE a.g = b.g ORDER BY a.g");
  ASSERT_TRUE(direct.ok()) << direct.status();
  ASSERT_EQ(prepared->rows.size(), direct->rows.size());
  for (size_t r = 0; r < direct->rows.size(); ++r) {
    for (size_t i = 0; i < direct->rows[r].size(); ++i) {
      EXPECT_TRUE(prepared->rows[r][i].Equals(direct->rows[r][i]));
    }
  }
}

// ---------------------------------------------------------------------
// Cancellation between the producer and the last use.
// ---------------------------------------------------------------------

TEST_F(SpoolFixture, CancelBetweenProducerAndLastUseLeavesNothing) {
  namespace fs = std::filesystem;
  std::string dir_template =
      (fs::temp_directory_path() / "radb-spool-XXXXXX").string();
  ASSERT_NE(mkdtemp(dir_template.data()), nullptr);
  const fs::path spill_dir(dir_template);
  {
    Database db(DefaultConfig());
    Load(db);
    auto planned = db.PlanQuery(TwinCases()[0].spooled);
    ASSERT_TRUE(planned.ok()) << planned.status();
    LogicalOpPtr plan = std::move(*planned);

    // Splice a filter above the producer whose predicate fires the
    // token: the producer has finished and its held copy sits on disk,
    // the reuse has not started.
    auto token = std::make_shared<CancellationToken>();
    BuiltinFunction cancel_fn;
    cancel_fn.eval = [token](const std::vector<Value>&) -> Result<Value> {
      token->Cancel();
      return Value::Bool(true);
    };
    std::vector<LogicalOp*> stack = {plan.get()};
    bool spliced = false;
    while (!stack.empty() && !spliced) {
      LogicalOp* parent = stack.back();
      stack.pop_back();
      for (LogicalOpPtr& child : parent->children) {
        if (child->spool_id != 0 && !child->spool_reuse) {
          auto filter = std::make_unique<LogicalOp>();
          filter->kind = LogicalOp::Kind::kFilter;
          filter->output = child->output;
          auto pred = std::make_unique<BoundExpr>();
          pred->kind = BoundExpr::Kind::kCall;
          pred->type = DataType::Boolean();
          pred->fn = &cancel_fn;
          filter->predicates.push_back(std::move(pred));
          filter->children.push_back(std::move(child));
          child = std::move(filter);
          spliced = true;
          break;
        }
        stack.push_back(child.get());
      }
    }
    ASSERT_TRUE(spliced);

    mem::MemoryTracker tracker("query", 256u << 10);
    MemoryContext mem{&tracker, spill_dir.string(), 1, token.get()};
    QueryMetrics qm;
    {
      Executor executor(db.cluster(), &qm, {}, nullptr, mem);
      auto result = executor.Execute(*plan);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
          << result.status();
      EXPECT_EQ(CountOps(qm, "SpoolReuse"), 0u);
      // The held copy had been spilled, and nothing of it survives the
      // failed Execute: no charge, no file.
      EXPECT_GT(tracker.spill_bytes(), 0u);
      EXPECT_EQ(tracker.bytes_in_use(), 0u);
    }
    EXPECT_TRUE(fs::is_empty(spill_dir));
  }
  std::error_code ec;
  fs::remove_all(spill_dir, ec);
}

// ---------------------------------------------------------------------
// Spool state lives in the Executor, not on the shared cached plan.
// ---------------------------------------------------------------------

TEST_F(SpoolFixture, EightSessionsShareOnePlanCachedSpooledStatement) {
  Database::Config cfg = DefaultConfig();
  cfg.num_threads = 4;
  Database db(cfg);
  Load(db);
  const std::string sql = TwinCases()[0].spooled;
  auto serial = Exec(db, sql);
  ASSERT_TRUE(serial.ok()) << serial.status();

  service::SessionManager manager(&db);
  constexpr size_t kSessions = 8;
  constexpr size_t kRounds = 6;
  std::vector<std::string> failures(kSessions);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      auto session = manager.CreateSession();
      for (size_t r = 0; r < kRounds; ++r) {
        auto got = session->Execute(sql);
        if (!got.ok()) {
          failures[s] = got.status().ToString();
          return;
        }
        const RowSet& rows = got->last().rows;
        bool same = rows.size() == serial->rows.size();
        for (size_t i = 0; same && i < rows.size(); ++i) {
          for (size_t j = 0; same && j < rows[i].size(); ++j) {
            same = rows[i][j].Equals(serial->rows[i][j]);
          }
        }
        if (!same) {
          failures[s] = "round " + std::to_string(r) + " differs";
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t s = 0; s < kSessions; ++s) {
    EXPECT_TRUE(failures[s].empty()) << "session " << s << ": " << failures[s];
  }
  obs::MetricsRegistry* reg = db.metrics_registry();
  ASSERT_NE(reg, nullptr);
  EXPECT_GT(reg->counter("cache.plan_hits")->value(), 0u);
  EXPECT_EQ(reg->counter("exec.spool_reuses")->value(),
            1u + kSessions * kRounds);
}

}  // namespace
}  // namespace radb
