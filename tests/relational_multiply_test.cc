#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/database.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "test_util.h"
#include "workloads/computations.h"
#include "workloads/datagen.h"

/// Relational matrix multiply (DESIGN.md §19): the optimizer marks
/// SUM(l.v * r.w) over l JOIN r ON l.k = r.k (the tuple coding) and
/// SUM/MIN/MAX(inner_product(l.v, r.w)) over a cross join (the vector
/// coding), grouped by l.i and/or r.j, with INTEGER key comparisons as
/// a mask; the executor computes it on the dense kernel, or falls back
/// to the Join and Aggregate. Every result is checked against the
/// rule-off plan (early projection off), which keeps the join.

namespace radb {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

Database::Config MakeConfig(bool rule_on, size_t threads = 1) {
  Database::Config c;
  c.num_workers = 4;
  c.num_threads = threads;
  c.cache.enable_result_cache = false;
  c.obs.enable_metrics = true;
  c.optimizer.enable_early_projection = rule_on;
  return c;
}

/// One (key, index, value) row.
struct Triple {
  Value k, i, v;
};

Value I(int64_t x) { return Value::Int(x); }
Value D(double x) { return Value::Double(x); }

Status LoadTriples(Database& db, const std::string& table,
                   const std::vector<Triple>& triples) {
  RADB_RETURN_NOT_OK(
      db.Execute("CREATE TABLE " + table +
                 " (k INTEGER, i INTEGER, v DOUBLE)")
          .status());
  std::vector<Row> rows;
  for (const Triple& t : triples) rows.push_back({t.k, t.i, t.v});
  return db.BulkInsert(table, rows);
}

/// A dense n x d matrix as (row, col, value) triples, values from
/// `value(r, c)`. Triples are built in place: moving a temporary one
/// draws GCC 12's -Wmaybe-uninitialized under ASan+UBSan.
template <typename F>
std::vector<Triple> Dense(int64_t n, int64_t d, F value) {
  std::vector<Triple> out;
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < d; ++c) {
      out.emplace_back(I(r), I(c), D(value(r, c)));
    }
  }
  return out;
}

/// Values on the 0.25 grid in [-3, 3]: every sum of their products is
/// exact, so any summation order gives the same bits.
std::vector<Triple> GridMatrix(uint64_t seed, int64_t n, int64_t d) {
  Rng rng(seed);
  return Dense(n, d, [&](int64_t, int64_t) {
    return (static_cast<double>(rng.NextBelow(25)) - 12.0) * 0.25;
  });
}

/// A database with the rule on and its rule-off twin, loaded alike.
struct Twins {
  Database on{MakeConfig(true)};
  Database off{MakeConfig(false)};

  void Load(const std::string& table, const std::vector<Triple>& triples) {
    ASSERT_TRUE(LoadTriples(on, table, triples).ok());
    ASSERT_TRUE(LoadTriples(off, table, triples).ok());
  }
};

/// The RelationalMultiply operator of the last statement ("" if none).
std::string PathOf(Database& db) {
  for (const OperatorMetrics& op : db.last_metrics().operators) {
    if (op.name.rfind("RelationalMultiply", 0) == 0) return op.name;
  }
  return "";
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0 ||
         (std::isnan(a) && std::isnan(b));
}

RowSet Sorted(RowSet rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t c = 0; c < a.size(); ++c) {
      auto cmp = a[c].Compare(b[c]);
      if (cmp.ok() && *cmp != 0) return *cmp < 0;
    }
    return false;
  });
  return rows;
}

/// Cell-for-cell comparison; doubles within `rel` relative error (0:
/// equal, with -0.0 == +0.0), NULLs and NaNs equal to themselves.
::testing::AssertionResult SameRows(const RowSet& got_in,
                                    const RowSet& want_in, double rel = 0) {
  const RowSet got = Sorted(got_in), want = Sorted(want_in);
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " rows, want " << want.size();
  }
  for (size_t r = 0; r < got.size(); ++r) {
    for (size_t c = 0; c < got[r].size(); ++c) {
      const Value& a = got[r][c];
      const Value& b = want[r][c];
      bool same = a.Equals(b);
      if (!same && a.kind() == TypeKind::kDouble &&
          b.kind() == TypeKind::kDouble) {
        const double x = a.double_value(), y = b.double_value();
        same = SameBits(x, y) ||
               std::abs(x - y) <= rel * std::max(1.0, std::abs(y));
      }
      if (!same) {
        return ::testing::AssertionFailure()
               << "row " << r << " col " << c << ": " << a.ToString()
               << " vs " << b.ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Runs `sql` on both twins; the rule-on side must take `path` (a
/// prefix of the RelationalMultiply operator's name) and return the
/// rule-off rows.
void ExpectPath(Twins& t, const std::string& sql, const std::string& path,
                double rel = 0) {
  auto on = Exec(t.on, sql);
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_EQ(PathOf(t.on).rfind(path, 0), 0u)
      << "path " << PathOf(t.on) << " for " << sql;
  auto off = Exec(t.off, sql);
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_EQ(PathOf(t.off), "");
  EXPECT_TRUE(SameRows(on->rows, off->rows, rel)) << sql;
}

const char* kGram =
    "SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM x AS x1, x AS x2 "
    "WHERE x1.k = x2.k GROUP BY x1.i, x2.i";

std::string Explain(Database& db, const std::string& sql) {
  auto rs = Exec(db, sql);
  if (!rs.ok()) return rs.status().ToString();
  std::string text;
  for (const Row& row : rs->rows) text += row[0].ToString() + "\n";
  return text;
}

// ---------------------------------------------------------------------
// Plans.
// ---------------------------------------------------------------------

TEST(RelationalMultiplyTest, ExplainNamesTheRewriteOnlyWithTheRuleOn) {
  Twins t;
  t.Load("x", GridMatrix(1, 6, 3));
  const std::string on = Explain(t.on, std::string("EXPLAIN ") + kGram);
  // The Gram product reads one table in both roles: a self product.
  EXPECT_NE(on.find("(relational multiply, self)"), std::string::npos) << on;
  const std::string off = Explain(t.off, std::string("EXPLAIN ") + kGram);
  EXPECT_EQ(off.find("relational multiply"), std::string::npos) << off;
  EXPECT_NE(off.find("Aggregate"), std::string::npos) << off;
  EXPECT_NE(off.find("Join [x1.k = x2.k]"), std::string::npos) << off;

  const std::string analyzed =
      Explain(t.on, std::string("EXPLAIN ANALYZE ") + kGram);
  EXPECT_NE(analyzed.find("path=RelationalMultiply(kernel)"),
            std::string::npos)
      << analyzed;
}

TEST(RelationalMultiplyTest, OtherShapesAreNotMarked) {
  Twins t;
  t.Load("x", GridMatrix(2, 5, 3));
  for (const char* sql : {
           // Two aggregates.
           "EXPLAIN SELECT x1.i, x2.i, SUM(x1.v * x2.v), COUNT(*) FROM x AS "
           "x1, x AS x2 WHERE x1.k = x2.k GROUP BY x1.i, x2.i",
           // Not a product of one column per side.
           "EXPLAIN SELECT x1.i, x2.i, SUM(x1.v + x2.v) FROM x AS x1, x AS "
           "x2 WHERE x1.k = x2.k GROUP BY x1.i, x2.i",
           "EXPLAIN SELECT x1.i, x2.i, SUM(x1.v * x1.v) FROM x AS x1, x AS "
           "x2 WHERE x1.k = x2.k GROUP BY x1.i, x2.i",
           // Two keys of one side.
           "EXPLAIN SELECT x1.i, x1.k, SUM(x1.v * x2.v) FROM x AS x1, x AS "
           "x2 WHERE x1.k = x2.k GROUP BY x1.i, x1.k",
           // Residuals that read more than the two group keys.
           "EXPLAIN SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM x AS x1, x AS "
           "x2 WHERE x1.k = x2.k AND x1.k < x2.i GROUP BY x1.i, x2.i",
           "EXPLAIN SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM x AS x1, x AS "
           "x2 WHERE x1.k = x2.k AND x1.v < x2.v GROUP BY x1.i, x2.i",
           "EXPLAIN SELECT x1.i, SUM(x1.v * x2.v) FROM x AS x1, x AS "
           "x2 WHERE x1.k = x2.k AND x1.i <> x2.i GROUP BY x1.i",
           "EXPLAIN SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM x AS x1, x AS "
           "x2 WHERE x1.k = x2.k AND (x1.i < x2.i OR x1.i > x2.i) "
           "GROUP BY x1.i, x2.i",
           // Two join keys.
           "EXPLAIN SELECT x1.i, x2.k, SUM(x1.v * x2.v) FROM x AS x1, x AS "
           "x2 WHERE x1.k = x2.k AND x1.i = x2.i GROUP BY x1.i, x2.k",
       }) {
    const std::string plan = Explain(t.on, sql);
    EXPECT_EQ(plan.find("relational multiply"), std::string::npos) << plan;
  }
}

// ---------------------------------------------------------------------
// The kernel path against the tuple plan.
// ---------------------------------------------------------------------

TEST(RelationalMultiplyTest, GridDataMatchesTheRuleOffPlanCellForCell) {
  Twins t;
  t.Load("x", GridMatrix(3, 40, 9));
  ExpectPath(t, kGram, "RelationalMultiply(kernel)");
  auto rs = Exec(t.on, kGram);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 81u);
}

TEST(RelationalMultiplyTest, RandomDoublesMatchAndThreadCountsAgreeBitwise) {
  Rng rng(11);
  const std::vector<Triple> x =
      Dense(60, 20, [&](int64_t, int64_t) { return rng.Uniform(-1.0, 1.0); });
  Twins t;
  t.Load("x", x);
  ExpectPath(t, kGram, "RelationalMultiply(kernel)", 1e-12);

  Database eight(MakeConfig(true, 8));
  ASSERT_TRUE(LoadTriples(eight, "x", x).ok());
  auto one = Exec(t.on, kGram);
  auto many = Exec(eight, kGram);
  ASSERT_TRUE(one.ok() && many.ok());
  EXPECT_EQ(PathOf(eight), "RelationalMultiply(kernel)");
  const RowSet a = Sorted(one->rows), b = Sorted(many->rows);
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    EXPECT_TRUE(SameBits(a[r][2].double_value(), b[r][2].double_value()))
        << "row " << r;
  }
}

TEST(RelationalMultiplyTest, ShapesTakeTheKernel) {
  Twins t;
  t.Load("x", GridMatrix(4, 12, 5));  // 12 x 5
  t.Load("a", GridMatrix(5, 5, 4));   // 5 x 4
  t.Load("y", GridMatrix(6, 12, 1));  // 12 x 1
  const std::string kernel = "RelationalMultiply(kernel)";
  // X·A over two tables: X's column index meets A's row index.
  ExpectPath(t,
             "SELECT x.k, a.i, SUM(x.v * a.v) FROM x, a WHERE x.i = a.k "
             "GROUP BY x.k, a.i",
             kernel);
  // Xᵀy: one group key.
  ExpectPath(t,
             "SELECT x.i, SUM(x.v * y.v) FROM x, y WHERE x.k = y.k "
             "GROUP BY x.i",
             kernel);
  // One group key of the right side.
  ExpectPath(t,
             "SELECT x.i, SUM(y.v * x.v) FROM y, x WHERE y.k = x.k "
             "GROUP BY x.i",
             kernel);
  // Operands in the other order, and GROUP BY keys swapped.
  ExpectPath(t,
             "SELECT x2.i, x1.i, SUM(x2.v * x1.v) FROM x AS x1, x AS x2 "
             "WHERE x1.k = x2.k GROUP BY x2.i, x1.i",
             kernel);
  // HAVING, ORDER BY and LIMIT above the aggregate.
  const std::string top =
      "SELECT x1.i AS a, x2.i AS b, SUM(x1.v * x2.v) AS s FROM x AS x1, "
      "x AS x2 WHERE x1.k = x2.k GROUP BY x1.i, x2.i HAVING x1.i <= x2.i "
      "ORDER BY s DESC, a, b LIMIT 7";
  ExpectPath(t, top, kernel);
  auto ordered = Exec(t.on, top);
  auto ordered_off = Exec(t.off, top);
  ASSERT_TRUE(ordered.ok() && ordered_off.ok());
  ASSERT_EQ(ordered->num_rows(), 7u);
  for (size_t r = 0; r < 7; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_TRUE(ordered->rows[r][c].Equals(ordered_off->rows[r][c]));
    }
  }
  // Filters on the inputs are pushed below the join: inputs may be
  // any subplans.
  ExpectPath(t,
             "SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM x AS x1, x AS x2 "
             "WHERE x1.k = x2.k AND x1.k < 6 GROUP BY x1.i, x2.i",
             kernel);
}

TEST(RelationalMultiplyTest, AViewReadTwiceIsSpooledOnce) {
  Twins t;
  t.Load("x", GridMatrix(7, 10, 4));
  const std::string view =
      "CREATE VIEW g (i, j, s) AS SELECT x1.i, x2.i, SUM(x1.v * x2.v) "
      "FROM x AS x1, x AS x2 WHERE x1.k = x2.k GROUP BY x1.i, x2.i";
  ASSERT_TRUE(t.on.Execute(view).ok());
  ASSERT_TRUE(t.off.Execute(view).ok());
  const std::string sql =
      "SELECT a.i, a.j, a.s, b.s FROM g AS a, g AS b "
      "WHERE a.i = b.j AND a.j = b.i";
  const std::string plan = Explain(t.on, "EXPLAIN " + sql);
  EXPECT_NE(plan.find("(relational multiply, self)"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("spool#1 (uses=2)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("spool#1 reuse"), std::string::npos) << plan;
  ExpectPath(t, sql, "RelationalMultiply(kernel)");
  size_t kernels = 0, reuses = 0;
  for (const OperatorMetrics& op : t.on.last_metrics().operators) {
    kernels += op.name == "RelationalMultiply(kernel)";
    reuses += op.name == "SpoolReuse";
  }
  EXPECT_EQ(kernels, 1u);
  EXPECT_EQ(reuses, 1u);
}

// ---------------------------------------------------------------------
// Keys.
// ---------------------------------------------------------------------

TEST(RelationalMultiplyTest, NegativeAndSparseKeys) {
  Twins t;
  std::vector<Triple> x;
  const int64_t keys[] = {-5, -1, 0, 7, 1000000000000LL, -1000000000000LL};
  const int64_t indexes[] = {-3, 4, 1000000000000LL};
  double v = 0.25;
  for (int64_t k : keys) {
    for (int64_t i : indexes) {
      x.push_back({I(k), I(i), D(v)});
      v = v >= 2.5 ? -2.0 : v + 0.75;
    }
  }
  t.Load("x", x);
  ExpectPath(t, kGram, "RelationalMultiply(kernel)");
}

TEST(RelationalMultiplyTest, KeysOnOneSideNullKeysAndEmptyInputs) {
  Twins t;
  // Left keys 0..3, right keys 2..5: keys 0, 1, 4, 5 join nothing, and
  // index 9 lives only under key 0, so it makes no group.
  std::vector<Triple> l = {{I(0), I(9), D(1.5)}};
  std::vector<Triple> r;
  for (int64_t k = 0; k < 4; ++k) {
    for (int64_t i = 0; i < 3; ++i) {
      l.push_back({I(k), I(i), D(0.5 * double(k - i))});
      r.push_back({I(k + 2), I(i), D(0.25 * double(k + i))});
    }
  }
  // NULL join keys never join; their other columns do not matter.
  l.push_back({Value::Null(), I(1), Value::Null()});
  r.push_back({Value::Null(), Value::Null(), D(kNan)});
  t.Load("l", l);
  t.Load("r", r);
  t.Load("e", {});
  const std::string sql =
      "SELECT l.i, r.i, SUM(l.v * r.v) FROM l, r WHERE l.k = r.k "
      "GROUP BY l.i, r.i";
  ExpectPath(t, sql, "RelationalMultiply(kernel)");
  auto rs = Exec(t.on, sql);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 9u);  // index 9 makes no group
  for (const char* empty : {
           "SELECT l.i, e.i, SUM(l.v * e.v) FROM l, e WHERE l.k = e.k "
           "GROUP BY l.i, e.i",
           "SELECT e.i, SUM(e.v * r.v) FROM e, r WHERE e.k = r.k "
           "GROUP BY e.i"}) {
    ExpectPath(t, empty, "RelationalMultiply(kernel)");
    auto none = Exec(t.on, empty);
    ASSERT_TRUE(none.ok());
    EXPECT_EQ(none->num_rows(), 0u);
  }
}

// ---------------------------------------------------------------------
// Fallbacks: each returns exactly the rule-off result and names why.
// ---------------------------------------------------------------------

struct FallbackCase {
  const char* name;
  std::vector<Triple> left, right;
  const char* reason;
};

TEST(RelationalMultiplyTest, EachFallbackReturnsTheRuleOffResult) {
  const std::vector<Triple> base = GridMatrix(8, 6, 3);
  auto with = [&](Triple extra) {
    std::vector<Triple> out = base;
    out.push_back(std::move(extra));
    return out;
  };
  std::vector<Triple> diagonal;
  for (int64_t k = 0; k < 8; ++k) diagonal.push_back({I(k), I(k), D(1.5)});
  const std::vector<FallbackCase> cases = {
      {"NULL value", with({I(2), I(5), Value::Null()}), base, "NULL value"},
      // An INTEGER stored in a DOUBLE column multiplies and sums as an
      // INTEGER on the join.
      {"INTEGER value", base, with({I(4), I(5), I(2)}), "non-DOUBLE value"},
      {"NULL group key", base, with({I(1), Value::Null(), D(1.0)}),
       "NULL group key"},
      {"NaN", with({I(0), I(3), D(kNan)}), base, "non-finite value"},
      {"+inf", base, with({I(3), I(4), D(kInf)}), "non-finite value"},
      {"-inf", with({I(3), I(4), D(-kInf)}), base, "non-finite value"},
      {"repeated left cell", with({I(2), I(1), D(0.5)}), base,
       "repeated cell"},
      {"repeated right cell", base, with({I(5), I(0), D(-0.5)}),
       "repeated cell"},
      {"half-empty tile", diagonal, diagonal, "tile under half full"},
  };
  const std::string sql =
      "SELECT l.i, r.i, SUM(l.v * r.v) FROM l, r WHERE l.k = r.k "
      "GROUP BY l.i, r.i";
  for (const FallbackCase& c : cases) {
    SCOPED_TRACE(c.name);
    Twins t;
    t.Load("l", c.left);
    t.Load("r", c.right);
    const std::string reason =
        std::string("RelationalMultiply(fallback: ") + c.reason + ")";
    ExpectPath(t, sql, reason);
    const std::string analyzed = Explain(t.on, "EXPLAIN ANALYZE " + sql);
    EXPECT_NE(analyzed.find("path=" + reason), std::string::npos)
        << analyzed;
    EXPECT_NE(analyzed.find("Join"), std::string::npos);
  }
}

TEST(RelationalMultiplyTest, ABudgetThatRefusesTheTilesFallsBack) {
  // X·Y with Y a copy of X: 2 x 1024 cells need 96 KiB of staging; the
  // join and the aggregate fit in 64 KiB. (The self product XᵀX stages
  // one input's 1024 cells, which the same budget admits.)
  const std::vector<Triple> x = GridMatrix(9, 128, 8);
  Twins t;
  t.Load("x", x);
  t.Load("y", x);
  const std::string sql =
      "SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM x AS x1, y AS x2 "
      "WHERE x1.k = x2.k GROUP BY x1.i, x2.i";
  QueryOptions tight;
  tight.memory_budget_bytes = 64u << 10;
  auto on = Exec(t.on, sql, tight);
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_EQ(PathOf(t.on).rfind("RelationalMultiply(fallback: memory budget "
                               "refused",
                               0),
            0u)
      << PathOf(t.on);
  auto off = Exec(t.off, sql, tight);
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_TRUE(SameRows(on->rows, off->rows));
  auto analyzed = Exec(t.on, "EXPLAIN ANALYZE " + sql, tight);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  std::string text;
  for (const Row& row : analyzed->rows) text += row[0].ToString() + "\n";
  EXPECT_NE(text.find("path=RelationalMultiply(fallback: memory budget "
                      "refused"),
            std::string::npos)
      << text;
  // With room for the tiles, the same statement takes the kernel.
  QueryOptions roomy_budget;
  roomy_budget.memory_budget_bytes = 4u << 20;
  auto roomy = Exec(t.on, sql, roomy_budget);
  ASSERT_TRUE(roomy.ok()) << roomy.status();
  EXPECT_EQ(PathOf(t.on), "RelationalMultiply(kernel)");
  EXPECT_TRUE(SameRows(roomy->rows, off->rows));
  auto self = Exec(t.on, kGram, tight);
  ASSERT_TRUE(self.ok()) << self.status();
  EXPECT_EQ(PathOf(t.on), "RelationalMultiply(kernel)");
  EXPECT_TRUE(SameRows(self->rows, off->rows));
}

TEST(RelationalMultiplyTest, CountersCountKernelsAndFallbacks) {
  Twins t;
  t.Load("x", GridMatrix(10, 8, 3));
  t.Load("d", {{I(0), I(0), D(1.0)}, {I(0), I(0), D(2.0)}});
  ASSERT_TRUE(Exec(t.on, kGram).ok());
  ASSERT_TRUE(Exec(t.on,
                   "SELECT d1.i, d2.i, SUM(d1.v * d2.v) FROM d AS d1, d AS d2 "
                   "WHERE d1.k = d2.k GROUP BY d1.i, d2.i")
                  .ok());
  obs::MetricsRegistry* reg = t.on.metrics_registry();
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->counter("exec.relational_multiplies")->value(), 1u);
  EXPECT_EQ(reg->counter("exec.relational_multiply_fallbacks")->value(), 1u);
}

// ---------------------------------------------------------------------
// Cancellation.
// ---------------------------------------------------------------------

/// Traps input `input` of the marked multiply (test_util.h) on its last
/// (`rows`-th) row: the right input of a product of two inputs, the
/// only input that runs of a self product. Every input finishes, and the
/// token is first polled inside the multiply. The cancelled execution
/// must leave no tracker charges.
void ExpectACancelInsideTheMultiplyLeavesNoCharges(Database& db,
                                                   const std::string& sql,
                                                   size_t input, size_t rows) {
  auto trap = TrapCancel(
      db, sql,
      [](const LogicalOp& op) { return op.kind == LogicalOp::Kind::kJoin; },
      input, rows);
  ASSERT_TRUE(trap.ok()) << trap.status();
  mem::MemoryTracker tracker("query", 64u << 20);
  const Status status = (*trap)->Run(db, &tracker);
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status;
  EXPECT_EQ((*trap)->calls, rows);
  bool entered = false;
  for (const OperatorMetrics& op : (*trap)->metrics.operators) {
    entered = entered || op.name.rfind("RelationalMultiply", 0) == 0;
  }
  EXPECT_TRUE(entered);
  EXPECT_GT(tracker.peak_bytes(), 0u);
  EXPECT_EQ(tracker.bytes_in_use(), 0u);
  EXPECT_EQ(tracker.unspillable_bytes(), 0u);
}

TEST(RelationalMultiplyTest, CancellingDuringTheTileFillLeavesNoCharges) {
  Database db(MakeConfig(true));
  ASSERT_TRUE(LoadTriples(db, "x", GridMatrix(12, 400, 8)).ok());
  ExpectACancelInsideTheMultiplyLeavesNoCharges(db, kGram, 0, 400 * 8);
}

// ---------------------------------------------------------------------
// Key-only residuals on the tuple coding: a mask on the groups.
// ---------------------------------------------------------------------

TEST(RelationalMultiplyTest, TupleKeyResidualsMaskTheGroups) {
  Twins t;
  t.Load("x", GridMatrix(13, 9, 6));
  const std::string kernel = "RelationalMultiply(kernel)";
  for (const char* op : {"<>", "<", "<=", ">", ">="}) {
    SCOPED_TRACE(op);
    const std::string sql =
        std::string("SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM x AS x1, x AS "
                    "x2 WHERE x1.k = x2.k AND x1.i ") +
        op + " x2.i GROUP BY x1.i, x2.i";
    ExpectPath(t, sql, kernel);
  }
  // Mirrored operands, two terms, GROUP BY keys swapped.
  ExpectPath(t,
             "SELECT x2.i, x1.i, SUM(x1.v * x2.v) FROM x AS x1, x AS x2 "
             "WHERE x1.k = x2.k AND x2.i > x1.i AND x1.i <> x2.i "
             "GROUP BY x2.i, x1.i",
             kernel);
  // A mask that rejects every group.
  auto none = Exec(t.on,
                   "SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM x AS x1, x AS "
                   "x2 WHERE x1.k = x2.k AND x1.i < x2.i AND x1.i > x2.i "
                   "GROUP BY x1.i, x2.i");
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_EQ(PathOf(t.on), kernel);
  EXPECT_EQ(none->num_rows(), 0u);
}

TEST(RelationalMultiplyTest, TupleDistanceTakesTheKernelForBothProducts) {
  const size_t n = 24, d = 6;
  const workloads::Dataset data = workloads::GenerateDataset(5, n, d);
  auto want = workloads::ReferenceDistance(data);
  ASSERT_TRUE(want.ok()) << want.status();
  workloads::SqlWorkload sql(MakeConfig(true));
  ASSERT_TRUE(sql.LoadTuple(data).ok());
  auto got = sql.DistanceTuple();
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_FALSE(got->failed);
  EXPECT_EQ(got->distance.point_id, want->point_id);
  EXPECT_NEAR(got->distance.value, want->value,
              1e-9 * std::max(1.0, std::abs(want->value)));
  obs::MetricsRegistry* reg = sql.db().metrics_registry();
  ASSERT_NE(reg, nullptr);
  EXPECT_EQ(reg->counter("exec.relational_multiplies")->value(), 2u);
  const obs::Counter* fallbacks =
      reg->counter("exec.relational_multiply_fallbacks");
  EXPECT_TRUE(fallbacks == nullptr || fallbacks->value() == 0);
}

// ---------------------------------------------------------------------
// Self products: a product of one input with itself, in the same roles,
// reads the input once into one tile T and computes TᵀT (DESIGN.md §19).
// ---------------------------------------------------------------------

const char* kSelfLabel = "(relational multiply, self)";

/// Whether EXPLAIN marks `sql` a self product on `db`.
bool MarkedSelf(Database& db, const std::string& sql) {
  return Explain(db, "EXPLAIN " + sql).find(kSelfLabel) != std::string::npos;
}

/// Clears every self mark under `op`: the plan then runs both inputs and
/// multiplies two tiles, as a product of two different inputs does.
void ClearSelf(LogicalOp& op) {
  if (op.multiply) op.multiply->self = false;
  for (const LogicalOpPtr& c : op.children) ClearSelf(*c);
}

/// One execution of `sql`'s plan (self marks cleared when `clear`) on an
/// Executor over `db`'s cluster and pool: each worker's rows, in order,
/// and the operators that ran.
struct PlanRun {
  Dist rows;
  QueryMetrics metrics;

  size_t Count(const std::string& name) const {
    size_t n = 0;
    for (const OperatorMetrics& op : metrics.operators) n += op.name == name;
    return n;
  }
};

PlanRun RunPlan(Database& db, const std::string& sql, bool clear) {
  PlanRun run;
  auto plan = db.PlanQuery(sql);
  EXPECT_TRUE(plan.ok()) << plan.status();
  if (!plan.ok()) return run;
  if (clear) ClearSelf(**plan);
  Executor executor(db.cluster(), &run.metrics, obs::ObsContext{}, db.pool());
  auto out = executor.Execute(**plan);
  EXPECT_TRUE(out.ok()) << out.status();
  if (out.ok()) run.rows = std::move(*out);
  return run;
}

/// Worker for worker, row for row, value for value, doubles bit for bit.
::testing::AssertionResult SameDist(const Dist& got, const Dist& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << got.size() << " workers";
  }
  for (size_t wkr = 0; wkr < got.size(); ++wkr) {
    if (got[wkr].size() != want[wkr].size()) {
      return ::testing::AssertionFailure()
             << "worker " << wkr << ": " << got[wkr].size() << " rows, want "
             << want[wkr].size();
    }
    for (size_t r = 0; r < got[wkr].size(); ++r) {
      const Row& a = got[wkr][r];
      const Row& b = want[wkr][r];
      bool same = a.size() == b.size();
      for (size_t c = 0; same && c < a.size(); ++c) {
        if (a[c].kind() == TypeKind::kDouble &&
            b[c].kind() == TypeKind::kDouble) {
          const double x = a[c].double_value(), y = b[c].double_value();
          same = std::memcmp(&x, &y, sizeof x) == 0;
        } else {
          same = a[c].Equals(b[c]);
        }
      }
      if (!same) {
        return ::testing::AssertionFailure()
               << "worker " << wkr << " row " << r << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// An n x d matrix of nonzero values on the 0.25 grid: every sum is
/// exact, and no group's products are all -0.0, so the kernel and the
/// join agree bit for bit.
std::vector<Triple> NonzeroGrid(uint64_t seed, int64_t n, int64_t d) {
  Rng rng(seed);
  return Dense(n, d, [&](int64_t, int64_t) {
    const double v = static_cast<double>(1 + rng.NextBelow(12)) * 0.25;
    return rng.NextBelow(2) == 0 ? v : -v;
  });
}

/// Drops the cells with (k + 2i) % 5 == 0: about a fifth, so the tile
/// has holes (a presence product) and stays more than half full.
std::vector<Triple> WithHoles(std::vector<Triple> cells) {
  std::erase_if(cells, [](const Triple& t) {
    return (t.k.int_value() + 2 * t.i.int_value()) % 5 == 0;
  });
  return cells;
}

TEST(RelationalMultiplySelfTest, BothOrientationsAreMarked) {
  Twins t;
  t.Load("x", GridMatrix(21, 12, 5));
  const std::string kernel = "RelationalMultiply(kernel)";
  // XᵀX: joined on the row key, grouped by the column index, in either
  // operand and key order.
  for (const char* sql :
       {kGram,
        "SELECT x2.i, x1.i, SUM(x2.v * x1.v) FROM x AS x1, x AS x2 "
        "WHERE x2.k = x1.k GROUP BY x2.i, x1.i",
        // XXᵀ: joined on the column index, grouped by the row key.
        "SELECT x1.k, x2.k, SUM(x1.v * x2.v) FROM x AS x1, x AS x2 "
        "WHERE x1.i = x2.i GROUP BY x1.k, x2.k",
        // The same filter on both sides keeps one subtree.
        "SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM x AS x1, x AS x2 "
        "WHERE x1.k = x2.k AND x1.k < 9 AND x2.k < 9 GROUP BY x1.i, x2.i"}) {
    SCOPED_TRACE(sql);
    EXPECT_TRUE(MarkedSelf(t.on, sql));
    ExpectPath(t, sql, kernel);
    const std::string analyzed =
        Explain(t.on, std::string("EXPLAIN ANALYZE ") + sql);
    EXPECT_NE(analyzed.find(kSelfLabel), std::string::npos) << analyzed;
    EXPECT_NE(analyzed.find("path=" + kernel), std::string::npos) << analyzed;
  }
}

TEST(RelationalMultiplySelfTest, OtherProductsOfOneTableAreNotSelf) {
  Twins t;
  t.Load("x", GridMatrix(22, 8, 8));
  struct Case {
    const char* sql;
    const char* path;
  };
  for (const Case& c : {
           // A one-sided GROUP BY is Xᵀ times the row sums, not a Gram
           // product; its right side, without a group key, repeats cells.
           Case{"SELECT x1.i, SUM(x1.v * x2.v) FROM x AS x1, x AS x2 "
                "WHERE x1.k = x2.k GROUP BY x1.i",
                "RelationalMultiply(fallback: repeated cell)"},
           // One table under two different filters.
           Case{"SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM x AS x1, x AS x2 "
                "WHERE x1.k = x2.k AND x1.i < 7 AND x2.i < 6 "
                "GROUP BY x1.i, x2.i",
                "RelationalMultiply(kernel)"},
           // Crossed roles: X·X.
           Case{"SELECT x1.k, x2.i, SUM(x1.v * x2.v) FROM x AS x1, x AS x2 "
                "WHERE x1.i = x2.k GROUP BY x1.k, x2.i",
                "RelationalMultiply(kernel)"},
       }) {
    SCOPED_TRACE(c.sql);
    const std::string plan = Explain(t.on, std::string("EXPLAIN ") + c.sql);
    EXPECT_NE(plan.find("(relational multiply)"), std::string::npos) << plan;
    EXPECT_EQ(plan.find(kSelfLabel), std::string::npos) << plan;
    ExpectPath(t, c.sql, c.path);
  }
}

TEST(RelationalMultiplySelfTest, KernelKeepsTheBitsOfTheTwoTileProduct) {
  // TSMM on one tile against la::Multiply on two (the same plan with its
  // self mark cleared): the same rows on the same workers, bit for bit,
  // on random doubles with presence holes and with a mask. On exact
  // grid data both equal the rule-off plan.
  Rng rng(24);
  const std::vector<Triple> random = WithHoles(
      Dense(30, 13, [&](int64_t, int64_t) { return rng.Uniform(-1.0, 1.0); }));
  const std::vector<Triple> grid = WithHoles(NonzeroGrid(25, 30, 13));
  for (size_t workers : {4, 8}) {
    for (size_t threads : {1, 8}) {
      SCOPED_TRACE(std::to_string(workers) + " workers, " +
                   std::to_string(threads) + " threads");
      Database::Config on = MakeConfig(true, threads);
      Database::Config off = MakeConfig(false, threads);
      on.num_workers = off.num_workers = workers;
      Database db(on), rule_off(off);
      ASSERT_TRUE(LoadTriples(db, "x", random).ok());
      ASSERT_TRUE(LoadTriples(db, "g", grid).ok());
      ASSERT_TRUE(LoadTriples(rule_off, "g", grid).ok());
      for (const char* mask : {"", " AND x1.i <> x2.i", " AND x1.i < x2.i"}) {
        SCOPED_TRACE(mask);
        const std::string sql =
            std::string("SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM x AS x1, "
                        "x AS x2 WHERE x1.k = x2.k") +
            mask + " GROUP BY x1.i, x2.i";
        ASSERT_TRUE(MarkedSelf(db, sql));
        const PlanRun self = RunPlan(db, sql, false);
        const PlanRun two = RunPlan(db, sql, true);
        EXPECT_EQ(self.Count("RelationalMultiply(kernel)"), 1u);
        EXPECT_EQ(two.Count("RelationalMultiply(kernel)"), 1u);
        EXPECT_EQ(self.Count("Scan(x)"), 1u);
        EXPECT_EQ(two.Count("Scan(x)"), 2u);
        EXPECT_TRUE(SameDist(self.rows, two.rows));

        std::string on_grid = sql;
        for (size_t at; (at = on_grid.find("x AS")) != std::string::npos;) {
          on_grid.replace(at, 1, "g");
        }
        auto kernel = Exec(db, on_grid);
        auto join = Exec(rule_off, on_grid);
        ASSERT_TRUE(kernel.ok() && join.ok());
        EXPECT_EQ(PathOf(db), "RelationalMultiply(kernel)");
        const RowSet a = Sorted(kernel->rows), b = Sorted(join->rows);
        ASSERT_EQ(a.size(), b.size());
        for (size_t r = 0; r < a.size(); ++r) {
          const double x = a[r][2].double_value(), y = b[r][2].double_value();
          EXPECT_EQ(std::memcmp(&x, &y, sizeof x), 0) << "row " << r;
        }
      }
    }
  }
}

TEST(RelationalMultiplySelfTest, FallbacksJoinTheInputWithACopyOfIt) {
  // The join reads the first input and a copy of it: the rows, in each
  // worker's order, that running the second input gives, so the result
  // equals the two-input fallback worker for worker. The table is
  // scanned once. A table hash-placed on the join key keeps both sides
  // in place: the copy keeps the placement.
  std::vector<Triple> null_value = GridMatrix(26, 9, 4);
  null_value.push_back({I(3), I(6), Value::Null()});
  std::vector<Triple> repeated = GridMatrix(27, 9, 4);
  repeated.push_back({I(5), I(2), D(0.75)});
  const std::string derived =
      "SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM (SELECT k, i, SUM(v + NULL) "
      "AS v FROM x GROUP BY k, i) AS x1, (SELECT k, i, SUM(v + NULL) AS v "
      "FROM x GROUP BY k, i) AS x2 WHERE x1.k = x2.k GROUP BY x1.i, x2.i";
  struct Case {
    const std::vector<Triple>* cells;
    std::string sql;
    const char* reason;
    bool hashed;  // x hash-placed on k
  };
  for (const Case& c : {Case{&null_value, kGram, "NULL value", false},
                        Case{&repeated, kGram, "repeated cell", false},
                        Case{&repeated, kGram, "repeated cell", true},
                        Case{&repeated, derived, "NULL value", false}}) {
    SCOPED_TRACE(c.sql + ": " + c.reason + (c.hashed ? ", hashed" : ""));
    for (size_t workers : {4, 8}) {
      Database::Config config = MakeConfig(true, 8);
      config.num_workers = workers;
      Database db(config);
      ASSERT_TRUE(LoadTriples(db, "x", *c.cells).ok());
      if (c.hashed) {
        ASSERT_TRUE(db.RepartitionTable("x", "k").ok());
      }
      ASSERT_TRUE(MarkedSelf(db, c.sql));
      const PlanRun self = RunPlan(db, c.sql, false);
      const PlanRun two = RunPlan(db, c.sql, true);
      const std::string path =
          std::string("RelationalMultiply(fallback: ") + c.reason + ")";
      EXPECT_EQ(self.Count(path), 1u) << self.metrics.ToString();
      EXPECT_EQ(two.Count(path), 1u);
      EXPECT_EQ(self.Count("Scan(x)"), 1u);
      EXPECT_EQ(two.Count("Scan(x)"), 2u);
      if (c.hashed) {
        EXPECT_EQ(self.Count("HashJoin(co-located)"), 1u)
            << self.metrics.ToString();
      }
      EXPECT_TRUE(SameDist(self.rows, two.rows));
    }
    Twins t;
    t.Load("x", *c.cells);
    ExpectPath(t, c.sql, std::string("RelationalMultiply(fallback: ") +
                             c.reason + ")");
  }
}

TEST(RelationalMultiplySelfTest, TheSecondInputRunsNothingAndHoldsNoSpool) {
  // A derived table read twice in the same roles: a spool before self
  // products (two uses of one costly subtree), now one input that runs
  // once, with no spool and no operator for the second copy.
  Twins t;
  t.Load("x", GridMatrix(28, 10, 6));
  const std::string sql =
      "SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM (SELECT k, i, SUM(v) AS v "
      "FROM x GROUP BY k, i) AS x1, (SELECT k, i, SUM(v) AS v FROM x GROUP "
      "BY k, i) AS x2 WHERE x1.k = x2.k GROUP BY x1.i, x2.i";
  const std::string plan = Explain(t.on, "EXPLAIN " + sql);
  EXPECT_NE(plan.find(kSelfLabel), std::string::npos) << plan;
  EXPECT_EQ(plan.find("spool#"), std::string::npos) << plan;
  ExpectPath(t, sql, "RelationalMultiply(kernel)");
  size_t scans = 0, aggregates = 0, reuses = 0;
  for (const OperatorMetrics& op : t.on.last_metrics().operators) {
    scans += op.name == "Scan(x)";
    aggregates += op.name == "Aggregate(final)";
    reuses += op.name == "SpoolReuse";
  }
  EXPECT_EQ(scans, 1u);
  EXPECT_EQ(aggregates, 1u);
  EXPECT_EQ(reuses, 0u);
  // EXPLAIN ANALYZE prints the second copy without actuals.
  const std::string analyzed = Explain(t.on, "EXPLAIN ANALYZE " + sql);
  EXPECT_NE(analyzed.find(kSelfLabel), std::string::npos) << analyzed;
}

// ---------------------------------------------------------------------
// The vector coding: SUM/MIN/MAX(inner_product(l.v, r.w)) over a cross
// join with an INTEGER mask.
// ---------------------------------------------------------------------

/// One (id, g, v) row of a vector table.
struct VecRow {
  Value id, g, v;
};

Value Vec(std::vector<double> x) {
  return Value::FromVector(la::Vector(std::move(x)));
}

Status LoadVecRows(Database& db, const std::string& table, size_t d,
                   const std::vector<VecRow>& vec_rows) {
  RADB_RETURN_NOT_OK(db.Execute("CREATE TABLE " + table +
                                " (id INTEGER, g INTEGER, v VECTOR[" +
                                std::to_string(d) + "])")
                         .status());
  std::vector<Row> rows;
  for (const VecRow& r : vec_rows) rows.push_back({r.id, r.g, r.v});
  return db.BulkInsert(table, rows);
}

/// `n` rows with ids 0..n-1, g = id % 3 and d-element vectors: uniform
/// in [-1, 1], or on the 0.25 grid in [-3, 3] when `grid`.
std::vector<VecRow> RandomVecRows(uint64_t seed, int64_t n, size_t d,
                                  bool grid) {
  Rng rng(seed);
  std::vector<VecRow> out;
  for (int64_t r = 0; r < n; ++r) {
    std::vector<double> x(d);
    for (double& e : x) {
      e = grid ? (static_cast<double>(rng.NextBelow(25)) - 12.0) * 0.25
               : rng.Uniform(-1.0, 1.0);
    }
    out.push_back({I(r), I(r % 3), Vec(std::move(x))});
  }
  return out;
}

/// A rule-on and rule-off database with the tables `p` and `q`.
struct VecTwins : Twins {
  void LoadVec(const std::string& table, size_t d,
               const std::vector<VecRow>& rows) {
    ASSERT_TRUE(LoadVecRows(on, table, d, rows).ok());
    ASSERT_TRUE(LoadVecRows(off, table, d, rows).ok());
  }
};

const char* kVecMin =
    "SELECT a.id, MIN(inner_product(b.v, a.v)) FROM p AS a, q AS b "
    "WHERE a.id <> b.id GROUP BY a.id";

TEST(RelationalMultiplyVectorTest, ExplainNamesTheRewriteOnlyWithTheRuleOn) {
  VecTwins t;
  t.LoadVec("p", 4, RandomVecRows(1, 6, 4, false));
  t.LoadVec("q", 4, RandomVecRows(2, 5, 4, false));
  const std::string on = Explain(t.on, std::string("EXPLAIN ") + kVecMin);
  EXPECT_NE(on.find("(relational multiply)"), std::string::npos) << on;
  EXPECT_NE(on.find("Join (cross)"), std::string::npos) << on;
  const std::string off = Explain(t.off, std::string("EXPLAIN ") + kVecMin);
  EXPECT_EQ(off.find("relational multiply"), std::string::npos) << off;
  const std::string analyzed =
      Explain(t.on, std::string("EXPLAIN ANALYZE ") + kVecMin);
  EXPECT_NE(analyzed.find("path=RelationalMultiply(kernel)"),
            std::string::npos)
      << analyzed;
}

TEST(RelationalMultiplyVectorTest, OtherShapesAreNotMarked) {
  VecTwins t;
  t.LoadVec("p", 3, RandomVecRows(3, 5, 3, false));
  t.LoadVec("q", 3, RandomVecRows(4, 5, 3, false));
  ASSERT_TRUE(t.on.Execute("CREATE TABLE m (k INTEGER, mat MATRIX[3][3])")
                  .ok());
  for (const char* sql : {
           // An expression argument, as metric_knn's.
           "EXPLAIN SELECT a.id, MIN(inner_product(matrix_vector_multiply("
           "m.mat, a.v), a.v)) FROM p AS a, m GROUP BY a.id",
           "EXPLAIN SELECT a.id, SUM(inner_product(a.v + a.v, b.v)) FROM p "
           "AS a, q AS b GROUP BY a.id",
           // Both operands of one side.
           "EXPLAIN SELECT a.id, SUM(inner_product(a.v, a.v)) FROM p AS a, q "
           "AS b GROUP BY a.id",
           // COUNT and AVG, two calls, no GROUP BY.
           "EXPLAIN SELECT a.id, COUNT(inner_product(a.v, b.v)) FROM p AS a, "
           "q AS b GROUP BY a.id",
           "EXPLAIN SELECT a.id, AVG(inner_product(a.v, b.v)) FROM p AS a, q "
           "AS b GROUP BY a.id",
           "EXPLAIN SELECT a.id, MIN(inner_product(a.v, b.v)), "
           "MAX(inner_product(a.v, b.v)) FROM p AS a, q AS b GROUP BY a.id",
           "EXPLAIN SELECT MIN(inner_product(a.v, b.v)) FROM p AS a, q AS b",
           // Two keys of one side; a key that is not a column.
           "EXPLAIN SELECT a.id, a.g, SUM(inner_product(a.v, b.v)) FROM p AS "
           "a, q AS b GROUP BY a.id, a.g",
           "EXPLAIN SELECT a.id + 1, SUM(inner_product(a.v, b.v)) FROM p AS "
           "a, q AS b GROUP BY a.id + 1",
           // Residuals that are not INTEGER column compares.
           "EXPLAIN SELECT a.id, SUM(inner_product(a.v, b.v)) FROM p AS a, q "
           "AS b WHERE a.id < b.id + 1 GROUP BY a.id",
           "EXPLAIN SELECT a.id, SUM(inner_product(a.v, b.v)) FROM p AS a, q "
           "AS b WHERE a.id < b.g OR a.g < b.id GROUP BY a.id",
           "EXPLAIN SELECT a.id, SUM(inner_product(a.v, b.v)) FROM p AS a, q "
           "AS b WHERE inner_product(a.v, b.v) > 0.0 GROUP BY a.id",
       }) {
    const std::string plan = Explain(t.on, sql);
    EXPECT_EQ(plan.find("relational multiply"), std::string::npos)
        << sql << "\n"
        << plan;
  }
}

TEST(RelationalMultiplyVectorTest, MatchesTheRuleOffPlanBitForBit) {
  VecTwins t;
  t.LoadVec("p", 7, RandomVecRows(5, 37, 7, false));
  t.LoadVec("q", 7, RandomVecRows(6, 29, 7, false));
  const std::string kernel = "RelationalMultiply(kernel)";
  for (const char* agg : {"MIN", "MAX", "SUM"}) {
    SCOPED_TRACE(agg);
    ExpectPath(t,
               std::string("SELECT a.id, ") + agg +
                   "(inner_product(a.v, b.v)) FROM p AS a, q AS b "
                   "WHERE a.id <> b.id GROUP BY a.id",
               kernel);
    ExpectPath(t,
               std::string("SELECT b.g, ") + agg +
                   "(inner_product(b.v, a.v)) FROM p AS a, q AS b "
                   "GROUP BY b.g",
               kernel);
  }
  // SUM on grid data: every order of summation gives the same bits.
  VecTwins grid;
  grid.LoadVec("p", 5, RandomVecRows(7, 31, 5, true));
  grid.LoadVec("q", 5, RandomVecRows(8, 23, 5, true));
  ExpectPath(grid,
             "SELECT a.g, b.g, SUM(inner_product(a.v, b.v)) FROM p AS a, q "
             "AS b WHERE a.id < b.id GROUP BY a.g, b.g",
             kernel);
}

TEST(RelationalMultiplyVectorTest, ThreadCountsAgreeBitwise) {
  const std::vector<VecRow> p = RandomVecRows(9, 45, 11, false);
  const std::vector<VecRow> q = RandomVecRows(10, 38, 11, false);
  std::vector<RowSet> results;
  for (size_t threads : {1, 8}) {
    Database db(MakeConfig(true, threads));
    ASSERT_TRUE(LoadVecRows(db, "p", 11, p).ok());
    ASSERT_TRUE(LoadVecRows(db, "q", 11, q).ok());
    for (const char* sql : {
             "SELECT a.id, SUM(inner_product(a.v, b.v)) FROM p AS a, q AS b "
             "WHERE a.id <> b.id GROUP BY a.id",
             "SELECT b.id, a.g, SUM(inner_product(a.v, b.v)) FROM p AS a, q "
             "AS b WHERE a.g <= b.g GROUP BY b.id, a.g"}) {
      auto rs = Exec(db, sql);
      ASSERT_TRUE(rs.ok()) << rs.status();
      EXPECT_EQ(PathOf(db), "RelationalMultiply(kernel)");
      results.push_back(Sorted(rs->rows));
    }
  }
  for (size_t k = 0; k < 2; ++k) {
    const RowSet& a = results[k];
    const RowSet& b = results[k + 2];
    ASSERT_EQ(a.size(), b.size());
    for (size_t r = 0; r < a.size(); ++r) {
      const double x = a[r].back().double_value();
      const double y = b[r].back().double_value();
      EXPECT_TRUE(SameBits(x, y)) << "row " << r;
    }
  }
}

TEST(RelationalMultiplyVectorTest, EveryMaskOperatorAndEveryKeyPlacement) {
  VecTwins t;
  t.LoadVec("p", 3, RandomVecRows(11, 14, 3, false));
  t.LoadVec("q", 3, RandomVecRows(12, 17, 3, false));
  const std::string kernel = "RelationalMultiply(kernel)";
  const char* groupings[][2] = {
      {"a.id", "a.id"},
      {"b.id", "b.id"},
      {"a.id, b.g", "a.id, b.g"},
      {"b.g, a.id", "b.g, a.id"},
  };
  for (const char* op : {"<>", "<", "<=", ">", ">="}) {
    for (const auto& g : groupings) {
      const std::string sql = std::string("SELECT ") + g[0] +
                              ", MAX(inner_product(a.v, b.v)) FROM p AS a, "
                              "q AS b WHERE a.id " +
                              op + " b.id GROUP BY " + g[1];
      SCOPED_TRACE(sql);
      ExpectPath(t, sql, kernel);
    }
    // The mask written the other way round, and a second term.
    ExpectPath(t,
               std::string("SELECT a.id, MIN(inner_product(a.v, b.v)) FROM p "
                           "AS a, q AS b WHERE b.g ") +
                   op + " a.id AND a.g <> b.id GROUP BY a.id",
               kernel);
  }
  // HAVING, ORDER BY and LIMIT above the aggregate.
  const std::string top =
      "SELECT a.id AS i, MIN(inner_product(a.v, b.v)) AS s FROM p AS a, "
      "q AS b WHERE a.id <> b.id GROUP BY a.id HAVING a.id >= 2 "
      "ORDER BY s DESC, i LIMIT 5";
  ExpectPath(t, top, kernel);
  auto on = Exec(t.on, top);
  auto off = Exec(t.off, top);
  ASSERT_TRUE(on.ok() && off.ok());
  ASSERT_EQ(on->num_rows(), off->num_rows());
  for (size_t r = 0; r < on->num_rows(); ++r) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_TRUE(on->rows[r][c].Equals(off->rows[r][c]));
    }
  }
}

TEST(RelationalMultiplyVectorTest, MaskKeysAbove2To53CompareExactly) {
  // Through double, 2^53 + 1 would equal 2^53: the mask must compare
  // the keys exactly, as the join's predicate does.
  const int64_t big = int64_t{1} << 53;
  VecTwins t;
  const std::vector<VecRow> rows = {{I(big), I(0), Vec({1, 2})},
                                    {I(big + 1), I(1), Vec({3, -1})},
                                    {I(big + 2), I(2), Vec({0.5, 4})}};
  t.LoadVec("p", 2, rows);
  t.LoadVec("q", 2, rows);
  for (const char* op : {"<>", "<", "<=", ">", ">="}) {
    ExpectPath(t,
               std::string("SELECT a.id, SUM(inner_product(a.v, b.v)) FROM p "
                           "AS a, q AS b WHERE a.id ") +
                   op + " b.id GROUP BY a.id",
               "RelationalMultiply(kernel)");
  }
  // Each id pairs with both others.
  auto rs = Exec(t.on,
                 "SELECT a.id, SUM(inner_product(a.v, b.v)) FROM p AS a, q "
                 "AS b WHERE a.id <> b.id GROUP BY a.id");
  ASSERT_TRUE(rs.ok()) << rs.status();
  for (const Row& row : Sorted(rs->rows)) {
    const int64_t id = row[0].int_value();
    double want = 0;
    for (const VecRow& b : rows) {
      if (b.id.int_value() == id) continue;
      const la::Vector& x = rows[id - big].v.vector();
      const la::Vector& y = b.v.vector();
      want += x[0] * y[0] + x[1] * y[1];
    }
    EXPECT_EQ(row[1].double_value(), want) << id;
  }

  // The tuple coding's mask on its groups.
  Twins tuple;
  std::vector<Triple> triples;
  for (int64_t k = 0; k < 3; ++k) {
    for (int64_t i = 0; i < 3; ++i) {
      triples.push_back({I(k), I(big + i), D(0.25 * double(k + 2 * i))});
    }
  }
  tuple.Load("x", triples);
  const std::string sql =
      "SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM x AS x1, x AS x2 WHERE "
      "x1.k = x2.k AND x1.i <> x2.i GROUP BY x1.i, x2.i";
  ExpectPath(tuple, sql, "RelationalMultiply(kernel)");
  auto groups = Exec(tuple.on, sql);
  ASSERT_TRUE(groups.ok()) << groups.status();
  EXPECT_EQ(groups->num_rows(), 6u);
}

TEST(RelationalMultiplyVectorTest, AViewReadTwiceIsSpooledOnce) {
  VecTwins t;
  t.LoadVec("p", 4, RandomVecRows(13, 20, 4, false));
  t.LoadVec("q", 4, RandomVecRows(14, 20, 4, false));
  const std::string view =
      "CREATE VIEW dm (id, dist) AS SELECT a.id, MIN(inner_product(b.v, "
      "a.v)) FROM p AS a, q AS b WHERE a.id <> b.id GROUP BY a.id";
  ASSERT_TRUE(t.on.Execute(view).ok());
  ASSERT_TRUE(t.off.Execute(view).ok());
  const std::string sql =
      "SELECT d.id, d.dist FROM dm AS d, (SELECT MAX(dist) AS mx FROM dm) "
      "AS m WHERE d.dist = m.mx";
  const std::string plan = Explain(t.on, "EXPLAIN " + sql);
  EXPECT_NE(plan.find("(relational multiply)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("spool#1 (uses=2)"), std::string::npos) << plan;
  ExpectPath(t, sql, "RelationalMultiply(kernel)");
  size_t kernels = 0, reuses = 0;
  for (const OperatorMetrics& op : t.on.last_metrics().operators) {
    kernels += op.name == "RelationalMultiply(kernel)";
    reuses += op.name == "SpoolReuse";
  }
  EXPECT_EQ(kernels, 1u);
  EXPECT_EQ(reuses, 1u);
}

TEST(RelationalMultiplyVectorTest, DuplicateIdsMaskedGroupsAndEmptyInputs) {
  VecTwins t;
  // Ids 0..3 twice each, on different workers' rows.
  std::vector<VecRow> p = RandomVecRows(15, 8, 3, false);
  for (size_t r = 0; r < p.size(); ++r) p[r].id = I(int64_t(r % 4));
  t.LoadVec("p", 3, p);
  t.LoadVec("q", 3, RandomVecRows(16, 6, 3, false));
  t.LoadVec("e", 3, {});
  const std::string kernel = "RelationalMultiply(kernel)";
  ExpectPath(t,
             "SELECT a.id, SUM(inner_product(a.v, b.v)) FROM p AS a, q AS b "
             "WHERE a.id <> b.id GROUP BY a.id",
             kernel);
  // Group a.id = 0 has no b.id < 0: every one of its pairs is masked.
  const std::string masked =
      "SELECT a.id, MAX(inner_product(a.v, b.v)) FROM p AS a, q AS b "
      "WHERE b.id < a.id GROUP BY a.id";
  ExpectPath(t, masked, kernel);
  auto rs = Exec(t.on, masked);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->num_rows(), 3u);
  for (const char* empty : {
           "SELECT a.id, SUM(inner_product(a.v, e.v)) FROM p AS a, e "
           "WHERE a.id <> e.id GROUP BY a.id",
           "SELECT e.id, MIN(inner_product(e.v, b.v)) FROM e, q AS b "
           "GROUP BY e.id"}) {
    ExpectPath(t, empty, kernel);
    auto none = Exec(t.on, empty);
    ASSERT_TRUE(none.ok());
    EXPECT_EQ(none->num_rows(), 0u);
  }
}

TEST(RelationalMultiplyVectorTest, ProductsLargerThanABandMatch) {
  // 520 x 520 pairs: the product is computed in two bands.
  VecTwins t;
  t.LoadVec("p", 2, RandomVecRows(17, 520, 2, false));
  t.LoadVec("q", 2, RandomVecRows(18, 520, 2, false));
  ExpectPath(t,
             "SELECT b.g, SUM(inner_product(a.v, b.v)) FROM p AS a, q AS b "
             "WHERE a.id <> b.id GROUP BY b.g",
             "RelationalMultiply(kernel)");
}

TEST(RelationalMultiplyVectorTest, EachFallbackReturnsTheRuleOffResult) {
  const std::vector<VecRow> base = RandomVecRows(19, 9, 3, false);
  auto with = [&](VecRow extra) {
    std::vector<VecRow> out = base;
    out.push_back(std::move(extra));
    return out;
  };
  struct Case {
    const char* name;
    std::vector<VecRow> rows;
    const char* reason;
  };
  const std::vector<Case> cases = {
      {"NULL vector", with({I(20), I(1), Value::Null()}), "NULL vector"},
      {"NULL group key", with({Value::Null(), I(1), Vec({1, 2, 3})}),
       "NULL key"},
      {"NULL mask key", with({I(21), Value::Null(), Vec({1, 2, 3})}),
       "NULL key"},
      {"NaN", with({I(22), I(0), Vec({1, kNan, 3})}), "non-finite element"},
      {"+inf", with({I(23), I(0), Vec({kInf, 2, 3})}), "non-finite element"},
      {"-inf", with({I(24), I(2), Vec({1, 2, -kInf})}),
       "non-finite element"},
  };
  const std::string sql =
      "SELECT a.id, MIN(inner_product(a.v, b.v)) FROM p AS a, q AS b "
      "WHERE a.g <> b.g GROUP BY a.id";
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    VecTwins t;
    t.LoadVec("p", 3, c.rows);
    t.LoadVec("q", 3, base);
    const std::string reason =
        std::string("RelationalMultiply(fallback: ") + c.reason + ")";
    ExpectPath(t, sql, reason);
    const std::string analyzed = Explain(t.on, "EXPLAIN ANALYZE " + sql);
    EXPECT_NE(analyzed.find("path=" + reason), std::string::npos)
        << analyzed;
  }
}

TEST(RelationalMultiplyVectorTest, VectorsOfDifferentLengthsRaiseAsOnTheJoin) {
  VecTwins t;
  std::vector<VecRow> p = RandomVecRows(20, 6, 3, false);
  p.push_back({I(100), I(0), Vec({1, 2, 3})});
  p.push_back({I(101), I(1), Vec({3, 2, 1})});
  t.LoadVec("p", 3, p);
  // ones_vector(n) has a length only the data knows: 4 for ids >= 100.
  const std::string mismatched =
      "SELECT a.id, SUM(inner_product(a.v, b.v)) FROM p AS a, "
      "(SELECT id, ones_vector(3 + id / 100) AS v FROM p) AS b "
      "GROUP BY a.id";
  auto on = Exec(t.on, mismatched);
  auto off = Exec(t.off, mismatched);
  ASSERT_FALSE(off.ok());
  ASSERT_FALSE(on.ok());
  EXPECT_EQ(on.status().ToString(), off.status().ToString());
  // The mask keeps the longer vectors from every pair: no error either
  // way, but the inputs still hold two lengths.
  ExpectPath(t,
             "SELECT a.id, SUM(inner_product(a.v, b.v)) FROM p AS a, "
             "(SELECT id, ones_vector(3 + id / 100) AS v FROM p) AS b "
             "WHERE a.id < 100 AND b.id < a.id GROUP BY a.id",
             "RelationalMultiply(fallback: vector lengths differ)");
}

TEST(RelationalMultiplyVectorTest, ABudgetThatRefusesTheProductFallsBack) {
  VecTwins t;
  t.LoadVec("p", 32, RandomVecRows(21, 300, 32, false));
  t.LoadVec("q", 32, RandomVecRows(22, 300, 32, false));
  QueryOptions tight;
  tight.memory_budget_bytes = 384u << 10;
  auto on = Exec(t.on, kVecMin, tight);
  ASSERT_TRUE(on.ok()) << on.status();
  EXPECT_EQ(PathOf(t.on).rfind("RelationalMultiply(fallback: memory budget "
                               "refused",
                               0),
            0u)
      << PathOf(t.on);
  auto off = Exec(t.off, kVecMin, tight);
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_TRUE(SameRows(on->rows, off->rows));
  QueryOptions roomy;
  roomy.memory_budget_bytes = 16u << 20;
  auto fits = Exec(t.on, kVecMin, roomy);
  ASSERT_TRUE(fits.ok()) << fits.status();
  EXPECT_EQ(PathOf(t.on), "RelationalMultiply(kernel)");
  EXPECT_TRUE(SameRows(fits->rows, off->rows));
}

TEST(RelationalMultiplyVectorTest, CancellingWhilePackingLeavesNoCharges) {
  Database db(MakeConfig(true));
  ASSERT_TRUE(LoadVecRows(db, "p", 8, RandomVecRows(23, 2000, 8, false)).ok());
  ASSERT_TRUE(LoadVecRows(db, "q", 8, RandomVecRows(24, 2000, 8, false)).ok());
  ExpectACancelInsideTheMultiplyLeavesNoCharges(db, kVecMin, 1, 2000);
}

TEST(RelationalMultiplyVectorTest, DistanceVectorAgreesWithTheReference) {
  const size_t n = 60, d = 72;
  const workloads::Dataset data = workloads::GenerateDataset(3, n, d);
  auto want = workloads::ReferenceDistance(data);
  ASSERT_TRUE(want.ok()) << want.status();
  for (size_t threads : {1, 4, 8}) {
    SCOPED_TRACE(threads);
    Database::Config config = MakeConfig(true, threads);
    config.num_workers = 8;
    workloads::SqlWorkload sql(config);
    ASSERT_TRUE(sql.LoadVector(data).ok());
    auto got = sql.DistanceVector();
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got->distance.point_id, want->point_id);
    EXPECT_NEAR(got->distance.value, want->value,
                1e-9 * std::max(1.0, std::abs(want->value)));
    obs::MetricsRegistry* reg = sql.db().metrics_registry();
    ASSERT_NE(reg, nullptr);
    EXPECT_EQ(reg->counter("exec.relational_multiplies")->value(), 1u);
  }
}

// ---------------------------------------------------------------------
// Placement: which worker emits which group.
// ---------------------------------------------------------------------

/// Plans `sql` on `db`, runs it on an Executor over `db`'s cluster and
/// returns each worker's rows, in order. The product must run on the
/// kernel.
Dist RunPlaced(Database& db, const std::string& sql) {
  auto plan = db.PlanQuery(sql);
  EXPECT_TRUE(plan.ok()) << plan.status();
  if (!plan.ok()) return {};
  QueryMetrics qm;
  Executor executor(db.cluster(), &qm);
  auto out = executor.Execute(**plan);
  EXPECT_TRUE(out.ok()) << out.status();
  if (!out.ok()) return {};
  bool kernel = false;
  for (const OperatorMetrics& op : qm.operators) {
    kernel = kernel || op.name == "RelationalMultiply(kernel)";
  }
  EXPECT_TRUE(kernel);
  return std::move(*out);
}

using KeyPair = std::pair<int64_t, int64_t>;

/// Each worker's (first, second) column pairs.
std::vector<std::vector<KeyPair>> PairsPerWorker(const Dist& dist) {
  std::vector<std::vector<KeyPair>> out(dist.size());
  for (size_t wkr = 0; wkr < dist.size(); ++wkr) {
    for (const Row& row : dist[wkr]) {
      out[wkr].emplace_back(row[0].int_value(), row[1].int_value());
    }
  }
  return out;
}

TEST(RelationalMultiplyPlacementTest, TupleCodingSlicesItsListedGroups) {
  // Index i sits on keys {0, 1} when even and {2, 3} when odd: both
  // tiles are half full, and a group of an even and an odd index has
  // no pair, so the presence product lists the groups; the mask then
  // drops those with i >= j.
  std::vector<Triple> cells;
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t k = 2 * (i % 2); k < 2 * (i % 2) + 2; ++k) {
      cells.emplace_back(I(k), I(i), D(double(i + 2 * k)));  // see Dense
    }
  }
  std::vector<KeyPair> listed;  // row-major
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t j = 0; j < 7; ++j) {
      if (i % 2 == j % 2 && i < j) listed.emplace_back(i, j);
    }
  }
  for (size_t w : {4, 8}) {
    SCOPED_TRACE(w);
    Database::Config config = MakeConfig(true);
    config.num_workers = w;
    Database db(config);
    ASSERT_TRUE(LoadTriples(db, "x", cells).ok());
    const auto got = PairsPerWorker(RunPlaced(
        db,
        "SELECT x1.i, x2.i, SUM(x1.v * x2.v) FROM x AS x1, x AS x2 "
        "WHERE x1.k = x2.k AND x1.i < x2.i GROUP BY x1.i, x2.i"));
    ASSERT_EQ(got.size(), w);
    const size_t n = listed.size();
    for (size_t wkr = 0; wkr < w; ++wkr) {
      const std::vector<KeyPair> slice(listed.begin() + n * wkr / w,
                                       listed.begin() + n * (wkr + 1) / w);
      EXPECT_EQ(got[wkr], slice) << "worker " << wkr;
    }
  }
}

TEST(RelationalMultiplyPlacementTest, VectorCodingSlicesEveryPosition) {
  // 6 x 7 positions; the mask leaves a group only where a.id < b.id,
  // and a slice skips the positions that have no group.
  const int64_t ni = 6, nj = 7;
  for (size_t w : {4, 8}) {
    SCOPED_TRACE(w);
    Database::Config config = MakeConfig(true);
    config.num_workers = w;
    Database db(config);
    ASSERT_TRUE(LoadVecRows(db, "p", 3, RandomVecRows(5, ni, 3, true)).ok());
    ASSERT_TRUE(LoadVecRows(db, "q", 3, RandomVecRows(6, nj, 3, true)).ok());
    const auto got = PairsPerWorker(RunPlaced(
        db,
        "SELECT a.id, b.id, SUM(inner_product(a.v, b.v)) FROM p AS a, q AS "
        "b WHERE a.id < b.id GROUP BY a.id, b.id"));
    ASSERT_EQ(got.size(), w);
    const size_t n = static_cast<size_t>(ni * nj);
    for (size_t wkr = 0; wkr < w; ++wkr) {
      std::vector<KeyPair> slice;
      for (size_t g = n * wkr / w; g < n * (wkr + 1) / w; ++g) {
        const int64_t i = static_cast<int64_t>(g) / nj;
        const int64_t j = static_cast<int64_t>(g) % nj;
        if (i < j) slice.emplace_back(i, j);
      }
      EXPECT_EQ(got[wkr], slice) << "worker " << wkr;
    }
  }
}

}  // namespace
}  // namespace radb
