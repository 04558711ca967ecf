// Differential-testing subsystem tests: a fixed-seed fuzz sweep (the
// CI gate for "all six engine configurations agree with the reference
// evaluator"), replay of the pinned regression seeds, and unit tests
// of the comparison machinery itself.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "testing/catalog_gen.h"
#include "testing/differ.h"
#include "testing/query_gen.h"
#include "testing/reference_eval.h"
#include "testing/regression_seeds.h"

namespace radb::testing {
namespace {

TEST(CatalogGenTest, Deterministic) {
  const CatalogSpec a = GenerateCatalog(42);
  const CatalogSpec b = GenerateCatalog(42);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_GE(a.tables.size(), 2u);
  for (const TableSpec& t : a.tables) {
    ASSERT_FALSE(t.columns.empty());
    EXPECT_EQ(t.columns[0].name, "k");
    EXPECT_EQ(t.columns[0].type.kind(), TypeKind::kInteger);
  }
}

TEST(QueryGenTest, DeterministicAndParseable) {
  const CatalogSpec catalog = GenerateCatalog(7);
  Rng r1(99), r2(99);
  for (int i = 0; i < 50; ++i) {
    const QuerySpec a = GenerateQuery(catalog, &r1);
    const QuerySpec b = GenerateQuery(catalog, &r2);
    EXPECT_EQ(a.ToSql(), b.ToSql());
    // LIMIT only with a total order over the whole select list.
    if (a.limit.has_value()) {
      EXPECT_EQ(a.order_by.size(), a.select_items.size());
    }
    // A shared derived table comes as one twin pair joined on its key.
    if (!a.from[0].derived.empty()) {
      ASSERT_GE(a.from.size(), 2u);
      EXPECT_EQ(a.from[1].derived, a.from[0].derived);
      EXPECT_EQ(a.where[0], "r0.k = r1.k");
    }
  }
}

TEST(NormalizeTest, SortsRowsCanonically) {
  RowSet rows;
  rows.push_back({Value::Int(2), Value::String("b")});
  rows.push_back({Value::Int(1), Value::String("z")});
  rows.push_back({Value::Int(1), Value::String("a")});
  const RowSet norm = Normalized(rows);
  EXPECT_EQ(norm[0][0].int_value(), 1);
  EXPECT_EQ(norm[0][1].string_value(), "a");
  EXPECT_EQ(norm[2][0].int_value(), 2);
}

TEST(NormalizeTest, KindRankSeparatesIntFromDouble) {
  // Int(1) and Double(1.0) are different cells; normalization must
  // order them stably, and SameCells must tell them apart.
  RowSet a, b;
  a.push_back({Value::Int(1)});
  b.push_back({Value::Double(1.0)});
  EXPECT_FALSE(SameCells(Normalized(a), Normalized(b)));
}

TEST(SameCellsTest, ExactOnLaValues) {
  RowSet a, b;
  la::Vector v1(3, 1.0), v2(3, 1.0);
  a.push_back({Value::FromVector(std::move(v1))});
  b.push_back({Value::FromVector(std::move(v2))});
  EXPECT_TRUE(SameCells(a, b));
  la::Vector v3(3, 1.0);
  v3[2] = 1.0 + 1e-12;  // off by one ulp-ish: must NOT compare equal
  RowSet c;
  c.push_back({Value::FromVector(std::move(v3))});
  EXPECT_FALSE(SameCells(a, c));
}

TEST(ReferenceEvalTest, MatchesHandComputedJoinAggregate) {
  CatalogSpec spec;
  spec.seed = 0;
  TableSpec t0{"t0", {{"k", DataType::Integer()}}, {}};
  TableSpec t1{"t1", {{"k", DataType::Integer()}}, {}};
  for (int i = 0; i < 3; ++i) t0.rows.push_back({Value::Int(i)});
  for (int i = 1; i < 4; ++i) t1.rows.push_back({Value::Int(i)});
  spec.tables = {t0, t1};

  Differ differ(spec);
  ASSERT_TRUE(differ.init_status().ok());

  Database db;
  ASSERT_TRUE(LoadCatalog(spec, &db).ok());
  auto ref = ReferenceExecute(
      "SELECT COUNT(*) FROM t0 AS r0, t1 AS r1 WHERE r0.k = r1.k",
      db.catalog());
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_EQ(ref->rows.size(), 1u);
  EXPECT_EQ(ref->rows[0][0].int_value(), 2);  // keys 1 and 2 match

  const DiffOutcome outcome = differ.RunOne(
      "SELECT COUNT(*) FROM t0 AS r0, t1 AS r1 WHERE r0.k = r1.k");
  EXPECT_FALSE(outcome.diverged) << outcome.report;
}

TEST(RegressionSeedsTest, AllPinnedCasesAgree) {
  for (size_t i = 0; i < kNumRegressionSeeds; ++i) {
    const RegressionSeed& seed = kRegressionSeeds[i];
    Differ differ(GenerateCatalog(seed.catalog_seed));
    ASSERT_TRUE(differ.init_status().ok()) << "seed index " << i;
    const DiffOutcome outcome = differ.RunOne(seed.sql);
    EXPECT_FALSE(outcome.diverged)
        << "regression seed " << i << ":\n" << outcome.report;
  }
}

// The CI differential gate: 200 fixed-seed random queries across 8
// random catalogs, every engine configuration vs the reference. Some
// of them read a derived table twice and so run a spool.
TEST(FuzzTest, TwoHundredFixedSeedQueries) {
  size_t ran = 0;
  size_t spooled = 0;
  for (uint64_t catalog_seed = 100; catalog_seed < 108; ++catalog_seed) {
    const CatalogSpec catalog = GenerateCatalog(catalog_seed);
    Differ differ(catalog);
    ASSERT_TRUE(differ.init_status().ok()) << "catalog " << catalog_seed;
    Rng rng(catalog_seed * 7919);
    for (int i = 0; i < 25; ++i) {
      const QuerySpec query = GenerateQuery(catalog, &rng);
      const uint64_t reuses = differ.SpoolReuses();
      const DiffOutcome outcome = differ.RunOne(query.ToSql());
      ++ran;
      if (differ.SpoolReuses() > reuses) ++spooled;
      ASSERT_FALSE(outcome.diverged)
          << "catalog seed " << catalog_seed << ", query " << i << ":\n"
          << outcome.report;
    }
  }
  EXPECT_EQ(ran, 200u);
  EXPECT_GT(spooled, 0u);
}

// Generated matrix products in both codings (DESIGN.md §19), every
// configuration vs the reference. The sweep must take the relational
// multiply kernel and fall back to the join at least once per coding,
// or it would not be testing both paths.
TEST(FuzzTest, FixedSeedProductsTakeAndLeaveTheKernelInBothCodings) {
  const ProductShape shapes[] = {ProductShape::kTuple,
                                 ProductShape::kMaskedTuple,
                                 ProductShape::kVector};
  size_t kernel[2] = {0, 0};  // by coding: 0 tuple, 1 vector
  size_t fallback[2] = {0, 0};
  for (uint64_t catalog_seed = 200; catalog_seed < 212; ++catalog_seed) {
    const CatalogSpec catalog = GenerateCatalog(catalog_seed);
    Differ differ(catalog);
    ASSERT_TRUE(differ.init_status().ok()) << "catalog " << catalog_seed;
    Rng rng(catalog_seed * 104729);
    for (int i = 0; i < 12; ++i) {
      const std::string sql =
          GenerateMultiplyQuery(catalog, &rng, shapes[i % 3]).ToSql();
      const size_t coding = sql.find("inner_product(") != std::string::npos;
      const uint64_t kernels = differ.RelationalMultiplies();
      const uint64_t fallbacks = differ.RelationalMultiplyFallbacks();
      const DiffOutcome outcome = differ.RunOne(sql);
      ASSERT_FALSE(outcome.diverged)
          << "catalog seed " << catalog_seed << ", query " << i << ":\n"
          << outcome.report;
      kernel[coding] += differ.RelationalMultiplies() > kernels;
      fallback[coding] += differ.RelationalMultiplyFallbacks() > fallbacks;
    }
  }
  EXPECT_GT(kernel[0], 0u);
  EXPECT_GT(fallback[0], 0u);
  EXPECT_GT(kernel[1], 0u);
  EXPECT_GT(fallback[1], 0u);
}

TEST(FuzzTest, FixedSeedSelfProductsTakeAndLeaveTheKernel) {
  // Every kSelf draw plans a self product and no kCrossed draw does;
  // self products both take the kernel and fall back (a raw table's
  // repeated cells, a derived table's NULLs); block-coded Gram products
  // match the reference, which runs the transpose and multiply.
  const ProductShape shapes[] = {ProductShape::kSelf, ProductShape::kCrossed,
                                 ProductShape::kGram};
  size_t kernel = 0, fallback = 0;
  for (uint64_t catalog_seed = 212; catalog_seed < 224; ++catalog_seed) {
    const CatalogSpec catalog = GenerateCatalog(catalog_seed);
    Differ differ(catalog);
    ASSERT_TRUE(differ.init_status().ok()) << "catalog " << catalog_seed;
    Rng rng(catalog_seed * 104723);
    for (int i = 0; i < 12; ++i) {
      const ProductShape shape = shapes[i % 3];
      const std::string sql =
          GenerateMultiplyQuery(catalog, &rng, shape).ToSql();
      const uint64_t kernels = differ.RelationalMultiplies();
      const uint64_t fallbacks = differ.RelationalMultiplyFallbacks();
      const DiffOutcome outcome = differ.RunOne(sql);
      ASSERT_FALSE(outcome.diverged)
          << "catalog seed " << catalog_seed << ", query " << i << ":\n"
          << outcome.report;
      const bool self = differ.PlansSelfProduct(sql);
      if (shape != ProductShape::kGram) {
        EXPECT_EQ(self, shape == ProductShape::kSelf) << sql;
      }
      if (!self) continue;
      kernel += differ.RelationalMultiplies() > kernels;
      fallback += differ.RelationalMultiplyFallbacks() > fallbacks;
    }
  }
  EXPECT_GT(kernel, 0u);
  EXPECT_GT(fallback, 0u);
}

}  // namespace
}  // namespace radb::testing
