// Differential query fuzzer (standalone driver, not a Google
// benchmark). Generates seeded random catalogs and queries, runs each
// query through every StandardConfigs() engine configuration plus the
// brute-force reference evaluator, and fails loudly (exit 1) on any
// divergence — after shrinking it to a minimal repro suitable for
// pinning in src/testing/regression_seeds.h.
//
// Usage:
//   fuzz_queries [--queries N] [--seed S] [--queries-per-catalog K]
//                [--sessions M] [--ddl-churn R]
//
// Every run starts by replaying the pinned regression seeds.
// With --sessions M > 1, a third phase replays generated query
// batches across M concurrent service sessions on one Database and
// requires every result to be bit-identical to serial execution of
// the same query (the concurrency determinism contract).
// With --ddl-churn R > 0, a fourth phase runs R DDL-interleaved
// cache-differential rounds: the same hot-query/churn stream on a
// caches-on and a caches-off database, which must agree on every
// statement (the stale-cache contract; see RunCacheDiffRounds).
// The sweep also reports how many generated queries got a spool (a
// repeated subtree computed once; see GenerateQuery), and how many ran
// the relational multiply kernel or fell back to the join (about one
// query in four adds a GenerateMultiplyQuery tuple product, about one
// in four a vector-coded or masked tuple product, and about one in four
// a product of one relation with itself — a self product, the same
// relation in crossed roles, or a block-coded Gram product), with
// kernel and fallback counts per coding for the generated products and
// for the self products.
// With --reopen R > 0, a fifth phase runs R persistence rounds: a
// generated catalog is loaded into a Database::Open store, a query
// batch is executed, the database is closed and reopened from disk,
// and every query must return bit-identical rows after the restart
// (the durability contract, with zero re-ingest).

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"

#include "obs/metrics_registry.h"
#include "testing/catalog_gen.h"
#include "testing/concurrent_differ.h"
#include "testing/differ.h"
#include "testing/query_gen.h"
#include "testing/regression_seeds.h"

namespace {

struct Args {
  uint64_t queries = 600;
  uint64_t seed = 1;
  uint64_t queries_per_catalog = 25;
  uint64_t sessions = 1;   // > 1 enables the concurrent phase
  uint64_t ddl_churn = 0;  // > 0 enables the cache-differential phase
  uint64_t reopen = 0;     // > 0 enables the persistence phase
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    auto want = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
        return argv[++i];
      }
      return nullptr;
    };
    if (const char* v = want("--queries")) {
      args.queries = std::strtoull(v, nullptr, 10);
    } else if (const char* v = want("--seed")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = want("--queries-per-catalog")) {
      args.queries_per_catalog = std::strtoull(v, nullptr, 10);
    } else if (const char* v = want("--sessions")) {
      args.sessions = std::strtoull(v, nullptr, 10);
    } else if (const char* v = want("--ddl-churn")) {
      args.ddl_churn = std::strtoull(v, nullptr, 10);
    } else if (const char* v = want("--reopen")) {
      args.reopen = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--queries N] [--seed S] "
                   "[--queries-per-catalog K] [--sessions M] "
                   "[--ddl-churn R] [--reopen R]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (args.queries_per_catalog == 0) args.queries_per_catalog = 1;
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace radb;
  using namespace radb::testing;

  const Args args = ParseArgs(argc, argv);

  // The fuzzer's own metrics registry; per-config plans_considered is
  // folded in from each Differ before it is destroyed.
  obs::MetricsRegistry metrics;
  uint64_t queries_run = 0;
  uint64_t divergences = 0;
  uint64_t spooled = 0;             // phase-2 queries that got a spool
  uint64_t generated = 0;           // phase-2 queries, products included
  uint64_t multiply_kernel = 0;    // ... that ran the relational multiply
  uint64_t multiply_fallback = 0;  // ... whose multiply fell back
  // Generated products by coding (0 tuple, 1 vector): kernel runs and
  // fallbacks.
  uint64_t coding_kernel[2] = {0, 0};
  uint64_t coding_fallback[2] = {0, 0};
  uint64_t self_kernel = 0, self_fallback = 0;  // generated self products

  auto note_plans = [&](const Differ& differ) {
    const std::vector<FuzzConfig> configs = StandardConfigs();
    const std::vector<uint64_t> plans = differ.PlansConsidered();
    for (size_t i = 0; i < plans.size(); ++i) {
      metrics.counter("fuzz.plans_considered." + configs[i].name)
          ->Add(plans[i]);
    }
  };

  auto diverge = [&](const DiffOutcome& outcome, const CatalogSpec& catalog,
                     const QuerySpec& query) {
    ++divergences;
    metrics.counter("fuzz.divergences")->Add(1);
    std::fprintf(stderr, "%s\n", outcome.report.c_str());
    std::fprintf(stderr, "shrinking...\n");
    const Repro repro = Shrink(catalog, query);
    std::fprintf(stderr, "%s\n", ReproReport(repro).c_str());
  };

  // ---- Phase 1: pinned regression seeds. ----
  for (size_t i = 0; i < kNumRegressionSeeds; ++i) {
    const RegressionSeed& seed = kRegressionSeeds[i];
    const CatalogSpec catalog = GenerateCatalog(seed.catalog_seed);
    Differ differ(catalog);
    if (!differ.init_status().ok()) {
      std::fprintf(stderr, "regression seed %zu: catalog load failed: %s\n",
                   i, differ.init_status().message().c_str());
      return 1;
    }
    const DiffOutcome outcome = differ.RunOne(seed.sql);
    ++queries_run;
    metrics.counter("fuzz.queries_run")->Add(1);
    note_plans(differ);
    if (outcome.diverged) {
      ++divergences;
      metrics.counter("fuzz.divergences")->Add(1);
      std::fprintf(stderr, "regression seed %zu diverged:\n%s\n", i,
                   outcome.report.c_str());
    }
  }

  // ---- Phase 2: random catalogs x random queries. ----
  Rng meta_rng(args.seed);
  uint64_t remaining = args.queries;
  uint64_t catalog_idx = 0;
  while (remaining > 0) {
    const uint64_t catalog_seed =
        args.seed * 1000003ULL + catalog_idx++;
    const CatalogSpec catalog = GenerateCatalog(catalog_seed);
    Differ differ(catalog);
    if (!differ.init_status().ok()) {
      std::fprintf(stderr, "catalog seed %llu: load failed: %s\n",
                   static_cast<unsigned long long>(catalog_seed),
                   differ.init_status().message().c_str());
      return 1;
    }
    const uint64_t batch =
        remaining < args.queries_per_catalog ? remaining
                                             : args.queries_per_catalog;
    Rng rng(catalog_seed ^ 0xd1b54a32d192ed03ULL);
    // Matrix products draw from their own stream, so every seed still
    // generates the queries it generated before they existed.
    Rng multiply_rng(catalog_seed ^ 0x5851f42d4c957f2dULL);
    // Vector-coded and masked tuple products, likewise.
    Rng shape_rng(catalog_seed ^ 0x2545f4914f6cdd1dULL);
    // Products of one relation with itself, likewise.
    Rng self_rng(catalog_seed ^ 0x9fb21c651e98df25ULL);
    auto run = [&](const QuerySpec& query, bool system, bool product) {
      const uint64_t reuses_before = differ.SpoolReuses();
      const uint64_t kernels_before = differ.RelationalMultiplies();
      const uint64_t fallbacks_before = differ.RelationalMultiplyFallbacks();
      const std::string sql = query.ToSql();
      const DiffOutcome outcome = differ.RunOne(sql);
      const size_t coding = sql.find("inner_product(") != std::string::npos;
      const bool self = product && differ.PlansSelfProduct(sql);
      ++queries_run;
      ++generated;
      metrics.counter("fuzz.queries_run")->Add(1);
      if (system) metrics.counter("fuzz.system_queries_run")->Add(1);
      if (differ.SpoolReuses() > reuses_before) {
        ++spooled;
        metrics.counter("fuzz.spooled_queries")->Add(1);
      }
      if (differ.RelationalMultiplies() > kernels_before) {
        ++multiply_kernel;
        if (product) ++coding_kernel[coding];
        if (self) ++self_kernel;
        metrics.counter("fuzz.relational_multiply_queries")->Add(1);
      }
      if (differ.RelationalMultiplyFallbacks() > fallbacks_before) {
        ++multiply_fallback;
        if (product) ++coding_fallback[coding];
        if (self) ++self_fallback;
        metrics.counter("fuzz.relational_multiply_fallback_queries")->Add(1);
      }
      if (outcome.diverged) diverge(outcome, catalog, query);
    };
    for (uint64_t i = 0; i < batch; ++i) {
      // ~1 in 8 queries targets the radb_ system tables (compared in
      // shape mode — see Differ::RunOne); the rest are value-compared
      // against the reference evaluator as before.
      const bool system = rng.NextBelow(8) == 0;
      run(system ? GenerateSystemTableQuery(catalog, &rng)
                 : GenerateQuery(catalog, &rng),
          system, false);
      if (multiply_rng.NextBelow(4) == 0) {
        run(GenerateMultiplyQuery(catalog, &multiply_rng), false, true);
      }
      if (shape_rng.NextBelow(4) == 0) {
        const ProductShape shape = shape_rng.NextBelow(2) == 0
                                       ? ProductShape::kVector
                                       : ProductShape::kMaskedTuple;
        run(GenerateMultiplyQuery(catalog, &shape_rng, shape), false, true);
      }
      if (self_rng.NextBelow(4) == 0) {
        static constexpr ProductShape kOneRelation[] = {
            ProductShape::kSelf, ProductShape::kCrossed, ProductShape::kGram};
        const ProductShape shape = kOneRelation[self_rng.NextBelow(3)];
        run(GenerateMultiplyQuery(catalog, &self_rng, shape), false, true);
      }
    }
    note_plans(differ);
    remaining -= batch;
    if (catalog_idx % 4 == 0 || remaining == 0) {
      std::fprintf(stderr, "  ... %llu queries, %llu divergence(s)\n",
                   static_cast<unsigned long long>(queries_run),
                   static_cast<unsigned long long>(divergences));
    }
  }

  // ---- Phase 3: concurrent sessions vs the serial oracle. ----
  if (args.sessions > 1) {
    // Reuse a slice of the generated stream: a few catalogs, each
    // with a batch big enough to keep all sessions busy.
    const uint64_t rounds = 3;
    const uint64_t batch = args.sessions * 6;
    for (uint64_t round = 0; round < rounds; ++round) {
      const uint64_t catalog_seed =
          args.seed * 7000003ULL + round;
      const CatalogSpec catalog = GenerateCatalog(catalog_seed);
      Rng rng(catalog_seed ^ 0x9e3779b97f4a7c15ULL);
      std::vector<std::string> sqls;
      for (uint64_t i = 0; i < batch; ++i) {
        sqls.push_back(GenerateQuery(catalog, &rng).ToSql());
      }
      const ConcurrentDiffOutcome outcome =
          RunConcurrentRound(catalog, sqls, args.sessions);
      queries_run += outcome.queries_run;
      metrics.counter("fuzz.concurrent_queries_run")
          ->Add(outcome.queries_run);
      if (outcome.diverged) {
        ++divergences;
        metrics.counter("fuzz.divergences")->Add(1);
        std::fprintf(stderr, "%s\n", outcome.report.c_str());
      }
      std::fprintf(stderr,
                   "  ... concurrent round %llu/%llu: %zu queries x %llu "
                   "sessions, %s\n",
                   static_cast<unsigned long long>(round + 1),
                   static_cast<unsigned long long>(rounds),
                   outcome.queries_run,
                   static_cast<unsigned long long>(args.sessions),
                   outcome.diverged ? "DIVERGED" : "ok");
    }
  }

  // ---- Phase 4: DDL-interleaved cache differential. ----
  if (args.ddl_churn > 0) {
    // Several catalogs, splitting the round budget: catalog variety
    // matters as much as stream length for cache-keying bugs.
    const uint64_t catalogs = args.ddl_churn < 100 ? 1 : 4;
    const uint64_t per_catalog = (args.ddl_churn + catalogs - 1) / catalogs;
    for (uint64_t c = 0; c < catalogs; ++c) {
      const uint64_t catalog_seed = args.seed * 9000011ULL + c;
      const CatalogSpec catalog = GenerateCatalog(catalog_seed);
      const CacheDiffOutcome outcome =
          RunCacheDiffRounds(catalog, args.seed + c, per_catalog);
      queries_run += outcome.statements_run;
      metrics.counter("fuzz.cache_diff_statements")
          ->Add(outcome.statements_run);
      if (outcome.diverged) {
        ++divergences;
        metrics.counter("fuzz.divergences")->Add(1);
        std::fprintf(stderr, "%s\n", outcome.report.c_str());
      }
      std::fprintf(stderr,
                   "  ... cache-diff catalog %llu/%llu: %zu statements, %s\n",
                   static_cast<unsigned long long>(c + 1),
                   static_cast<unsigned long long>(catalogs),
                   outcome.statements_run,
                   outcome.diverged ? "DIVERGED" : "ok");
    }
  }

  // ---- Phase 5: persistence — close, reopen, compare. ----
  if (args.reopen > 0) {
    namespace fs = std::filesystem;
    auto run_rows = [](Database& db,
                       const std::string& sql) -> Result<RowSet> {
      Result<ScriptResult> script = db.Execute(sql);
      if (!script.ok()) return script.status();
      if (!script->has_results()) return RowSet{};
      return Normalized(script->result_sets.back().rows);
    };
    for (uint64_t round = 0; round < args.reopen; ++round) {
      const uint64_t catalog_seed = args.seed * 11000027ULL + round;
      const CatalogSpec catalog = GenerateCatalog(catalog_seed);
      std::string dir = "/tmp/radb_fuzz_reopen_XXXXXX";
      if (::mkdtemp(dir.data()) == nullptr) {
        std::fprintf(stderr, "reopen round %llu: mkdtemp failed\n",
                     static_cast<unsigned long long>(round));
        return 1;
      }
      Database::Config config;
      config.num_workers = 8;
      config.num_threads = 1;
      std::vector<std::string> sqls;
      {
        Rng rng(catalog_seed ^ 0x2545f4914f6cdd1dULL);
        for (int i = 0; i < 12; ++i) {
          sqls.push_back(GenerateQuery(catalog, &rng).ToSql());
        }
      }
      std::vector<Result<RowSet>> before;
      {
        auto db = Database::Open(dir, config);
        if (!db.ok()) {
          std::fprintf(stderr, "reopen round %llu: open failed: %s\n",
                       static_cast<unsigned long long>(round),
                       db.status().message().c_str());
          return 1;
        }
        const Status load = LoadCatalog(catalog, db->get());
        if (!load.ok()) {
          std::fprintf(stderr, "reopen round %llu: load failed: %s\n",
                       static_cast<unsigned long long>(round),
                       load.message().c_str());
          return 1;
        }
        for (const std::string& sql : sqls) {
          before.push_back(run_rows(**db, sql));
          ++queries_run;
          metrics.counter("fuzz.reopen_queries_run")->Add(1);
        }
        const Status close = (*db)->Close();
        if (!close.ok()) {
          std::fprintf(stderr, "reopen round %llu: close failed: %s\n",
                       static_cast<unsigned long long>(round),
                       close.message().c_str());
          return 1;
        }
      }
      {
        // Reopen from disk: NO LoadCatalog — recovery alone must
        // reproduce every result bit-identically.
        auto db = Database::Open(dir, config);
        if (!db.ok()) {
          std::fprintf(stderr, "reopen round %llu: reopen failed: %s\n",
                       static_cast<unsigned long long>(round),
                       db.status().message().c_str());
          return 1;
        }
        for (size_t i = 0; i < sqls.size(); ++i) {
          const Result<RowSet> after = run_rows(**db, sqls[i]);
          const bool same =
              before[i].ok() == after.ok() &&
              (!before[i].ok()
                   ? before[i].status().code() == after.status().code()
                   : SameCells(*before[i], *after));
          if (!same) {
            ++divergences;
            metrics.counter("fuzz.divergences")->Add(1);
            std::fprintf(stderr,
                         "REOPEN DIVERGENCE (catalog seed %llu) on:\n  %s\n",
                         static_cast<unsigned long long>(catalog_seed),
                         sqls[i].c_str());
          }
        }
      }
      std::error_code ec;
      fs::remove_all(dir, ec);
      std::fprintf(stderr, "  ... reopen round %llu/%llu: %zu queries\n",
                   static_cast<unsigned long long>(round + 1),
                   static_cast<unsigned long long>(args.reopen),
                   sqls.size());
    }
  }

  std::printf("%s\n", metrics.ToJson().c_str());
  std::printf("fuzz: %llu queries x %zu configs, %llu divergence(s)\n",
              static_cast<unsigned long long>(queries_run),
              StandardConfigs().size(),
              static_cast<unsigned long long>(divergences));
  if (args.queries > 0) {
    std::printf("fuzz: %llu of %llu generated queries got a spool\n",
                static_cast<unsigned long long>(spooled),
                static_cast<unsigned long long>(generated));
    std::printf(
        "fuzz: %llu of %llu generated queries ran the relational multiply "
        "kernel, %llu fell back\n",
        static_cast<unsigned long long>(multiply_kernel),
        static_cast<unsigned long long>(generated),
        static_cast<unsigned long long>(multiply_fallback));
    std::printf(
        "fuzz: generated products, kernel / fallback: tuple %llu / %llu, "
        "vector %llu / %llu\n",
        static_cast<unsigned long long>(coding_kernel[0]),
        static_cast<unsigned long long>(coding_fallback[0]),
        static_cast<unsigned long long>(coding_kernel[1]),
        static_cast<unsigned long long>(coding_fallback[1]));
    std::printf(
        "fuzz: generated self products, kernel / fallback: %llu / %llu\n",
        static_cast<unsigned long long>(self_kernel),
        static_cast<unsigned long long>(self_fallback));
  }
  return divergences == 0 ? 0 : 1;
}
