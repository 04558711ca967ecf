#ifndef RADB_TESTING_DIFFER_H_
#define RADB_TESTING_DIFFER_H_

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "testing/catalog_gen.h"
#include "testing/query_gen.h"

namespace radb::testing {

/// One engine configuration under differential test.
struct FuzzConfig {
  std::string name;
  Database::Config config;
};

/// The six standard configurations: {DP join search, greedy join
/// search, early projection off} x {1 thread, 8 threads}. All use 8
/// simulated workers so shuffle/merge paths are always exercised
/// (configs[0], dp-1t, is the baseline). The result cache is off, so
/// every run executes.
std::vector<FuzzConfig> StandardConfigs();

/// Canonicalizes a row set for order-insensitive comparison: rows are
/// sorted by a total order over values (kind rank first — NULL < BOOL
/// < INTEGER < DOUBLE < STRING < LABELED < VECTOR < MATRIX — then
/// value-wise within a kind, element-wise for LA types). Generated
/// data contains no NaNs, so the order is total.
RowSet Normalized(RowSet rows);

/// Cell-exact comparison of two normalized row sets (Value::Equals:
/// Int(1) != Double(1.0), NULLs equal, -0.0 == 0.0).
bool SameCells(const RowSet& a, const RowSet& b);

/// Outcome of running one query through every configuration.
struct DiffOutcome {
  bool diverged = false;
  /// Human-readable divergence report (empty when !diverged).
  std::string report;
};

/// Holds one Database per FuzzConfig, all loaded with the same
/// CatalogSpec, plus the reference evaluator. A query "passes" when
/// all engine configurations and the reference agree on either the
/// exact multiset of result cells or the error StatusCode.
class Differ {
 public:
  explicit Differ(const CatalogSpec& spec);

  /// Non-OK when catalog loading failed (generator bug; fatal).
  const Status& init_status() const { return init_status_; }

  /// Runs `sql` through the reference and every configuration and
  /// compares. Row order is normalized away unless the query's LIMIT
  /// rules make it semantically binding (see query_gen.h). Then reruns
  /// it under a 64 KB budget on dp-1t: it must match the reference or
  /// fail ResourceExhausted.
  ///
  /// Queries mentioning radb_ system tables are compared in SHAPE
  /// mode instead: their contents are volatile (each configuration's
  /// metric values and query history legitimately differ), so the
  /// oracle is "all configurations agree on the status code, and on
  /// success on the result schema (column count, names, type kinds)".
  /// The reference evaluator is skipped — it has no system tables.
  DiffOutcome RunOne(const std::string& sql);

  /// Cumulative optimizer.plans_considered per configuration, read
  /// from each Database's metrics registry.
  std::vector<uint64_t> PlansConsidered() const;

  /// Cumulative exec.spool_reuses of the baseline configuration: a
  /// query that raises it had a repeated subtree served from a spool.
  uint64_t SpoolReuses() const;
  /// Cumulative exec.relational_multiplies and
  /// exec.relational_multiply_fallbacks of the baseline configuration:
  /// a query that raises them ran a relational multiply on the tile
  /// kernel, or fell back to the join (DESIGN.md §19).
  uint64_t RelationalMultiplies() const;
  uint64_t RelationalMultiplyFallbacks() const;
  /// Whether the baseline configuration plans `sql` with a self
  /// product: a tuple-coded product of one input with itself.
  bool PlansSelfProduct(const std::string& sql) const;

  size_t num_configs() const { return dbs_.size(); }

 private:
  /// The shape-mode comparison (see RunOne).
  DiffOutcome RunOneSystem(const std::string& sql);
  /// A counter of the baseline configuration's metrics registry.
  uint64_t BaselineCounter(const char* name) const;

  std::vector<FuzzConfig> configs_;
  std::vector<std::unique_ptr<Database>> dbs_;
  Status init_status_;
};

/// Outcome of a DDL-interleaved cache differential run.
struct CacheDiffOutcome {
  bool diverged = false;
  /// Human-readable divergence report (empty when !diverged).
  std::string report;
  /// Statements executed on EACH of the two databases.
  size_t statements_run = 0;
};

/// Differential test of the caching layer: two identically loaded
/// Databases — one with the plan and result caches enabled (with a
/// deliberately small result budget so eviction is exercised), one
/// with both disabled — run the same statement stream and must agree
/// on every outcome (status code, or cell-exact normalized rows).
///
/// The stream is built to stress stale-cache bugs specifically: a
/// small pool of hot queries is replayed so the cached side serves
/// plan and result hits, interleaved with INSERT churn, CREATE/DROP
/// cycles of a scratch table (re-creating the same name with
/// different contents — the classic cache-aliasing trap), and
/// PREPARE/EXECUTE/DEALLOCATE rounds; after every churn statement the
/// whole hot pool is replayed and compared.
CacheDiffOutcome RunCacheDiffRounds(const CatalogSpec& spec, uint64_t seed,
                                    size_t rounds);

/// Greedily minimizes a diverging (catalog, query) pair: drops
/// relations, conjuncts, select items, ORDER BY / LIMIT / DISTINCT /
/// GROUP BY clauses, table rows and unreferenced tables, keeping each
/// mutation only if the divergence persists. Returns the smallest
/// still-diverging pair.
struct Repro {
  CatalogSpec catalog;
  QuerySpec query;
};
Repro Shrink(CatalogSpec catalog, QuerySpec query);

/// Renders a standalone repro: the shrunk SQL, the catalog seed and
/// dump, and the per-configuration divergence report — everything
/// needed to paste into regression_seeds.h.
std::string ReproReport(const Repro& repro);

}  // namespace radb::testing

#endif  // RADB_TESTING_DIFFER_H_
