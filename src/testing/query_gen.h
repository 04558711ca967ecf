#ifndef RADB_TESTING_QUERY_GEN_H_
#define RADB_TESTING_QUERY_GEN_H_

#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "testing/catalog_gen.h"

namespace radb::testing {

/// A generated query kept as structured clause fragments rather than a
/// flat SQL string, so the shrinker can delete relations / conjuncts /
/// select items independently and re-render.
struct QuerySpec {
  struct FromItem {
    std::string table;  // the base table read, derived tables included
    std::string alias;  // r0..r4, single digit, so "rK." searches are exact
    /// Non-empty for a derived table: the subquery rendered as
    /// "(derived) AS alias" in place of the table name.
    std::string derived{};
  };
  struct SelectItem {
    std::string text;
    /// True when the item's type supports Value::Compare (int, double,
    /// bool, string) — the precondition for using it as an ORDER BY
    /// key and hence for a deterministic LIMIT.
    bool orderable = false;
  };
  struct OrderKey {
    size_t item;  // index into select_items (rendered alias oN)
    bool desc;
  };

  std::vector<FromItem> from;
  std::vector<SelectItem> select_items;
  std::vector<std::string> where;     // conjunct texts, ANDed
  std::vector<std::string> group_by;  // group key texts
  bool distinct = false;
  std::vector<OrderKey> order_by;
  std::optional<int64_t> limit;

  /// Renders "SELECT ... AS o0, ... FROM t AS r0, ... WHERE ...".
  std::string ToSql() const;
};

/// Generates one random query over the catalog: 1-5 relations
/// (repeats allowed, always aliased), equi-join conjuncts on INTEGER
/// columns, scalar and LA expressions, optional GROUP BY with the full
/// aggregate roster, optional DISTINCT / ORDER BY / LIMIT. About one
/// query in eight starts its FROM list with one aggregating derived
/// table read twice, as r0 and r1 joined on its key — the repeated
/// subtree the executor computes once (a spool).
///
/// Determinism-by-construction rules (DESIGN.md §9): every generated
/// expression is total (no division, no partial builtins, indexes in
/// range), all data-driven arithmetic is exact in double precision,
/// ORDER BY uses only orderable select items, and LIMIT appears only
/// when ORDER BY covers every select item (so ties are full-row
/// duplicates and any stable order yields the same multiset prefix).
QuerySpec GenerateQuery(const CatalogSpec& catalog, Rng* rng);

/// The matrix products GenerateMultiplyQuery writes.
enum class ProductShape {
  kTuple,        // SUM(r0.v * r1.v) over a join on the keys
  kMaskedTuple,  // the same, grouped by both indexes, masked on them
  kVector,       // SUM/MIN/MAX(inner_product(..)) over a cross join
  kSelf,         // a tuple product of one relation with itself
  kCrossed,      // the same relation in crossed roles
  kGram,         // matrix_multiply(trans_matrix(m), m), the block coding
};

/// Generates a matrix product the optimizer rewrites (DESIGN.md §19).
///   - kTuple: SUM(r0.v * r1.v) over r0 and r1 joined on their keys,
///     grouped by an INTEGER index of each side or of one side, in
///     either operand and key order, optionally filtered, ordered and
///     limited. A side reads a raw table with a DOUBLE column — whose
///     repeated (key, index) cells make the executor fall back to the
///     join — or a derived table with one cell per (key, index), such
///     as "SELECT d.k AS k, d.c0 AS i, SUM(d.c1 + 0.0) AS v FROM t AS
///     d GROUP BY d.k, d.c0", which the tile kernel takes (unless its
///     values are NULL: about one derived side in six also adds NULL).
///   - kMaskedTuple: grouped by both indexes, with one or two
///     comparisons between them (<>, <, <=, >, >=) in the WHERE clause.
///   - kVector: SUM, MIN or MAX of inner_product over two VECTOR
///     columns of one length, on a cross join with no, one or two
///     comparisons between INTEGER columns of the two sides, grouped
///     by an INTEGER column of one side or of each. About one side in
///     six reads NULL vectors, which make the executor fall back. A
///     catalog without a VECTOR column gets a kMaskedTuple query.
///   - kSelf: r0 and r1 are one raw or derived table in the same roles,
///     grouped by both indexes (masked one time in three), with any
///     filter on both sides alike: a self product, which reads its one
///     input once (DESIGN.md §19). Raw tables repeat cells, so the
///     fallback joins the input with a copy of itself. A raw side whose
///     index is its key becomes a derived table, here and in kCrossed.
///   - kCrossed: the same relation with r1's key and index swapped
///     (r0.k = r1.i, grouped by r0.i and r1.k): a product of one
///     relation that is not a self product.
///   - kGram: matrix_multiply(trans_matrix(m), m) over a MATRIX column,
///     or over sparsify(m) one time in four, per row or under SUM
///     (grouped by the key or not): the block coding of XᵀX, which
///     evaluates m once and may run as TSMM. A catalog without a
///     MATRIX column gets a kSelf query.
/// kTuple draws what it always drew, so a stream of kTuple queries is
/// the same for a seed as before the other shapes existed.
QuerySpec GenerateMultiplyQuery(const CatalogSpec& catalog, Rng* rng,
                                ProductShape shape = ProductShape::kTuple);

/// Curated column subsets of the radb_ system tables the fuzzer may
/// query (rows are always empty — only the schemas matter). This is a
/// deliberate SUBSET of the live columns: the contract is that every
/// listed column binds with the listed type kind; the engine may add
/// columns freely without touching the fuzzer. systab_test pins each
/// schema against the live tables so drift is caught immediately.
std::vector<TableSpec> SystemTableFuzzSchemas();

/// Generates a query over one system table, optionally joined against
/// a user table from `catalog`. System-table contents are volatile
/// (metrics move between runs, each config's query history differs),
/// so the differ compares these in SHAPE mode — status codes and
/// result schemas across configurations, never cell values. Generated
/// shapes: plain column selections, COUNT(*)/MIN/MAX aggregates, and
/// INTEGER-column join predicates against the user table's `k` key.
QuerySpec GenerateSystemTableQuery(const CatalogSpec& catalog, Rng* rng);

}  // namespace radb::testing

#endif  // RADB_TESTING_QUERY_GEN_H_
