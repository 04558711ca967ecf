#ifndef RADB_PLAN_LOGICAL_PLAN_H_
#define RADB_PLAN_LOGICAL_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "binder/bound_expr.h"
#include "storage/table.h"

namespace radb {

/// Description of one output column of a logical operator: which slot
/// it carries, its display name, and its inferred type (dimensions
/// included, which is what the LA-aware cost model consumes, §4).
struct SlotInfo {
  size_t slot = 0;
  std::string name;
  DataType type;
};

struct LogicalOp;
using LogicalOpPtr = std::unique_ptr<LogicalOp>;

/// Logical relational algebra node. One struct with a Kind tag keeps
/// tree surgery (the optimizer moves projections and predicates
/// around) straightforward.
struct LogicalOp {
  enum class Kind {
    kScan,       // base table
    kFilter,     // predicates over child slots
    kJoin,       // hash/cross join; equi keys + residual predicates
    kProject,    // computes exprs, defines fresh slots
    kAggregate,  // group-by + aggregate calls
    kDistinct,
    kSort,
    kLimit,
  };

  Kind kind = Kind::kScan;
  std::vector<LogicalOpPtr> children;

  // kScan
  std::shared_ptr<Table> table;
  std::string alias;
  /// Which table columns this scan emits (column pruning) — indexes
  /// into the table schema, parallel to `output`.
  std::vector<size_t> scan_columns;
  /// Index-scan annotation (filled by the optimizer's index-selection
  /// pass, empty = full scan): the chosen B+ tree index and inclusive
  /// key bounds, one pair per index key column. Open ends are encoded
  /// as INT64_MIN / INT64_MAX.
  std::string index_name;
  std::vector<int64_t> index_lo;
  std::vector<int64_t> index_hi;

  // kFilter
  std::vector<BoundExprPtr> predicates;

  // kJoin: equi_keys.first evaluates over the left child's slots,
  // .second over the right child's; residual over both.
  std::vector<std::pair<BoundExprPtr, BoundExprPtr>> equi_keys;
  std::vector<BoundExprPtr> residual;
  /// Index-nested-loop annotation: when true the right child is a bare
  /// indexed kScan and the executor probes its B+ tree with each left
  /// row's equi-key values instead of building a hash table.
  bool index_nl = false;

  // kProject: exprs[i] produces output[i].
  std::vector<BoundExprPtr> exprs;

  // kAggregate: group_exprs produce output[0..G), aggs produce the
  // rest.
  std::vector<BoundExprPtr> group_exprs;
  std::vector<AggCall> aggs;

  // kSort
  std::vector<std::pair<BoundExprPtr, bool>> sort_keys;  // expr, desc

  // kLimit
  int64_t limit = 0;

  /// Ordered description of the rows this operator produces.
  std::vector<SlotInfo> output;

  // Cost-model annotations (filled by the optimizer).
  double est_rows = 0.0;
  double est_row_bytes = 0.0;
  double est_cost = 0.0;  // cumulative

  /// Shared-subtree (spool) annotation, filled by the optimizer's
  /// post-pass: nonzero on every executed copy of a repeated subtree
  /// that holds a Join or Aggregate. The first copy in execution order
  /// runs and its result is held for the rest of the execution; each
  /// later copy (`spool_reuse`) is served from it without running its
  /// children. `spool_uses` counts the copies that execute, producer
  /// included; copies nested inside a reused copy never execute and
  /// are neither annotated nor counted.
  size_t spool_id = 0;
  size_t spool_uses = 0;
  bool spool_reuse = false;

  /// A matrix product written as a join and an aggregate (DESIGN.md
  /// §19), in one of two codings, grouped by an INTEGER column of each
  /// side (l.i, r.j) or of one side only:
  ///   - tuple: SUM(l.v * r.w) over an inner Join on one INTEGER key
  ///     pair l.k = r.k, with DOUBLE values;
  ///   - vector: SUM, MIN or MAX of inner_product(l.v, r.w) over a
  ///     cross join, with VECTOR values.
  /// Residual conjuncts that compare an INTEGER column of each side
  /// form the mask; in the tuple coding they compare l.i with r.j.
  /// Slots name columns of the Join's left (l) and right (r) child
  /// outputs.
  struct MultiplyShape {
    enum class Coding { kTuple, kVector };
    Coding coding = Coding::kTuple;
    size_t left_key = 0, right_key = 0;  // tuple coding only
    size_t left_value = 0, right_value = 0;
    std::optional<size_t> left_index, right_index;
    /// The right side's index is the first group key.
    bool right_index_first = false;
    /// One mask conjunct: l.left `op` r.right.
    struct MaskTerm {
      size_t left = 0, right = 0;
      CompareOp op = CompareOp::kNe;
    };
    std::vector<MaskTerm> mask;
    /// Tuple coding only: the Join's two inputs are one subtree with
    /// the same column roles, grouped by both indexes, so the product
    /// is a Gram product TᵀT of one tile. The executor runs the first
    /// input only.
    bool self = false;
  };
  /// Set on a matching Aggregate by the optimizer's post-pass (only
  /// with early projection on). The executor then runs the Join's two
  /// inputs (one, for a self product) and computes the product on the
  /// dense kernel, or hands the inputs to the Join and Aggregate when
  /// the data does not admit it.
  std::optional<MultiplyShape> multiply;

  /// Bytes this operator is estimated to produce (rows * row bytes).
  double EstOutputBytes() const { return est_rows * est_row_bytes; }

  /// Sum of output column byte widths from their types.
  double ComputeRowBytes() const;

  /// One-line description of this node alone (kind + salient exprs),
  /// no cost annotation, no children — the building block ToString and
  /// EXPLAIN ANALYZE share.
  std::string NodeLabel() const;

  /// Indented EXPLAIN-style rendering of the subtree.
  std::string ToString(int indent = 0) const;

  /// Deep copy (the join-order DP reuses subset plans in multiple
  /// candidate parents).
  LogicalOpPtr Clone() const;
};

/// Printable name of a plan-node kind ("Scan", "Join", ...).
const char* KindName(LogicalOp::Kind k);

LogicalOpPtr MakeScan(std::shared_ptr<Table> table, std::string alias,
                      std::vector<size_t> scan_columns,
                      std::vector<SlotInfo> output);

}  // namespace radb

#endif  // RADB_PLAN_LOGICAL_PLAN_H_
