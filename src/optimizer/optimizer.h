#ifndef RADB_OPTIMIZER_OPTIMIZER_H_
#define RADB_OPTIMIZER_OPTIMIZER_H_

#include <memory>

#include "binder/binder.h"
#include "common/result.h"
#include "obs/obs.h"
#include "plan/logical_plan.h"

namespace radb {

/// Cost-based optimizer. The pipeline is classical — predicate
/// pushdown, column pruning, join-order search — with the paper's two
/// additions (§4):
///
///  1. *LA-aware costing*: intermediate-result widths are computed
///     from the inferred MATRIX/VECTOR dimensions that templated
///     function signatures propagate, so an 80 MB-per-tuple join is
///     costed as such rather than as a generic attribute.
///  2. *Early (fused) projection*: a SELECT expression (or aggregate
///     argument / group key) whose inputs are all available at an
///     intermediate join is evaluated right there when doing so
///     shrinks the data — including plans that take a cross product
///     first, which is exactly how §4.1's (π(S × R)) ⋈ T plan beats
///     π((S ⋈ T) ⋈ R) by three orders of magnitude of intermediate
///     volume.
class Optimizer {
 public:
  struct Options {
    /// Master switch for the §4.1 rule (off = the "rule-based
    /// optimizer" strawman the paper compares against).
    bool enable_early_projection = true;
    /// When false, MATRIX/VECTOR columns are costed like any other
    /// attribute (fixed small width) — the "optimizer without access
    /// to good size information" of §4.1.
    bool la_aware_costing = true;
    /// Subset-DP join search is used up to this many relations;
    /// beyond it a greedy heuristic takes over.
    size_t dp_relation_limit = 10;
  };

  Optimizer() : options_(Options{}) {}
  explicit Optimizer(const Options& options) : options_(options) {}

  /// Produces an executable logical plan; consumes the bound query.
  Result<LogicalOpPtr> Plan(std::unique_ptr<BoundQuery> query) {
    return Plan(std::move(query), obs::ObsContext{});
  }
  /// As above, with tracing/metrics: emits per-rule sub-spans
  /// (join-order search, early projection) and counters such as
  /// optimizer.plans_considered.
  Result<LogicalOpPtr> Plan(std::unique_ptr<BoundQuery> query,
                            obs::ObsContext obs);

  const Options& options() const { return options_; }

 private:
  class PlanBuilder;
  Options options_;
};

}  // namespace radb

#endif  // RADB_OPTIMIZER_OPTIMIZER_H_
