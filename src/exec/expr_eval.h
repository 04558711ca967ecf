#ifndef RADB_EXEC_EXPR_EVAL_H_
#define RADB_EXEC_EXPR_EVAL_H_

#include <map>

#include "binder/bound_expr.h"
#include "common/result.h"
#include "types/value.h"

namespace radb {

/// Evaluates a bound expression against a row. Column references must
/// already have been rewritten to row positions (see
/// RewriteToPositions); `slot` is interpreted as an index into `row`.
/// matrix_multiply(trans_matrix(x), x) evaluates x once and goes to
/// GramProduct (catalog/function_registry.h), which keeps its result.
Result<Value> EvalExpr(const BoundExpr& expr, const Row& row);

/// EvalExpr with every call run as written: the reference evaluator's
/// form, so the fuzzer checks the fused Gram call against the plain
/// transpose and multiply.
Result<Value> EvalExprAsWritten(const BoundExpr& expr, const Row& row);

/// Clones `expr` rewriting every column reference from slot id to row
/// position using `layout` (slot -> position). BindError if a
/// referenced slot is missing from the layout.
Result<BoundExprPtr> RewriteToPositions(
    const BoundExpr& expr, const std::map<size_t, size_t>& layout);

}  // namespace radb

#endif  // RADB_EXEC_EXPR_EVAL_H_
