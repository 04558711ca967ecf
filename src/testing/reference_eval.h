#ifndef RADB_TESTING_REFERENCE_EVAL_H_
#define RADB_TESTING_REFERENCE_EVAL_H_

#include <string>

#include "api/database.h"
#include "catalog/catalog.h"
#include "common/result.h"

namespace radb::testing {

/// Brute-force reference executor: parses and binds `sql` against
/// `catalog`, then evaluates the bound query with the simplest
/// possible strategy — a nested-loop cross product over the FROM list
/// with every WHERE conjunct applied as a post-filter, single-phase
/// hash aggregation, and no optimizer, no partitioning, no thread
/// pool. Deliberately shares only the leaf components with the real
/// engine (parser, binder, EvalExprAsWritten, the Aggregator registry,
/// Value semantics) so that plan-level bugs — join ordering, early
/// projection, shuffle/merge logic, two-phase aggregation — cannot
/// cancel out.
///
/// Row order of the result is unspecified; callers must compare in
/// sorted canonical form (see Differ::Normalized).
Result<ResultSet> ReferenceExecute(const std::string& sql,
                                   const Catalog& catalog);

}  // namespace radb::testing

#endif  // RADB_TESTING_REFERENCE_EVAL_H_
