#ifndef RADB_CATALOG_FUNCTION_REGISTRY_H_
#define RADB_CATALOG_FUNCTION_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/signature.h"
#include "types/value.h"

namespace radb {

/// Implementation of one built-in scalar function. Arguments arrive
/// already kind-checked against the signature; implementations still
/// validate runtime dimensions (unspecified dims compile but may fail
/// at execution — paper §3.1).
using ScalarFn =
    std::function<Result<Value>(const std::vector<Value>&)>;

/// A registered built-in: templated type signature (drives binding and
/// the optimizer's size inference, §4.2) plus the evaluator.
///
/// `sparse_aware` marks evaluators that understand sparsely-represented
/// MATRIX values. For everything else (including application UDFs),
/// Register() installs a shim that densifies sparse arguments before
/// calling eval, so `.matrix()` inside any implementation stays safe.
struct BuiltinFunction {
  FunctionSignature signature;
  ScalarFn eval;
  bool sparse_aware = false;
};

/// Registry of the paper's built-in functions over LABELED_SCALAR /
/// VECTOR / MATRIX (matrix_multiply, outer_product, diag, ...) plus a
/// few scalar math helpers. Names are case-insensitive.
class FunctionRegistry {
 public:
  /// The process-wide registry with every built-in registered.
  static const FunctionRegistry& Global();

  FunctionRegistry();

  /// CatalogError when the name is unknown.
  Result<const BuiltinFunction*> Lookup(const std::string& name) const;

  bool Contains(const std::string& name) const;

  /// Sorted list of registered names (for error messages / docs).
  std::vector<std::string> Names() const;

  size_t size() const { return fns_.size(); }

  /// Registers a function; replaces any same-named entry. Exposed so
  /// applications can add their own UDF-style built-ins.
  void Register(BuiltinFunction fn);

 private:
  std::map<std::string, BuiltinFunction> fns_;
};

/// The value of matrix_multiply(trans_matrix(x), x), given x once (the
/// fused Gram call, DESIGN.md §18). A dense MATRIX whose elements are
/// all finite takes la::TransposeSelfMultiply, whose bits equal the
/// transpose and GEMM's there; anything else (a sparse value, ±inf or
/// NaN) runs the two registered calls, so it keeps their results.
Result<Value> GramProduct(const Value& x);

}  // namespace radb

#endif  // RADB_CATALOG_FUNCTION_REGISTRY_H_
