#include "catalog/function_registry.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "la/matrix.h"
#include "la/sparse/sparse.h"
#include "la/vector.h"
#include "obs/metrics_registry.h"

namespace radb {

namespace {

using TT = TypeTemplate;
using DP = DimParam;
using la::sparse::CsrMatrix;
using la::sparse::Semiring;

Status BadIndex(const char* fn, int64_t idx, size_t limit) {
  return Status::ExecutionError(std::string(fn) + ": index " +
                                std::to_string(idx) +
                                " out of range (size " +
                                std::to_string(limit) + ")");
}

/// Wraps a Result<la::Vector>-producing kernel into a Value.
Result<Value> WrapVec(Result<la::Vector> r) {
  if (!r.ok()) return r.status();
  return Value::FromVector(std::move(r).value());
}

Result<Value> WrapMat(Result<la::Matrix> r) {
  if (!r.ok()) return r.status();
  return Value::FromMatrix(std::move(r).value());
}

void SparseMetric(const char* name) {
  if (obs::MetricsRegistry* reg = obs::GlobalMetrics()) reg->Add(name, 1);
}

/// Reads the optional trailing semiring-name argument; absent or NULL
/// means plus-times.
Result<Semiring> SemiringArg(const std::vector<Value>& args, size_t idx) {
  if (args.size() <= idx || args[idx].is_null()) {
    return la::sparse::PlusTimes();
  }
  if (args[idx].kind() != TypeKind::kString) {
    return Status::TypeError("semiring name must be a string");
  }
  return la::sparse::SemiringByName(args[idx].string_value());
}

/// CSR view of a MATRIX value in either representation. `storage`
/// holds the conversion when the value is dense.
const CsrMatrix& CsrOf(const Value& v, CsrMatrix* storage) {
  if (v.is_sparse_matrix()) return v.sparse_matrix();
  *storage = CsrMatrix::FromDense(v.matrix());
  return *storage;
}

/// matrix_multiply(a, b [, semiring]): the sparse kernels when an
/// input is sparsely represented, the dense kernel otherwise. The
/// result is sparsely represented only when an input was explicitly
/// sparse.
Result<Value> MultiplyDispatch(const std::vector<Value>& args) {
  RADB_ASSIGN_OR_RETURN(Semiring s, SemiringArg(args, 2));
  const Value& av = args[0];
  const Value& bv = args[1];
  const bool a_sp = av.is_sparse_matrix();
  const bool b_sp = bv.is_sparse_matrix();
  if (a_sp && b_sp) {
    SparseMetric("la.sparse.dispatch_sparse");
    RADB_ASSIGN_OR_RETURN(
        CsrMatrix c, la::sparse::SpGemm(av.sparse_matrix(),
                                        bv.sparse_matrix(), s));
    return Value::FromSparseMatrix(std::move(c));
  }
  if (a_sp) {
    SparseMetric("la.sparse.dispatch_sparse");
    RADB_ASSIGN_OR_RETURN(
        la::Matrix c, la::sparse::SpMm(av.sparse_matrix(), bv.matrix(), s));
    return Value::FromMatrix(std::move(c));
  }
  if (b_sp) {
    SparseMetric("la.sparse.dispatch_sparse");
    RADB_ASSIGN_OR_RETURN(
        CsrMatrix c, la::sparse::SpGemm(CsrMatrix::FromDense(av.matrix()),
                                        bv.sparse_matrix(), s));
    return Value::FromSparseMatrix(std::move(c));
  }
  SparseMetric("la.sparse.dispatch_dense");
  return WrapMat(la::sparse::DenseMultiply(av.matrix(), bv.matrix(), s));
}

Result<Value> MatVecDispatch(const std::vector<Value>& args) {
  RADB_ASSIGN_OR_RETURN(Semiring s, SemiringArg(args, 2));
  if (args[0].is_sparse_matrix()) {
    SparseMetric("la.sparse.dispatch_sparse");
    return WrapVec(
        la::sparse::SpMV(args[0].sparse_matrix(), args[1].vector(), s));
  }
  return WrapVec(la::sparse::DenseMatVec(args[0].matrix(),
                                         args[1].vector(), s));
}

Result<Value> VecMatDispatch(const std::vector<Value>& args) {
  RADB_ASSIGN_OR_RETURN(Semiring s, SemiringArg(args, 2));
  if (args[1].is_sparse_matrix()) {
    SparseMetric("la.sparse.dispatch_sparse");
    return WrapVec(
        la::sparse::SpVM(args[0].vector(), args[1].sparse_matrix(), s));
  }
  return WrapVec(la::sparse::DenseVecMat(args[0].vector(),
                                         args[1].matrix(), s));
}

}  // namespace

Result<Value> GramProduct(const Value& x) {
  if (!x.is_sparse_matrix()) {
    const la::Matrix& m = x.matrix();
    if (std::all_of(m.data(), m.data() + m.rows() * m.cols(),
                    [](double e) { return std::isfinite(e); })) {
      SparseMetric("la.sparse.dispatch_dense");  // as MultiplyDispatch
      return Value::FromMatrix(la::TransposeSelfMultiply(m));
    }
  }
  const FunctionRegistry& fns = FunctionRegistry::Global();
  RADB_ASSIGN_OR_RETURN(const BuiltinFunction* transpose,
                        fns.Lookup("trans_matrix"));
  RADB_ASSIGN_OR_RETURN(const BuiltinFunction* multiply,
                        fns.Lookup("matrix_multiply"));
  RADB_ASSIGN_OR_RETURN(Value t, transpose->eval({x}));
  return multiply->eval({std::move(t), x});
}

const FunctionRegistry& FunctionRegistry::Global() {
  static const FunctionRegistry* kRegistry = new FunctionRegistry();
  return *kRegistry;
}

Result<const BuiltinFunction*> FunctionRegistry::Lookup(
    const std::string& name) const {
  auto it = fns_.find(ToLower(name));
  if (it == fns_.end()) {
    return Status::CatalogError("unknown function: " + name);
  }
  return &it->second;
}

bool FunctionRegistry::Contains(const std::string& name) const {
  return fns_.count(ToLower(name)) > 0;
}

std::vector<std::string> FunctionRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(fns_.size());
  for (const auto& [name, fn] : fns_) names.push_back(name);
  return names;
}

void FunctionRegistry::Register(BuiltinFunction fn) {
  if (!fn.sparse_aware) {
    // Densify shim: the single fn->eval choke point (expr_eval) serves
    // the operators, the batch engine's per-lane stages, and the
    // reference evaluator, so wrapping here makes every non-sparse-
    // aware builtin (and app UDF) transparently accept sparse values.
    fn.eval = [inner = std::move(fn.eval)](const std::vector<Value>& args)
        -> Result<Value> {
      bool any_sparse = false;
      for (const Value& v : args) {
        if (v.is_sparse_matrix()) {
          any_sparse = true;
          break;
        }
      }
      if (!any_sparse) return inner(args);
      SparseMetric("la.sparse.densify_fallback");
      std::vector<Value> dense;
      dense.reserve(args.size());
      for (const Value& v : args) dense.push_back(v.Densified());
      return inner(dense);
    };
  }
  fns_[ToLower(fn.signature.name())] = std::move(fn);
}

FunctionRegistry::FunctionRegistry() {
  auto add = [this](std::string name, std::vector<TT> params, TT result,
                    ScalarFn eval) {
    Register(BuiltinFunction{
        FunctionSignature(std::move(name), std::move(params), result),
        std::move(eval)});
  };
  // Sparse-aware builtin with optional trailing parameters (see
  // FunctionSignature's min_args overload).
  auto add_sparse = [this](std::string name, std::vector<TT> params,
                           size_t min_args, TT result, ScalarFn eval) {
    Register(BuiltinFunction{
        FunctionSignature(std::move(name), std::move(params), min_args,
                          result),
        std::move(eval), /*sparse_aware=*/true});
  };
  const TT kDouble = TT::Scalar(TypeKind::kDouble);
  const TT kInt = TT::Scalar(TypeKind::kInteger);
  const TT kBool = TT::Scalar(TypeKind::kBoolean);
  const TT kString = TT::Scalar(TypeKind::kString);
  const TT kLabeled = TT::Scalar(TypeKind::kLabeledScalar);

  // --- Core multiplication family (paper §3.1), generalized over a
  // --- semiring and density-adaptive (sparse subsystem) ---
  add_sparse("matrix_multiply",
             {TT::Mat(DP::Var('a'), DP::Var('b')),
              TT::Mat(DP::Var('b'), DP::Var('c')), kString},
             2, TT::Mat(DP::Var('a'), DP::Var('c')), MultiplyDispatch);
  add_sparse("matrix_vector_multiply",
             {TT::Mat(DP::Var('a'), DP::Var('b')), TT::Vec(DP::Var('b')),
              kString},
             2, TT::Vec(DP::Var('a')), MatVecDispatch);
  add_sparse("vector_matrix_multiply",
             {TT::Vec(DP::Var('a')), TT::Mat(DP::Var('a'), DP::Var('b')),
              kString},
             2, TT::Vec(DP::Var('b')), VecMatDispatch);
  add("outer_product", {TT::Vec(DP::Var('a')), TT::Vec(DP::Var('b'))},
      TT::Mat(DP::Var('a'), DP::Var('b')),
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::FromMatrix(
            la::OuterProduct(args[0].vector(), args[1].vector()));
      });
  add("inner_product", {TT::Vec(DP::Var('a')), TT::Vec(DP::Var('a'))},
      kDouble, [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(
            double d, la::InnerProduct(args[0].vector(), args[1].vector()));
        return Value::Double(d);
      });

  // --- Structure / shape (paper §3.1, §4.2) ---
  add("trans_matrix", {TT::Mat(DP::Var('a'), DP::Var('b'))},
      TT::Mat(DP::Var('b'), DP::Var('a')),
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::FromMatrix(la::Transpose(args[0].matrix()));
      });
  add("matrix_inverse", {TT::Mat(DP::Var('a'), DP::Var('a'))},
      TT::Mat(DP::Var('a'), DP::Var('a')),
      [](const std::vector<Value>& args) {
        return WrapMat(la::Inverse(args[0].matrix()));
      });
  add("matrix_solve",
      {TT::Mat(DP::Var('a'), DP::Var('a')), TT::Vec(DP::Var('a'))},
      TT::Vec(DP::Var('a')), [](const std::vector<Value>& args) {
        return WrapVec(la::Solve(args[0].matrix(), args[1].vector()));
      });
  add("cholesky", {TT::Mat(DP::Var('a'), DP::Var('a'))},
      TT::Mat(DP::Var('a'), DP::Var('a')),
      [](const std::vector<Value>& args) {
        return WrapMat(la::Cholesky(args[0].matrix()));
      });
  add("matrix_solve_spd",
      {TT::Mat(DP::Var('a'), DP::Var('a')), TT::Vec(DP::Var('a'))},
      TT::Vec(DP::Var('a')), [](const std::vector<Value>& args) {
        return WrapVec(la::SolveSpd(args[0].matrix(), args[1].vector()));
      });
  add("diag", {TT::Mat(DP::Var('a'), DP::Var('a'))}, TT::Vec(DP::Var('a')),
      [](const std::vector<Value>& args) {
        return WrapVec(la::Diagonal(args[0].matrix()));
      });
  add("diag_matrix", {TT::Vec(DP::Var('a'))},
      TT::Mat(DP::Var('a'), DP::Var('a')),
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::FromMatrix(la::DiagonalMatrix(args[0].vector()));
      });
  add("trace", {TT::Mat(DP::Var('a'), DP::Var('a'))}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(double t, la::Trace(args[0].matrix()));
        return Value::Double(t);
      });
  add("determinant", {TT::Mat(DP::Var('a'), DP::Var('a'))}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(double d, la::Determinant(args[0].matrix()));
        return Value::Double(d);
      });
  add("row_matrix", {TT::Vec(DP::Var('a'))}, TT::Mat(DP::Lit(1), DP::Var('a')),
      [](const std::vector<Value>& args) -> Result<Value> {
        const la::Vector& v = args[0].vector();
        la::Matrix m(1, v.size());
        m.SetRow(0, v);
        return Value::FromMatrix(std::move(m));
      });
  add("col_matrix", {TT::Vec(DP::Var('a'))}, TT::Mat(DP::Var('a'), DP::Lit(1)),
      [](const std::vector<Value>& args) -> Result<Value> {
        const la::Vector& v = args[0].vector();
        la::Matrix m(v.size(), 1);
        m.SetCol(0, v);
        return Value::FromMatrix(std::move(m));
      });

  // --- Labels: moving between normalized and LA types (paper §3.3) ---
  add("label_scalar", {kDouble, kInt}, kLabeled,
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
        RADB_ASSIGN_OR_RETURN(int64_t label, args[1].AsInt());
        return Value::Labeled(v, label);
      });
  add("label_vector", {TT::Vec(DP::Var('a')), kInt}, TT::Vec(DP::Var('a')),
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(int64_t label, args[1].AsInt());
        return Value::FromSharedVector(args[0].vector_value().vec, label);
      });
  add("get_scalar", {TT::Vec(DP::Any()), kInt}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        const la::Vector& v = args[0].vector();
        RADB_ASSIGN_OR_RETURN(int64_t i, args[1].AsInt());
        if (i < 0 || static_cast<size_t>(i) >= v.size()) {
          return BadIndex("get_scalar", i, v.size());
        }
        return Value::Double(v[static_cast<size_t>(i)]);
      });
  // Unlabeled values report -1, the documented "no label" answer;
  // internally the unset state is kNoLabel so genuinely negative user
  // labels stay distinguishable.
  add("get_label", {kLabeled}, kInt,
      [](const std::vector<Value>& args) -> Result<Value> {
        const int64_t label = args[0].labeled().label;
        return Value::Int(label == kNoLabel ? -1 : label);
      });
  add("get_vector_label", {TT::Vec(DP::Any())}, kInt,
      [](const std::vector<Value>& args) -> Result<Value> {
        const int64_t label = args[0].vector_value().label;
        return Value::Int(label == kNoLabel ? -1 : label);
      });
  add("labeled_value", {kLabeled}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Double(args[0].labeled().value);
      });

  // --- Element access ---
  add("get_entry", {TT::Mat(DP::Any(), DP::Any()), kInt, kInt}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        const la::Matrix& m = args[0].matrix();
        RADB_ASSIGN_OR_RETURN(int64_t r, args[1].AsInt());
        RADB_ASSIGN_OR_RETURN(int64_t c, args[2].AsInt());
        if (r < 0 || static_cast<size_t>(r) >= m.rows()) {
          return BadIndex("get_entry(row)", r, m.rows());
        }
        if (c < 0 || static_cast<size_t>(c) >= m.cols()) {
          return BadIndex("get_entry(col)", c, m.cols());
        }
        return Value::Double(
            m.At(static_cast<size_t>(r), static_cast<size_t>(c)));
      });
  add("get_row", {TT::Mat(DP::Var('a'), DP::Var('b')), kInt},
      TT::Vec(DP::Var('b')),
      [](const std::vector<Value>& args) -> Result<Value> {
        const la::Matrix& m = args[0].matrix();
        RADB_ASSIGN_OR_RETURN(int64_t r, args[1].AsInt());
        if (r < 0 || static_cast<size_t>(r) >= m.rows()) {
          return BadIndex("get_row", r, m.rows());
        }
        return Value::FromVector(m.Row(static_cast<size_t>(r)));
      });
  add("get_col", {TT::Mat(DP::Var('a'), DP::Var('b')), kInt},
      TT::Vec(DP::Var('a')),
      [](const std::vector<Value>& args) -> Result<Value> {
        const la::Matrix& m = args[0].matrix();
        RADB_ASSIGN_OR_RETURN(int64_t c, args[1].AsInt());
        if (c < 0 || static_cast<size_t>(c) >= m.cols()) {
          return BadIndex("get_col", c, m.cols());
        }
        return Value::FromVector(m.Col(static_cast<size_t>(c)));
      });

  // --- Constructors whose sizes are value-dependent (typed [][]) ---
  add("identity_matrix", {kInt}, TT::Mat(DP::Any(), DP::Any()),
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(int64_t n, args[0].AsInt());
        if (n < 0) return Status::InvalidArgument("identity_matrix: n < 0");
        return Value::FromMatrix(
            la::Matrix::Identity(static_cast<size_t>(n)));
      });
  add("zeros_matrix", {kInt, kInt}, TT::Mat(DP::Any(), DP::Any()),
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(int64_t r, args[0].AsInt());
        RADB_ASSIGN_OR_RETURN(int64_t c, args[1].AsInt());
        if (r < 0 || c < 0) {
          return Status::InvalidArgument("zeros_matrix: negative dimension");
        }
        return Value::FromMatrix(
            la::Matrix(static_cast<size_t>(r), static_cast<size_t>(c)));
      });
  add("zeros_vector", {kInt}, TT::Vec(DP::Any()),
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(int64_t n, args[0].AsInt());
        if (n < 0) return Status::InvalidArgument("zeros_vector: n < 0");
        return Value::FromVector(la::Vector(static_cast<size_t>(n)));
      });
  add("ones_vector", {kInt}, TT::Vec(DP::Any()),
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(int64_t n, args[0].AsInt());
        if (n < 0) return Status::InvalidArgument("ones_vector: n < 0");
        return Value::FromVector(la::Vector(static_cast<size_t>(n), 1.0));
      });

  // --- Introspection ---
  add("vector_size", {TT::Vec(DP::Any())}, kInt,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Int(static_cast<int64_t>(args[0].vector().size()));
      });
  add("matrix_rows", {TT::Mat(DP::Any(), DP::Any())}, kInt,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Int(static_cast<int64_t>(args[0].matrix().rows()));
      });
  add("matrix_cols", {TT::Mat(DP::Any(), DP::Any())}, kInt,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Int(static_cast<int64_t>(args[0].matrix().cols()));
      });

  // --- Reductions over a single LA object ---
  add("sum_vector", {TT::Vec(DP::Any())}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Double(args[0].vector().Sum());
      });
  add("min_vector", {TT::Vec(DP::Any())}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Double(args[0].vector().Min());
      });
  add("max_vector", {TT::Vec(DP::Any())}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Double(args[0].vector().Max());
      });
  add("argmin_vector", {TT::Vec(DP::Any())}, kInt,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Int(static_cast<int64_t>(args[0].vector().ArgMin()));
      });
  add("argmax_vector", {TT::Vec(DP::Any())}, kInt,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Int(static_cast<int64_t>(args[0].vector().ArgMax()));
      });
  add("norm2", {TT::Vec(DP::Any())}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Double(args[0].vector().Norm2());
      });
  add("sum_matrix", {TT::Mat(DP::Any(), DP::Any())}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Double(args[0].matrix().Sum());
      });
  add("min_matrix", {TT::Mat(DP::Any(), DP::Any())}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Double(args[0].matrix().Min());
      });
  add("max_matrix", {TT::Mat(DP::Any(), DP::Any())}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Double(args[0].matrix().Max());
      });
  add("norm_f", {TT::Mat(DP::Any(), DP::Any())}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::Double(args[0].matrix().NormF());
      });
  add("row_mins", {TT::Mat(DP::Var('a'), DP::Var('b'))}, TT::Vec(DP::Var('a')),
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::FromVector(args[0].matrix().RowMins());
      });
  add("row_maxs", {TT::Mat(DP::Var('a'), DP::Var('b'))}, TT::Vec(DP::Var('a')),
      [](const std::vector<Value>& args) -> Result<Value> {
        return Value::FromVector(args[0].matrix().RowMaxs());
      });

  // --- Indicator used instead of CASE (which this dialect lacks), ---
  // e.g. knocking out self-distances on the block diagonal:
  //   dm + diag_matrix(ones_vector(n) * (1e300 * eq_indicator(i, j)))
  add("eq_indicator", {kDouble, kDouble}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(double a, args[0].AsDouble());
        RADB_ASSIGN_OR_RETURN(double b, args[1].AsDouble());
        return Value::Double(a == b ? 1.0 : 0.0);
      });

  // --- Sparse representation and semiring kernels (src/la/sparse) ---
  add_sparse(
      "sparsify", {TT::Mat(DP::Var('a'), DP::Var('b')), kDouble}, 1,
      TT::Mat(DP::Var('a'), DP::Var('b')),
      [](const std::vector<Value>& args) -> Result<Value> {
        double threshold = 0.0;
        if (args.size() > 1 && !args[1].is_null()) {
          RADB_ASSIGN_OR_RETURN(threshold, args[1].AsDouble());
          if (threshold < 0.0) {
            return Status::InvalidArgument(
                "sparsify: threshold must be >= 0");
          }
        }
        if (args[0].is_sparse_matrix()) {
          if (threshold == 0.0) return args[0];  // already canonical
          return Value::FromSparseMatrix(CsrMatrix::FromDense(
              args[0].sparse_matrix().ToDense(), threshold));
        }
        return Value::FromSparseMatrix(
            CsrMatrix::FromDense(args[0].matrix(), threshold));
      });
  add_sparse("densify", {TT::Mat(DP::Var('a'), DP::Var('b'))}, 1,
             TT::Mat(DP::Var('a'), DP::Var('b')),
             [](const std::vector<Value>& args) -> Result<Value> {
               return args[0].Densified();
             });
  add_sparse("nnz", {TT::Mat(DP::Any(), DP::Any())}, 1, kInt,
             [](const std::vector<Value>& args) -> Result<Value> {
               if (args[0].is_sparse_matrix()) {
                 return Value::Int(
                     static_cast<int64_t>(args[0].sparse_matrix().nnz()));
               }
               return Value::Int(static_cast<int64_t>(
                   la::sparse::DenseNnz(args[0].matrix())));
             });
  add_sparse("is_sparse", {TT::Mat(DP::Any(), DP::Any())}, 1, kBool,
             [](const std::vector<Value>& args) -> Result<Value> {
               return Value::Bool(args[0].is_sparse_matrix());
             });
  add_sparse(
      "trans_self_multiply",
      {TT::Mat(DP::Var('a'), DP::Var('b')), kString}, 1,
      TT::Mat(DP::Var('b'), DP::Var('b')),
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(Semiring s, SemiringArg(args, 1));
        if (args[0].is_sparse_matrix()) {
          SparseMetric("la.sparse.dispatch_sparse");
          return Value::FromMatrix(
              la::sparse::SpTransposeSelfMultiply(args[0].sparse_matrix(),
                                                  s));
        }
        return Value::FromMatrix(
            la::sparse::DenseTransposeSelfMultiply(args[0].matrix(), s));
      });
  add_sparse(
      "elementwise_add",
      {TT::Mat(DP::Var('a'), DP::Var('b')),
       TT::Mat(DP::Var('a'), DP::Var('b')), kString},
      2, TT::Mat(DP::Var('a'), DP::Var('b')),
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(Semiring s, SemiringArg(args, 2));
        if (args[0].is_sparse_matrix() && args[1].is_sparse_matrix()) {
          SparseMetric("la.sparse.dispatch_sparse");
          RADB_ASSIGN_OR_RETURN(
              CsrMatrix c, la::sparse::EWiseAdd(args[0].sparse_matrix(),
                                                args[1].sparse_matrix(), s));
          return Value::FromSparseMatrix(std::move(c));
        }
        return WrapMat(la::sparse::DenseEWiseAdd(
            args[0].Densified().matrix(), args[1].Densified().matrix(), s));
      });
  add_sparse(
      "elementwise_multiply",
      {TT::Mat(DP::Var('a'), DP::Var('b')),
       TT::Mat(DP::Var('a'), DP::Var('b')), kString},
      2, TT::Mat(DP::Var('a'), DP::Var('b')),
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(Semiring s, SemiringArg(args, 2));
        if (args[0].is_sparse_matrix() && args[1].is_sparse_matrix()) {
          SparseMetric("la.sparse.dispatch_sparse");
          RADB_ASSIGN_OR_RETURN(
              CsrMatrix c, la::sparse::EWiseMul(args[0].sparse_matrix(),
                                                args[1].sparse_matrix(), s));
          return Value::FromSparseMatrix(std::move(c));
        }
        return WrapMat(la::sparse::DenseEWiseMul(
            args[0].Densified().matrix(), args[1].Densified().matrix(), s));
      });
  // Element-wise ⊕ over two fully-stored vectors; unlike the matrix
  // ops above this is LITERAL (a 0.0 entry is the number zero), which
  // is what iterated graph algorithms fold frontiers with.
  add_sparse("vector_elementwise_add",
             {TT::Vec(DP::Var('a')), TT::Vec(DP::Var('a')), kString}, 2,
             TT::Vec(DP::Var('a')),
             [](const std::vector<Value>& args) -> Result<Value> {
               RADB_ASSIGN_OR_RETURN(Semiring s, SemiringArg(args, 2));
               return WrapVec(la::sparse::VectorEWiseAdd(
                   args[0].vector(), args[1].vector(), s));
             });
  add_sparse(
      "matrix_mask",
      {TT::Mat(DP::Var('a'), DP::Var('b')),
       TT::Mat(DP::Var('a'), DP::Var('b')), kInt},
      2, TT::Mat(DP::Var('a'), DP::Var('b')),
      [](const std::vector<Value>& args) -> Result<Value> {
        bool complement = false;
        if (args.size() > 2 && !args[2].is_null()) {
          RADB_ASSIGN_OR_RETURN(int64_t c, args[2].AsInt());
          complement = c != 0;
        }
        CsrMatrix a_store, m_store;
        const CsrMatrix& a = CsrOf(args[0], &a_store);
        const CsrMatrix& m = CsrOf(args[1], &m_store);
        RADB_ASSIGN_OR_RETURN(CsrMatrix c,
                              la::sparse::Mask(a, m, complement));
        SparseMetric("la.sparse.dispatch_sparse");
        if (args[0].is_sparse_matrix()) {
          return Value::FromSparseMatrix(std::move(c));
        }
        return Value::FromMatrix(c.ToDense());
      });

  // --- Scalar math helpers ---
  add("abs_val", {kDouble}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
        return Value::Double(std::fabs(v));
      });
  add("sqrt_val", {kDouble}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
        if (v < 0) return Status::NumericError("sqrt of negative value");
        return Value::Double(std::sqrt(v));
      });
  add("exp_val", {kDouble}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
        return Value::Double(std::exp(v));
      });
  add("ln_val", {kDouble}, kDouble,
      [](const std::vector<Value>& args) -> Result<Value> {
        RADB_ASSIGN_OR_RETURN(double v, args[0].AsDouble());
        if (v <= 0) return Status::NumericError("ln of non-positive value");
        return Value::Double(std::log(v));
      });
}

}  // namespace radb
