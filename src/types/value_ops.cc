#include "types/value_ops.h"

#include <cmath>

namespace radb {

namespace {

bool IsScalarNumeric(TypeKind k) {
  return k == TypeKind::kInteger || k == TypeKind::kDouble ||
         k == TypeKind::kBoolean || k == TypeKind::kLabeledScalar;
}

double ApplyScalar(ArithOp op, double a, double b) {
  switch (op) {
    case ArithOp::kAdd:
      return a + b;
    case ArithOp::kSub:
      return a - b;
    case ArithOp::kMul:
      return a * b;
    case ArithOp::kDiv:
      return a / b;
  }
  return 0.0;
}

const char* OpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

Result<Value> VectorVectorArith(ArithOp op, const la::Vector& a,
                                const la::Vector& b) {
  Result<la::Vector> r = [&]() -> Result<la::Vector> {
    switch (op) {
      case ArithOp::kAdd:
        return la::Add(a, b);
      case ArithOp::kSub:
        return la::Sub(a, b);
      case ArithOp::kMul:
        return la::Mul(a, b);
      case ArithOp::kDiv:
        return la::Div(a, b);
    }
    return Status::Internal("bad op");
  }();
  if (!r.ok()) return r.status();
  return Value::FromVector(std::move(r).value());
}

Result<Value> MatrixMatrixArith(ArithOp op, const la::Matrix& a,
                                const la::Matrix& b) {
  Result<la::Matrix> r = [&]() -> Result<la::Matrix> {
    switch (op) {
      case ArithOp::kAdd:
        return la::Add(a, b);
      case ArithOp::kSub:
        return la::Sub(a, b);
      case ArithOp::kMul:
        return la::Mul(a, b);
      case ArithOp::kDiv:
        return la::Div(a, b);
    }
    return Status::Internal("bad op");
  }();
  if (!r.ok()) return r.status();
  return Value::FromMatrix(std::move(r).value());
}

Value VectorScalarArith(ArithOp op, const la::Vector& v, double s,
                        bool scalar_on_left) {
  switch (op) {
    case ArithOp::kAdd:
      return Value::FromVector(la::AddScalar(v, s));
    case ArithOp::kMul:
      return Value::FromVector(la::MulScalar(v, s));
    case ArithOp::kSub:
      return Value::FromVector(scalar_on_left ? la::RsubScalar(s, v)
                                              : la::SubScalar(v, s));
    case ArithOp::kDiv:
      return Value::FromVector(scalar_on_left ? la::RdivScalar(s, v)
                                              : la::DivScalar(v, s));
  }
  return Value::Null();
}

/// Structure-preserving scale of a sparse matrix (s finite, nonzero):
/// only stored entries change, structural zeros stay zero, so the
/// representation survives. Entries that underflow to 0.0 are dropped
/// to keep the CSR canonical.
Value ScaleSparse(const la::sparse::CsrMatrix& m, ArithOp op, double s) {
  la::sparse::CsrMatrix out(m.rows(), m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    for (uint64_t i = m.row_ptr()[r]; i < m.row_ptr()[r + 1]; ++i) {
      const double v =
          op == ArithOp::kDiv ? m.values()[i] / s : m.values()[i] * s;
      if (v != 0.0) out.PushEntry(r, m.col_idx()[i], v);
    }
    out.SealRowsThrough(r);
  }
  return Value::FromSparseMatrix(std::move(out));
}

Value MatrixScalarArith(ArithOp op, const la::Matrix& m, double s,
                        bool scalar_on_left) {
  switch (op) {
    case ArithOp::kAdd:
      return Value::FromMatrix(la::AddScalar(m, s));
    case ArithOp::kMul:
      return Value::FromMatrix(la::MulScalar(m, s));
    case ArithOp::kSub:
      return Value::FromMatrix(scalar_on_left ? la::RsubScalar(s, m)
                                              : la::SubScalar(m, s));
    case ArithOp::kDiv:
      return Value::FromMatrix(scalar_on_left ? la::RdivScalar(s, m)
                                              : la::DivScalar(m, s));
  }
  return Value::Null();
}

}  // namespace

Result<Value> EvalArith(ArithOp op, const Value& lhs, const Value& rhs) {
  const TypeKind lk = lhs.kind(), rk = rhs.kind();
  if (lk == TypeKind::kNull || rk == TypeKind::kNull) return Value::Null();

  // numeric op numeric. INTEGER is preserved between two INTEGERs,
  // including SQL-standard truncating division (the paper's blocking
  // code relies on it: `WHERE x.id/1000 = ind.mi`).
  if (IsScalarNumeric(lk) && IsScalarNumeric(rk)) {
    if (lk == TypeKind::kInteger && rk == TypeKind::kInteger) {
      const int64_t a = lhs.int_value(), b = rhs.int_value();
      switch (op) {
        case ArithOp::kAdd:
          return Value::Int(a + b);
        case ArithOp::kSub:
          return Value::Int(a - b);
        case ArithOp::kMul:
          return Value::Int(a * b);
        case ArithOp::kDiv:
          if (b == 0) {
            return Status::NumericError("integer division by zero");
          }
          return Value::Int(a / b);
      }
    }
    RADB_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
    RADB_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
    return Value::Double(ApplyScalar(op, a, b));
  }

  if (lk == TypeKind::kVector && rk == TypeKind::kVector) {
    return VectorVectorArith(op, lhs.vector(), rhs.vector());
  }
  if (lk == TypeKind::kMatrix && rk == TypeKind::kMatrix) {
    // Two sparse matrices stay sparse for + and * (element-wise union /
    // intersection under plus-times — identical cells to the dense
    // op). Everything else densifies: - and / write non-zero cells
    // where both inputs had none.
    if (lhs.is_sparse_matrix() && rhs.is_sparse_matrix() &&
        (op == ArithOp::kAdd || op == ArithOp::kMul)) {
      const la::sparse::Semiring& s = la::sparse::PlusTimes();
      Result<la::sparse::CsrMatrix> r =
          op == ArithOp::kAdd
              ? la::sparse::EWiseAdd(lhs.sparse_matrix(),
                                     rhs.sparse_matrix(), s)
              : la::sparse::EWiseMul(lhs.sparse_matrix(),
                                     rhs.sparse_matrix(), s);
      if (!r.ok()) return r.status();
      return Value::FromSparseMatrix(std::move(r).value());
    }
    const Value ld = lhs.Densified(), rd = rhs.Densified();
    return MatrixMatrixArith(op, ld.matrix(), rd.matrix());
  }
  if (lk == TypeKind::kVector && IsScalarNumeric(rk)) {
    RADB_ASSIGN_OR_RETURN(double s, rhs.AsDouble());
    return VectorScalarArith(op, lhs.vector(), s, /*scalar_on_left=*/false);
  }
  if (IsScalarNumeric(lk) && rk == TypeKind::kVector) {
    RADB_ASSIGN_OR_RETURN(double s, lhs.AsDouble());
    return VectorScalarArith(op, rhs.vector(), s, /*scalar_on_left=*/true);
  }
  if (lk == TypeKind::kMatrix && IsScalarNumeric(rk)) {
    RADB_ASSIGN_OR_RETURN(double s, rhs.AsDouble());
    if (lhs.is_sparse_matrix()) {
      if ((op == ArithOp::kMul || op == ArithOp::kDiv) &&
          std::isfinite(s) && s != 0.0) {
        return ScaleSparse(lhs.sparse_matrix(), op, s);
      }
      return MatrixScalarArith(op, lhs.Densified().matrix(), s,
                               /*scalar_on_left=*/false);
    }
    return MatrixScalarArith(op, lhs.matrix(), s, /*scalar_on_left=*/false);
  }
  if (IsScalarNumeric(lk) && rk == TypeKind::kMatrix) {
    RADB_ASSIGN_OR_RETURN(double s, lhs.AsDouble());
    if (rhs.is_sparse_matrix()) {
      // s * m commutes; s - m and s / m rewrite structural zeros.
      if (op == ArithOp::kMul && std::isfinite(s) && s != 0.0) {
        return ScaleSparse(rhs.sparse_matrix(), op, s);
      }
      return MatrixScalarArith(op, rhs.Densified().matrix(), s,
                               /*scalar_on_left=*/true);
    }
    return MatrixScalarArith(op, rhs.matrix(), s, /*scalar_on_left=*/true);
  }

  return Status::TypeError(std::string("operator ") + OpName(op) +
                           " not defined for " + TypeKindName(lk) + " and " +
                           TypeKindName(rk));
}

Result<DataType> InferArithType(ArithOp op, const DataType& lhs,
                                const DataType& rhs) {
  const TypeKind lk = lhs.kind(), rk = rhs.kind();
  if (lk == TypeKind::kNull) return rhs;
  if (rk == TypeKind::kNull) return lhs;

  auto unify = [](Dim a, Dim b, const char* what) -> Result<Dim> {
    if (a && b && *a != *b) {
      return Status::TypeError(std::string("element-wise op: ") + what +
                               " mismatch: " + std::to_string(*a) + " vs " +
                               std::to_string(*b));
    }
    return a ? a : b;
  };

  if (IsScalarNumeric(lk) && IsScalarNumeric(rk)) {
    if (lk == TypeKind::kInteger && rk == TypeKind::kInteger) {
      return DataType::Integer();  // incl. truncating division
    }
    return DataType::Double();
  }
  if (lk == TypeKind::kVector && rk == TypeKind::kVector) {
    RADB_ASSIGN_OR_RETURN(Dim n, unify(lhs.rows(), rhs.rows(), "length"));
    return DataType::MakeVector(n);
  }
  if (lk == TypeKind::kMatrix && rk == TypeKind::kMatrix) {
    RADB_ASSIGN_OR_RETURN(Dim r, unify(lhs.rows(), rhs.rows(), "rows"));
    RADB_ASSIGN_OR_RETURN(Dim c, unify(lhs.cols(), rhs.cols(), "cols"));
    return DataType::MakeMatrix(r, c);
  }
  if (lk == TypeKind::kVector && IsScalarNumeric(rk)) return lhs;
  if (IsScalarNumeric(lk) && rk == TypeKind::kVector) return rhs;
  if (lk == TypeKind::kMatrix && IsScalarNumeric(rk)) return lhs;
  if (IsScalarNumeric(lk) && rk == TypeKind::kMatrix) return rhs;

  return Status::TypeError(std::string("operator ") + OpName(op) +
                           " not defined for " + lhs.ToString() + " and " +
                           rhs.ToString());
}

Result<Value> EvalNegate(const Value& v) {
  switch (v.kind()) {
    case TypeKind::kNull:
      return Value::Null();
    case TypeKind::kInteger:
      return Value::Int(-v.int_value());
    case TypeKind::kBoolean:
      return Value::Int(-static_cast<int64_t>(v.bool_value()));
    case TypeKind::kDouble:
      return Value::Double(-v.double_value());
    case TypeKind::kLabeledScalar:
      return Value::Labeled(-v.labeled().value, v.labeled().label);
    case TypeKind::kVector:
      return Value::FromVector(la::MulScalar(v.vector(), -1.0),
                               v.vector_value().label);
    case TypeKind::kMatrix:
      if (v.is_sparse_matrix()) {
        return ScaleSparse(v.sparse_matrix(), ArithOp::kMul, -1.0);
      }
      return Value::FromMatrix(la::MulScalar(v.matrix(), -1.0));
    default:
      return Status::TypeError(std::string("cannot negate ") +
                               TypeKindName(v.kind()));
  }
}

Result<DataType> InferNegateType(const DataType& t) {
  if (t.is_numeric() || t.is_la() || t.kind() == TypeKind::kNull ||
      t.kind() == TypeKind::kBoolean) {
    if (t.kind() == TypeKind::kBoolean) return DataType::Integer();
    return t;
  }
  return Status::TypeError("cannot negate " + t.ToString());
}

Result<Value> EvalCompare(CompareOp op, const Value& lhs, const Value& rhs) {
  if (lhs.is_null() || rhs.is_null()) return Value::Null();
  if (op == CompareOp::kEq || op == CompareOp::kNe) {
    // Deep equality works for every kind, including LA values.
    const TypeKind lk = lhs.kind(), rk = rhs.kind();
    bool eq;
    if (lk == TypeKind::kInteger && rk == TypeKind::kInteger) {
      eq = lhs.int_value() == rhs.int_value();  // exact, as Value::Compare
    } else if (IsScalarNumeric(lk) && IsScalarNumeric(rk)) {
      RADB_ASSIGN_OR_RETURN(double a, lhs.AsDouble());
      RADB_ASSIGN_OR_RETURN(double b, rhs.AsDouble());
      eq = (a == b);
    } else {
      eq = lhs.Equals(rhs);
    }
    return Value::Bool(op == CompareOp::kEq ? eq : !eq);
  }
  RADB_ASSIGN_OR_RETURN(int c, lhs.Compare(rhs));
  switch (op) {
    case CompareOp::kLt:
      return Value::Bool(c < 0);
    case CompareOp::kLe:
      return Value::Bool(c <= 0);
    case CompareOp::kGt:
      return Value::Bool(c > 0);
    case CompareOp::kGe:
      return Value::Bool(c >= 0);
    default:
      return Status::Internal("bad compare op");
  }
}

Result<DataType> InferCompareType(CompareOp op, const DataType& lhs,
                                  const DataType& rhs) {
  const TypeKind lk = lhs.kind(), rk = rhs.kind();
  if (lk == TypeKind::kNull || rk == TypeKind::kNull) {
    return DataType::Boolean();
  }
  if (op == CompareOp::kEq || op == CompareOp::kNe) {
    const bool both_numeric = (IsScalarNumeric(lk) && IsScalarNumeric(rk));
    if (both_numeric || lhs.CompatibleWith(rhs)) return DataType::Boolean();
    return Status::TypeError("cannot compare " + lhs.ToString() + " with " +
                             rhs.ToString());
  }
  const bool l_ord = IsScalarNumeric(lk) || lk == TypeKind::kString;
  const bool r_ord = IsScalarNumeric(rk) || rk == TypeKind::kString;
  if (!l_ord || !r_ord ||
      ((lk == TypeKind::kString) != (rk == TypeKind::kString))) {
    return Status::TypeError("ordering comparison not defined for " +
                             lhs.ToString() + " and " + rhs.ToString());
  }
  return DataType::Boolean();
}

}  // namespace radb
