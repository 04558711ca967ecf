#include "exec/expr_eval.h"

#include <bit>
#include <cstdint>

namespace radb {

namespace {

const BuiltinFunction* Builtin(const char* name) {
  return *FunctionRegistry::Global().Lookup(name);
}

/// Whether two literals are one value, doubles bit for bit. LA values
/// never count as one (only a call builds them).
bool SameLiteral(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case TypeKind::kDouble:
      return std::bit_cast<uint64_t>(a.double_value()) ==
             std::bit_cast<uint64_t>(b.double_value());
    case TypeKind::kLabeledScalar:
    case TypeKind::kVector:
    case TypeKind::kMatrix:
      return false;
    default:
      return a.Equals(b);
  }
}

/// Whether `a` and `b` are the same expression node for node, so they
/// evaluate to the same value on any row: every built-in is
/// deterministic.
bool SameExpr(const BoundExpr& a, const BoundExpr& b) {
  if (a.kind != b.kind || a.slot != b.slot || a.arith_op != b.arith_op ||
      a.compare_op != b.compare_op || a.logic_is_and != b.logic_is_and ||
      a.fn != b.fn || a.children.size() != b.children.size() ||
      (a.kind == BoundExpr::Kind::kLiteral &&
       !SameLiteral(a.literal, b.literal))) {
    return false;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!SameExpr(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

/// x when `call` is matrix_multiply(trans_matrix(x), x) with two
/// arguments, its two x the same expression; else null.
const BoundExpr* GramOperand(const BoundExpr& call) {
  static const BuiltinFunction* const kMultiply = Builtin("matrix_multiply");
  static const BuiltinFunction* const kTranspose = Builtin("trans_matrix");
  if (call.fn != kMultiply || call.children.size() != 2) return nullptr;
  const BoundExpr& t = *call.children[0];
  if (t.kind != BoundExpr::Kind::kCall || t.fn != kTranspose ||
      !SameExpr(*t.children[0], *call.children[1])) {
    return nullptr;
  }
  return t.children[0].get();
}

/// EvalExpr; with `fuse` false every call runs as written.
Result<Value> Eval(const BoundExpr& expr, const Row& row, bool fuse) {
  const auto eval = [&row, fuse](const BoundExpr& e) {
    return Eval(e, row, fuse);
  };
  switch (expr.kind) {
    case BoundExpr::Kind::kLiteral:
      return expr.literal;
    case BoundExpr::Kind::kColumnRef:
      if (expr.slot >= row.size()) {
        return Status::Internal("column position " +
                                std::to_string(expr.slot) +
                                " out of row bounds");
      }
      return row[expr.slot];
    case BoundExpr::Kind::kArith: {
      RADB_ASSIGN_OR_RETURN(Value lhs, eval(*expr.children[0]));
      RADB_ASSIGN_OR_RETURN(Value rhs, eval(*expr.children[1]));
      return EvalArith(expr.arith_op, lhs, rhs);
    }
    case BoundExpr::Kind::kCompare: {
      RADB_ASSIGN_OR_RETURN(Value lhs, eval(*expr.children[0]));
      RADB_ASSIGN_OR_RETURN(Value rhs, eval(*expr.children[1]));
      return EvalCompare(expr.compare_op, lhs, rhs);
    }
    case BoundExpr::Kind::kLogic: {
      RADB_ASSIGN_OR_RETURN(Value lhs, eval(*expr.children[0]));
      // SQL three-valued logic with short-circuiting:
      //   AND: FALSE dominates, then NULL;  OR: TRUE dominates, then NULL.
      if (expr.logic_is_and) {
        if (!lhs.is_null() && !lhs.bool_value()) return Value::Bool(false);
        RADB_ASSIGN_OR_RETURN(Value rhs, eval(*expr.children[1]));
        if (!rhs.is_null() && !rhs.bool_value()) return Value::Bool(false);
        if (lhs.is_null() || rhs.is_null()) return Value::Null();
        return Value::Bool(true);
      }
      if (!lhs.is_null() && lhs.bool_value()) return Value::Bool(true);
      RADB_ASSIGN_OR_RETURN(Value rhs, eval(*expr.children[1]));
      if (!rhs.is_null() && rhs.bool_value()) return Value::Bool(true);
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return Value::Bool(false);
    }
    case BoundExpr::Kind::kNot: {
      RADB_ASSIGN_OR_RETURN(Value v, eval(*expr.children[0]));
      if (v.is_null()) return Value::Null();
      return Value::Bool(!v.bool_value());
    }
    case BoundExpr::Kind::kNeg: {
      RADB_ASSIGN_OR_RETURN(Value v, eval(*expr.children[0]));
      return EvalNegate(v);
    }
    case BoundExpr::Kind::kCall: {
      // The Gram product xᵀx reads x once and may run as TSMM.
      if (const BoundExpr* x = fuse ? GramOperand(expr) : nullptr) {
        RADB_ASSIGN_OR_RETURN(Value v, eval(*x));
        if (v.is_null()) return Value::Null();
        return GramProduct(v);
      }
      std::vector<Value> args;
      args.reserve(expr.children.size());
      for (const auto& c : expr.children) {
        RADB_ASSIGN_OR_RETURN(Value v, eval(*c));
        // SQL scalar functions are NULL-strict.
        if (v.is_null()) return Value::Null();
        args.push_back(std::move(v));
      }
      return expr.fn->eval(args);
    }
    case BoundExpr::Kind::kParam:
      // Cached prepared plans substitute parameters with literals
      // before execution; reaching here means a substitution was missed.
      return Status::Internal("unbound parameter $" +
                              std::to_string(expr.slot));
  }
  return Status::Internal("unhandled bound expression kind");
}

}  // namespace

Result<Value> EvalExpr(const BoundExpr& expr, const Row& row) {
  return Eval(expr, row, true);
}

Result<Value> EvalExprAsWritten(const BoundExpr& expr, const Row& row) {
  return Eval(expr, row, false);
}

namespace {

Status RewriteInPlace(BoundExpr* expr,
                      const std::map<size_t, size_t>& layout) {
  if (expr->kind == BoundExpr::Kind::kColumnRef) {
    auto it = layout.find(expr->slot);
    if (it == layout.end()) {
      return Status::Internal("slot " + std::to_string(expr->slot) + " (" +
                              expr->column_name +
                              ") not available in operator input");
    }
    expr->slot = it->second;
    return Status::OK();
  }
  for (auto& c : expr->children) {
    RADB_RETURN_NOT_OK(RewriteInPlace(c.get(), layout));
  }
  return Status::OK();
}

}  // namespace

Result<BoundExprPtr> RewriteToPositions(
    const BoundExpr& expr, const std::map<size_t, size_t>& layout) {
  BoundExprPtr clone = expr.Clone();
  RADB_RETURN_NOT_OK(RewriteInPlace(clone.get(), layout));
  return clone;
}

}  // namespace radb
