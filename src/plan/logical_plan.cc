#include "plan/logical_plan.h"

#include <cmath>
#include <sstream>

#include "common/string_util.h"

namespace radb {

double LogicalOp::ComputeRowBytes() const {
  double bytes = 0.0;
  for (const SlotInfo& s : output) bytes += s.type.EstimatedByteSize();
  return bytes;
}

const char* KindName(LogicalOp::Kind k) {
  switch (k) {
    case LogicalOp::Kind::kScan:
      return "Scan";
    case LogicalOp::Kind::kFilter:
      return "Filter";
    case LogicalOp::Kind::kJoin:
      return "Join";
    case LogicalOp::Kind::kProject:
      return "Project";
    case LogicalOp::Kind::kAggregate:
      return "Aggregate";
    case LogicalOp::Kind::kDistinct:
      return "Distinct";
    case LogicalOp::Kind::kSort:
      return "Sort";
    case LogicalOp::Kind::kLimit:
      return "Limit";
  }
  return "?";
}

std::string LogicalOp::NodeLabel() const {
  std::ostringstream os;
  os << KindName(kind);
  switch (kind) {
    case Kind::kScan:
      os << " " << (table ? table->name() : "?");
      if (!alias.empty() && table && alias != table->name()) {
        os << " AS " << alias;
      }
      if (!index_name.empty()) {
        os << " using " << index_name << " [";
        for (size_t i = 0; i < index_lo.size(); ++i) {
          if (i > 0) os << ", ";
          if (index_lo[i] == index_hi[i]) {
            os << "=" << index_lo[i];
          } else {
            if (index_lo[i] == INT64_MIN) {
              os << "(";
            } else {
              os << index_lo[i];
            }
            os << "..";
            if (index_hi[i] == INT64_MAX) {
              os << ")";
            } else {
              os << index_hi[i];
            }
          }
        }
        os << "]";
      }
      break;
    case Kind::kFilter: {
      std::vector<std::string> parts;
      for (const auto& p : predicates) parts.push_back(p->ToString());
      os << " [" << Join(parts, " AND ") << "]";
      break;
    }
    case Kind::kJoin: {
      std::vector<std::string> parts;
      for (const auto& [l, r] : equi_keys) {
        parts.push_back(l->ToString() + " = " + r->ToString());
      }
      for (const auto& p : residual) parts.push_back(p->ToString());
      os << (equi_keys.empty() ? " (cross)" : "") << (index_nl ? " (indexed)" : "")
         << (parts.empty() ? "" : " [" + Join(parts, " AND ") + "]");
      break;
    }
    case Kind::kProject: {
      std::vector<std::string> parts;
      for (size_t i = 0; i < exprs.size(); ++i) {
        parts.push_back(exprs[i]->ToString() + " AS " + output[i].name);
      }
      os << " [" << Join(parts, ", ") << "]";
      break;
    }
    case Kind::kAggregate: {
      std::vector<std::string> parts;
      for (const auto& g : group_exprs) parts.push_back(g->ToString());
      std::vector<std::string> agg_parts;
      for (const auto& a : aggs) {
        agg_parts.push_back(
            a.name + "(" + (a.is_count_star ? "*" : a.arg->ToString()) + ")");
      }
      if (!parts.empty()) os << " group=[" << Join(parts, ", ") << "]";
      os << " aggs=[" << Join(agg_parts, ", ") << "]";
      if (multiply) os << " (relational multiply)";
      break;
    }
    case Kind::kSort: {
      std::vector<std::string> parts;
      for (const auto& [e, desc] : sort_keys) {
        parts.push_back(e->ToString() + (desc ? " DESC" : ""));
      }
      os << " [" << Join(parts, ", ") << "]";
      break;
    }
    case Kind::kLimit:
      os << " " << limit;
      break;
    default:
      break;
  }
  if (spool_id != 0) {
    os << " spool#" << spool_id;
    if (spool_reuse) {
      os << " reuse";
    } else {
      os << " (uses=" << spool_uses << ")";
    }
  }
  return os.str();
}

std::string LogicalOp::ToString(int indent) const {
  std::ostringstream os;
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  os << pad << NodeLabel();
  os << "  (rows=" << est_rows
     << ", bytes=" << FormatBytes(EstOutputBytes()) << ")";
  os << "\n";
  for (const auto& c : children) os << c->ToString(indent + 1);
  return os.str();
}

LogicalOpPtr LogicalOp::Clone() const {
  auto out = std::make_unique<LogicalOp>();
  out->kind = kind;
  for (const auto& c : children) out->children.push_back(c->Clone());
  out->table = table;
  out->alias = alias;
  out->scan_columns = scan_columns;
  out->index_name = index_name;
  out->index_lo = index_lo;
  out->index_hi = index_hi;
  out->index_nl = index_nl;
  for (const auto& p : predicates) out->predicates.push_back(p->Clone());
  for (const auto& [l, r] : equi_keys) {
    out->equi_keys.emplace_back(l->Clone(), r->Clone());
  }
  for (const auto& p : residual) out->residual.push_back(p->Clone());
  for (const auto& e : exprs) out->exprs.push_back(e->Clone());
  for (const auto& g : group_exprs) out->group_exprs.push_back(g->Clone());
  for (const AggCall& a : aggs) {
    AggCall copy;
    copy.fn = a.fn;
    copy.name = a.name;
    copy.arg = a.arg ? a.arg->Clone() : nullptr;
    copy.is_count_star = a.is_count_star;
    copy.result_type = a.result_type;
    copy.out_slot = a.out_slot;
    out->aggs.push_back(std::move(copy));
  }
  for (const auto& [e, desc] : sort_keys) {
    out->sort_keys.emplace_back(e->Clone(), desc);
  }
  out->limit = limit;
  out->output = output;
  out->est_rows = est_rows;
  out->est_row_bytes = est_row_bytes;
  out->est_cost = est_cost;
  out->batch_capable = batch_capable;
  out->spool_id = spool_id;
  out->spool_uses = spool_uses;
  out->spool_reuse = spool_reuse;
  out->multiply = multiply;
  return out;
}

namespace {

/// Kinds a ColumnVector can carry as a real (payload-bearing) column.
bool ScalarColumnKind(TypeKind k) {
  return k == TypeKind::kBoolean || k == TypeKind::kInteger ||
         k == TypeKind::kDouble || k == TypeKind::kString;
}

/// Kinds EvalArith / EvalNegate accept on the scalar-numeric path.
/// kNull is a statically-NULL operand (a NULL literal): the result is
/// NULL in every lane, which the kernels handle directly.
bool NumericOperandKind(TypeKind k) {
  return k == TypeKind::kBoolean || k == TypeKind::kInteger ||
         k == TypeKind::kDouble || k == TypeKind::kNull;
}

bool OutputsColumnar(const LogicalOp& op) {
  for (const SlotInfo& s : op.output) {
    if (!ScalarColumnKind(s.type.kind())) return false;
  }
  return true;
}

/// Aggregates with a typed columnar accumulator. SUM/AVG keep their
/// first non-null argument's *runtime* representation (a BOOLEAN
/// argument can surface as a BOOLEAN sum over a one-row group), so
/// only INTEGER / DOUBLE arguments take the fast path; MIN/MAX and
/// the label-checking EMIN/EMAX compare through the same total order
/// for every scalar kind.
bool AggCallCapable(const AggCall& a) {
  if (a.is_count_star) return true;
  if (!a.arg || !BatchCapableExpr(*a.arg)) return false;
  const TypeKind arg = a.arg->type.kind();
  if (a.name == "count") return true;
  if (a.name == "sum" || a.name == "avg") {
    return arg == TypeKind::kInteger || arg == TypeKind::kDouble;
  }
  if (a.name == "min" || a.name == "max" || a.name == "emin" ||
      a.name == "emax") {
    return ScalarColumnKind(arg);
  }
  return false;
}

/// Storage-level precondition for the typed columnar scan: every
/// scanned column must be kind-pure (Table::ColumnKindPure). An
/// INTEGER value legally stored in a DOUBLE column keeps its runtime
/// kind on the row engine (it groups, hashes and sums as an INTEGER),
/// which a single-kind ColumnVector cannot represent.
bool ScanColumnsKindPure(const LogicalOp& op) {
  for (size_t col : op.scan_columns) {
    if (!op.table->ColumnKindPure(col)) return false;
  }
  return true;
}

/// Node-local rule (see the header): the vectorized engine handles
/// Scan / Filter / Project plus Aggregate as a chain head, as long as
/// every column crossing the node and every expression it evaluates
/// is columnar.
bool NodeBatchCapable(const LogicalOp& op) {
  for (const LogicalOpPtr& c : op.children) {
    if (!OutputsColumnar(*c)) return false;
  }
  switch (op.kind) {
    case LogicalOp::Kind::kScan:
      return OutputsColumnar(op) && ScanColumnsKindPure(op);
    case LogicalOp::Kind::kFilter:
      for (const BoundExprPtr& p : op.predicates) {
        if (!BatchCapableExpr(*p)) return false;
      }
      return true;
    case LogicalOp::Kind::kProject:
      if (!OutputsColumnar(op)) return false;
      for (const BoundExprPtr& e : op.exprs) {
        if (!BatchCapableExpr(*e)) return false;
      }
      return true;
    case LogicalOp::Kind::kAggregate:
      if (!OutputsColumnar(op)) return false;
      for (const BoundExprPtr& g : op.group_exprs) {
        if (!BatchCapableExpr(*g) || !ScalarColumnKind(g->type.kind())) {
          return false;
        }
      }
      for (const AggCall& a : op.aggs) {
        if (!AggCallCapable(a)) return false;
      }
      return true;
    default:
      // Join / Distinct / Sort / Limit stay row-at-a-time (they are
      // pipeline breakers or already sequential); their *children* can
      // still run vectorized.
      return false;
  }
}

}  // namespace

bool BatchCapableExpr(const BoundExpr& e) {
  switch (e.kind) {
    case BoundExpr::Kind::kLiteral:
      return ColumnVector::KindSupported(e.type.kind());
    case BoundExpr::Kind::kColumnRef:
      return ScalarColumnKind(e.type.kind());
    case BoundExpr::Kind::kArith:
      return BatchCapableExpr(*e.children[0]) &&
             BatchCapableExpr(*e.children[1]) &&
             NumericOperandKind(e.children[0]->type.kind()) &&
             NumericOperandKind(e.children[1]->type.kind());
    case BoundExpr::Kind::kNeg:
      return BatchCapableExpr(*e.children[0]) &&
             NumericOperandKind(e.children[0]->type.kind());
    case BoundExpr::Kind::kCompare: {
      if (!BatchCapableExpr(*e.children[0]) ||
          !BatchCapableExpr(*e.children[1])) {
        return false;
      }
      const TypeKind a = e.children[0]->type.kind();
      const TypeKind b = e.children[1]->type.kind();
      if (a == TypeKind::kNull || b == TypeKind::kNull) return true;
      if (NumericOperandKind(a) && NumericOperandKind(b)) return true;
      return a == TypeKind::kString && b == TypeKind::kString;
    }
    case BoundExpr::Kind::kLogic:
    case BoundExpr::Kind::kNot:
      for (const auto& c : e.children) {
        if (!BatchCapableExpr(*c)) return false;
        const TypeKind k = c->type.kind();
        if (k != TypeKind::kBoolean && k != TypeKind::kNull) return false;
      }
      return true;
    case BoundExpr::Kind::kCall:
      return false;  // built-ins (incl. every LA function) stay row-wise
    case BoundExpr::Kind::kParam:
      return false;  // substituted to a literal before execution
  }
  return false;
}

namespace {

/// Post-order annotation pass. Returns whether the subtree's output is
/// *runtime-kind pure*: every non-NULL value it produces has exactly
/// its output column's static type kind. The row engine follows
/// runtime kinds (an INTEGER living in a DOUBLE column groups and sums
/// as an INTEGER), so a vectorized consumer — which types each column
/// once, statically — may only ingest pure inputs; batch_capable
/// therefore also requires every child subtree to be pure. Purity
/// holds at a scan of kind-pure columns and is preserved by operators
/// that pass values through (Filter/Join/Distinct/Sort/Limit) and by
/// batch-capable expressions, whose runtime result kinds match their
/// inferred static types when their inputs are pure.
bool AnnotateAndCheckPurity(LogicalOp& op) {
  bool children_pure = true;
  for (const LogicalOpPtr& c : op.children) {
    if (!AnnotateAndCheckPurity(*c)) children_pure = false;
  }
  op.batch_capable = children_pure && NodeBatchCapable(op);
  switch (op.kind) {
    case LogicalOp::Kind::kScan:
      return ScanColumnsKindPure(op);
    case LogicalOp::Kind::kProject: {
      if (!children_pure) return false;
      for (const BoundExprPtr& e : op.exprs) {
        if (!BatchCapableExpr(*e)) return false;
      }
      return true;
    }
    case LogicalOp::Kind::kAggregate: {
      if (!children_pure) return false;
      for (const BoundExprPtr& g : op.group_exprs) {
        if (!BatchCapableExpr(*g)) return false;
      }
      // Capable aggregates produce exactly their inferred result kind:
      // COUNT -> INTEGER, SUM(INTEGER) -> INTEGER, SUM(DOUBLE)/AVG ->
      // DOUBLE, MIN/MAX/EMIN/EMAX -> the argument kind.
      for (const AggCall& a : op.aggs) {
        if (!AggCallCapable(a)) return false;
      }
      return true;
    }
    default:
      // Filter/Join/Distinct/Sort/Limit emit child values unmodified.
      return children_pure;
  }
}

}  // namespace

void AnnotateBatchCapability(LogicalOp& root) {
  (void)AnnotateAndCheckPurity(root);
}

LogicalOpPtr MakeScan(std::shared_ptr<Table> table, std::string alias,
                      std::vector<size_t> scan_columns,
                      std::vector<SlotInfo> output) {
  auto op = std::make_unique<LogicalOp>();
  op->kind = LogicalOp::Kind::kScan;
  op->table = std::move(table);
  op->alias = std::move(alias);
  op->scan_columns = std::move(scan_columns);
  op->output = std::move(output);
  return op;
}

}  // namespace radb
