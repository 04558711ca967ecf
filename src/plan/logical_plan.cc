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

namespace {

/// "expr AS name, ..." for a node's projection expressions.
std::string ProjectionList(const LogicalOp& op) {
  std::vector<std::string> parts;
  for (size_t i = 0; i < op.exprs.size(); ++i) {
    parts.push_back(op.exprs[i]->ToString() + " AS " + op.output[i].name);
  }
  return Join(parts, ", ");
}

}  // namespace

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
      // A fused projection (the early-projection rule) runs per pair.
      if (!exprs.empty()) os << " project=[" << ProjectionList(*this) << "]";
      break;
    }
    case Kind::kProject:
      os << " [" << ProjectionList(*this) << "]";
      break;
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
      if (multiply) {
        os << (multiply->self ? " (relational multiply, self)"
                              : " (relational multiply)");
      }
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
  out->spool_id = spool_id;
  out->spool_uses = spool_uses;
  out->spool_reuse = spool_reuse;
  out->multiply = multiply;
  return out;
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
