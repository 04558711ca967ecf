#include "testing/reference_eval.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "binder/binder.h"
#include "exec/expr_eval.h"
#include "exec/row_key.h"
#include "parser/parser.h"

namespace radb::testing {

namespace {

/// slot -> position map for a list of output columns.
std::map<size_t, size_t> LayoutOf(const std::vector<SlotInfo>& cols) {
  std::map<size_t, size_t> layout;
  for (size_t i = 0; i < cols.size(); ++i) layout[cols[i].slot] = i;
  return layout;
}

/// Evaluates `expr` (still in slot form) against `row` laid out by
/// `layout`.
Result<Value> EvalSlots(const BoundExpr& expr,
                        const std::map<size_t, size_t>& layout,
                        const Row& row) {
  RADB_ASSIGN_OR_RETURN(BoundExprPtr positional,
                        RewriteToPositions(expr, layout));
  return EvalExprAsWritten(*positional, row);
}

/// Evaluates a bound query tree to a flat row set shaped like
/// `q.output` (hidden sort columns included; the caller trims).
Result<RowSet> EvalBoundQuery(const BoundQuery& q);

/// Materializes one FROM-list relation: all rows of the base table
/// (partitions concatenated in index order), or the recursively
/// evaluated subquery. Column i of each row corresponds to
/// rel.columns[i].
Result<RowSet> MaterializeRelation(const BoundRelation& rel) {
  if (rel.table != nullptr) {
    return rel.table->Gather();
  }
  RowSet rows;
  RADB_ASSIGN_OR_RETURN(rows, EvalBoundQuery(*rel.subquery));
  // The enclosing query sees the subquery's leading visible columns
  // (rel.columns mirrors them, possibly renamed).
  for (Row& r : rows) {
    if (r.size() > rel.columns.size()) r.resize(rel.columns.size());
  }
  return rows;
}

Result<RowSet> EvalBoundQuery(const BoundQuery& q) {
  // ---- FROM: nested-loop cross product, conjuncts as post-filter. --
  std::map<size_t, size_t> layout;
  size_t width = 0;
  for (const BoundRelation& rel : q.relations) {
    for (size_t i = 0; i < rel.columns.size(); ++i) {
      layout[rel.columns[i].slot] = width + i;
    }
    width += rel.columns.size();
  }

  std::vector<RowSet> inputs;
  for (const BoundRelation& rel : q.relations) {
    RADB_ASSIGN_OR_RETURN(RowSet rows, MaterializeRelation(rel));
    inputs.push_back(std::move(rows));
  }

  std::vector<BoundExprPtr> conjuncts;
  for (const BoundExprPtr& c : q.conjuncts) {
    RADB_ASSIGN_OR_RETURN(BoundExprPtr e, RewriteToPositions(*c, layout));
    conjuncts.push_back(std::move(e));
  }

  RowSet joined;
  {
    Row current(width);
    // Recursive cartesian enumeration, relation 0 outermost.
    std::vector<size_t> offsets(inputs.size());
    size_t off = 0;
    for (size_t i = 0; i < inputs.size(); ++i) {
      offsets[i] = off;
      off += q.relations[i].columns.size();
    }
    std::function<Status(size_t)> recurse = [&](size_t depth) -> Status {
      if (depth == inputs.size()) {
        for (const BoundExprPtr& c : conjuncts) {
          RADB_ASSIGN_OR_RETURN(Value v, EvalExprAsWritten(*c, current));
          if (v.is_null() || !v.bool_value()) return Status::OK();
        }
        joined.push_back(current);
        return Status::OK();
      }
      for (const Row& r : inputs[depth]) {
        for (size_t i = 0; i < r.size(); ++i) current[offsets[depth] + i] = r[i];
        RADB_RETURN_NOT_OK(recurse(depth + 1));
      }
      return Status::OK();
    };
    RADB_RETURN_NOT_OK(recurse(0));
  }

  // ---- Aggregation (single-phase; Update only, never Merge). ----
  RowSet current_rows;
  std::map<size_t, size_t> current_layout;
  if (q.has_aggregate) {
    struct GroupState {
      Row key;
      std::vector<std::unique_ptr<Aggregator>> aggs;
    };
    std::unordered_map<KeyRow, std::unique_ptr<GroupState>, KeyRowHash>
        groups;
    std::vector<KeyRow> group_order;  // first-seen order (cosmetic)

    std::vector<BoundExprPtr> group_exprs;
    for (const BoundExprPtr& g : q.group_exprs) {
      RADB_ASSIGN_OR_RETURN(BoundExprPtr e, RewriteToPositions(*g, layout));
      group_exprs.push_back(std::move(e));
    }
    std::vector<BoundExprPtr> agg_args;
    for (const AggCall& a : q.aggs) {
      if (a.is_count_star) {
        agg_args.push_back(MakeBoundLiteral(Value::Int(1)));
      } else {
        RADB_ASSIGN_OR_RETURN(BoundExprPtr e,
                              RewriteToPositions(*a.arg, layout));
        agg_args.push_back(std::move(e));
      }
    }

    for (const Row& row : joined) {
      Row key_values;
      for (const BoundExprPtr& g : group_exprs) {
        RADB_ASSIGN_OR_RETURN(Value v, EvalExprAsWritten(*g, row));
        key_values.push_back(std::move(v));
      }
      KeyRow key = KeyRow::Of(std::move(key_values));
      auto it = groups.find(key);
      if (it == groups.end()) {
        auto state = std::make_unique<GroupState>();
        state->key = key.values;
        for (const AggCall& a : q.aggs) state->aggs.push_back(a.fn->make());
        group_order.push_back(key);
        it = groups.emplace(std::move(key), std::move(state)).first;
      }
      for (size_t i = 0; i < agg_args.size(); ++i) {
        RADB_ASSIGN_OR_RETURN(Value v, EvalExprAsWritten(*agg_args[i], row));
        RADB_RETURN_NOT_OK(it->second->aggs[i]->Update(v));
      }
    }

    for (const KeyRow& key : group_order) {
      GroupState& state = *groups.at(key);
      Row out = state.key;
      for (const auto& agg : state.aggs) {
        RADB_ASSIGN_OR_RETURN(Value v, agg->Finalize());
        out.push_back(std::move(v));
      }
      current_rows.push_back(std::move(out));
    }
    // SQL scalar-aggregate semantics: zero input rows still produce
    // one output row (COUNT = 0, SUM = NULL).
    if (group_exprs.empty() && current_rows.empty()) {
      Row out;
      for (const AggCall& a : q.aggs) {
        auto agg = a.fn->make();
        RADB_ASSIGN_OR_RETURN(Value v, agg->Finalize());
        out.push_back(std::move(v));
      }
      current_rows.push_back(std::move(out));
    }

    std::vector<SlotInfo> agg_cols = q.group_outputs;
    for (const AggCall& a : q.aggs) {
      agg_cols.push_back(SlotInfo{a.out_slot, a.name, a.result_type});
    }
    current_layout = LayoutOf(agg_cols);

    if (q.having != nullptr) {
      RowSet kept;
      for (Row& row : current_rows) {
        RADB_ASSIGN_OR_RETURN(Value v,
                              EvalSlots(*q.having, current_layout, row));
        if (!v.is_null() && v.bool_value()) kept.push_back(std::move(row));
      }
      current_rows = std::move(kept);
    }
  } else {
    current_rows = std::move(joined);
    current_layout = layout;
  }

  // ---- Projection to the declared output. ----
  std::vector<BoundExprPtr> select_exprs;
  for (const BoundExprPtr& e : q.select_exprs) {
    RADB_ASSIGN_OR_RETURN(BoundExprPtr p,
                          RewriteToPositions(*e, current_layout));
    select_exprs.push_back(std::move(p));
  }
  RowSet projected;
  for (const Row& row : current_rows) {
    Row out;
    for (const BoundExprPtr& e : select_exprs) {
      RADB_ASSIGN_OR_RETURN(Value v, EvalExprAsWritten(*e, row));
      out.push_back(std::move(v));
    }
    projected.push_back(std::move(out));
  }

  // ---- DISTINCT (first duplicate wins, like the executor). ----
  if (q.distinct) {
    std::unordered_map<KeyRow, bool, KeyRowHash> seen;
    RowSet unique;
    for (Row& row : projected) {
      KeyRow key = KeyRow::Of(row);
      if (seen.emplace(std::move(key), true).second) {
        unique.push_back(std::move(row));
      }
    }
    projected = std::move(unique);
  }

  // ---- ORDER BY over the output columns. ----
  if (!q.order_by.empty()) {
    const std::map<size_t, size_t> out_layout = LayoutOf(q.output);
    std::vector<std::pair<BoundExprPtr, bool>> keys;
    for (const auto& [e, desc] : q.order_by) {
      RADB_ASSIGN_OR_RETURN(BoundExprPtr p,
                            RewriteToPositions(*e, out_layout));
      keys.emplace_back(std::move(p), desc);
    }
    Status sort_status = Status::OK();
    std::stable_sort(projected.begin(), projected.end(),
                     [&](const Row& a, const Row& b) {
                       if (!sort_status.ok()) return false;
                       for (const auto& [e, desc] : keys) {
                         auto va = EvalExprAsWritten(*e, a);
                         auto vb = EvalExprAsWritten(*e, b);
                         if (!va.ok() || !vb.ok()) {
                           sort_status =
                               va.ok() ? vb.status() : va.status();
                           return false;
                         }
                         auto c = va->Compare(*vb);
                         if (!c.ok()) {
                           sort_status = c.status();
                           return false;
                         }
                         if (*c != 0) return desc ? *c > 0 : *c < 0;
                       }
                       return false;
                     });
    RADB_RETURN_NOT_OK(sort_status);
  }

  if (q.limit.has_value()) {
    const size_t n =
        static_cast<size_t>(std::max<int64_t>(0, *q.limit));
    if (projected.size() > n) projected.resize(n);
  }
  return projected;
}

}  // namespace

Result<ResultSet> ReferenceExecute(const std::string& sql,
                                   const Catalog& catalog) {
  RADB_ASSIGN_OR_RETURN(std::unique_ptr<parser::SelectStmt> stmt,
                        parser::ParseSelect(sql));
  Binder binder(catalog);
  RADB_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> bound,
                        binder.Bind(*stmt));

  const size_t visible = bound->num_visible_outputs == 0
                             ? bound->output.size()
                             : bound->num_visible_outputs;

  RADB_ASSIGN_OR_RETURN(RowSet rows, EvalBoundQuery(*bound));

  ResultSet rs;
  rs.columns = bound->output;
  rs.columns.resize(std::min(visible, rs.columns.size()));
  for (Row& row : rows) {
    if (row.size() > rs.columns.size()) row.resize(rs.columns.size());
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

}  // namespace radb::testing
