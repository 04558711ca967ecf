#ifndef RADB_TESTS_TEST_UTIL_H_
#define RADB_TESTS_TEST_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/database.h"
#include "catalog/function_registry.h"

namespace radb {

/// Runs a script through Database::Execute and keeps only the last
/// result set (empty for DDL/DML-only scripts) — the shape most
/// single-statement assertions want. Tests that care about multiple
/// result sets or per-statement stats call Execute directly.
inline Result<ResultSet> Exec(Database& db, const std::string& sql,
                              const QueryOptions& options = QueryOptions{}) {
  Result<ScriptResult> script = db.Execute(sql, options);
  if (!script.ok()) return script.status();
  if (script->result_sets.empty()) return ResultSet{};
  return std::move(script->result_sets.back());
}

/// A planned query with a cancellation trap: a Filter put between one
/// plan node and one of its inputs, whose predicate keeps every row
/// and fires `token` on its `fire_at`-th call. With `fire_at` the
/// input's row count, the token fires on the input's last row, after
/// which no batch of the input is polled, so the first poll to see it
/// is the node's own reader.
struct CancelTrap {
  LogicalOpPtr plan;
  std::shared_ptr<CancellationToken> token =
      std::make_shared<CancellationToken>();
  size_t fire_at = 0;
  size_t calls = 0;  // rows the trap has seen
  BuiltinFunction fn;
  QueryMetrics metrics;

  /// Executes the plan on `db`'s cluster without a pool, so the trap
  /// sees the rows in worker order, charging `tracker` (a budget of 0
  /// is none) and spilling to `spill_dir`.
  Status Run(const Database& db, mem::MemoryTracker* tracker,
             const std::string& spill_dir = "") {
    Executor executor(db.cluster(), &metrics, {}, nullptr,
                      MemoryContext{tracker, spill_dir, 1, token.get()});
    return executor.Execute(*plan).status();
  }
};

/// Plans `sql` on `db` and sets a CancelTrap over input `input` of the
/// first plan node, in pre-order, that `pick` accepts.
inline Result<std::unique_ptr<CancelTrap>> TrapCancel(
    Database& db, const std::string& sql,
    const std::function<bool(const LogicalOp&)>& pick, size_t input,
    size_t fire_at) {
  auto trap = std::make_unique<CancelTrap>();
  RADB_ASSIGN_OR_RETURN(trap->plan, db.PlanQuery(sql));
  LogicalOp* node = nullptr;
  std::vector<LogicalOp*> stack = {trap->plan.get()};
  while (node == nullptr && !stack.empty()) {
    LogicalOp* op = stack.back();
    stack.pop_back();
    if (pick(*op)) node = op;
    for (auto it = op->children.rbegin(); it != op->children.rend(); ++it) {
      stack.push_back(it->get());
    }
  }
  if (node == nullptr || input >= node->children.size()) {
    return Status::InvalidArgument("no plan node to trap");
  }
  CancelTrap* t = trap.get();
  t->fire_at = fire_at;
  t->fn.eval = [t](const std::vector<Value>&) -> Result<Value> {
    if (++t->calls == t->fire_at) t->token->Cancel();
    return Value::Bool(true);
  };
  LogicalOpPtr& child = node->children[input];
  auto filter = std::make_unique<LogicalOp>();
  filter->kind = LogicalOp::Kind::kFilter;
  filter->output = child->output;
  auto pred = std::make_unique<BoundExpr>();
  pred->kind = BoundExpr::Kind::kCall;
  pred->type = DataType::Boolean();
  pred->fn = &t->fn;
  filter->predicates.push_back(std::move(pred));
  filter->children.push_back(std::move(child));
  child = std::move(filter);
  return trap;
}

}  // namespace radb

#endif  // RADB_TESTS_TEST_UTIL_H_
