#include "testing/differ.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "testing/reference_eval.h"

namespace radb::testing {

namespace {

/// Runs a script and keeps the last result set (empty for DDL-only
/// scripts) — the differ compares one statement at a time.
Result<ResultSet> ExecLast(Database& db, const std::string& sql,
                           const QueryOptions& options = {}) {
  Result<ScriptResult> script = db.Execute(sql, options);
  if (!script.ok()) return script.status();
  if (script->result_sets.empty()) return ResultSet{};
  return std::move(script->result_sets.back());
}

int KindRank(const Value& v) {
  switch (v.kind()) {
    case TypeKind::kNull:
      return 0;
    case TypeKind::kBoolean:
      return 1;
    case TypeKind::kInteger:
      return 2;
    case TypeKind::kDouble:
      return 3;
    case TypeKind::kString:
      return 4;
    case TypeKind::kLabeledScalar:
      return 5;
    case TypeKind::kVector:
      return 6;
    default:
      return 7;
  }
}

/// Total order used only for canonical sorting, never for SQL
/// semantics. Generated data has no NaNs, so double < is total.
bool ValueLess(const Value& a, const Value& b) {
  const int ra = KindRank(a), rb = KindRank(b);
  if (ra != rb) return ra < rb;
  switch (a.kind()) {
    case TypeKind::kNull:
      return false;
    case TypeKind::kBoolean:
      return a.bool_value() < b.bool_value();
    case TypeKind::kInteger:
      return a.int_value() < b.int_value();
    case TypeKind::kDouble:
      return a.double_value() < b.double_value();
    case TypeKind::kString:
      return a.string_value() < b.string_value();
    case TypeKind::kLabeledScalar: {
      const auto& la = a.labeled();
      const auto& lb = b.labeled();
      if (la.value != lb.value) return la.value < lb.value;
      return la.label < lb.label;
    }
    case TypeKind::kVector: {
      const auto& va = a.vector_value();
      const auto& vb = b.vector_value();
      if (va.label != vb.label) return va.label < vb.label;
      const la::Vector& xa = *va.vec;
      const la::Vector& xb = *vb.vec;
      if (xa.size() != xb.size()) return xa.size() < xb.size();
      for (size_t i = 0; i < xa.size(); ++i) {
        if (xa[i] != xb[i]) return xa[i] < xb[i];
      }
      return false;
    }
    default: {
      const la::Matrix& ma = a.matrix();
      const la::Matrix& mb = b.matrix();
      if (ma.rows() != mb.rows()) return ma.rows() < mb.rows();
      if (ma.cols() != mb.cols()) return ma.cols() < mb.cols();
      const size_t n = ma.rows() * ma.cols();
      for (size_t i = 0; i < n; ++i) {
        if (ma.data()[i] != mb.data()[i]) return ma.data()[i] < mb.data()[i];
      }
      return false;
    }
  }
}

bool RowLess(const Row& a, const Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (ValueLess(a[i], b[i])) return true;
    if (ValueLess(b[i], a[i])) return false;
  }
  return a.size() < b.size();
}

std::string RowsToString(const RowSet& rows, size_t max_rows = 12) {
  std::ostringstream os;
  for (size_t i = 0; i < rows.size() && i < max_rows; ++i) {
    os << "      (";
    for (size_t j = 0; j < rows[i].size(); ++j) {
      if (j > 0) os << ", ";
      os << rows[i][j].ToString();
    }
    os << ")\n";
  }
  if (rows.size() > max_rows) {
    os << "      ... " << rows.size() - max_rows << " more\n";
  }
  return os.str();
}

std::string OutcomeToString(const Result<ResultSet>& r) {
  if (!r.ok()) {
    return std::string("    ERROR ") + StatusCodeName(r.status().code()) +
           ": " + r.status().message() + "\n";
  }
  std::ostringstream os;
  os << "    " << r->rows.size() << " row(s):\n"
     << RowsToString(Normalized(r->rows));
  return os.str();
}

/// "name:KIND, name:KIND, ..." — the schema identity compared in
/// shape mode. Full DataType::ToString (with dimensions) would be too
/// strict only if system tables ever grew LA columns; today they are
/// scalar-only, so render the full type for better error messages.
std::string SchemaSignature(const ResultSet& rs) {
  std::ostringstream os;
  for (size_t i = 0; i < rs.columns.size(); ++i) {
    if (i > 0) os << ", ";
    os << rs.columns[i].name << ":" << rs.columns[i].type.ToString();
  }
  return os.str();
}

}  // namespace

std::vector<FuzzConfig> StandardConfigs() {
  std::vector<FuzzConfig> out;
  for (const bool threads8 : {false, true}) {
    for (const char* kind : {"dp", "greedy", "noearly"}) {
      FuzzConfig fc;
      fc.name = std::string(kind) + (threads8 ? "-8t" : "-1t");
      fc.config.num_workers = 8;
      fc.config.num_threads = threads8 ? 8 : 1;
      fc.config.obs.enable_metrics = true;
      // The 64 KB rerun must execute under its budget, not replay the
      // unbudgeted run's cached result (the result cache has its own
      // differential, RunCacheDiffRounds).
      fc.config.cache.enable_result_cache = false;
      if (std::string(kind) == "greedy") {
        fc.config.optimizer.dp_relation_limit = 1;  // force greedy search
      } else if (std::string(kind) == "noearly") {
        fc.config.optimizer.enable_early_projection = false;
      }
      out.push_back(std::move(fc));
    }
  }
  return out;
}

RowSet Normalized(RowSet rows) {
  // Canonicalize representation before ordering: a sparse matrix and
  // the dense matrix with the same cells are the same SQL value, and
  // the oracle comparison must be representation-blind (the DENSIFY
  // canonicalization the sparse-subsystem differ coverage relies on).
  for (Row& row : rows) {
    for (Value& v : row) {
      if (v.is_sparse_matrix()) v = v.Densified();
    }
  }
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

bool SameCells(const RowSet& a, const RowSet& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (!a[i][j].Equals(b[i][j])) return false;
    }
  }
  return true;
}

Differ::Differ(const CatalogSpec& spec) : configs_(StandardConfigs()) {
  for (const FuzzConfig& fc : configs_) {
    dbs_.push_back(std::make_unique<Database>(fc.config));
    Status s = LoadCatalog(spec, dbs_.back().get());
    if (!s.ok() && init_status_.ok()) init_status_ = s;
  }
}

DiffOutcome Differ::RunOneSystem(const std::string& sql) {
  std::vector<Result<ResultSet>> results;
  results.reserve(dbs_.size());
  for (auto& db : dbs_) results.push_back(ExecLast(*db, sql));

  // Config 0 is the baseline every other configuration must match on
  // status code and (on success) schema signature. Values are never
  // compared: each database's metric values, thread stats, and query
  // history differ by design.
  std::vector<size_t> bad;
  const Result<ResultSet>& base = results[0];
  const std::string base_sig = base.ok() ? SchemaSignature(*base) : "";
  for (size_t i = 1; i < results.size(); ++i) {
    const Result<ResultSet>& r = results[i];
    if (base.ok() != r.ok()) {
      bad.push_back(i);
    } else if (!base.ok()) {
      if (base.status().code() != r.status().code()) bad.push_back(i);
    } else if (SchemaSignature(*r) != base_sig) {
      bad.push_back(i);
    }
  }

  // Budget rerun: a system-table scan under a tight budget must either
  // succeed with the same schema or fail cleanly ResourceExhausted.
  constexpr size_t kTightBudget = 64 << 10;
  std::string budget_report;
  {
    Result<ScriptResult> budgeted = dbs_[0]->Execute(
        sql, QueryOptions{.memory_budget_bytes = kTightBudget});
    if (budgeted.ok()) {
      if (base.ok() && budgeted->has_results() &&
          SchemaSignature(budgeted->last()) != base_sig) {
        budget_report =
            "budgeted rerun (64 KB) produced a different schema: " +
            SchemaSignature(budgeted->last()) + " vs " + base_sig + "\n";
      }
    } else if (budgeted.status().code() != StatusCode::kResourceExhausted &&
               (base.ok() ||
                budgeted.status().code() != base.status().code())) {
      budget_report = "budgeted rerun failed with unexpected error: " +
                      budgeted.status().ToString() + "\n";
    }
  }

  DiffOutcome out;
  if (bad.empty() && budget_report.empty()) return out;
  out.diverged = true;
  std::ostringstream os;
  os << "DIVERGENCE (system-table shape mode) on:\n  " << sql << "\n";
  for (size_t i = 0; i < results.size(); ++i) {
    os << "  " << configs_[i].name
       << (std::count(bad.begin(), bad.end(), i) ? " [DIVERGED]" : " [ok]")
       << ": ";
    if (results[i].ok()) {
      os << "schema {" << SchemaSignature(*results[i]) << "}, "
         << results[i]->rows.size() << " row(s)\n";
    } else {
      os << "ERROR " << StatusCodeName(results[i].status().code()) << ": "
         << results[i].status().message() << "\n";
    }
  }
  if (!budget_report.empty()) {
    os << "  " << configs_[0].name << " under 64 KB budget [DIVERGED]: "
       << budget_report;
  }
  out.report = os.str();
  return out;
}

DiffOutcome Differ::RunOne(const std::string& sql) {
  if (sql.find("radb_") != std::string::npos) return RunOneSystem(sql);
  // The reference binds against the same catalog contents; any of the
  // databases' catalogs is equivalent, use the first.
  Result<ResultSet> reference = ReferenceExecute(sql, dbs_[0]->catalog());

  std::vector<Result<ResultSet>> results;
  results.reserve(dbs_.size());
  for (auto& db : dbs_) results.push_back(ExecLast(*db, sql));

  // Compare every engine configuration against the reference: equal
  // error StatusCode, or cell-exact equality of normalized rows.
  std::vector<size_t> bad;
  RowSet ref_norm;
  if (reference.ok()) ref_norm = Normalized(reference->rows);
  for (size_t i = 0; i < results.size(); ++i) {
    const Result<ResultSet>& r = results[i];
    if (reference.ok() != r.ok()) {
      bad.push_back(i);
      continue;
    }
    if (!reference.ok()) {
      if (reference.status().code() != r.status().code()) bad.push_back(i);
      continue;
    }
    if (!SameCells(ref_norm, Normalized(r->rows))) bad.push_back(i);
  }

  // Memory-governance rerun: the same query once more on the
  // one-thread DP configuration, under a per-query budget tight enough
  // to force the spill paths on fuzz-sized data. Spilling must not
  // change a single cell; a clean ResourceExhausted (some unspillable
  // state did not fit) is the one tolerated difference from the
  // reference.
  constexpr size_t kTightBudget = 64 << 10;  // 64 KB
  QueryOptions tight;
  tight.memory_budget_bytes = kTightBudget;
  std::string budget_report;
  Result<ResultSet> budgeted = ExecLast(*dbs_[0], sql, tight);
  if (budgeted.ok()) {
    if (!reference.ok()) {
      budget_report = "budgeted run succeeded but reference failed: " +
                      reference.status().ToString() + "\n";
    } else if (!SameCells(ref_norm, Normalized(budgeted->rows))) {
      budget_report =
          "budgeted rerun (64 KB) produced different cells than the "
          "reference — spilling changed the result\n";
    }
  } else if (budgeted.status().code() != StatusCode::kResourceExhausted &&
             (reference.ok() ||
              budgeted.status().code() != reference.status().code())) {
    budget_report = "budgeted rerun failed with unexpected error: " +
                    budgeted.status().ToString() + "\n";
  }

  DiffOutcome out;
  if (bad.empty() && budget_report.empty()) return out;
  out.diverged = true;
  std::ostringstream os;
  os << "DIVERGENCE on:\n  " << sql << "\n";
  os << "  reference:\n" << OutcomeToString(reference);
  for (size_t i = 0; i < results.size(); ++i) {
    os << "  " << configs_[i].name
       << (std::count(bad.begin(), bad.end(), i) ? " [DIVERGED]" : " [ok]")
       << ":\n"
       << OutcomeToString(results[i]);
  }
  if (!budget_report.empty()) {
    os << "  " << configs_[0].name << " under 64 KB budget [DIVERGED]: "
       << budget_report;
  }
  out.report = os.str();
  return out;
}

std::vector<uint64_t> Differ::PlansConsidered() const {
  std::vector<uint64_t> out;
  for (const auto& db : dbs_) {
    obs::MetricsRegistry* reg =
        const_cast<Database*>(db.get())->metrics_registry();
    out.push_back(
        reg == nullptr
            ? 0
            : static_cast<uint64_t>(
                  reg->counter("optimizer.plans_considered")->value()));
  }
  return out;
}

uint64_t Differ::BaselineCounter(const char* name) const {
  obs::MetricsRegistry* reg =
      const_cast<Database*>(dbs_.front().get())->metrics_registry();
  return reg == nullptr ? 0 : reg->counter(name)->value();
}

uint64_t Differ::SpoolReuses() const {
  return BaselineCounter("exec.spool_reuses");
}

uint64_t Differ::RelationalMultiplies() const {
  return BaselineCounter("exec.relational_multiplies");
}

uint64_t Differ::RelationalMultiplyFallbacks() const {
  return BaselineCounter("exec.relational_multiply_fallbacks");
}

bool Differ::PlansSelfProduct(const std::string& sql) const {
  Result<LogicalOpPtr> plan = dbs_[0]->PlanQuery(sql);
  if (!plan.ok()) return false;
  std::vector<const LogicalOp*> stack = {plan->get()};
  while (!stack.empty()) {
    const LogicalOp* op = stack.back();
    stack.pop_back();
    if (op->multiply && op->multiply->self) return true;
    for (const LogicalOpPtr& c : op->children) stack.push_back(c.get());
  }
  return false;
}

namespace {

/// A literal of `type` drawn from the same exact-in-double grids the
/// catalog generator uses (DESIGN.md §9), rendered as SQL text.
/// Returns "" for LA kinds, which churn INSERTs avoid.
std::string ChurnLiteral(const DataType& type, Rng* rng) {
  switch (type.kind()) {
    case TypeKind::kInteger:
      return std::to_string(static_cast<int64_t>(rng->NextBelow(7)) - 3);
    case TypeKind::kDouble: {
      const double v =
          0.25 * (static_cast<double>(rng->NextBelow(25)) - 12.0);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", v);
      return buf;
    }
    case TypeKind::kString:
      return "'s" + std::to_string(rng->NextBelow(10)) + "'";
    case TypeKind::kBoolean:
      return rng->NextBelow(2) != 0 ? "TRUE" : "FALSE";
    default:
      return "";
  }
}

/// "INSERT INTO t VALUES (...)" for a random all-scalar table of the
/// spec, or "" when every table has an LA column.
std::string ChurnInsert(const CatalogSpec& spec, Rng* rng) {
  std::vector<const TableSpec*> scalar_tables;
  for (const TableSpec& t : spec.tables) {
    bool ok = true;
    for (const ColumnSpec& c : t.columns) {
      if (c.type.is_la()) ok = false;
    }
    if (ok) scalar_tables.push_back(&t);
  }
  if (scalar_tables.empty()) return "";
  const TableSpec& t =
      *scalar_tables[rng->NextBelow(scalar_tables.size())];
  std::string sql = "INSERT INTO " + t.name + " VALUES (";
  for (size_t i = 0; i < t.columns.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += ChurnLiteral(t.columns[i].type, rng);
  }
  return sql + ")";
}

}  // namespace

CacheDiffOutcome RunCacheDiffRounds(const CatalogSpec& spec, uint64_t seed,
                                    size_t rounds) {
  Database::Config on;
  on.num_workers = 8;
  on.num_threads = 1;
  on.obs.enable_metrics = true;
  // Small result budget: eviction and fill-refusal paths run under
  // ordinary fuzz traffic, not only in targeted tests.
  on.cache.result_cache_bytes = 1u << 20;
  Database::Config off = on;
  off.cache.enable_plan_cache = false;
  off.cache.enable_result_cache = false;

  Database cached(on);
  Database plain(off);
  CacheDiffOutcome out;
  {
    const Status s1 = LoadCatalog(spec, &cached);
    const Status s2 = LoadCatalog(spec, &plain);
    if (!s1.ok() || !s2.ok()) {
      out.diverged = true;
      out.report = "cache differ: catalog load failed: " +
                   (s1.ok() ? s2 : s1).ToString();
      return out;
    }
  }

  auto diverge = [&](const std::string& sql, const std::string& detail) {
    out.diverged = true;
    std::ostringstream os;
    os << "CACHE DIVERGENCE (caches-on vs caches-off) on:\n  " << sql << "\n"
       << detail << "  catalog seed: " << spec.seed << "\n";
    out.report = os.str();
  };

  // Runs `sql` on both databases; true when they agree.
  auto run_both = [&](const std::string& sql) {
    const Result<ResultSet> a = ExecLast(cached, sql);
    const Result<ResultSet> b = ExecLast(plain, sql);
    ++out.statements_run;
    if (a.ok() != b.ok()) {
      diverge(sql, "  cached: " + OutcomeToString(a) +
                       "  uncached: " + OutcomeToString(b));
      return false;
    }
    if (!a.ok()) {
      if (a.status().code() != b.status().code()) {
        diverge(sql, "  cached: " + OutcomeToString(a) +
                         "  uncached: " + OutcomeToString(b));
        return false;
      }
      return true;
    }
    if (!SameCells(Normalized(a->rows), Normalized(b->rows))) {
      diverge(sql, "  cached: " + OutcomeToString(a) +
                       "  uncached: " + OutcomeToString(b));
      return false;
    }
    return true;
  };

  Rng rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
  std::vector<std::string> hot;
  bool scratch_exists = false;
  int64_t scratch_value = 0;

  for (size_t r = 0; r < rounds && !out.diverged; ++r) {
    // Keep a small hot pool so replays genuinely hit the caches.
    if (hot.size() < 4 || rng.NextBelow(4) == 0) {
      hot.push_back(GenerateQuery(spec, &rng).ToSql());
      if (hot.size() > 8) hot.erase(hot.begin());
    }
    // Cold then warm: the second run is served from cache on the
    // cached side and must still match the cache-less database.
    const std::string& sql = hot[rng.NextBelow(hot.size())];
    if (!run_both(sql) || !run_both(sql)) break;

    const uint64_t churn = rng.NextBelow(6);
    std::string ddl;
    if (churn == 0) {
      ddl = ChurnInsert(spec, &rng);
    } else if (churn == 1) {
      // CREATE/DROP cycle of one scratch name with fresh contents each
      // generation: a cache keyed without table identity would keep
      // serving the previous incarnation's rows.
      if (scratch_exists) {
        ddl = "DROP TABLE fuzz_scratch";
        scratch_exists = false;
      } else {
        ++scratch_value;
        ddl = "CREATE TABLE fuzz_scratch (k INTEGER); INSERT INTO "
              "fuzz_scratch VALUES (" +
              std::to_string(scratch_value) + ")";
        scratch_exists = true;
      }
    } else if (churn == 2) {
      // Prepared round: the template re-binds across catalog churn and
      // parameters substitute per execution.
      const TableSpec& t = spec.tables[rng.NextBelow(spec.tables.size())];
      const int64_t v = static_cast<int64_t>(rng.NextBelow(7)) - 3;
      const std::string script =
          "PREPARE fz AS SELECT k FROM " + t.name +
          " WHERE k = ?; EXECUTE fz(" + std::to_string(v) +
          "); DEALLOCATE fz";
      if (!run_both(script)) break;
    }
    if (!ddl.empty()) {
      if (!run_both(ddl)) break;
      // Staleness probe: every hot query (plus the scratch-table scan,
      // which must flip between contents and "no such table" in
      // lockstep) replayed right after the catalog changed.
      if (!run_both("SELECT k FROM fuzz_scratch")) break;
      bool ok = true;
      for (const std::string& q : hot) {
        if (!run_both(q)) {
          ok = false;
          break;
        }
      }
      if (!ok) break;
    }
  }
  return out;
}

namespace {

/// True when the (catalog, query) pair still diverges. Builds a fresh
/// Differ per call — candidate catalogs are tiny, so this is cheap.
bool StillDiverges(const CatalogSpec& cat, const QuerySpec& q) {
  Differ differ(cat);
  if (!differ.init_status().ok()) return false;
  return differ.RunOne(q.ToSql()).diverged;
}

/// Applies `mutate` to a copy; keeps it if the divergence persists.
template <typename Fn>
bool TryMutation(CatalogSpec* cat, QuerySpec* q, Fn mutate) {
  CatalogSpec c2 = *cat;
  QuerySpec q2 = *q;
  if (!mutate(&c2, &q2)) return false;
  if (!StillDiverges(c2, q2)) return false;
  *cat = std::move(c2);
  *q = std::move(q2);
  return true;
}

/// Does any clause fragment mention alias `rK.`?
bool AliasReferenced(const QuerySpec& q, const std::string& alias) {
  const std::string needle = alias + ".";
  for (const auto& s : q.select_items) {
    if (s.text.find(needle) != std::string::npos) return true;
  }
  for (const auto& w : q.where) {
    if (w.find(needle) != std::string::npos) return true;
  }
  for (const auto& g : q.group_by) {
    if (g.find(needle) != std::string::npos) return true;
  }
  return false;
}

bool TableReferenced(const QuerySpec& q, const std::string& table) {
  for (const auto& f : q.from) {
    if (f.table == table) return true;
  }
  return false;
}

}  // namespace

Repro Shrink(CatalogSpec catalog, QuerySpec query) {
  bool progress = true;
  while (progress) {
    progress = false;

    // Clause-level drops, cheapest first.
    progress |= TryMutation(&catalog, &query, [](CatalogSpec*, QuerySpec* q) {
      if (!q->limit.has_value()) return false;
      q->limit.reset();
      return true;
    });
    progress |= TryMutation(&catalog, &query, [](CatalogSpec*, QuerySpec* q) {
      if (!q->distinct) return false;
      q->distinct = false;
      return true;
    });
    progress |= TryMutation(&catalog, &query, [](CatalogSpec*, QuerySpec* q) {
      if (q->order_by.empty() || q->limit.has_value()) return false;
      q->order_by.clear();
      return true;
    });

    // Drop one WHERE conjunct.
    for (size_t i = 0; i < query.where.size(); ++i) {
      progress |=
          TryMutation(&catalog, &query, [i](CatalogSpec*, QuerySpec* q) {
            if (i >= q->where.size()) return false;
            q->where.erase(q->where.begin() + static_cast<long>(i));
            return true;
          });
    }

    // Drop one GROUP BY key (and select items textually equal to it).
    for (size_t i = 0; i < query.group_by.size(); ++i) {
      progress |=
          TryMutation(&catalog, &query, [i](CatalogSpec*, QuerySpec* q) {
            if (i >= q->group_by.size()) return false;
            const std::string key = q->group_by[i];
            q->group_by.erase(q->group_by.begin() + static_cast<long>(i));
            for (size_t s = q->select_items.size(); s > 0; --s) {
              if (q->select_items[s - 1].text == key) {
                if (q->select_items.size() == 1) return false;
                // Fix up ORDER BY indexes for the removed item.
                const size_t gone = s - 1;
                std::vector<QuerySpec::OrderKey> keep;
                for (const auto& ok : q->order_by) {
                  if (ok.item == gone) continue;
                  keep.push_back(
                      {ok.item > gone ? ok.item - 1 : ok.item, ok.desc});
                }
                q->order_by = std::move(keep);
                q->select_items.erase(q->select_items.begin() +
                                      static_cast<long>(gone));
              }
            }
            return true;
          });
    }

    // Drop one select item (keeping at least one; LIMIT queries must
    // keep ORDER BY covering all items, so drop LIMIT first there).
    for (size_t i = 0; i < query.select_items.size(); ++i) {
      progress |=
          TryMutation(&catalog, &query, [i](CatalogSpec*, QuerySpec* q) {
            if (q->select_items.size() <= 1 || i >= q->select_items.size()) {
              return false;
            }
            if (q->limit.has_value()) return false;
            std::vector<QuerySpec::OrderKey> keep;
            for (const auto& ok : q->order_by) {
              if (ok.item == i) continue;
              keep.push_back({ok.item > i ? ok.item - 1 : ok.item, ok.desc});
            }
            q->order_by = std::move(keep);
            q->select_items.erase(q->select_items.begin() +
                                  static_cast<long>(i));
            return true;
          });
    }

    // Drop one FROM item whose alias no clause mentions.
    for (size_t i = 0; i < query.from.size(); ++i) {
      progress |=
          TryMutation(&catalog, &query, [i](CatalogSpec*, QuerySpec* q) {
            if (q->from.size() <= 1 || i >= q->from.size()) return false;
            if (AliasReferenced(*q, q->from[i].alias)) return false;
            q->from.erase(q->from.begin() + static_cast<long>(i));
            return true;
          });
    }

    // Shrink table data: halve row counts, then drop rows one by one.
    for (size_t t = 0; t < catalog.tables.size(); ++t) {
      progress |=
          TryMutation(&catalog, &query, [t](CatalogSpec* c, QuerySpec*) {
            TableSpec& tab = c->tables[t];
            if (tab.rows.size() < 2) return false;
            tab.rows.resize(tab.rows.size() / 2);
            return true;
          });
      const size_t nrows = catalog.tables[t].rows.size();
      for (size_t r = 0; r < nrows; ++r) {
        progress |=
            TryMutation(&catalog, &query, [t, r](CatalogSpec* c, QuerySpec*) {
              TableSpec& tab = c->tables[t];
              if (r >= tab.rows.size()) return false;
              tab.rows.erase(tab.rows.begin() + static_cast<long>(r));
              return true;
            });
      }
    }

    // Drop whole tables the query never names.
    for (size_t t = catalog.tables.size(); t > 0; --t) {
      progress |= TryMutation(
          &catalog, &query, [t, &query](CatalogSpec* c, QuerySpec*) {
            if (t - 1 >= c->tables.size()) return false;
            if (TableReferenced(query, c->tables[t - 1].name)) return false;
            c->tables.erase(c->tables.begin() + static_cast<long>(t - 1));
            return true;
          });
    }
  }
  return Repro{std::move(catalog), std::move(query)};
}

std::string ReproReport(const Repro& repro) {
  std::ostringstream os;
  os << "=== shrunk repro ===\n";
  os << repro.catalog.ToString();
  os << "  SQL: " << repro.query.ToSql() << "\n";
  Differ differ(repro.catalog);
  if (!differ.init_status().ok()) {
    os << "  (catalog reload failed: " << differ.init_status().message()
       << ")\n";
    return os.str();
  }
  DiffOutcome outcome = differ.RunOne(repro.query.ToSql());
  os << (outcome.diverged ? outcome.report
                          : "  (no longer diverges after reload?)\n");
  os << "=== end repro ===\n";
  return os.str();
}

}  // namespace radb::testing
