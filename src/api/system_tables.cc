#include "api/system_tables.h"

#include <initializer_list>
#include <iterator>
#include <utility>

#include "common/string_util.h"
#include "obs/telemetry.h"

namespace radb {

namespace {

constexpr const char* kSystemTableNames[] = {
    "radb_metrics",   "radb_queries",  "radb_query_phases", "radb_operators",
    "radb_sessions",  "radb_threads",  "radb_tables",       "radb_cache",
    "radb_bufferpool", "radb_indexes",
};

Schema MakeSchema(std::initializer_list<std::pair<const char*, DataType>> cols) {
  Schema schema;
  for (const auto& [name, type] : cols) {
    schema.Add(Column{"", name, type});
  }
  return schema;
}

/// Snapshot tables are small and read-once: one partition keeps the
/// scan single-region and Gather()-friendly.
std::shared_ptr<Table> MakeSnapshotTable(const std::string& name,
                                         Schema schema) {
  return std::make_shared<Table>(name, std::move(schema), 1);
}

}  // namespace

std::vector<std::string> SystemTableCatalog::TableNames() const {
  return std::vector<std::string>(std::begin(kSystemTableNames),
                                  std::end(kSystemTableNames));
}

bool SystemTableCatalog::Has(const std::string& lower_name) const {
  for (const char* name : kSystemTableNames) {
    if (lower_name == name) return true;
  }
  return false;
}

Result<std::shared_ptr<Table>> SystemTableCatalog::Snapshot(
    const std::string& lower_name) const {
  if (lower_name == "radb_metrics") return MetricsTable();
  if (lower_name == "radb_queries") return QueriesTable();
  if (lower_name == "radb_query_phases") return QueryPhasesTable();
  if (lower_name == "radb_operators") return OperatorsTable();
  if (lower_name == "radb_sessions") return SessionsTable();
  if (lower_name == "radb_threads") return ThreadsTable();
  if (lower_name == "radb_tables") return TablesTable();
  if (lower_name == "radb_cache") return CacheTable();
  if (lower_name == "radb_bufferpool") return BufferPoolTable();
  if (lower_name == "radb_indexes") return IndexesTable();
  return Status::CatalogError("unknown system table: " + lower_name);
}

std::shared_ptr<Table> SystemTableCatalog::MetricsTable() const {
  auto table = MakeSnapshotTable(
      "radb_metrics",
      MakeSchema({{"name", DataType::String()},
                  {"kind", DataType::String()},
                  {"value", DataType::Double()},
                  {"count", DataType::Integer()},
                  {"sum", DataType::Double()},
                  {"min", DataType::Double()},
                  {"max", DataType::Double()},
                  {"p50", DataType::Double()},
                  {"p95", DataType::Double()},
                  {"p99", DataType::Double()}}));
  const obs::MetricsRegistry* registry = db_->metrics_registry();
  if (registry == nullptr) return table;
  for (const obs::MetricSample& s : registry->Snapshot()) {
    (void)table->Insert({Value::String(s.name),
                         Value::String(obs::MetricKindName(s.kind)),
                         Value::Double(s.value),
                         Value::Int(static_cast<int64_t>(s.count)),
                         Value::Double(s.sum), Value::Double(s.min),
                         Value::Double(s.max), Value::Double(s.p50),
                         Value::Double(s.p95), Value::Double(s.p99)});
  }
  return table;
}

std::shared_ptr<Table> SystemTableCatalog::QueriesTable() const {
  auto table = MakeSnapshotTable(
      "radb_queries",
      MakeSchema({{"query_id", DataType::Integer()},
                  {"session_id", DataType::Integer()},
                  {"sql", DataType::String()},
                  {"status", DataType::String()},
                  {"rows", DataType::Integer()},
                  {"peak_memory_bytes", DataType::Integer()},
                  {"spill_bytes", DataType::Integer()},
                  {"queue_micros", DataType::Integer()},
                  {"latch_micros", DataType::Integer()},
                  {"parse_micros", DataType::Integer()},
                  {"bind_micros", DataType::Integer()},
                  {"optimize_micros", DataType::Integer()},
                  {"execute_micros", DataType::Integer()},
                  {"serialize_micros", DataType::Integer()},
                  {"total_micros", DataType::Integer()},
                  {"cache", DataType::String()}}));
  for (const obs::QueryRecord& q : db_->telemetry_store()->SnapshotQueries()) {
    Row row{Value::Int(static_cast<int64_t>(q.query_id)),
            Value::Int(static_cast<int64_t>(q.session_id)),
            Value::String(q.sql), Value::String(q.status), Value::Int(q.rows),
            Value::Int(q.peak_memory_bytes), Value::Int(q.spill_bytes)};
    for (size_t i = 0; i < obs::kNumQueryPhases; ++i) {
      row.push_back(Value::Int(static_cast<int64_t>(q.phases.micros[i])));
    }
    row.push_back(Value::Int(static_cast<int64_t>(q.total_micros)));
    const char* cache = "miss";
    if (q.cache_result_hits > 0) {
      cache = "result-hit";
    } else if (q.cache_plan_hits > 0) {
      cache = "plan-hit";
    }
    row.push_back(Value::String(cache));
    (void)table->Insert(std::move(row));
  }
  return table;
}

std::shared_ptr<Table> SystemTableCatalog::QueryPhasesTable() const {
  auto table = MakeSnapshotTable(
      "radb_query_phases", MakeSchema({{"query_id", DataType::Integer()},
                                       {"session_id", DataType::Integer()},
                                       {"phase", DataType::String()},
                                       {"micros", DataType::Integer()}}));
  for (const obs::QueryRecord& q : db_->telemetry_store()->SnapshotQueries()) {
    for (size_t i = 0; i < obs::kNumQueryPhases; ++i) {
      (void)table->Insert(
          {Value::Int(static_cast<int64_t>(q.query_id)),
           Value::Int(static_cast<int64_t>(q.session_id)),
           Value::String(obs::QueryPhaseName(static_cast<obs::QueryPhase>(i))),
           Value::Int(static_cast<int64_t>(q.phases.micros[i]))});
    }
  }
  return table;
}

std::shared_ptr<Table> SystemTableCatalog::OperatorsTable() const {
  auto table = MakeSnapshotTable(
      "radb_operators",
      MakeSchema({{"query_id", DataType::Integer()},
                  {"op", DataType::Integer()},
                  {"name", DataType::String()},
                  {"est_rows", DataType::Double()},
                  {"actual_rows", DataType::Integer()},
                  {"rows_in", DataType::Integer()},
                  {"worker_seconds", DataType::Double()},
                  {"max_worker_seconds", DataType::Double()},
                  {"skew", DataType::Double()},
                  {"rows_shuffled", DataType::Integer()},
                  {"bytes_shuffled", DataType::Integer()},
                  {"bytes_spilled", DataType::Integer()},
                  {"spill_runs", DataType::Integer()},
                  {"est_error", DataType::Double()},
                  {"exec_mode", DataType::String()},
                  {"batches", DataType::Integer()}}));
  for (const obs::QueryRecord& q : db_->telemetry_store()->SnapshotQueries()) {
    for (size_t i = 0; i < q.operators.size(); ++i) {
      const OperatorMetrics& op = q.operators[i];
      (void)table->Insert(
          {Value::Int(static_cast<int64_t>(q.query_id)),
           Value::Int(static_cast<int64_t>(i)), Value::String(op.name),
           Value::Double(op.estimated_rows),
           Value::Int(static_cast<int64_t>(op.rows_out)),
           Value::Int(static_cast<int64_t>(op.rows_in)),
           Value::Double(op.TotalSeconds()),
           Value::Double(op.MaxWorkerSeconds()), Value::Double(op.Skew()),
           Value::Int(static_cast<int64_t>(op.rows_shuffled)),
           Value::Int(static_cast<int64_t>(op.bytes_shuffled)),
           Value::Int(static_cast<int64_t>(op.bytes_spilled)),
           Value::Int(static_cast<int64_t>(op.spill_runs)),
           Value::Double(op.EstimationError()),
           Value::String(op.ExecMode()),
           Value::Int(static_cast<int64_t>(op.batches))});
    }
  }
  return table;
}

std::shared_ptr<Table> SystemTableCatalog::SessionsTable() const {
  auto table = MakeSnapshotTable(
      "radb_sessions", MakeSchema({{"session_id", DataType::Integer()},
                                   {"state", DataType::String()},
                                   {"queries", DataType::Integer()},
                                   {"current_query_id", DataType::Integer()},
                                   {"current_sql", DataType::String()}}));
  for (const obs::SessionRecord& s :
       db_->telemetry_store()->SnapshotSessions()) {
    (void)table->Insert({Value::Int(static_cast<int64_t>(s.session_id)),
                         Value::String(s.state),
                         Value::Int(static_cast<int64_t>(s.queries)),
                         Value::Int(static_cast<int64_t>(s.current_query_id)),
                         Value::String(s.current_sql)});
  }
  return table;
}

std::shared_ptr<Table> SystemTableCatalog::ThreadsTable() const {
  auto table = MakeSnapshotTable(
      "radb_threads", MakeSchema({{"kind", DataType::String()},
                                  {"id", DataType::Integer()},
                                  {"tag", DataType::Integer()},
                                  {"queue_depth", DataType::Integer()},
                                  {"tasks", DataType::Integer()},
                                  {"busy_micros", DataType::Integer()},
                                  {"wait_micros", DataType::Integer()}}));
  const ThreadPool::PoolStats stats = db_->pool()->Stats();
  auto micros = [](double seconds) {
    return Value::Int(static_cast<int64_t>(seconds * 1e6));
  };
  for (size_t i = 0; i < stats.workers.size(); ++i) {
    const ThreadPool::WorkerStats& w = stats.workers[i];
    (void)table->Insert({Value::String("worker"),
                         Value::Int(static_cast<int64_t>(i)), Value::Int(0),
                         Value::Int(0),
                         Value::Int(static_cast<int64_t>(w.tasks)),
                         micros(w.busy_seconds), micros(w.wait_seconds)});
  }
  // Submitting threads' own claims, folded into one aggregate row.
  (void)table->Insert({Value::String("caller"), Value::Int(-1), Value::Int(0),
                       Value::Int(0),
                       Value::Int(static_cast<int64_t>(stats.caller.tasks)),
                       micros(stats.caller.busy_seconds),
                       micros(stats.caller.wait_seconds)});
  for (const ThreadPool::RegionStats& r : stats.regions) {
    (void)table->Insert(
        {Value::String("region"), Value::Int(static_cast<int64_t>(r.id)),
         Value::Int(static_cast<int64_t>(r.tag)),
         Value::Int(static_cast<int64_t>(r.n - r.next)),
         Value::Int(static_cast<int64_t>(r.completed)),
         micros(r.age_seconds), Value::Int(0)});
  }
  return table;
}

std::shared_ptr<Table> SystemTableCatalog::TablesTable() const {
  auto table = MakeSnapshotTable(
      "radb_tables", MakeSchema({{"name", DataType::String()},
                                 {"columns", DataType::Integer()},
                                 {"num_rows", DataType::Integer()},
                                 {"bytes", DataType::Integer()},
                                 {"num_partitions", DataType::Integer()},
                                 {"partitioning", DataType::String()}}));
  const Catalog& catalog = db_->catalog();
  for (const std::string& name : catalog.TableNames()) {
    auto t = catalog.GetTable(name);
    if (!t.ok()) continue;
    const Table& user = *t.value();
    const char* partitioning = "round_robin";
    switch (user.partitioning().kind) {
      case Partitioning::Kind::kRoundRobin:
        partitioning = "round_robin";
        break;
      case Partitioning::Kind::kHash:
        partitioning = "hash";
        break;
      case Partitioning::Kind::kSingleton:
        partitioning = "singleton";
        break;
    }
    (void)table->Insert(
        {Value::String(name),
         Value::Int(static_cast<int64_t>(user.schema().size())),
         Value::Int(static_cast<int64_t>(user.num_rows())),
         Value::Int(static_cast<int64_t>(user.byte_size())),
         Value::Int(static_cast<int64_t>(user.num_partitions())),
         Value::String(partitioning)});
  }
  return table;
}

std::shared_ptr<Table> SystemTableCatalog::CacheTable() const {
  auto table = MakeSnapshotTable(
      "radb_cache", MakeSchema({{"cache", DataType::String()},
                                {"entries", DataType::Integer()},
                                {"bytes", DataType::Integer()},
                                {"budget_bytes", DataType::Integer()},
                                {"hits", DataType::Integer()},
                                {"misses", DataType::Integer()},
                                {"evictions", DataType::Integer()},
                                {"invalidations", DataType::Integer()}}));
  auto row = [&](const char* kind, int64_t entries, int64_t bytes,
                 int64_t budget, const CacheStatsSnapshot& s) {
    (void)table->Insert({Value::String(kind), Value::Int(entries),
                         Value::Int(bytes), Value::Int(budget),
                         Value::Int(s.hits), Value::Int(s.misses),
                         Value::Int(s.evictions), Value::Int(s.invalidations)});
  };
  if (const PlanCache* plans = db_->plan_cache()) {
    row("plan", static_cast<int64_t>(plans->entries()), 0, 0, plans->stats());
  }
  if (const ResultCache* results = db_->result_cache()) {
    row("result", static_cast<int64_t>(results->entries()),
        static_cast<int64_t>(results->bytes_in_use()),
        static_cast<int64_t>(results->budget_bytes()), results->stats());
  }
  row("prepared", static_cast<int64_t>(db_->prepared_count()), 0, 0,
      CacheStatsSnapshot{});
  return table;
}

std::shared_ptr<Table> SystemTableCatalog::BufferPoolTable() const {
  auto table = MakeSnapshotTable(
      "radb_bufferpool",
      MakeSchema({{"budget_bytes", DataType::Integer()},
                  {"cached_bytes", DataType::Integer()},
                  {"unevictable_bytes", DataType::Integer()},
                  {"entries", DataType::Integer()},
                  {"pinned_entries", DataType::Integer()},
                  {"hits", DataType::Integer()},
                  {"misses", DataType::Integer()},
                  {"evictions", DataType::Integer()},
                  {"wal_bytes", DataType::Integer()},
                  {"checkpoints", DataType::Integer()},
                  {"replayed_statements", DataType::Integer()},
                  {"recovered", DataType::Boolean()},
                  {"page_files", DataType::Integer()},
                  {"total_pages", DataType::Integer()},
                  {"free_pages", DataType::Integer()}}));
  // One row per database; none at all when the database is in-memory
  // (SELECT COUNT(*) FROM radb_bufferpool is the cheap persistence
  // probe).
  storage::TableStore* store = db_->table_store();
  if (store == nullptr) return table;
  const storage::BufferPool::Stats pool = store->pool()->GetStats();
  const storage::TableStore::Stats st = store->GetStats();
  auto u = [](uint64_t v) { return Value::Int(static_cast<int64_t>(v)); };
  (void)table->Insert(
      {u(pool.budget_bytes), u(pool.cached_bytes), u(pool.unevictable_bytes),
       u(pool.entries), u(pool.pinned_entries), u(pool.hits), u(pool.misses),
       u(pool.evictions), u(st.wal_bytes), u(st.checkpoints),
       u(st.replayed_statements), Value::Bool(st.recovered),
       u(st.page_files), u(st.total_pages), u(st.free_pages)});
  return table;
}

std::shared_ptr<Table> SystemTableCatalog::IndexesTable() const {
  auto table = MakeSnapshotTable(
      "radb_indexes", MakeSchema({{"name", DataType::String()},
                                  {"table_name", DataType::String()},
                                  {"columns", DataType::String()},
                                  {"entries", DataType::Integer()},
                                  {"degraded", DataType::Boolean()}}));
  const Catalog& catalog = db_->catalog();
  for (const auto& [index, owner] : catalog.index_owners()) {
    auto t = catalog.GetTable(owner);
    if (!t.ok()) continue;
    const IndexDef* def = t.value()->FindIndex(index);
    if (def == nullptr) continue;
    std::string cols;
    for (size_t c : def->columns) {
      if (!cols.empty()) cols += ",";
      cols += t.value()->schema().columns()[c].name;
    }
    (void)table->Insert(
        {Value::String(index), Value::String(owner), Value::String(cols),
         Value::Int(static_cast<int64_t>(
             def->tree == nullptr ? 0 : def->tree->size())),
         Value::Bool(def->degraded)});
  }
  return table;
}

}  // namespace radb
