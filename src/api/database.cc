#include "api/database.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "api/system_tables.h"
#include "binder/binder.h"
#include "common/string_util.h"
#include "exec/executor.h"
#include "exec/expr_eval.h"
#include "mem/memory_tracker.h"
#include "obs/metrics_registry.h"
#include "mem/spill_file.h"
#include "parser/normalize.h"
#include "parser/parser.h"
#include "storage/serialize.h"

namespace radb {

Result<double> ResultSet::ScalarDouble() const {
  if (rows.empty() || rows[0].empty()) {
    return Status::ExecutionError("empty result set");
  }
  return rows[0][0].AsDouble();
}

Result<la::Matrix> ResultSet::ScalarMatrix() const {
  if (rows.empty() || rows[0].empty()) {
    return Status::ExecutionError("empty result set");
  }
  if (rows[0][0].kind() != TypeKind::kMatrix) {
    return Status::TypeError("result is not a MATRIX");
  }
  return rows[0][0].Densified().matrix();
}

Result<la::Vector> ResultSet::ScalarVector() const {
  if (rows.empty() || rows[0].empty()) {
    return Status::ExecutionError("empty result set");
  }
  if (rows[0][0].kind() != TypeKind::kVector) {
    return Status::TypeError("result is not a VECTOR");
  }
  return rows[0][0].vector();
}

Result<Value> ResultSet::Get(size_t row, size_t col) const {
  if (row >= rows.size()) {
    return Status::InvalidArgument(
        "row index " + std::to_string(row) + " out of range (result has " +
        std::to_string(rows.size()) + " rows)");
  }
  if (col >= rows[row].size()) {
    return Status::InvalidArgument(
        "column index " + std::to_string(col) +
        " out of range (result has " + std::to_string(rows[row].size()) +
        " columns)");
  }
  return rows[row][col];
}

Result<size_t> ResultSet::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].name == name) return i;
  }
  std::string available;
  for (const SlotInfo& s : columns) {
    if (!available.empty()) available += ", ";
    available += s.name;
  }
  return Status::InvalidArgument("no column named '" + name +
                                 "' (available: " + available + ")");
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::ostringstream os;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) os << " | ";
    os << columns[i].name;
  }
  os << "\n";
  for (size_t r = 0; r < rows.size() && r < max_rows; ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) os << " | ";
      os << rows[r][c].ToString();
    }
    os << "\n";
  }
  if (rows.size() > max_rows) {
    os << "... (" << rows.size() << " rows)\n";
  }
  return os.str();
}

namespace {

/// Evaluates an INSERT ... VALUES expression: constants, arithmetic,
/// and built-in function calls only (no column references).
Result<Value> EvalConstExpr(const Catalog& catalog,
                            const parser::Expr& pe) {
  using PK = parser::Expr::Kind;
  switch (pe.kind) {
    case PK::kIntLiteral:
      return Value::Int(pe.int_value);
    case PK::kDoubleLiteral:
      return Value::Double(pe.double_value);
    case PK::kStringLiteral:
      return Value::String(pe.string_value);
    case PK::kBoolLiteral:
      return Value::Bool(pe.bool_value);
    case PK::kNullLiteral:
      return Value::Null();
    case PK::kUnaryOp: {
      RADB_ASSIGN_OR_RETURN(Value v, EvalConstExpr(catalog, *pe.children[0]));
      if (pe.op == parser::OpKind::kNeg) return EvalNegate(v);
      if (v.is_null()) return Value::Null();
      return Value::Bool(!v.bool_value());
    }
    case PK::kBinaryOp: {
      RADB_ASSIGN_OR_RETURN(Value l, EvalConstExpr(catalog, *pe.children[0]));
      RADB_ASSIGN_OR_RETURN(Value r, EvalConstExpr(catalog, *pe.children[1]));
      switch (pe.op) {
        case parser::OpKind::kAdd:
          return EvalArith(ArithOp::kAdd, l, r);
        case parser::OpKind::kSub:
          return EvalArith(ArithOp::kSub, l, r);
        case parser::OpKind::kMul:
          return EvalArith(ArithOp::kMul, l, r);
        case parser::OpKind::kDiv:
          return EvalArith(ArithOp::kDiv, l, r);
        default:
          return Status::BindError("unsupported operator in INSERT VALUES");
      }
    }
    case PK::kFunctionCall: {
      RADB_ASSIGN_OR_RETURN(const BuiltinFunction* fn,
                            catalog.functions().Lookup(pe.name));
      std::vector<Value> args;
      for (const auto& c : pe.children) {
        RADB_ASSIGN_OR_RETURN(Value v, EvalConstExpr(catalog, *c));
        args.push_back(std::move(v));
      }
      return fn->eval(args);
    }
    case PK::kParam:
      return Status::BindError(
          "parameter marker ? is not allowed in a constant expression");
    default:
      return Status::BindError("INSERT VALUES allows constants only");
  }
}

/// Accumulates wall time into one phase of a QueryRecord on scope
/// exit, so early error returns still charge the partial phase.
/// No-ops on a null record.
class PhaseTimer {
 public:
  PhaseTimer(obs::QueryRecord* record, obs::QueryPhase phase)
      : record_(record),
        phase_(phase),
        start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    if (record_ == nullptr) return;
    record_->phases[phase_] += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  obs::QueryRecord* record_;
  obs::QueryPhase phase_;
  std::chrono::steady_clock::time_point start_;
};

/// Plan cache capacity, in entries (LRU).
constexpr size_t kPlanCacheEntries = 256;

/// The EXPLAIN rendering of an optimized plan: the plan tree, then its
/// estimated cost. Database::Explain returns it as one string, the
/// EXPLAIN statement as one row per line.
std::string ExplainText(const LogicalOp& plan) {
  std::ostringstream os;
  os << plan.ToString() << "estimated cost: " << plan.est_cost << "\n";
  return os.str();
}

/// A one-column "plan" result with one row per line of `text`.
ResultSet PlanTextRows(const std::string& text) {
  ResultSet rs;
  rs.columns.push_back(SlotInfo{0, "plan", DataType::String()});
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    rs.rows.push_back({Value::String(line)});
  }
  return rs;
}

}  // namespace

Database::Database(const Config& config)
    : config_(config), cluster_(config.num_workers) {
  catalog_ = Catalog(config.num_workers);
  if (config_.memory_budget_bytes == 0) {
    // Test hook: RADB_TEST_MEMORY_BUDGET=16MB reruns any suite under
    // a tight default budget (the ctest `memory_budget` label).
    if (const char* env = std::getenv("RADB_TEST_MEMORY_BUDGET")) {
      config_.memory_budget_bytes = ParseByteSize(env);
    }
  }
  pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  // Install as the process-global pool so the LA kernels — free
  // functions with no path to a Database — parallelize over the same
  // threads (and stay sequential when invoked from inside an already
  // parallel executor loop). The scoped install removes this entry
  // from anywhere in the registration stack at destruction, so two
  // live Databases can be torn down in any order without one
  // resurrecting the other's freed pool.
  InstallGlobalPool(pool_.get());
  if (config_.obs.enable_tracing || !config_.obs.trace_path.empty()) {
    tracer_ = std::make_unique<obs::Tracer>();
  }
  if (config_.obs.enable_metrics || !config_.obs.metrics_path.empty()) {
    metrics_registry_ = std::make_unique<obs::MetricsRegistry>();
    // Install as the process-global registry so call sites with no
    // path to a Database (LA kernels, storage I/O) report here too.
    obs::InstallGlobalMetrics(metrics_registry_.get());
  }
  // Contention profiling: every retired pool region reports its
  // startup wait (submission -> first index claim, i.e. time the
  // region sat queued behind other queries' work) and total run time.
  if (metrics_registry_ != nullptr) {
    obs::Histogram* wait =
        metrics_registry_->histogram("pool.region_wait_seconds");
    obs::Histogram* run =
        metrics_registry_->histogram("pool.region_run_seconds");
    pool_->SetRegionObserver([wait, run](double wait_s, double run_s) {
      wait->Observe(wait_s);
      run->Observe(run_s);
    });
  }
  if (config_.cache.enable_plan_cache) {
    plan_cache_ = std::make_unique<PlanCache>(kPlanCacheEntries);
  }
  if (config_.cache.enable_result_cache &&
      config_.cache.result_cache_bytes > 0) {
    // A dedicated standalone tracker root: cache residency is a
    // database-lifetime charge, deliberately NOT part of any query or
    // service budget (whose leak assertions expect zero at idle).
    result_cache_ = std::make_unique<ResultCache>(
        "result_cache", config_.cache.result_cache_bytes);
  }
  // Startup hygiene: reclaim spill files orphaned by a previous
  // process that died between mkstemp and unlink. Live owners (pid
  // probe) and young pid-less files (age check) are left alone.
  (void)mem::SweepOrphanedSpillFiles(config_.spill_dir);
  telemetry_ = std::make_unique<obs::TelemetryStore>(
      config_.telemetry.query_log_capacity);
  if (config_.telemetry.enable_system_tables) {
    system_tables_ = std::make_unique<SystemTableCatalog>(this);
    catalog_.RegisterSystemTableProvider(system_tables_.get());
  }
  const TelemetryOptions& t = config_.telemetry;
  if (!t.prometheus_path.empty() || !t.jsonl_path.empty() ||
      t.prometheus_callback || t.jsonl_callback ||
      t.sampler_interval_ms != 0) {
    obs::TelemetryExporter::Options eo;
    eo.prometheus_path = t.prometheus_path;
    eo.jsonl_path = t.jsonl_path;
    eo.prometheus_callback = t.prometheus_callback;
    eo.jsonl_callback = t.jsonl_callback;
    eo.interval_ms = t.sampler_interval_ms == 0 ? 1000 : t.sampler_interval_ms;
    exporter_ = std::make_unique<obs::TelemetryExporter>(
        metrics_registry_.get(), telemetry_.get(), std::move(eo));
    if (t.sampler_interval_ms != 0) exporter_->StartSampler();
  }
}

Database::~Database() {
  // Flush-on-close: checkpoint + release the directory lock while the
  // metrics registry (whose counters the store holds) is still alive.
  if (store_ != nullptr) (void)store_->Close();
  if (exporter_ != nullptr) exporter_->StopSampler();
  obs::UninstallGlobalMetrics(metrics_registry_.get());
  UninstallGlobalPool(pool_.get());
}

Status Database::Config::Validate(bool persistent) const {
  if (num_workers == 0) {
    return Status::InvalidArgument("Config::num_workers must be at least 1");
  }
  if (enable_vectorized && vectorized_batch_rows == 0) {
    return Status::InvalidArgument(
        "Config::vectorized_batch_rows must be at least 1 when the "
        "vectorized engine is enabled");
  }
  if (!persistent) return Status::OK();
  const StorageOptions& s = storage;
  if (s.buffer_pool_bytes == 0) {
    return Status::InvalidArgument(
        "StorageOptions::buffer_pool_bytes must be non-zero for a "
        "persistent database");
  }
  if (s.page_size < 512 || (s.page_size & (s.page_size - 1)) != 0) {
    return Status::InvalidArgument(
        "StorageOptions::page_size must be a power of two >= 512 (got " +
        std::to_string(s.page_size) + ")");
  }
  if (s.segment_bytes == 0) {
    return Status::InvalidArgument(
        "StorageOptions::segment_bytes must be non-zero");
  }
  if (s.segment_bytes > s.buffer_pool_bytes) {
    return Status::InvalidArgument(
        "StorageOptions::segment_bytes (" + std::to_string(s.segment_bytes) +
        ") exceeds buffer_pool_bytes (" +
        std::to_string(s.buffer_pool_bytes) +
        "): not even one segment would be admissible");
  }
  if (memory_budget_bytes != 0 &&
      s.buffer_pool_bytes > memory_budget_bytes) {
    return Status::InvalidArgument(
        "StorageOptions::buffer_pool_bytes (" +
        std::to_string(s.buffer_pool_bytes) +
        ") exceeds the global memory budget (" +
        std::to_string(memory_budget_bytes) +
        "); shrink the pool or raise Config::memory_budget_bytes");
  }
  return Status::OK();
}

Result<std::unique_ptr<Database>> Database::InMemory(Config config) {
  RADB_RETURN_NOT_OK(config.Validate(/*persistent=*/false));
  return std::make_unique<Database>(config);
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& path,
                                                 Config config) {
  if (path.empty()) {
    return Status::InvalidArgument(
        "Database::Open requires a data directory path (use InMemory() "
        "for an ephemeral database)");
  }
  RADB_RETURN_NOT_OK(config.Validate(/*persistent=*/true));
  auto db = std::make_unique<Database>(config);
  storage::TableStore::Options so;
  so.data_dir = path;
  so.page_size = config.storage.page_size;
  so.segment_bytes = config.storage.segment_bytes;
  so.buffer_pool_bytes = config.storage.buffer_pool_bytes;
  so.wal_sync = config.storage.wal_fsync
                    ? storage::TableStore::WalSync::kCommit
                    : storage::TableStore::WalSync::kNone;
  so.wal_auto_checkpoint_bytes = config.storage.wal_auto_checkpoint_bytes;
  so.metrics = db->metrics_registry_.get();
  RADB_ASSIGN_OR_RETURN(db->store_,
                        storage::TableStore::Open(so, &db->catalog_));
  return db;
}

Status Database::Checkpoint() {
  if (store_ == nullptr) return Status::OK();
  return store_->Checkpoint();
}

Status Database::Close() {
  if (store_ == nullptr) return Status::OK();
  return store_->Close();
}

Status Database::LogMutation(
    const std::function<Status(storage::TableStore&)>& log) {
  if (store_ == nullptr) return Status::OK();
  RADB_RETURN_NOT_OK(log(*store_));
  return store_->MaybeAutoCheckpoint();
}

Result<std::shared_ptr<Table>> Database::CreateTable(const std::string& table,
                                                     Schema schema) {
  RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> t,
                        catalog_.CreateTable(table, std::move(schema)));
  if (store_ != nullptr) {
    RADB_RETURN_NOT_OK(store_->AttachNewTable(t));
    RADB_RETURN_NOT_OK(LogMutation([&](storage::TableStore& s) {
      return s.LogCreateTable(t->name(), t->schema());
    }));
  }
  return t;
}

Status Database::BulkInsert(const std::string& table, std::vector<Row> rows) {
  if (Catalog::IsSystemName(table)) {
    return Status::CatalogError("system table " + ToLower(table) +
                                " is read-only");
  }
  RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, catalog_.GetTable(table));
  RADB_RETURN_NOT_OK(LogMutation(
      [&](storage::TableStore& s) { return s.LogInsert(t->name(), rows); }));
  RADB_RETURN_NOT_OK(t->InsertAll(std::move(rows)));
  catalog_.BumpDataVersion();
  return Status::OK();
}

obs::ObsContext Database::QueryObs(const QueryOptions& options) {
  obs::ObsContext obs = obs_context();
  if (!options.trace) obs.tracer = nullptr;
  if (!options.collect_metrics) obs.metrics = nullptr;
  return obs;
}

size_t Database::QueryBudget(const QueryOptions& options) const {
  return options.memory_budget_bytes != 0 ? options.memory_budget_bytes
                                          : config_.memory_budget_bytes;
}

Result<std::shared_ptr<CachedPlan>> Database::PlanSelect(
    const parser::SelectStmt& stmt, const obs::ObsContext& obs,
    obs::QueryRecord* record, const std::vector<DataType>* param_types) {
  Binder binder(catalog_);
  if (param_types != nullptr) binder.SetParamTypes(param_types);
  std::unique_ptr<BoundQuery> bound;
  {
    obs::ScopedSpan bind_span(obs.tracer, "bind", "pipeline");
    PhaseTimer bind_timer(record, obs::QueryPhase::kBind);
    RADB_ASSIGN_OR_RETURN(bound, binder.Bind(stmt));
  }
  auto entry = std::make_shared<CachedPlan>();
  entry->out_columns = bound->output;
  const size_t visible = bound->num_visible_outputs == 0
                             ? entry->out_columns.size()
                             : bound->num_visible_outputs;
  entry->out_columns.resize(std::min(visible, entry->out_columns.size()));
  Optimizer optimizer(config_.optimizer);
  LogicalOpPtr planned;
  {
    obs::ScopedSpan optimize_span(obs.tracer, "optimize", "pipeline");
    PhaseTimer optimize_timer(record, obs::QueryPhase::kOptimize);
    RADB_ASSIGN_OR_RETURN(planned, optimizer.Plan(std::move(bound), obs));
  }
  PlanDeps pd = CollectTableDeps(*planned);
  entry->plan = std::shared_ptr<const LogicalOp>(std::move(planned));
  entry->catalog_version = catalog_.version();
  entry->schema_version = catalog_.schema_version();
  entry->deps = std::move(pd.deps);
  // Plans over radb_* system tables embed a point-in-time snapshot
  // Table and must be rebuilt every execution.
  entry->result_cacheable = !pd.has_system_table;
  return entry;
}

Result<std::shared_ptr<const CachedPlan>> Database::PlanCached(
    const parser::SelectStmt& stmt, const std::string* cache_key,
    const obs::ObsContext& obs, obs::QueryRecord* record, bool* hit) {
  // Skip bind + optimize when this exact normalized statement was
  // planned against this exact catalog version.
  const bool use_cache = cache_key != nullptr && plan_cache_ != nullptr;
  if (use_cache) {
    auto cached = plan_cache_->Lookup(*cache_key, catalog_.version());
    if (obs.metrics != nullptr) {
      obs.metrics->Add(cached != nullptr ? "cache.plan_hits"
                                         : "cache.plan_misses",
                       1);
    }
    if (cached != nullptr) {
      if (record != nullptr) record->cache_plan_hits++;
      if (hit != nullptr) *hit = true;
      return cached;
    }
  }
  RADB_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> entry,
                        PlanSelect(stmt, obs, record));
  if (use_cache && entry->result_cacheable) {
    plan_cache_->Insert(*cache_key, entry);
  }
  return entry;
}

Result<ResultSet> Database::RunSelect(const parser::SelectStmt& stmt,
                                      const QueryOptions& options,
                                      QueryStats* stats,
                                      obs::QueryRecord* record,
                                      const std::string* cache_key) {
  const obs::ObsContext obs = QueryObs(options);
  // Result cache: replay a materialized result while every source
  // table (and the schema) is unchanged. Served only when this call's
  // budget is unlimited or at least the filling run's peak, so a
  // budget that would have failed the cold run with ResourceExhausted
  // is never satisfied from cache.
  if (cache_key != nullptr && result_cache_ != nullptr) {
    if (auto hit =
            result_cache_->Lookup(*cache_key, catalog_, QueryBudget(options))) {
      if (record != nullptr) record->cache_result_hits++;
      if (obs.metrics != nullptr) obs.metrics->Add("cache.result_hits", 1);
      PhaseTimer serialize_timer(record, obs::QueryPhase::kSerialize);
      ResultSet rs;
      rs.columns = hit->columns;
      rs.rows = hit->rows;
      return rs;
    }
    if (obs.metrics != nullptr) {
      obs.metrics->Add("cache.result_misses", 1);
    }
  }
  RADB_ASSIGN_OR_RETURN(std::shared_ptr<const CachedPlan> entry,
                        PlanCached(stmt, cache_key, obs, record));
  RADB_ASSIGN_OR_RETURN(ResultSet rs,
                        ExecutePlanRows(*entry->plan, entry->out_columns,
                                        options, stats, record));
  if (cache_key != nullptr && entry->result_cacheable) {
    MaybeCacheResult(*cache_key, rs, entry->deps, stats->peak_memory_bytes);
  }
  return rs;
}

void Database::MaybeCacheResult(const std::string& cache_key,
                                const ResultSet& rs,
                                const std::vector<TableDep>& deps,
                                size_t fill_peak) {
  if (result_cache_ == nullptr) return;
  auto entry = std::make_shared<CachedResult>();
  entry->columns = rs.columns;
  entry->rows = rs.rows;
  entry->bytes = ResultBytes(rs.rows);
  entry->fill_peak_bytes = fill_peak;
  entry->schema_version = catalog_.schema_version();
  entry->deps = deps;
  result_cache_->Insert(cache_key, std::move(entry));
}

Result<Dist> Database::ExecutePlan(const LogicalOp& plan,
                                   const QueryOptions& options,
                                   QueryStats* stats, obs::QueryRecord* record,
                                   QueryMetrics* qm,
                                   NodeMetricIds* node_metrics) {
  const obs::ObsContext obs = QueryObs(options);
  // Per-query memory governance: a fresh root tracker per statement,
  // so a ResourceExhausted query releases everything it charged and
  // the next query starts from a clean slate. Budget 0 = unlimited
  // (the tracker still records the peak, which the ablation benchmark
  // reads). Execute assigned options.query_id before the script ran.
  mem::MemoryTracker tracker("query", QueryBudget(options),
                             options.memory_parent, obs.metrics);
  MemoryContext mem{&tracker, config_.spill_dir, options.query_id,
                    options.cancellation.get()};
  std::unique_ptr<ThreadPool> tmp_pool;
  ThreadPool* pool = pool_.get();
  if (options.num_threads_override != 0 &&
      options.num_threads_override != pool_->num_threads()) {
    tmp_pool = std::make_unique<ThreadPool>(options.num_threads_override);
    pool = tmp_pool.get();
  }

  // Execution writes into the caller's per-call QueryMetrics:
  // concurrent sessions must never share mid-flight metrics state. The
  // finished snapshot is copied to last_metrics() at the end.
  const auto t0 = std::chrono::steady_clock::now();
  Dist dist;
  {
    obs::ScopedSpan exec_span(obs.tracer, "execute", "pipeline");
    PhaseTimer exec_timer(record, obs::QueryPhase::kExecute);
    Executor executor(cluster_, qm, obs, pool, mem,
                      ExecOptions{config_.enable_vectorized,
                                  config_.vectorized_batch_rows});
    auto result = executor.Execute(plan);
    if (node_metrics != nullptr) *node_metrics = executor.node_metrics();
    stats->spill_bytes = tracker.spill_bytes();
    stats->peak_memory_bytes = tracker.peak_bytes();
    // A failed statement's record still shows the operators that ran.
    if (record != nullptr) {
      record->operators.insert(record->operators.end(),
                               qm->operators.begin(), qm->operators.end());
    }
    RADB_ASSIGN_OR_RETURN(dist, std::move(result));
  }
  qm->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    last_metrics_ = *qm;
  }
  return dist;
}

Result<ResultSet> Database::ExecutePlanRows(
    const LogicalOp& plan, const std::vector<SlotInfo>& out_columns,
    const QueryOptions& options, QueryStats* stats,
    obs::QueryRecord* record) {
  QueryMetrics qm;
  RADB_ASSIGN_OR_RETURN(Dist dist,
                        ExecutePlan(plan, options, stats, record, &qm));
  PhaseTimer serialize_timer(record, obs::QueryPhase::kSerialize);
  ResultSet rs;
  rs.columns = plan.output;
  // Trim hidden sort columns and restore binder-declared names.
  if (rs.columns.size() >= out_columns.size()) {
    rs.columns.resize(out_columns.size());
    for (size_t i = 0; i < rs.columns.size(); ++i) {
      rs.columns[i].name = out_columns[i].name;
    }
  }
  for (RowSet& partition : dist) {
    for (Row& row : partition) {
      if (row.size() > rs.columns.size()) row.resize(rs.columns.size());
      rs.rows.push_back(std::move(row));
    }
  }
  return rs;
}

Result<ResultSet> Database::RunExecutePrepared(const parser::Statement& stmt,
                                               const QueryOptions& options,
                                               QueryStats* stats,
                                               obs::QueryRecord* record) {
  const obs::ObsContext obs = QueryObs(options);
  const std::string name = ToLower(stmt.relation_name);
  std::shared_ptr<PreparedStatement> prep;
  {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    auto it = prepared_.find(name);
    if (it != prepared_.end()) prep = it->second;
  }
  if (prep == nullptr) {
    return Status::BindError("prepared statement " + name +
                             " does not exist");
  }
  if (stmt.execute_args.size() != prep->num_params) {
    return Status::BindError(
        "prepared statement " + name + " expects " +
        std::to_string(prep->num_params) + " argument(s), got " +
        std::to_string(stmt.execute_args.size()));
  }
  std::vector<Value> args;
  std::vector<DataType> arg_types;
  args.reserve(stmt.execute_args.size());
  for (const auto& e : stmt.execute_args) {
    RADB_ASSIGN_OR_RETURN(Value v, EvalConstExpr(catalog_, *e));
    arg_types.push_back(v.RuntimeType());
    args.push_back(std::move(v));
  }

  // Reuse the bound+optimized template while the catalog and the
  // argument types are unchanged; any catalog change or a type switch
  // (say, EXECUTE q(1) after EXECUTE q(1.5)) forces a rebind.
  std::shared_ptr<const CachedPlan> tmpl;
  {
    std::lock_guard<std::mutex> lock(prepared_mu_);
    if (prep->plan != nullptr &&
        prep->plan->catalog_version == catalog_.version() &&
        prep->param_types == arg_types) {
      tmpl = prep->plan;
    }
  }
  if (tmpl != nullptr) {
    if (record != nullptr) record->cache_plan_hits++;
    if (obs.metrics != nullptr) obs.metrics->Add("cache.plan_hits", 1);
  } else {
    if (obs.metrics != nullptr) obs.metrics->Add("cache.plan_misses", 1);
    RADB_ASSIGN_OR_RETURN(std::shared_ptr<CachedPlan> entry,
                          PlanSelect(*prep->body, obs, record, &arg_types));
    // EXECUTE results are never cached: the name -> body mapping can
    // be replaced by PREPARE without any catalog change, so a textual
    // "execute q(...)" key could go stale invisibly.
    entry->result_cacheable = false;
    tmpl = entry;
    {
      std::lock_guard<std::mutex> lock(prepared_mu_);
      prep->plan = tmpl;
      prep->param_types = arg_types;
    }
  }

  // Substitute the arguments into a private clone; the template stays
  // parameter-abstract for the next EXECUTE. Re-annotate batch
  // capability: literals vectorize where an abstract parameter
  // could not.
  LogicalOpPtr plan = tmpl->plan->Clone();
  RADB_RETURN_NOT_OK(SubstituteParams(plan.get(), args));
  AnnotateBatchCapability(*plan);
  return ExecutePlanRows(*plan, tmpl->out_columns, options, stats, record);
}

std::optional<ScriptResult> Database::ExecuteCachedOnly(
    const std::string& sql, const QueryOptions& options) {
  if (result_cache_ == nullptr) return std::nullopt;
  auto normalized = parser::NormalizeScript(sql);
  if (!normalized.ok() || normalized->empty()) return std::nullopt;
  const size_t budget = QueryBudget(options);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<const CachedResult>> hits;
  hits.reserve(normalized->size());
  for (const std::string& key : *normalized) {
    auto hit = result_cache_->Lookup(key, catalog_, budget);
    if (hit == nullptr) return std::nullopt;
    hits.push_back(std::move(hit));
  }
  // Whole-script hit: serve without parsing. Only SELECT results are
  // ever inserted, so full resolution implies a read-only script.
  ScriptResult script;
  obs::QueryRecord record;
  record.query_id =
      options.query_id != 0
          ? options.query_id
          : next_query_id_.fetch_add(1, std::memory_order_relaxed);
  record.session_id = options.session_id;
  record.sql = sql;
  record.status = StatusCodeName(StatusCode::kOk);
  record.cache_result_hits = static_cast<int64_t>(hits.size());
  record.phases[obs::QueryPhase::kQueue] = options.queue_wait_micros;
  record.phases[obs::QueryPhase::kLatch] = options.latch_wait_micros;
  for (const auto& hit : hits) {
    ResultSet rs;
    rs.columns = hit->columns;
    rs.rows = hit->rows;
    QueryStats qs;
    qs.rows = rs.num_rows();
    record.rows += static_cast<int64_t>(rs.num_rows());
    script.result_sets.push_back(std::move(rs));
    script.statements.push_back(qs);
  }
  const uint64_t serve_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  record.phases[obs::QueryPhase::kSerialize] = serve_micros;
  record.total_micros =
      serve_micros + options.queue_wait_micros + options.latch_wait_micros;
  if (!script.statements.empty()) {
    script.statements.front().wall_seconds = serve_micros * 1e-6;
  }
  if (metrics_registry_ != nullptr && options.collect_metrics) {
    metrics_registry_->Add("cache.result_hits",
                           static_cast<int64_t>(hits.size()));
  }
  RecordQueryTelemetry(std::move(record));
  return script;
}

size_t Database::prepared_count() const {
  std::lock_guard<std::mutex> lock(prepared_mu_);
  return prepared_.size();
}

Result<ScriptResult> Database::Execute(const std::string& sql) {
  return Execute(sql, QueryOptions{});
}

Result<ScriptResult> Database::Execute(const std::string& sql,
                                       const QueryOptions& options) {
  // Deadline handling: the deadline covers this whole call (all
  // statements), so the token is armed once up front. A caller-
  // supplied token with an already-armed deadline (a service session
  // that started the clock at submission, before queue wait) is left
  // alone.
  QueryOptions opts = options;
  if (opts.deadline_ms != 0) {
    if (opts.cancellation == nullptr) {
      opts.cancellation = std::make_shared<CancellationToken>();
    }
    if (!opts.cancellation->has_deadline()) {
      opts.cancellation->ArmDeadlineMs(opts.deadline_ms);
    }
  }
  // One id per call: every statement of the script shares it, and the
  // telemetry record, spill files and pool task tags all agree.
  if (opts.query_id == 0) {
    opts.query_id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  }
  obs::QueryRecord record;
  record.query_id = opts.query_id;
  record.session_id = opts.session_id;
  record.sql = sql;
  record.phases[obs::QueryPhase::kQueue] = opts.queue_wait_micros;
  record.phases[obs::QueryPhase::kLatch] = opts.latch_wait_micros;
  const auto call_t0 = std::chrono::steady_clock::now();
  Result<ScriptResult> result = ExecuteScript(sql, opts, &record);
  const uint64_t wall_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - call_t0)
          .count());
  // End-to-end time includes the blocked time the service attributed
  // to this call before Execute started.
  record.total_micros =
      wall_micros + opts.queue_wait_micros + opts.latch_wait_micros;
  record.status = StatusCodeName(
      result.ok() ? StatusCode::kOk : result.status().code());
  if (result.ok()) {
    for (const ResultSet& rs : result->result_sets) {
      record.rows += static_cast<int64_t>(rs.num_rows());
    }
    for (const QueryStats& s : result->statements) {
      record.spill_bytes += static_cast<int64_t>(s.spill_bytes);
      record.peak_memory_bytes =
          std::max(record.peak_memory_bytes,
                   static_cast<int64_t>(s.peak_memory_bytes));
    }
  }
  RecordQueryTelemetry(std::move(record));
  return result;
}

void Database::RecordQueryTelemetry(obs::QueryRecord record) {
  const uint64_t threshold = config_.telemetry.slow_query_micros;
  const bool slow = threshold != 0 && record.total_micros >= threshold;
  std::string line;
  if (slow) {
    line = obs::TelemetryExporter::QueryRecordJson(record);
  }
  telemetry_->RecordQuery(std::move(record));
  if (!slow) return;
  if (metrics_registry_ != nullptr) {
    metrics_registry_->Add("obs.slow_queries", 1);
  }
  if (config_.telemetry.slow_query_sink) {
    config_.telemetry.slow_query_sink(line);
    return;
  }
  if (!config_.telemetry.slow_query_log_path.empty()) {
    std::lock_guard<std::mutex> lock(slow_log_mu_);
    if (!slow_log_.is_open()) {
      slow_log_.open(config_.telemetry.slow_query_log_path, std::ios::app);
    }
    if (slow_log_.is_open()) {
      slow_log_ << line << "\n";
      slow_log_.flush();
      return;
    }
  }
  std::fprintf(stderr, "[radb slow_query] %s\n", line.c_str());
}

Result<ScriptResult> Database::ExecuteScript(const std::string& sql,
                                             const QueryOptions& options,
                                             obs::QueryRecord* record) {
  const QueryOptions& opts = options;
  if (tracer_ != nullptr && opts.trace) {
    tracer_->Clear();  // trace covers the last call
  }
  const obs::ObsContext obs = QueryObs(opts);
  obs::ScopedSpan query_span(obs.tracer, "query", "pipeline");
  query_span.AddArg("sql", sql);
  std::vector<parser::Statement> stmts;
  {
    obs::ScopedSpan parse_span(obs.tracer, "parse", "pipeline");
    PhaseTimer parse_timer(record, obs::QueryPhase::kParse);
    RADB_ASSIGN_OR_RETURN(stmts, parser::ParseScript(sql));
    parse_span.AddArg("statements", std::to_string(stmts.size()));
  }
  // Per-statement normalized texts = cache keys, aligned with stmts.
  // A normalization failure or count mismatch (both should be
  // impossible for a script that just parsed) disables caching for
  // this call rather than risking key/statement misalignment.
  std::vector<std::string> cache_keys;
  if (plan_cache_ != nullptr || result_cache_ != nullptr) {
    auto normalized = parser::NormalizeScript(sql);
    if (normalized.ok() && normalized->size() == stmts.size()) {
      cache_keys = std::move(*normalized);
    }
  }
  ScriptResult script;
  size_t stmt_index = static_cast<size_t>(-1);
  for (parser::Statement& stmt : stmts) {
    ++stmt_index;
    const std::string* cache_key =
        cache_keys.size() == stmts.size() ? &cache_keys[stmt_index] : nullptr;
    // Between statements is the cheapest cancellation point a script
    // has: a fired token (or expired deadline) stops the script
    // before the next statement starts.
    if (opts.cancellation != nullptr) {
      RADB_RETURN_NOT_OK(opts.cancellation->Check());
    }
    const auto stmt_t0 = std::chrono::steady_clock::now();
    QueryStats stats;
    size_t stmt_rows = 0;
    // Set by the statements that produce a result set.
    std::optional<ResultSet> result;
    switch (stmt.kind) {
      case parser::Statement::Kind::kSelect: {
        RADB_ASSIGN_OR_RETURN(
            result, RunSelect(*stmt.select, opts, &stats, record, cache_key));
        break;
      }
      case parser::Statement::Kind::kExplain: {
        if (stmt.explain_analyze) {
          RADB_ASSIGN_OR_RETURN(result,
                                ExplainAnalyzeSelect(*stmt.select, opts,
                                                     &stats, record,
                                                     cache_key));
          break;
        }
        RADB_ASSIGN_OR_RETURN(std::shared_ptr<CachedPlan> planned,
                              PlanSelect(*stmt.select, obs, record));
        result = PlanTextRows(ExplainText(*planned->plan));
        break;
      }
      case parser::Statement::Kind::kCreateTable: {
        Schema schema;
        for (const parser::ColumnDef& def : stmt.columns) {
          schema.Add(Column{"", def.name, def.type});
        }
        RADB_RETURN_NOT_OK(
            CreateTable(stmt.relation_name, std::move(schema)).status());
        break;
      }
      case parser::Statement::Kind::kCreateTableAs: {
        RADB_ASSIGN_OR_RETURN(ResultSet rs,
                              RunSelect(*stmt.select, opts, &stats, record));
        stmt_rows = rs.num_rows();
        Schema schema;
        for (const SlotInfo& s : rs.columns) {
          schema.Add(Column{"", s.name, s.type});
        }
        RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> t,
                              catalog_.CreateTable(stmt.relation_name,
                                                   std::move(schema)));
        if (store_ != nullptr) {
          RADB_RETURN_NOT_OK(store_->AttachNewTable(t));
          // Two WAL records: create, then the SELECT's materialized
          // output. A crash between them recovers an empty table —
          // the same prefix-of-records guarantee every multi-
          // statement script gets.
          RADB_RETURN_NOT_OK(LogMutation([&](storage::TableStore& s) {
            RADB_RETURN_NOT_OK(s.LogCreateTable(t->name(), t->schema()));
            return s.LogInsert(t->name(), rs.rows);
          }));
        }
        RADB_RETURN_NOT_OK(t->InsertAll(std::move(rs.rows)));
        break;
      }
      case parser::Statement::Kind::kCreateView: {
        // Validate the view body eagerly so errors surface at CREATE
        // time, then store the SQL text.
        Binder binder(catalog_);
        RADB_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> bound,
                              binder.Bind(*stmt.select));
        if (!stmt.view_aliases.empty() &&
            stmt.view_aliases.size() != bound->output.size()) {
          return Status::BindError(
              "view " + stmt.relation_name + " declares " +
              std::to_string(stmt.view_aliases.size()) +
              " columns but SELECT produces " +
              std::to_string(bound->output.size()));
        }
        RADB_RETURN_NOT_OK(catalog_.CreateView(ViewEntry{
            stmt.relation_name, stmt.view_aliases, stmt.view_sql}));
        RADB_RETURN_NOT_OK(LogMutation([&](storage::TableStore& s) {
          return s.LogCreateView(ViewEntry{stmt.relation_name,
                                           stmt.view_aliases,
                                           stmt.view_sql});
        }));
        break;
      }
      case parser::Statement::Kind::kInsert: {
        // Without this guard an INSERT would silently write into a
        // discarded snapshot table.
        if (Catalog::IsSystemName(stmt.relation_name)) {
          return Status::CatalogError("system table " +
                                      ToLower(stmt.relation_name) +
                                      " is read-only");
        }
        RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> t,
                              catalog_.GetTable(stmt.relation_name));
        std::vector<Row> rows;
        rows.reserve(stmt.insert_rows.size());
        for (const auto& row_exprs : stmt.insert_rows) {
          Row row;
          for (const auto& e : row_exprs) {
            RADB_ASSIGN_OR_RETURN(Value v, EvalConstExpr(catalog_, *e));
            row.push_back(std::move(v));
          }
          rows.push_back(std::move(row));
        }
        // WAL first (one record for the whole statement), while the
        // rows are still materialized; then apply in memory.
        RADB_RETURN_NOT_OK(LogMutation([&](storage::TableStore& s) {
          return s.LogInsert(t->name(), rows);
        }));
        RADB_RETURN_NOT_OK(t->InsertAll(std::move(rows)));
        // Retire cached plans (their cardinality estimates are stale);
        // result entries invalidate via the table's own version.
        catalog_.BumpDataVersion();
        break;
      }
      case parser::Statement::Kind::kDropTable:
        RADB_RETURN_NOT_OK(catalog_.DropTable(stmt.relation_name));
        if (store_ != nullptr) {
          // WAL before unlink: a crash in between replays the drop
          // and detaches then; the reverse order would delete a page
          // file the snapshot still references.
          RADB_RETURN_NOT_OK(LogMutation([&](storage::TableStore& s) {
            return s.LogDropTable(ToLower(stmt.relation_name));
          }));
          RADB_RETURN_NOT_OK(
              store_->DetachTable(ToLower(stmt.relation_name)));
        }
        break;
      case parser::Statement::Kind::kDropView:
        RADB_RETURN_NOT_OK(catalog_.DropView(stmt.relation_name));
        RADB_RETURN_NOT_OK(LogMutation([&](storage::TableStore& s) {
          return s.LogDropView(stmt.relation_name);
        }));
        break;
      case parser::Statement::Kind::kCreateIndex: {
        RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> t,
                              catalog_.GetTable(stmt.index_table));
        std::vector<size_t> columns;
        columns.reserve(stmt.index_columns.size());
        for (const std::string& col : stmt.index_columns) {
          RADB_ASSIGN_OR_RETURN(size_t idx, t->schema().Resolve("", col));
          columns.push_back(idx);
        }
        RADB_RETURN_NOT_OK(
            catalog_.CreateIndex(stmt.index_table, stmt.relation_name,
                                 columns));
        RADB_RETURN_NOT_OK(LogMutation([&](storage::TableStore& s) {
          return s.LogCreateIndex(t->name(), ToLower(stmt.relation_name),
                                  columns);
        }));
        break;
      }
      case parser::Statement::Kind::kDropIndex:
        RADB_RETURN_NOT_OK(catalog_.DropIndex(stmt.relation_name));
        RADB_RETURN_NOT_OK(LogMutation([&](storage::TableStore& s) {
          return s.LogDropIndex(ToLower(stmt.relation_name));
        }));
        break;
      case parser::Statement::Kind::kPrepare: {
        // Binding is deferred to the first EXECUTE, whose argument
        // values supply the parameter types.
        auto prep = std::make_shared<PreparedStatement>();
        prep->body = std::move(stmt.select);
        prep->num_params = stmt.num_params;
        std::lock_guard<std::mutex> lock(prepared_mu_);
        prepared_[ToLower(stmt.relation_name)] = std::move(prep);
        break;
      }
      case parser::Statement::Kind::kExecutePrepared: {
        RADB_ASSIGN_OR_RETURN(result,
                              RunExecutePrepared(stmt, opts, &stats, record));
        break;
      }
      case parser::Statement::Kind::kDeallocate: {
        std::lock_guard<std::mutex> lock(prepared_mu_);
        const std::string name = ToLower(stmt.relation_name);
        if (prepared_.erase(name) == 0) {
          return Status::BindError("prepared statement " + name +
                                   " does not exist");
        }
        break;
      }
    }
    if (result.has_value()) {
      stmt_rows = result->num_rows();
      script.result_sets.push_back(std::move(*result));
    }
    stats.rows = stmt_rows;
    stats.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - stmt_t0)
                             .count();
    script.statements.push_back(stats);
  }
  query_span.End();
  RADB_RETURN_NOT_OK(WriteObsFiles());
  return script;
}

namespace {

/// Appends `op`'s label plus an actual-metrics annotation line, then
/// recurses into children. An Aggregate plan node runs as two physical
/// operators (partial + final); their metrics fold into one line:
/// actuals come from the final stage, shuffle/time are summed, skew is
/// the worst of the two.
void RenderAnalyzed(const LogicalOp& op, const NodeMetricIds& nodes,
                    const QueryMetrics& qm, int indent,
                    std::ostringstream& os) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  os << pad << op.NodeLabel() << "\n";
  auto it = nodes.find(&op);
  const std::vector<size_t>* ids = it == nodes.end() ? nullptr : &it->second;
  if (ids != nullptr && !ids->empty()) {
    const OperatorMetrics& final_stage = qm.operators[ids->back()];
    size_t rows_shuffled = 0, bytes_shuffled = 0;
    size_t bytes_spilled = 0, spill_runs = 0;
    double max_worker = 0.0, skew = 0.0;
    for (size_t id : *ids) {
      const OperatorMetrics& m = qm.operators[id];
      rows_shuffled += m.rows_shuffled;
      bytes_shuffled += m.bytes_shuffled;
      bytes_spilled += m.bytes_spilled;
      spill_runs += m.spill_runs;
      max_worker += m.MaxWorkerSeconds();
      skew = std::max(skew, m.Skew());
    }
    os << pad << "  (est rows=" << op.est_rows
       << ", actual rows=" << final_stage.rows_out
       << ", bytes out=" << FormatBytes(double(final_stage.bytes_out))
       << ", shuffled=" << FormatBytes(double(bytes_shuffled)) << "/"
       << rows_shuffled << " rows";
    if (bytes_spilled > 0) {
      os << ", spilled=" << FormatBytes(double(bytes_spilled)) << "/"
         << spill_runs << " runs";
    }
    os << ", max-worker=" << max_worker << " s"
       << ", skew=" << skew;
    if (final_stage.vectorized) {
      size_t batches = 0;
      for (size_t id : *ids) batches += qm.operators[id].batches;
      os << ", exec=batch, batches=" << batches;
    }
    os << ")\n";
  }
  for (const auto& c : op.children) {
    RenderAnalyzed(*c, nodes, qm, indent + 1, os);
  }
}

}  // namespace

Result<ResultSet> Database::ExplainAnalyzeSelect(
    const parser::SelectStmt& stmt, const QueryOptions& options,
    QueryStats* stats, obs::QueryRecord* record,
    const std::string* cache_key) {
  // The plan cache is consulted under the EXPLAIN's own normalized
  // text (a different key space from the bare SELECT; both resolve to
  // the same plan shape). Results of EXPLAIN ANALYZE are never cached
  // — the point is fresh execution metrics.
  bool plan_hit = false;
  RADB_ASSIGN_OR_RETURN(
      std::shared_ptr<const CachedPlan> entry,
      PlanCached(stmt, cache_key, QueryObs(options), record, &plan_hit));
  const LogicalOp& plan = *entry->plan;

  // Snapshot the sparse-dispatch counters so the footer can report
  // this query's deltas (the registry is cumulative per Database).
  obs::MetricsRegistry* sparse_reg = obs::GlobalMetrics();
  uint64_t sparse0 = 0, auto0 = 0, densify0 = 0;
  if (sparse_reg != nullptr) {
    sparse0 = sparse_reg->counter("la.sparse.dispatch_sparse")->value();
    auto0 = sparse_reg->counter("la.sparse.auto_sparsify")->value();
    densify0 = sparse_reg->counter("la.sparse.densify_fallback")->value();
  }
  QueryMetrics qm;
  NodeMetricIds nodes;
  RADB_RETURN_NOT_OK(
      ExecutePlan(plan, options, stats, record, &qm, &nodes).status());

  std::ostringstream os;
  RenderAnalyzed(plan, nodes, qm, 0, os);
  os << "wall time: " << qm.wall_seconds << " s"
     << "; simulated parallel time: " << qm.SimulatedParallelSeconds() << " s"
     << "; total shuffled: " << FormatBytes(double(qm.TotalBytesShuffled()));
  if (stats->spill_bytes > 0) {
    os << "; total spilled: " << FormatBytes(double(stats->spill_bytes))
       << " (peak memory " << FormatBytes(double(stats->peak_memory_bytes))
       << ")";
  }
  if (cache_key != nullptr && plan_cache_ != nullptr) {
    os << "; cache=" << (plan_hit ? "plan-hit" : "miss");
  }
  if (sparse_reg != nullptr) {
    const uint64_t sparse_calls =
        sparse_reg->counter("la.sparse.dispatch_sparse")->value() - sparse0;
    const uint64_t auto_calls =
        sparse_reg->counter("la.sparse.auto_sparsify")->value() - auto0;
    const uint64_t densify_calls =
        sparse_reg->counter("la.sparse.densify_fallback")->value() - densify0;
    if (sparse_calls + auto_calls + densify_calls > 0) {
      os << "; sparse dispatch: sparse=" << sparse_calls
         << " auto=" << auto_calls << " densified=" << densify_calls;
    }
  }
  return PlanTextRows(os.str());
}

Status Database::WriteObsFiles() const {
  if (tracer_ != nullptr && !config_.obs.trace_path.empty()) {
    std::ofstream os(config_.obs.trace_path, std::ios::trunc);
    if (!os) {
      return Status::InvalidArgument("cannot open trace path " +
                                     config_.obs.trace_path);
    }
    os << tracer_->ToChromeJson();
  }
  if (metrics_registry_ != nullptr && !config_.obs.metrics_path.empty()) {
    std::ofstream os(config_.obs.metrics_path, std::ios::trunc);
    if (!os) {
      return Status::InvalidArgument("cannot open metrics path " +
                                     config_.obs.metrics_path);
    }
    os << metrics_registry_->ToJson() << "\n";
  }
  return Status::OK();
}

Status Database::RepartitionTable(const std::string& table,
                                  const std::string& column) {
  if (Catalog::IsSystemName(table)) {
    return Status::CatalogError("system table " + ToLower(table) +
                                " is read-only");
  }
  RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, catalog_.GetTable(table));
  RADB_ASSIGN_OR_RETURN(size_t idx, t->schema().Resolve("", column));
  RADB_RETURN_NOT_OK(LogMutation([&](storage::TableStore& s) {
    return s.LogRepartition(t->name(), idx);
  }));
  RADB_RETURN_NOT_OK(t->RepartitionByHash(idx));
  catalog_.BumpDataVersion();
  return Status::OK();
}

Status Database::SaveTable(const std::string& table,
                           const std::string& path) {
  RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> t, catalog_.GetTable(table));
  return WriteTableFile(*t, path);
}

Status Database::LoadTable(const std::string& table,
                           const std::string& path) {
  RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> loaded,
                        ReadTableFile(path, config_.num_workers));
  RADB_ASSIGN_OR_RETURN(std::shared_ptr<Table> created,
                        catalog_.CreateTable(table, loaded->schema()));
  if (store_ != nullptr) {
    RADB_RETURN_NOT_OK(store_->AttachNewTable(created));
    RADB_RETURN_NOT_OK(LogMutation([&](storage::TableStore& s) {
      return s.LogCreateTable(created->name(), created->schema());
    }));
  }
  RADB_ASSIGN_OR_RETURN(RowSet rows, loaded->Gather());
  RADB_RETURN_NOT_OK(LogMutation([&](storage::TableStore& s) {
    return s.LogInsert(created->name(), rows);
  }));
  RADB_RETURN_NOT_OK(created->InsertAll(std::move(rows)));
  catalog_.BumpDataVersion();
  return Status::OK();
}

Result<std::string> Database::Explain(const std::string& select_sql) {
  RADB_ASSIGN_OR_RETURN(LogicalOpPtr plan, PlanQuery(select_sql));
  return ExplainText(*plan);
}

Result<LogicalOpPtr> Database::PlanQuery(const std::string& select_sql) {
  RADB_ASSIGN_OR_RETURN(auto select, parser::ParseSelect(select_sql));
  RADB_ASSIGN_OR_RETURN(std::shared_ptr<CachedPlan> planned,
                        PlanSelect(*select, obs::ObsContext{}, nullptr));
  return planned->plan->Clone();
}

}  // namespace radb
