#ifndef RADB_API_DATABASE_H_
#define RADB_API_DATABASE_H_

#include <atomic>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/cancellation.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/cluster.h"
#include "exec/executor.h"
#include "mem/memory_tracker.h"
#include "obs/exporter.h"
#include "obs/metrics_registry.h"
#include "obs/obs.h"
#include "obs/query_metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "optimizer/query_cache.h"
#include "plan/logical_plan.h"
#include "storage/table.h"
#include "storage/table_store.h"

namespace radb {

class SystemTableCatalog;  // api/system_tables.h

/// Materialized result of a SELECT, gathered from all workers.
struct ResultSet {
  std::vector<SlotInfo> columns;
  RowSet rows;

  size_t num_rows() const { return rows.size(); }
  size_t num_columns() const { return columns.size(); }
  /// Unchecked fast path: indices must be in range (use Get() for the
  /// bounds-checked accessor).
  const Value& at(size_t row, size_t col) const { return rows[row][col]; }

  /// Bounds-checked cell access: InvalidArgument (with the actual
  /// result shape in the message) instead of undefined behavior on a
  /// bad index.
  Result<Value> Get(size_t row, size_t col) const;
  /// Position of the column named `name`; InvalidArgument (listing
  /// the available columns) when absent.
  Result<size_t> ColumnIndex(const std::string& name) const;

  /// First value of a single-cell result as double (common for
  /// scalar aggregates). TypeError/ExecutionError when unsuitable.
  Result<double> ScalarDouble() const;
  /// First value of the first row as a matrix.
  Result<la::Matrix> ScalarMatrix() const;
  /// First value of the first row as a vector.
  Result<la::Vector> ScalarVector() const;

  /// Pretty-printed table (for examples / debugging).
  std::string ToString(size_t max_rows = 20) const;
};

/// Per-call execution knobs for Database::Execute. Defaults mean
/// "inherit the Database's Config" for every field.
struct QueryOptions {
  /// Memory budget for this call's queries (intermediates, hash
  /// tables, aggregation state). 0 = Config::memory_budget_bytes
  /// (whose 0 = unlimited). Over-budget operators spill to disk where
  /// possible and produce bit-identical results; unspillable state
  /// that cannot fit fails the statement with ResourceExhausted.
  size_t memory_budget_bytes = 0;
  /// Run this call on a temporary thread pool with this many threads
  /// instead of the database's pool. 0 = use the database pool.
  /// Results are identical at every setting.
  size_t num_threads_override = 0;
  /// Wall-clock deadline for the whole call, in milliseconds from the
  /// moment Execute starts (0 = none). The clock covers queue wait
  /// when the call goes through a service::Session. On expiry the
  /// statement fails with DeadlineExceeded; already-completed
  /// statements of the script are discarded with it.
  uint64_t deadline_ms = 0;
  /// Cooperative cancellation handle. When set, the executor checks it
  /// at each operator's start, each pipeline batch and every 256 rows,
  /// cells, pairs or groups of its loops (LA kernels do not); Cancel()
  /// from any thread aborts the call with Cancelled. Execute creates
  /// one internally when deadline_ms is set without a token.
  std::shared_ptr<CancellationToken> cancellation{};
  /// Query id used for spill-file attribution and thread-pool task
  /// tagging. 0 = the Database assigns a fresh id per call.
  uint64_t query_id = 0;
  /// Service-level global memory root this call's per-query tracker
  /// mirrors its charges into (null = standalone). Set by the
  /// admission controller; the global budget itself is enforced at
  /// admission, not per byte.
  mem::MemoryTracker* memory_parent = nullptr;
  /// Session attribution for the radb_queries record (0 = standalone
  /// call, no service session). Set by service::Session.
  uint64_t session_id = 0;
  /// Time this call already spent blocked before reaching Execute —
  /// admission-queue wait and catalog-latch wait — credited to the
  /// record's queue/latch phases. Set by service::Session.
  uint64_t queue_wait_micros = 0;
  uint64_t latch_wait_micros = 0;
};

/// Cheap per-statement execution summary, collected for every
/// statement of an Execute call regardless of observability settings.
struct QueryStats {
  size_t rows = 0;           // rows in the statement's result set
  double wall_seconds = 0.0;
  size_t spill_bytes = 0;       // bytes written to spill files
  size_t peak_memory_bytes = 0; // tracked high-water mark
};

/// Everything an Execute call produced: one ResultSet per
/// result-producing statement (SELECT / EXPLAIN / EXPLAIN ANALYZE, in
/// script order — not just the last one) and one QueryStats per
/// statement of the script.
struct ScriptResult {
  std::vector<ResultSet> result_sets;
  std::vector<QueryStats> statements;

  bool has_results() const { return !result_sets.empty(); }
  /// The last result set; result_sets must be non-empty.
  const ResultSet& last() const { return result_sets.back(); }
};

/// The user-facing database engine: a catalog, a simulated cluster,
/// and the parse → bind → optimize → execute pipeline. This is the
/// "SimSQL with LA extensions" of the paper, as a C++ library.
///
/// Construction goes through two factories:
///
///   // Ephemeral: everything lives in RAM, gone at destruction.
///   auto db = Database::InMemory();
///
///   // Durable: catalog + data persist in a directory. CREATE/DROP/
///   // INSERT are WAL-logged and survive restart; reopening the same
///   // path recovers the previous state with zero re-ingest.
///   auto db = Database::Open("/data/mydb", config);
///
/// Both validate the Config up front and return InvalidArgument for
/// nonsensical combinations instead of failing deep in execution.
/// (The plain constructors remain for embedded in-memory use — they
/// are exactly InMemory() minus the validation.)
///
///   (*db)->Execute("CREATE TABLE v (vec VECTOR[10])").status();
///   auto script = (*db)->Execute(
///       "SELECT SUM(outer_product(vec, vec)) FROM v",
///       QueryOptions{.memory_budget_bytes = 64 << 20});
///
/// Durability semantics (persistent databases):
///  - every mutating statement appends one logical WAL record and —
///    with StorageOptions::wal_fsync — is durable when Execute
///    returns;
///  - Checkpoint() rewrites page files and truncates the WAL; it runs
///    automatically when the WAL outgrows
///    StorageOptions::wal_auto_checkpoint_bytes;
///  - Close() checkpoints and releases the directory lock (also done
///    by the destructor). A closed database must not execute further
///    statements — Close exists so the same process can reopen the
///    directory (cold-restart tests) without destroying the object
///    first.
class Database {
 public:
  /// Observability switches. Everything defaults to off, in which
  /// case the pipeline runs through null-object fast paths (a handful
  /// of branch-on-nullptr checks, no allocation, no clock reads).
  struct ObsOptions {
    /// Record a span tree (parse/bind/optimize/execute, per-operator
    /// and per-worker children) for every Execute call.
    bool enable_tracing = false;
    /// Maintain a metrics registry (counters/gauges/histograms). The
    /// registry is also installed as the process-global one so LA
    /// kernels and storage I/O report into it.
    bool enable_metrics = false;
    /// When non-empty, the Chrome trace-event JSON of the most recent
    /// Execute call is rewritten here after each call (implies
    /// enable_tracing). Load via chrome://tracing or Perfetto.
    std::string trace_path;
    /// When non-empty, the metrics JSON snapshot is rewritten here
    /// after each Execute call (implies enable_metrics).
    std::string metrics_path;
  };

  /// Telemetry knobs: the query-record ring behind the radb_* system
  /// tables, the slow-query log, and the exporter/sampler. The store
  /// itself is always on (it is a bounded in-memory ring and costs a
  /// few microseconds per query); only the export paths need opting
  /// into.
  struct TelemetryOptions {
    /// Serve the radb_* system tables through the catalog. When off,
    /// queries against them fail with CatalogError (the reserved
    /// prefix stays reserved either way).
    bool enable_system_tables = true;
    /// Completed-query records retained for radb_queries /
    /// radb_operators (oldest evicted first). Each record keeps at
    /// most TelemetryStore::kMaxOperatorsPerQuery operators and
    /// kMaxSqlBytes of SQL text.
    size_t query_log_capacity = 256;
    /// Queries whose end-to-end time (queue wait included) reaches
    /// this threshold emit one structured JSON line with the full
    /// phase breakdown. 0 = slow-query log off.
    uint64_t slow_query_micros = 0;
    /// Slow-query log sink: appended to this file when non-empty,
    /// else stderr. `slow_query_sink` overrides both (test hook).
    std::string slow_query_log_path;
    std::function<void(const std::string&)> slow_query_sink;
    /// Exporter sinks (see obs::TelemetryExporter). The exporter is
    /// created when any of these is set; the periodic sampler thread
    /// additionally requires sampler_interval_ms != 0 and shuts down
    /// cleanly with the Database.
    std::string prometheus_path;
    std::string jsonl_path;
    std::function<void(const std::string&)> prometheus_callback;
    std::function<void(const std::string&)> jsonl_callback;
    uint64_t sampler_interval_ms = 0;
  };

  struct Config {
    /// Simulated worker count (the paper uses 10 machines x 8 cores;
    /// workers here model the unit of data partitioning).
    size_t num_workers = 8;
    /// Real execution threads in the shared pool that the executor's
    /// per-worker loops and the LA kernels dispatch onto. 0 = one per
    /// hardware core; 1 = fully sequential (the pre-pool behavior).
    /// Results are bit-identical at every setting — only wall-clock
    /// changes.
    size_t num_threads = 0;
    /// Default per-query memory budget in bytes; 0 = unlimited. When
    /// 0, the RADB_TEST_MEMORY_BUDGET environment variable (a byte
    /// size like "16MB") supplies the default — the hook the
    /// memory_budget ctest label uses to rerun suites under pressure.
    /// QueryOptions::memory_budget_bytes overrides per call.
    size_t memory_budget_bytes = 0;
    /// Directory spill files are created in ("" = system temp dir).
    std::string spill_dir;

    /// Hot-traffic caches (plan + result). Folded into one struct so
    /// a service config reads `config.cache.*` in one place.
    struct CacheOptions {
      /// Plan cache: normalized statement text -> optimized plan,
      /// invalidated by any catalog change (DDL or DML — a plan
      /// embeds table pointers and cardinality estimates). Holds up
      /// to 256 entries (LRU).
      bool enable_plan_cache = true;
      /// Result cache: materialized result sets of deterministic
      /// read-only statements, replayed while every source table is
      /// unchanged (per-table versions + schema version). Bytes are
      /// charged against a dedicated MemoryTracker root with LRU
      /// eviction; 0 bytes or enable_result_cache=false turns it
      /// off.
      bool enable_result_cache = true;
      size_t result_cache_bytes = 64u << 20;
    };
    CacheOptions cache;

    /// Durability knobs, consulted only by Database::Open (an
    /// in-memory database has no store). Validated at Open:
    /// a buffer pool larger than a non-zero global memory budget is
    /// rejected with InvalidArgument rather than thrashing the spill
    /// path deep in execution.
    struct StorageOptions {
      /// Budget for checkpointed segments resident in RAM. Eviction
      /// is LRU over unpinned clean segments; tables larger than the
      /// pool stream through it.
      size_t buffer_pool_bytes = 256ull << 20;
      /// Page size of the per-table page files (power of two,
      /// >= 512).
      uint32_t page_size = 8192;
      /// Target serialized size of one sealed segment (the unit of
      /// buffer-pool residency and eviction).
      size_t segment_bytes = 64u << 10;
      /// fsync the WAL after every mutating statement (durable by
      /// the time Execute returns). Off = the OS decides; a crash
      /// may lose the most recent statements but never corrupts.
      bool wal_fsync = true;
      /// WAL size that triggers an automatic checkpoint (bounds both
      /// recovery time and dirty-tail size).
      size_t wal_auto_checkpoint_bytes = 64ull << 20;
    };
    StorageOptions storage;

    Optimizer::Options optimizer;
    ObsOptions obs;
    TelemetryOptions telemetry;

    /// Rejects nonsensical combinations (zero workers, zero-size
    /// pool/pages for a persistent open, buffer pool exceeding the
    /// global memory budget, ...). `persistent` adds the checks that
    /// only matter when a store will be opened. Called by the
    /// factories so misconfiguration fails at Open with
    /// InvalidArgument, not deep in execution.
    Status Validate(bool persistent) const;
  };

  Database() : Database(Config{}) {}
  explicit Database(const Config& config);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Opens (or creates) a durable database in directory `path`:
  /// validates `config`, recovers the persisted catalog + data
  /// (replaying the WAL tail if the last process died mid-write), and
  /// WAL-logs every subsequent mutating statement. The directory is
  /// flock'd for the lifetime of the instance — a second concurrent
  /// Open of the same path fails.
  static Result<std::unique_ptr<Database>> Open(const std::string& path,
                                                Config config);
  static Result<std::unique_ptr<Database>> Open(const std::string& path) {
    return Open(path, Config{});
  }
  /// An ephemeral database with `config` validated up front. Same
  /// object the plain constructor builds; use this form in new code
  /// so misconfiguration surfaces as InvalidArgument instead of being
  /// silently clamped.
  static Result<std::unique_ptr<Database>> InMemory(Config config);
  static Result<std::unique_ptr<Database>> InMemory() {
    return InMemory(Config{});
  }

  /// True when this database was produced by Open() and is still
  /// attached to its data directory.
  bool persistent() const { return store_ != nullptr; }
  /// The durable store behind a persistent database (null for
  /// in-memory). Exposed for stats (radb_bufferpool) and tests.
  storage::TableStore* table_store() { return store_.get(); }

  /// Forces a checkpoint: seals open segment tails, rewrites page
  /// files and dirty index images, then truncates the WAL. No-op for
  /// an in-memory database.
  Status Checkpoint();
  /// Checkpoints and releases the data directory (also done by the
  /// destructor). Idempotent. The instance must not execute further
  /// statements afterwards; the directory is immediately reopenable
  /// (by this process or another).
  Status Close();

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  const Cluster& cluster() const { return cluster_; }
  /// The execution thread pool (never null; a 1-thread pool runs
  /// everything inline on the caller).
  ThreadPool* pool() { return pool_.get(); }
  /// Resolved Config::num_threads (0 resolves to the hardware core
  /// count at construction).
  size_t num_threads() const { return pool_->num_threads(); }

  /// Executes one or more ';'-separated statements with default
  /// QueryOptions. Returns every result set the script produced plus
  /// per-statement execution stats.
  Result<ScriptResult> Execute(const std::string& sql);
  /// Same, with per-call knobs (memory budget, thread override,
  /// observability toggles).
  Result<ScriptResult> Execute(const std::string& sql,
                               const QueryOptions& options);

  /// Cache-only fast path: serves the whole script from the result
  /// cache WITHOUT parsing when every statement's normalized text has
  /// a valid entry (source tables unchanged, schema unchanged, and
  /// the entry's fill ran within this call's memory budget). Returns
  /// nullopt on any miss — the caller falls back to Execute() — and
  /// records telemetry only on a hit. Service sessions call this
  /// under the shared catalog latch before paying for admission.
  std::optional<ScriptResult> ExecuteCachedOnly(const std::string& sql,
                                                const QueryOptions& options);

  /// Optimizes a SELECT and returns the EXPLAIN rendering with cost
  /// annotations: the rows of the `EXPLAIN` statement, each ended by a
  /// newline.
  Result<std::string> Explain(const std::string& select_sql);

  /// Optimizes a SELECT and returns a private copy of the logical plan
  /// (for tests that inspect or rewrite plan shape).
  Result<LogicalOpPtr> PlanQuery(const std::string& select_sql);

  /// Programmatic CREATE TABLE, equivalent to executing the DDL: the
  /// table is registered in the catalog AND attached to the persistent
  /// store (WAL-logged) when this database was opened with Open().
  /// Callers must use this — not catalog().CreateTable directly — or
  /// the table would silently stay memory-only.
  Result<std::shared_ptr<Table>> CreateTable(const std::string& table,
                                             Schema schema);

  /// Bulk loader: appends rows to a table round-robin across
  /// partitions, bypassing SQL parsing. The fast path used by the
  /// workload generators.
  Status BulkInsert(const std::string& table, std::vector<Row> rows);

  /// Re-shards a table by hash of `column` (one shard per worker).
  /// Joins on that column then skip shuffling this side (paper §2.1).
  Status RepartitionTable(const std::string& table,
                          const std::string& column);

  /// Persists a table (schema + rows) to `path` in the radb binary
  /// table format.
  Status SaveTable(const std::string& table, const std::string& path);
  /// Loads a table file into the catalog under `table` (which must not
  /// exist yet); rows are redistributed across this database's
  /// workers.
  Status LoadTable(const std::string& table, const std::string& path);

  /// Metrics of the most recently executed statement (per-operator
  /// times, shuffle volume — the Figure 4 data). A single-caller
  /// accessor: with concurrent sessions, read per-call stats from
  /// ScriptResult and the telemetry store instead.
  const QueryMetrics& last_metrics() const { return last_metrics_; }

  /// Span tracer (null unless Config::obs enables tracing). Holds the
  /// span tree of the most recent Execute call.
  obs::Tracer* tracer() { return tracer_.get(); }
  /// Metrics registry (null unless Config::obs enables metrics).
  /// Counters accumulate across the lifetime of the Database.
  obs::MetricsRegistry* metrics_registry() { return metrics_registry_.get(); }
  /// The tracer/metrics pair threaded through the pipeline; both
  /// members are null when observability is off.
  obs::ObsContext obs_context() {
    return obs::ObsContext{tracer_.get(), metrics_registry_.get()};
  }

  /// Completed-query ring + live session registry behind the radb_*
  /// system tables. Never null.
  obs::TelemetryStore* telemetry_store() { return telemetry_.get(); }
  const obs::TelemetryStore* telemetry_store() const {
    return telemetry_.get();
  }
  /// Exporter (null unless Config::telemetry configures a sink or the
  /// sampler).
  obs::TelemetryExporter* exporter() { return exporter_.get(); }

  /// Plan / result caches (null when disabled by Config).
  PlanCache* plan_cache() { return plan_cache_.get(); }
  ResultCache* result_cache() { return result_cache_.get(); }
  /// Number of PREPAREd statements currently registered.
  size_t prepared_count() const;

 private:
  friend class SystemTableCatalog;

  /// One PREPAREd statement: the AST template plus, after the first
  /// EXECUTE, the bound+optimized plan template (parameters still
  /// abstract). The plan is reused while the catalog version and the
  /// arguments' types match; otherwise EXECUTE rebinds. Guarded by
  /// prepared_mu_.
  struct PreparedStatement {
    std::unique_ptr<parser::SelectStmt> body;
    size_t num_params = 0;
    std::shared_ptr<const CachedPlan> plan;  // null until first EXECUTE
    std::vector<DataType> param_types;       // types `plan` was bound with
  };

  /// The one planning step behind SELECT, EXPLAIN, EXPLAIN ANALYZE,
  /// EXECUTE and PlanQuery: binds `stmt` (typing parameter markers
  /// from `param_types` for a prepared body), trims hidden sort keys
  /// from the visible outputs, optimizes under the bind / optimize
  /// phase timers and spans, and collects the plan's table deps. The
  /// entry carries the catalog versions it was planned at and is
  /// result-cacheable unless it scans a radb_* system table. Each
  /// caller applies its own cache policy.
  Result<std::shared_ptr<CachedPlan>> PlanSelect(
      const parser::SelectStmt& stmt, const obs::ObsContext& obs,
      obs::QueryRecord* record,
      const std::vector<DataType>* param_types = nullptr);
  /// The plan-cache policy of SELECT and EXPLAIN ANALYZE: the entry
  /// under `cache_key` when it is valid for this catalog version (then
  /// `*hit` is set), else a fresh PlanSelect, inserted when
  /// cacheable. A null key bypasses the cache.
  Result<std::shared_ptr<const CachedPlan>> PlanCached(
      const parser::SelectStmt& stmt, const std::string* cache_key,
      const obs::ObsContext& obs, obs::QueryRecord* record,
      bool* hit = nullptr);
  /// The one execution step: a per-statement memory tracker under the
  /// call's budget, the pool override, the executor, and the copy-back
  /// of spill/peak into `stats`, operators into `record` and `qm` into
  /// last_metrics(). `qm` receives the statement's operator metrics;
  /// `node_metrics`, when non-null, the executor's plan-node ->
  /// operator-index map (EXPLAIN ANALYZE annotates the plan with it).
  Result<Dist> ExecutePlan(const LogicalOp& plan, const QueryOptions& options,
                           QueryStats* stats, obs::QueryRecord* record,
                           QueryMetrics* qm,
                           NodeMetricIds* node_metrics = nullptr);
  /// ExecutePlan, then serialization to a ResultSet with `out_columns`
  /// (hidden sort keys trimmed). SELECT and EXECUTE end here.
  Result<ResultSet> ExecutePlanRows(const LogicalOp& plan,
                                    const std::vector<SlotInfo>& out_columns,
                                    const QueryOptions& options,
                                    QueryStats* stats,
                                    obs::QueryRecord* record);
  /// SELECT: serves the result cache, else plans through the plan
  /// cache and executes. `cache_key`, when non-null, is the statement's
  /// normalized text and enables both caches for this statement.
  Result<ResultSet> RunSelect(const parser::SelectStmt& stmt,
                              const QueryOptions& options, QueryStats* stats,
                              obs::QueryRecord* record,
                              const std::string* cache_key = nullptr);
  /// EXECUTE name (args): evaluates the constant arguments, reuses or
  /// (re)builds the prepared plan template, substitutes parameters
  /// into a private clone, and executes it.
  Result<ResultSet> RunExecutePrepared(const parser::Statement& stmt,
                                       const QueryOptions& options,
                                       QueryStats* stats,
                                       obs::QueryRecord* record);
  /// Inserts a successful SELECT's result into the result cache when
  /// eligible (cache on, key present, deterministic plan).
  void MaybeCacheResult(const std::string& cache_key, const ResultSet& rs,
                        const std::vector<TableDep>& deps, size_t fill_peak);
  /// EXPLAIN ANALYZE: executes the SELECT, then renders the plan tree
  /// annotated with per-node actual metrics (including spill volume).
  /// With a cache key, the plan cache is consulted/filled (under the
  /// EXPLAIN's own normalized text) and the footer reports
  /// cache=plan-hit / cache=miss.
  Result<ResultSet> ExplainAnalyzeSelect(const parser::SelectStmt& stmt,
                                         const QueryOptions& options,
                                         QueryStats* stats,
                                         obs::QueryRecord* record,
                                         const std::string* cache_key);
  /// The statement loop behind Execute(); `record` accumulates the
  /// phase breakdown and operator records for telemetry.
  Result<ScriptResult> ExecuteScript(const std::string& sql,
                                     const QueryOptions& options,
                                     obs::QueryRecord* record);
  /// Inserts the finished record into the telemetry ring and, when it
  /// crosses Config::telemetry.slow_query_micros, emits one structured
  /// slow-query-log line.
  void RecordQueryTelemetry(obs::QueryRecord record);
  /// The call's memory budget: QueryOptions over Config (0 = none).
  size_t QueryBudget(const QueryOptions& options) const;
  /// Rewrites trace/metrics files if Config::obs names paths.
  Status WriteObsFiles() const;

  /// The one path of every mutating statement: WAL-logs it (`log`;
  /// skipped for an in-memory database), applies it in memory (`apply`,
  /// when the caller has not already), then runs the automatic
  /// checkpoint check, so a checkpoint the record triggers holds the
  /// change. A logging failure fails the statement before it is
  /// applied; a caller that applied first keeps its in-memory effect,
  /// but durability could not be guaranteed.
  Status LogMutation(const std::function<Status(storage::TableStore&)>& log,
                     const std::function<Status()>& apply = {});

  Config config_;
  Cluster cluster_;
  Catalog catalog_;
  /// The durable half (null = in-memory). Declared before any member
  /// that could reference pooled segments and destroyed by explicit
  /// Close() in the destructor, after queries have drained.
  std::unique_ptr<storage::TableStore> store_;
  /// Guards last_metrics_. Execution itself writes into per-call
  /// QueryMetrics locals; only the final copy-back takes the lock, so
  /// concurrent sessions never race on mid-flight metrics.
  mutable std::mutex stats_mu_;
  QueryMetrics last_metrics_;
  /// Ids handed to calls that did not bring one (spill attribution,
  /// pool task tags). Starts at 1; 0 means "unassigned".
  std::atomic<uint64_t> next_query_id_{1};
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MetricsRegistry> metrics_registry_;
  std::unique_ptr<obs::TelemetryStore> telemetry_;
  /// The radb_* system-table provider (null when disabled); registered
  /// with catalog_ at construction. Defined in api/system_tables.h.
  std::unique_ptr<SystemTableCatalog> system_tables_;
  /// Declared after the registry/store it reads so its destructor
  /// (which joins the sampler thread) runs first.
  std::unique_ptr<obs::TelemetryExporter> exporter_;
  /// Lazily-opened append sink for the slow-query log.
  std::mutex slow_log_mu_;
  std::ofstream slow_log_;
  /// Hot-traffic caches (null when disabled). Mutation of catalog /
  /// tables happens under the service's unique catalog latch; the
  /// caches themselves are internally synchronized leaf structures.
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<ResultCache> result_cache_;
  /// PREPAREd statements by lowercase name.
  mutable std::mutex prepared_mu_;
  std::map<std::string, std::shared_ptr<PreparedStatement>> prepared_;
};

}  // namespace radb

#endif  // RADB_API_DATABASE_H_
