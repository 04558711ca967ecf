#ifndef RADB_OBS_TELEMETRY_H_
#define RADB_OBS_TELEMETRY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/query_metrics.h"

namespace radb::obs {

/// Phases a query passes through, in pipeline order. Queue and latch
/// are service-side (admission wait, catalog-latch wait) and are zero
/// for standalone Database::Execute calls.
enum class QueryPhase {
  kQueue = 0,
  kLatch,
  kParse,
  kBind,
  kOptimize,
  kExecute,
  kSerialize,
};
inline constexpr size_t kNumQueryPhases = 7;
const char* QueryPhaseName(QueryPhase phase);

/// Per-phase wall time in microseconds, indexed by QueryPhase.
struct PhaseBreakdown {
  uint64_t micros[kNumQueryPhases] = {};

  uint64_t& operator[](QueryPhase p) { return micros[static_cast<size_t>(p)]; }
  uint64_t operator[](QueryPhase p) const {
    return micros[static_cast<size_t>(p)];
  }
  uint64_t Total() const {
    uint64_t t = 0;
    for (size_t i = 0; i < kNumQueryPhases; ++i) t += micros[i];
    return t;
  }
};

/// One completed (or failed) Execute call. Everything radb_queries /
/// radb_query_phases / radb_operators serves is derived from these.
struct QueryRecord {
  uint64_t ordinal = 0;  // assigned by the store; monotone insert order
  uint64_t query_id = 0;
  uint64_t session_id = 0;  // 0 = standalone (no service session)
  std::string sql;          // cut to TelemetryStore::kMaxSqlBytes
  std::string status;       // StatusCodeName: "OK", "CANCELLED", ...
  int64_t rows = 0;         // total rows across the script's result sets
  int64_t peak_memory_bytes = 0;
  int64_t spill_bytes = 0;
  /// Statements of this call served from the plan / result cache
  /// (a result hit skips parse, bind, optimize AND execute).
  int64_t cache_plan_hits = 0;
  int64_t cache_result_hits = 0;
  PhaseBreakdown phases;
  uint64_t total_micros = 0;  // queue + latch + parse..serialize wall
  /// The executed operators of every statement, in execution order
  /// (at most TelemetryStore::kMaxOperatorsPerQuery are kept).
  std::vector<OperatorMetrics> operators;
};

/// Live session state mirrored into radb_sessions.
struct SessionRecord {
  uint64_t session_id = 0;
  std::string state;  // "idle" | "queued" | "running"
  uint64_t queries = 0;
  uint64_t current_query_id = 0;  // 0 when idle
  std::string current_sql;        // "" when idle
};

/// Bounded in-memory telemetry store behind the system tables: a ring
/// buffer of completed-query records plus a live session registry.
/// All methods are thread-safe behind one leaf mutex — the store never
/// calls out while holding it, so it can be read from a system-table
/// snapshot while any number of sessions record into it.
class TelemetryStore {
 public:
  /// Caps on what one record keeps: operators per query, and SQL text
  /// bytes (longer text is cut and marked with "...").
  static constexpr size_t kMaxOperatorsPerQuery = 64;
  static constexpr size_t kMaxSqlBytes = 1024;

  /// `query_capacity` is the ring size for radb_queries.
  explicit TelemetryStore(size_t query_capacity)
      : query_capacity_(query_capacity) {}

  /// Appends one completed-query record, evicting the oldest when the
  /// ring is full. Truncates sql / operator lists to the caps above
  /// and assigns the record's ordinal (returned).
  uint64_t RecordQuery(QueryRecord record);

  /// Oldest-to-newest copy of the ring.
  std::vector<QueryRecord> SnapshotQueries() const;
  /// Records with ordinal > after, oldest first (exporter cursor).
  std::vector<QueryRecord> SnapshotQueriesSince(uint64_t after) const;

  /// Live session registry, keyed by session id.
  void RegisterSession(uint64_t session_id);
  void DeregisterSession(uint64_t session_id);
  /// Updates a live session's state; bumps `queries` when a query
  /// transitions to "running". Unknown ids are ignored (the session
  /// may already be closed).
  void SetSessionState(uint64_t session_id, const std::string& state,
                       uint64_t query_id, const std::string& sql);
  std::vector<SessionRecord> SnapshotSessions() const;

  size_t query_capacity() const { return query_capacity_; }
  /// Total records ever inserted (not just retained).
  uint64_t queries_recorded() const;

 private:
  std::string Truncated(const std::string& sql) const;

  const size_t query_capacity_;
  mutable std::mutex mu_;
  uint64_t next_ordinal_ = 1;
  std::deque<QueryRecord> queries_;
  std::map<uint64_t, SessionRecord> sessions_;
};

}  // namespace radb::obs

#endif  // RADB_OBS_TELEMETRY_H_
