#include "obs/telemetry.h"

namespace radb::obs {

const char* QueryPhaseName(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kQueue:
      return "queue";
    case QueryPhase::kLatch:
      return "latch";
    case QueryPhase::kParse:
      return "parse";
    case QueryPhase::kBind:
      return "bind";
    case QueryPhase::kOptimize:
      return "optimize";
    case QueryPhase::kExecute:
      return "execute";
    case QueryPhase::kSerialize:
      return "serialize";
  }
  return "unknown";
}

std::string TelemetryStore::Truncated(const std::string& sql) const {
  if (sql.size() <= kMaxSqlBytes) return sql;
  return sql.substr(0, kMaxSqlBytes) + "...";
}

uint64_t TelemetryStore::RecordQuery(QueryRecord record) {
  record.sql = Truncated(record.sql);
  if (record.operators.size() > kMaxOperatorsPerQuery) {
    record.operators.resize(kMaxOperatorsPerQuery);
  }
  std::lock_guard<std::mutex> lock(mu_);
  record.ordinal = next_ordinal_++;
  const uint64_t ordinal = record.ordinal;
  queries_.push_back(std::move(record));
  while (queries_.size() > query_capacity_) queries_.pop_front();
  return ordinal;
}

std::vector<QueryRecord> TelemetryStore::SnapshotQueries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<QueryRecord>(queries_.begin(), queries_.end());
}

std::vector<QueryRecord> TelemetryStore::SnapshotQueriesSince(
    uint64_t after) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryRecord> out;
  for (const QueryRecord& q : queries_) {
    if (q.ordinal > after) out.push_back(q);
  }
  return out;
}

void TelemetryStore::RegisterSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  SessionRecord& s = sessions_[session_id];
  s.session_id = session_id;
  s.state = "idle";
}

void TelemetryStore::DeregisterSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(session_id);
}

void TelemetryStore::SetSessionState(uint64_t session_id,
                                     const std::string& state,
                                     uint64_t query_id,
                                     const std::string& sql) {
  const std::string text = Truncated(sql);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  SessionRecord& s = it->second;
  if (state == "running" && s.state != "running") ++s.queries;
  s.state = state;
  s.current_query_id = query_id;
  s.current_sql = text;
}

std::vector<SessionRecord> TelemetryStore::SnapshotSessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SessionRecord> out;
  out.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) out.push_back(s);
  return out;
}

uint64_t TelemetryStore::queries_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_ordinal_ - 1;
}

}  // namespace radb::obs
