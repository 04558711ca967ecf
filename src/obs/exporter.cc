#include "obs/exporter.h"

#include <chrono>
#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace radb::obs {

namespace {

/// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted
/// snake_case names map by replacing every other byte with '_' and
/// prefixing the exporter namespace.
std::string PrometheusName(const std::string& name) {
  std::string out = "radb_";
  out.reserve(name.size() + 5);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string PrometheusNumber(double v) {
  // Prometheus accepts Go-style floats; JsonNumber's clamped rendering
  // is a compatible subset.
  return JsonNumber(v);
}

}  // namespace

TelemetryExporter::TelemetryExporter(const MetricsRegistry* registry,
                                     const TelemetryStore* store)
    : TelemetryExporter(registry, store, Options()) {}

TelemetryExporter::TelemetryExporter(const MetricsRegistry* registry,
                                     const TelemetryStore* store,
                                     Options options)
    : registry_(registry), store_(store), options_(std::move(options)) {}

TelemetryExporter::~TelemetryExporter() { StopSampler(); }

std::string TelemetryExporter::RenderPrometheus() const {
  std::ostringstream os;
  if (registry_ == nullptr) return os.str();
  for (const MetricSample& s : registry_->Snapshot()) {
    const std::string name = PrometheusName(s.name);
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        os << "# TYPE " << name << " counter\n"
           << name << " " << s.count << "\n";
        break;
      case MetricSample::Kind::kGauge:
        os << "# TYPE " << name << " gauge\n"
           << name << " " << PrometheusNumber(s.value) << "\n";
        break;
      case MetricSample::Kind::kHistogram:
        os << "# TYPE " << name << " summary\n"
           << name << "{quantile=\"0.5\"} " << PrometheusNumber(s.p50) << "\n"
           << name << "{quantile=\"0.95\"} " << PrometheusNumber(s.p95) << "\n"
           << name << "{quantile=\"0.99\"} " << PrometheusNumber(s.p99) << "\n"
           << name << "_sum " << PrometheusNumber(s.sum) << "\n"
           << name << "_count " << s.count << "\n";
        break;
    }
  }
  return os.str();
}

std::string TelemetryExporter::QueryRecordJson(const QueryRecord& r) {
  std::ostringstream os;
  os << "{\"query_id\": " << r.query_id << ", \"session_id\": " << r.session_id
     << ", \"status\": \"" << JsonEscape(r.status) << "\""
     << ", \"rows\": " << r.rows
     << ", \"peak_memory_bytes\": " << r.peak_memory_bytes
     << ", \"spill_bytes\": " << r.spill_bytes
     << ", \"cache_plan_hits\": " << r.cache_plan_hits
     << ", \"cache_result_hits\": " << r.cache_result_hits
     << ", \"total_micros\": " << r.total_micros << ", \"phases\": {";
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    os << (i == 0 ? "" : ", ") << "\""
       << QueryPhaseName(static_cast<QueryPhase>(i))
       << "\": " << r.phases.micros[i];
  }
  os << "}, \"sql\": \"" << JsonEscape(r.sql) << "\", \"operators\": [";
  // The same fields, under the same names, as radb_operators.
  for (size_t i = 0; i < r.operators.size(); ++i) {
    const OperatorMetrics& op = r.operators[i];
    os << (i == 0 ? "" : ", ") << "{\"op\": " << i << ", \"name\": \""
       << JsonEscape(op.name) << "\", \"est_rows\": "
       << JsonNumber(op.estimated_rows) << ", \"actual_rows\": "
       << op.rows_out << ", \"rows_in\": " << op.rows_in
       << ", \"worker_seconds\": " << JsonNumber(op.TotalSeconds())
       << ", \"max_worker_seconds\": " << JsonNumber(op.MaxWorkerSeconds())
       << ", \"skew\": " << JsonNumber(op.Skew())
       << ", \"rows_shuffled\": " << op.rows_shuffled
       << ", \"bytes_shuffled\": " << op.bytes_shuffled
       << ", \"bytes_spilled\": " << op.bytes_spilled
       << ", \"spill_runs\": " << op.spill_runs
       << ", \"est_error\": " << JsonNumber(op.EstimationError())
       << ", \"exec_mode\": \"" << op.ExecMode()
       << "\", \"batches\": " << op.batches << "}";
  }
  os << "]}";
  return os.str();
}

std::string TelemetryExporter::RenderJsonl() {
  if (store_ == nullptr) return "";
  uint64_t after;
  {
    std::lock_guard<std::mutex> lock(cursor_mu_);
    after = jsonl_cursor_;
  }
  const std::vector<QueryRecord> records = store_->SnapshotQueriesSince(after);
  std::ostringstream os;
  uint64_t last = after;
  for (const QueryRecord& r : records) {
    os << QueryRecordJson(r) << "\n";
    last = r.ordinal;
  }
  {
    std::lock_guard<std::mutex> lock(cursor_mu_);
    if (last > jsonl_cursor_) jsonl_cursor_ = last;
  }
  return os.str();
}

Status TelemetryExporter::ExportOnce() {
  Status result = Status::OK();
  const std::string prom = RenderPrometheus();
  if (options_.prometheus_callback) options_.prometheus_callback(prom);
  if (!options_.prometheus_path.empty()) {
    std::ofstream out(options_.prometheus_path, std::ios::trunc);
    out << prom;
    if (!out && result.ok()) {
      result = Status::ExecutionError("cannot write Prometheus export to " +
                                      options_.prometheus_path);
    }
  }
  const std::string jsonl = RenderJsonl();
  if (options_.jsonl_callback) options_.jsonl_callback(jsonl);
  if (!options_.jsonl_path.empty() && !jsonl.empty()) {
    std::ofstream out(options_.jsonl_path, std::ios::app);
    out << jsonl;
    if (!out && result.ok()) {
      result = Status::ExecutionError("cannot append JSONL export to " +
                                      options_.jsonl_path);
    }
  }
  return result;
}

void TelemetryExporter::StartSampler() {
  std::lock_guard<std::mutex> lock(sampler_mu_);
  if (sampler_running_) return;
  sampler_stop_ = false;
  sampler_running_ = true;
  sampler_ = std::thread([this] { SamplerLoop(); });
}

void TelemetryExporter::StopSampler() {
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    if (!sampler_running_) return;
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  sampler_.join();
  std::lock_guard<std::mutex> lock(sampler_mu_);
  sampler_running_ = false;
}

bool TelemetryExporter::sampler_running() const {
  std::lock_guard<std::mutex> lock(sampler_mu_);
  return sampler_running_;
}

void TelemetryExporter::SamplerLoop() {
  const auto period = std::chrono::milliseconds(
      options_.interval_ms == 0 ? 1000 : options_.interval_ms);
  std::unique_lock<std::mutex> lock(sampler_mu_);
  while (!sampler_stop_) {
    lock.unlock();
    (void)ExportOnce();
    lock.lock();
    sampler_cv_.wait_for(lock, period, [this] { return sampler_stop_; });
  }
}

}  // namespace radb::obs
