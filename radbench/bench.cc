#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "binder/binder.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "mem/memory_tracker.h"
#include "obs/json.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"
#include "storage/serialize.h"

namespace radbench {

using namespace radb;

uint64_t SpanLog::Begin(const std::string& name, uint64_t parent,
                        uint64_t request) {
  Span s;
  s.id = ++next_id_;
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start = SecondsSince(t0_);
  spans_.push_back(std::move(s));
  return next_id_;
}

void SpanLog::End(uint64_t id) {
  // Ids are dense and 1-based, so span `id` sits at index id - 1.
  spans_[id - 1].end = SecondsSince(t0_);
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.duration());
  }
  return out;
}

std::vector<double> SpanLog::SelfTimesOf(const std::string& name) const {
  const std::map<uint64_t, double> self = SelfTimes(spans_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(self.at(s.id));
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << ",\"name\":\""
       << obs::JsonEscape(s.name) << "\",\"start\":"
       << obs::JsonNumber(s.start) << ",\"end\":" << obs::JsonNumber(s.end)
       << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return static_cast<bool>(os);
}

Database::Config BaseConfig(const RunArgs& args, bool caches) {
  Database::Config c;
  c.num_workers = kWorkers;
  c.num_threads = kThreads;
  c.spill_dir = args.work_dir + "/spill";
  c.cache.enable_plan_cache = caches;
  c.cache.enable_result_cache = caches;
  c.obs.enable_metrics = args.trace;
  // The traced run reads per-query records back from the telemetry
  // ring, so it must hold every query of the run.
  if (args.trace) c.telemetry.query_log_capacity = 8192;
  return c;
}

std::string ResultFingerprint(const ResultSet& rs) {
  std::ostringstream os(std::ios::binary);
  for (const SlotInfo& c : rs.columns) {
    os << c.name << '\0' << c.type.ToString() << '\0';
  }
  for (const Row& row : rs.rows) WriteRowBinary(os, row);
  return os.str();
}

uint64_t CounterValue(Database& db, const std::string& name) {
  obs::MetricsRegistry* reg = db.metrics_registry();
  return reg == nullptr ? 0 : reg->counter(name)->value();
}

DirectRun DriveDirect(Database& db, const std::string& sql, SpanLog* log) {
  DirectRun out;
  const uint64_t req = log->NewRequest();
  SpanLog::Scope stmt(log, "statement", 0, req);
  const uint64_t parent = stmt.id();

  Result<std::vector<parser::Statement>> parsed =
      Status::ExecutionError("not run");
  {
    SpanLog::Scope s(log, "parse", parent, req);
    parsed = parser::ParseScript(sql);
  }
  if (!parsed.ok() || parsed->size() != 1 ||
      (*parsed)[0].kind != parser::Statement::Kind::kSelect) {
    return out;
  }
  Result<std::unique_ptr<BoundQuery>> bound =
      Status::ExecutionError("not run");
  {
    SpanLog::Scope s(log, "bind", parent, req);
    Binder binder(db.catalog());
    bound = binder.Bind(*(*parsed)[0].select);
  }
  if (!bound.ok()) return out;
  std::vector<SlotInfo> out_columns = (*bound)->output;
  const size_t visible = (*bound)->num_visible_outputs == 0
                             ? out_columns.size()
                             : (*bound)->num_visible_outputs;
  out_columns.resize(std::min(visible, out_columns.size()));
  Result<LogicalOpPtr> plan =
      Status::ExecutionError("not run");
  {
    SpanLog::Scope s(log, "optimize", parent, req);
    Optimizer optimizer;
    plan = optimizer.Plan(std::move(*bound));
  }
  if (!plan.ok()) return out;
  mem::MemoryTracker tracker("radbench", size_t{0});
  MemoryContext mem{&tracker, "", 0, nullptr};
  Result<Dist> dist =
      Status::ExecutionError("not run");
  {
    SpanLog::Scope s(log, "execute", parent, req);
    Executor executor(db.cluster(), &out.metrics, obs::ObsContext{}, db.pool(),
                      mem, ExecOptions{});
    dist = executor.Execute(**plan);
  }
  if (!dist.ok()) return out;
  ResultSet rs;
  {
    SpanLog::Scope s(log, "serialize", parent, req);
    rs.columns = (*plan)->output;
    if (rs.columns.size() >= out_columns.size()) {
      rs.columns.resize(out_columns.size());
      for (size_t i = 0; i < rs.columns.size(); ++i) {
        rs.columns[i].name = out_columns[i].name;
      }
    }
    for (RowSet& partition : *dist) {
      for (Row& row : partition) {
        if (row.size() > rs.columns.size()) row.resize(rs.columns.size());
        rs.rows.push_back(std::move(row));
      }
    }
  }
  out.ok = true;
  Result<ScriptResult> via_db =
      Status::ExecutionError("not run");
  {
    SpanLog::Scope s(log, "database_execute", 0, req);
    via_db = db.Execute(sql);
  }
  out.matches = via_db.ok() && via_db->has_results() &&
                ResultFingerprint(via_db->last()) == ResultFingerprint(rs);
  if (!out.matches) {
    std::fprintf(stderr, "direct drive diverged from Database::Execute: %s\n",
                 sql.c_str());
  }
  return out;
}

void ExecSummary::Add(const QueryMetrics& m) {
  for (const OperatorMetrics& op : m.operators) {
    const double mx = op.MaxWorkerSeconds();
    max_worker_s += mx;
    if (mx > top_max_s_) {
      top_max_s_ = mx;
      skew = op.Skew();
    }
    rows_out += op.rows_out;
    bytes_out += op.bytes_out;
    rows_shuffled += op.rows_shuffled;
    bytes_shuffled += op.bytes_shuffled;
    batches += op.batches;
    if (op.name.rfind("CrossJoin", 0) == 0) ++cross_join_runs;
  }
}

void PutMetric(MetricMap* m, const std::string& name, double value,
               const std::string& unit) {
  (*m)[name] = Metric{value, unit};
}

namespace {

/// Prints every part's value on one line, in the order the parts ran.
void PrintParts(const std::string& name, const std::vector<double>& values) {
  std::printf("%s parts:", name.c_str());
  for (double v : values) std::printf(" %.4g", v);
  std::printf("\n");
}

}  // namespace

void PutPartMedian(MetricMap* m, const std::string& name,
                   const PartSamples& parts) {
  size_t samples = 0;
  for (const std::vector<double>& p : parts) samples += p.size();
  const std::vector<double> medians = PartMedians(parts);
  PutMetric(m, name, Median(medians), "s");
  std::printf("%s: median of %zu parts' medians (%zu samples)\n",
              name.c_str(), parts.size(), samples);
  PrintParts(name, medians);
}

void PutPartTail(MetricMap* m, const std::string& name,
                 const PartSamples& parts, double nominal) {
  const PartTails t = TailsOfParts(parts, nominal);
  PutMetric(m, name, Median(t.values), "s");
  std::printf("%s: median of %zu parts' p%g (at least %zu samples, "
              "%zu beyond, per part)\n",
              name.c_str(), parts.size(), t.percentile, t.samples,
              SamplesBeyond(t.samples, t.percentile));
  PrintParts(name, t.values);
}

void PutPartRate(MetricMap* m, const std::string& name,
                 const std::vector<double>& rates, const std::string& unit) {
  PutMetric(m, name, Median(rates), unit);
  std::printf("%s: median of %zu parts' rates\n", name.c_str(), rates.size());
  PrintParts(name, rates);
}

Zipf::Zipf(size_t n, double s) : cdf_(std::max<size_t>(n, 1)) {
  double total = 0.0;
  for (size_t r = 0; r < cdf_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Next(Rng& rng) const {
  const double u = rng.NextDouble();
  const size_t r = std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(r, cdf_.size() - 1);
}

double Numeric(const Value& v) {
  switch (v.kind()) {
    case TypeKind::kInteger:
      return static_cast<double>(v.int_value());
    case TypeKind::kDouble:
      return v.double_value();
    default:
      return std::nan("");
  }
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

LayerSnapshot LayerSnapshot::Of(Database& db) {
  LayerSnapshot s;
  s.plans_considered = CounterValue(db, "optimizer.plans_considered");
  s.result_hits = CounterValue(db, "cache.result_hits");
  s.result_misses = CounterValue(db, "cache.result_misses");
  s.plan_hits = CounterValue(db, "cache.plan_hits");
  s.plan_misses = CounterValue(db, "cache.plan_misses");
  const ThreadPool::PoolStats ps = db.pool()->Stats();
  s.pool_busy_s = ps.caller.busy_seconds;
  for (const ThreadPool::WorkerStats& w : ps.workers) s.pool_busy_s += w.busy_seconds;
  return s;
}

void LayerTotals::Add(Database& db, const LayerSnapshot& before, double wall_s) {
  const LayerSnapshot now = LayerSnapshot::Of(db);
  plans_considered += now.plans_considered - before.plans_considered;
  const uint64_t rh = now.result_hits - before.result_hits;
  const uint64_t ph = now.plan_hits - before.plan_hits;
  result_cache.hits += rh;
  result_cache.base += rh + (now.result_misses - before.result_misses);
  plan_cache.hits += ph;
  plan_cache.base += ph + (now.plan_misses - before.plan_misses);
  pool_busy_s += now.pool_busy_s - before.pool_busy_s;
  pool_capacity_s += static_cast<double>(db.pool()->Stats().num_threads) * wall_s;
}

void PutCommonLayerMetrics(const SpanLog& log, const LayerTotals& totals,
                           MetricMap* m) {
  PutExecMetrics(totals.exec, Median(log.SelfTimesOf("execute")), "", m);
  for (const auto& [name, span] :
       std::vector<std::pair<std::string, std::string>>{
           {"parser.parse_us", "parse"},
           {"binder.bind_us", "bind"},
           {"optimizer.plan_us", "optimize"}}) {
    PutMetric(m, name, Median(log.Durations(span)) * 1e6, "us");
  }
  PutMetric(m, "optimizer.plans_considered",
            static_cast<double>(totals.plans_considered), "count");
  PutMetric(m, "cache.result_hit_ratio", totals.result_cache.value(), "ratio");
  PutMetric(m, "cache.result_lookups",
            static_cast<double>(totals.result_cache.base), "count");
  PutMetric(m, "cache.plan_hit_ratio", totals.plan_cache.value(), "ratio");
  PutMetric(m, "cache.plan_lookups", static_cast<double>(totals.plan_cache.base),
            "count");
  PutMetric(m, "pool.busy_frac",
            totals.pool_capacity_s > 0
                ? totals.pool_busy_s / totals.pool_capacity_s
                : 0.0,
            "ratio");
}

void PutExecMetrics(const ExecSummary& ex, double execute_self_s,
                    const std::string& suffix, MetricMap* m) {
  PutMetric(m, "exec.execute_s" + suffix, execute_self_s, "s");
  PutMetric(m, "exec.max_worker_s" + suffix, ex.max_worker_s, "s");
  PutMetric(m, "exec.skew" + suffix, ex.skew, "ratio");
  PutMetric(m, "exec.rows_out" + suffix, static_cast<double>(ex.rows_out), "rows");
  PutMetric(m, "exec.bytes_out" + suffix, static_cast<double>(ex.bytes_out),
            "bytes");
  PutMetric(m, "exec.cross_join_runs" + suffix,
            static_cast<double>(ex.cross_join_runs), "count");
  PutMetric(m, "exec.batches" + suffix, static_cast<double>(ex.batches), "count");
}

}  // namespace radbench
