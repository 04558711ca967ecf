// Shared plumbing of the benchmark: run arguments, metric maps, the
// operation tally, the span log of the traced run, and the Database
// configuration every workload starts from.
#ifndef RADBENCH_BENCH_H_
#define RADBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/rng.h"
#include "stats.h"

namespace radbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Simulated cluster width and real thread count of every Database.
inline constexpr size_t kWorkers = 8;
inline constexpr size_t kThreads = 4;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes, every correctness check still on.
  bool smoke = false;
  /// Scratch directory inside the checkout (persistent stores, spill
  /// files, span files).
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Operations attempted and failed; a wrong answer counts as failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// Set-ups of every workload in a plain run. setup_s is the sum over the
/// four workloads of each one's median set-up.
inline constexpr size_t kSetups = 3;

/// Slots of a plain run. In every slot each workload runs one part, and
/// the named workload, last, runs parts until the slot has lasted its
/// share of the --seconds window, so each metric's parts are spread over
/// the whole run.
inline constexpr size_t kSlots = 7;

/// One workload of a plain run. Its work comes in parts, each with
/// samples of its own, so a stretch when the machine is slow spoils only
/// the parts it falls in: a metric is the median over parts of each
/// part's median, tail or rate.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs and opens and loads a fresh database, adding
  /// the seconds to `setups`. False when set-up failed.
  virtual bool SetUp() = 0;
  /// Runs one part of work, keeping its samples and tallying its
  /// operations. Returns the seconds of the part's measured work, the
  /// base of trace.overhead_frac.
  virtual double RunPart() = 0;
  /// The workload's end-to-end metrics over every part run.
  virtual void Report(MetricMap* m) const = 0;

  Tally tally;
  std::vector<double> setups;
};

std::unique_ptr<Workload> MakePaperLa(const RunArgs& args);
std::unique_ptr<Workload> MakeServiceMixed(const RunArgs& args);
std::unique_ptr<Workload> MakeStoreRw(const RunArgs& args);
std::unique_ptr<Workload> MakeGraphSparse(const RunArgs& args);

/// What a traced run of one workload hands back to main.
struct WorkloadOutput {
  MetricMap metrics;
  Tally tally;
  /// Seconds of one traced part, measured as Workload::RunPart measures
  /// an untraced one, after a warm-up part.
  double work_seconds = 0.0;
};

/// Spans recorded around calls into the program's layers. Kept in
/// memory and written once when the traced run ends.
class SpanLog {
 public:
  SpanLog() : t0_(Clock::now()) {}

  uint64_t NewRequest() { return ++next_request_; }
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t request);
  void End(uint64_t id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Durations of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Self times of every span called `name`.
  std::vector<double> SelfTimesOf(const std::string& name) const;
  /// Writes the spans as one JSON array.
  bool WriteJson(const std::string& path) const;

  class Scope {
   public:
    Scope(SpanLog* log, const std::string& name, uint64_t parent,
          uint64_t request)
        : log_(log), id_(log->Begin(name, parent, request)) {}
    ~Scope() { log_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return id_; }

   private:
    SpanLog* log_;
    uint64_t id_;
  };

 private:
  Clock::time_point t0_;
  uint64_t next_id_ = 0;
  uint64_t next_request_ = 0;
  std::vector<Span> spans_;
};

/// num_workers = 8, num_threads = 4, spill files under the work
/// directory, caches as requested, metrics registry on for traced runs.
radb::Database::Config BaseConfig(const RunArgs& args, bool caches);

/// Column names and types plus the binary row encoding: equal strings
/// mean bit-identical results.
std::string ResultFingerprint(const radb::ResultSet& rs);

/// Registry counter value (0 when absent or metrics are off).
uint64_t CounterValue(radb::Database& db, const std::string& name);

/// Outcome of driving one SELECT through parser::ParseScript,
/// Binder::Bind, Optimizer::Plan and Executor::Execute directly.
struct DirectRun {
  bool ok = false;
  bool matches = false;  // equals Database::Execute's result
  radb::QueryMetrics metrics;
};

/// Drives `sql` (one SELECT) through the layer functions under spans
/// parse / bind / optimize / execute / serialize, then runs it through
/// Database::Execute and compares the two results bit for bit.
DirectRun DriveDirect(radb::Database& db, const std::string& sql,
                      SpanLog* log);

/// Per-statement operator summary used by the exec.* metrics.
struct ExecSummary {
  double max_worker_s = 0.0;  // sum over operators of the slowest worker
  double skew = 0.0;          // skew of the operator with the largest max
  uint64_t rows_out = 0;
  uint64_t bytes_out = 0;
  uint64_t rows_shuffled = 0;
  uint64_t bytes_shuffled = 0;
  uint64_t cross_join_runs = 0;
  uint64_t batches = 0;
  void Add(const radb::QueryMetrics& m);

 private:
  double top_max_s_ = -1.0;
};

void PutMetric(MetricMap* m, const std::string& name, double value,
               const std::string& unit);

/// Puts the median of the parts' medians (seconds).
void PutPartMedian(MetricMap* m, const std::string& name,
                   const PartSamples& parts);
/// Puts the median of the parts' tails (seconds) and prints the
/// percentile used and the sample counts.
void PutPartTail(MetricMap* m, const std::string& name,
                 const PartSamples& parts, double nominal);
/// Puts the median of per-part rates.
void PutPartRate(MetricMap* m, const std::string& name,
                 const std::vector<double>& rates, const std::string& unit);

/// Zipf(s) over ranks 0..n-1: rank r has weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Next(radb::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// An INTEGER or DOUBLE cell as a double; NaN for any other value.
double Numeric(const radb::Value& v);

/// Total bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// A Database's cumulative registry counters and pool busy seconds at
/// one moment, so a traced part's share is a difference of two of them
/// and set-up work is left out.
struct LayerSnapshot {
  uint64_t plans_considered = 0;
  uint64_t result_hits = 0, result_misses = 0;
  uint64_t plan_hits = 0, plan_misses = 0;
  double pool_busy_s = 0.0;
  static LayerSnapshot Of(radb::Database& db);
};

/// What a traced run adds up over every Database and statement of the
/// four workloads (metrics are on in traced runs only): registry
/// counters, pool accounting and the operators of every statement it
/// drove through the layers.
struct LayerTotals {
  ExecSummary exec;
  uint64_t plans_considered = 0;
  Ratio result_cache;  // hits over lookups
  Ratio plan_cache;
  double pool_busy_s = 0.0;
  double pool_capacity_s = 0.0;  // threads x wall
  /// Adds what `db`'s counters and pool did since `before`, a window of
  /// `wall_s` seconds.
  void Add(radb::Database& db, const LayerSnapshot& before, double wall_s);
};

/// The per-layer metrics of the whole traced run: parser, binder and
/// optimizer micros and execute self time from the spans, then the
/// LayerTotals.
void PutCommonLayerMetrics(const SpanLog& log, const LayerTotals& totals,
                           MetricMap* m);

/// The exec.* metrics of `ex`, each name followed by `suffix`.
void PutExecMetrics(const ExecSummary& ex, double execute_self_s,
                    const std::string& suffix, MetricMap* m);

// Their traced runs: per-layer metrics of one workload.
WorkloadOutput TracePaperLa(const RunArgs& args, SpanLog* log,
                            LayerTotals* totals);
WorkloadOutput TraceServiceMixed(const RunArgs& args, SpanLog* log,
                                 LayerTotals* totals);
WorkloadOutput TraceStoreRw(const RunArgs& args, SpanLog* log,
                            LayerTotals* totals);
WorkloadOutput TraceGraphSparse(const RunArgs& args, SpanLog* log,
                                LayerTotals* totals);

/// Prints paper_la's SQL cells beside the comparator engines' cells.
void PrintComparatorTable(const MetricMap& e2e, const MetricMap& layers);

}  // namespace radbench

#endif  // RADBENCH_BENCH_H_
