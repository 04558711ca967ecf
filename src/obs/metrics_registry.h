#ifndef RADB_OBS_METRICS_REGISTRY_H_
#define RADB_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace radb::obs {

/// Monotonic counter ("exec.rows_shuffled"). The pointer returned by
/// MetricsRegistry::counter() is stable for the registry's lifetime,
/// so hot paths can hoist the lookup.
class Counter {
 public:
  void Add(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value ("exec.workers").
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution summary with power-of-two buckets on both sides of 1,
/// so sub-second latencies resolve as well as large counts. Bucket i
/// counts observations in (2^(i-1-kOffset), 2^(i-kOffset)]; bucket 0
/// also takes everything smaller (zero and negatives), the top bucket
/// everything larger. Cheap, fixed memory, good enough to see latency,
/// operator-time and shuffle-size shapes.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;
  /// Number of buckets whose upper bound lies below 1; upper bounds run
  /// from 2^-32 (about 0.2 ns as seconds) to 2^31.
  static constexpr int kOffset = 32;

  void Observe(double v);

  uint64_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  double sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }
  double min() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0.0 : min_;
  }
  double max() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0.0 : max_;
  }
  double mean() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  /// Approximate quantile (q in [0,1]): nearest-rank bucket walk with
  /// linear interpolation inside the winning power-of-two bucket, whose
  /// bounds are first narrowed to the observed min/max so small samples
  /// stay exact at the extremes.
  double Percentile(double q) const;
  /// Non-empty buckets as (upper_bound, count) pairs.
  std::vector<std::pair<double, uint64_t>> NonEmptyBuckets() const;

 private:
  friend class MetricsRegistry;
  /// Upper bound of bucket i: 2^(i - kOffset).
  static double UpperBound(size_t i);

  mutable std::mutex mu_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  uint64_t buckets_[kBuckets] = {};
};

/// One instrument's point-in-time reading, in a uniform shape the
/// radb_metrics system table and the TelemetryExporter both consume.
/// Counters fill only `value` (== count); gauges only `value`;
/// histograms fill everything (`value` is the mean).
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};
const char* MetricKindName(MetricSample::Kind kind);

/// Named metric store. Names follow "<subsystem>.<metric>" snake_case
/// ("la.matmul_flops", "optimizer.plans_considered"); see DESIGN.md §7
/// for the convention. Instrument lookup is mutex-guarded; the handles
/// themselves update lock-free (counters/gauges) or under a per-
/// histogram mutex.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Convenience one-shot updates (lookup + mutate).
  void Add(const std::string& name, uint64_t delta) { counter(name)->Add(delta); }
  void Set(const std::string& name, double v) { gauge(name)->Set(v); }
  void Observe(const std::string& name, double v) { histogram(name)->Observe(v); }

  /// Point-in-time JSON snapshot:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  ///  min,max,mean,buckets:[{"le":..,"count":..}]}}}
  std::string ToJson() const;

  /// Point-in-time structured snapshot of every instrument, sorted by
  /// (name, kind). The relational twin of ToJson(): radb_metrics rows
  /// and the Prometheus exporter are both rendered from this.
  std::vector<MetricSample> Snapshot() const;

  /// Drops every instrument (used between bench figures).
  void Clear();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-global registry hook for call sites with no natural path to
/// a Database (the LA kernels, storage I/O). Null when observability
/// is off — callers must test. A Database with metrics enabled
/// installs its registry here for the duration of its lifetime.
MetricsRegistry* GlobalMetrics();
/// Installs (or, with nullptr, uninstalls) the global registry;
/// returns the previous one. Prefer the scoped Install/Uninstall pair
/// below — raw save/restore breaks when two installers are destroyed
/// out of LIFO order (the restorer can resurrect a freed registry).
MetricsRegistry* SetGlobalMetrics(MetricsRegistry* m);

/// Scoped installation: pushes `m` onto a registration stack and makes
/// it current. UninstallGlobalMetrics removes `m` from *anywhere* in
/// the stack (not just the top), then the newest surviving entry
/// becomes current again — so two Databases may be constructed and
/// destroyed in any order without one resurrecting the other's freed
/// registry. No-ops on nullptr.
void InstallGlobalMetrics(MetricsRegistry* m);
void UninstallGlobalMetrics(MetricsRegistry* m);

}  // namespace radb::obs

#endif  // RADB_OBS_METRICS_REGISTRY_H_
