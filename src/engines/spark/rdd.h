#ifndef RADB_ENGINES_SPARK_RDD_H_
#define RADB_ENGINES_SPARK_RDD_H_

#include <chrono>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "la/matrix.h"
#include "la/vector.h"
#include "obs/query_metrics.h"

namespace radb::spark {

/// Byte sizing for shuffle accounting. Overload for payload types that
/// flow through RDDs.
inline size_t PayloadBytes(double) { return 8; }
inline size_t PayloadBytes(int64_t) { return 8; }
inline size_t PayloadBytes(size_t) { return 8; }
inline size_t PayloadBytes(const la::Vector& v) { return v.ByteSize(); }
inline size_t PayloadBytes(const la::Matrix& m) { return m.ByteSize(); }
template <typename A, typename B>
size_t PayloadBytes(const std::pair<A, B>& p) {
  return PayloadBytes(p.first) + PayloadBytes(p.second);
}
template <typename T>
size_t PayloadBytes(const std::vector<T>& v) {
  size_t s = 8;
  for (const T& x : v) s += PayloadBytes(x);
  return s;
}

/// Execution context of the Spark-style comparator engine: partition
/// count (the paper runs Spark 1.6 standalone on 10 machines) and
/// per-stage metrics compatible with the relational engine's.
class SparkContext {
 public:
  explicit SparkContext(size_t num_partitions)
      : num_partitions_(num_partitions == 0 ? 1 : num_partitions) {}

  size_t num_partitions() const { return num_partitions_; }
  QueryMetrics& metrics() { return metrics_; }
  const QueryMetrics& metrics() const { return metrics_; }
  void ResetMetrics() { metrics_ = QueryMetrics{}; }

  OperatorMetrics* NewStage(std::string name) {
    metrics_.operators.push_back(OperatorMetrics{});
    OperatorMetrics* m = &metrics_.operators.back();
    m->name = std::move(name);
    m->worker_seconds.assign(num_partitions_, 0.0);
    return m;
  }

 private:
  size_t num_partitions_;
  QueryMetrics metrics_;
};

/// A minimal RDD: partitioned in-memory data with the map / filter /
/// reduce / collect operations the paper's mllib codes use. Transforms
/// here are eager (no lineage), which is fine for benchmarking since
/// each code path materializes the same intermediates Spark would.
template <typename T>
class Rdd {
 public:
  Rdd(SparkContext* ctx, std::vector<std::vector<T>> partitions)
      : ctx_(ctx), partitions_(std::move(partitions)) {}

  /// Round-robin parallelize.
  static Rdd<T> Parallelize(SparkContext* ctx, std::vector<T> data) {
    std::vector<std::vector<T>> parts(ctx->num_partitions());
    for (size_t i = 0; i < data.size(); ++i) {
      parts[i % parts.size()].push_back(std::move(data[i]));
    }
    return Rdd<T>(ctx, std::move(parts));
  }

  SparkContext* context() const { return ctx_; }
  const std::vector<std::vector<T>>& partitions() const {
    return partitions_;
  }

  size_t Count() const {
    size_t n = 0;
    for (const auto& p : partitions_) n += p.size();
    return n;
  }

  template <typename F>
  auto Map(F f, const std::string& stage = "map") const
      -> Rdd<decltype(f(std::declval<const T&>()))> {
    using U = decltype(f(std::declval<const T&>()));
    OperatorMetrics* m = ctx_->NewStage(stage);
    std::vector<std::vector<U>> out(partitions_.size());
    for (size_t p = 0; p < partitions_.size(); ++p) {
      const auto t0 = std::chrono::steady_clock::now();
      out[p].reserve(partitions_[p].size());
      for (const T& x : partitions_[p]) out[p].push_back(f(x));
      m->worker_seconds[p] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      m->rows_out += out[p].size();
      for (const U& u : out[p]) m->bytes_out += PayloadBytes(u);
    }
    return Rdd<U>(ctx_, std::move(out));
  }

  template <typename F>
  Rdd<T> Filter(F pred, const std::string& stage = "filter") const {
    OperatorMetrics* m = ctx_->NewStage(stage);
    std::vector<std::vector<T>> out(partitions_.size());
    for (size_t p = 0; p < partitions_.size(); ++p) {
      const auto t0 = std::chrono::steady_clock::now();
      for (const T& x : partitions_[p]) {
        if (pred(x)) out[p].push_back(x);
      }
      m->worker_seconds[p] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      m->rows_out += out[p].size();
    }
    return Rdd<T>(ctx_, std::move(out));
  }

  /// Tree-style reduce: local fold per partition, then a driver-side
  /// combine of one partial per partition (the partials are charged to
  /// the shuffle).
  template <typename F>
  Result<T> Reduce(F f, const std::string& stage = "reduce") const {
    OperatorMetrics* m = ctx_->NewStage(stage);
    std::vector<T> partials;
    for (size_t p = 0; p < partitions_.size(); ++p) {
      if (partitions_[p].empty()) continue;
      const auto t0 = std::chrono::steady_clock::now();
      T acc = partitions_[p][0];
      for (size_t i = 1; i < partitions_[p].size(); ++i) {
        acc = f(acc, partitions_[p][i]);
      }
      m->worker_seconds[p] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      partials.push_back(std::move(acc));
    }
    if (partials.empty()) {
      return Status::ExecutionError("reduce on empty RDD");
    }
    for (size_t i = 1; i < partials.size(); ++i) {
      m->bytes_shuffled += PayloadBytes(partials[i]);
      ++m->rows_shuffled;
    }
    const auto t0 = std::chrono::steady_clock::now();
    T acc = std::move(partials[0]);
    for (size_t i = 1; i < partials.size(); ++i) {
      acc = f(acc, partials[i]);
    }
    m->worker_seconds[0] +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    m->rows_out = 1;
    m->bytes_out = PayloadBytes(acc);
    return acc;
  }

  /// treeAggregate-style fold: `seq` folds each element into a
  /// per-partition accumulator, `comb` merges partition accumulators
  /// at the driver. Memory stays bounded by one U per partition while
  /// `seq` still pays the per-element cost of the user closure —
  /// faithful to what mllib codes like
  /// `map(x => outer(x)).reduce(add)` cost on real Spark.
  template <typename U, typename Seq, typename Comb>
  Result<U> Aggregate(U zero, Seq seq, Comb comb,
                      const std::string& stage = "aggregate") const {
    OperatorMetrics* m = ctx_->NewStage(stage);
    std::vector<U> partials;
    for (size_t p = 0; p < partitions_.size(); ++p) {
      const auto t0 = std::chrono::steady_clock::now();
      U acc = zero;
      for (const T& x : partitions_[p]) acc = seq(std::move(acc), x);
      m->worker_seconds[p] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      partials.push_back(std::move(acc));
    }
    for (size_t i = 1; i < partials.size(); ++i) {
      m->bytes_shuffled += PayloadBytes(partials[i]);
      ++m->rows_shuffled;
    }
    const auto t0 = std::chrono::steady_clock::now();
    U acc = std::move(partials.empty() ? zero : partials[0]);
    for (size_t i = 1; i < partials.size(); ++i) {
      acc = comb(std::move(acc), partials[i]);
    }
    if (!partials.empty()) {
      m->worker_seconds[0] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
    m->rows_out = 1;
    m->bytes_out = PayloadBytes(acc);
    return acc;
  }

  /// Max element under a comparator (mirrors `.max()(Ordering...)`).
  template <typename Less>
  Result<T> MaxBy(Less less, const std::string& stage = "max") const {
    return Reduce(
        [less](const T& a, const T& b) { return less(a, b) ? b : a; }, stage);
  }

  std::vector<T> Collect() const {
    std::vector<T> all;
    for (const auto& p : partitions_) {
      all.insert(all.end(), p.begin(), p.end());
    }
    return all;
  }

 private:
  SparkContext* ctx_;
  std::vector<std::vector<T>> partitions_;
};

}  // namespace radb::spark

#endif  // RADB_ENGINES_SPARK_RDD_H_
