#ifndef RADB_ENGINES_SCIDB_ARRAY_H_
#define RADB_ENGINES_SCIDB_ARRAY_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "la/matrix.h"
#include "la/vector.h"
#include "obs/query_metrics.h"

namespace radb::scidb {

/// Execution context of the SciDB-style comparator: instance count
/// (SciDB workers) plus per-operator metrics.
class ArrayContext {
 public:
  explicit ArrayContext(size_t num_instances)
      : num_instances_(num_instances == 0 ? 1 : num_instances) {}

  size_t num_instances() const { return num_instances_; }
  QueryMetrics& metrics() { return metrics_; }
  void ResetMetrics() { metrics_ = QueryMetrics{}; }

  OperatorMetrics* NewOp(std::string name) {
    metrics_.operators.push_back(OperatorMetrics{});
    OperatorMetrics* m = &metrics_.operators.back();
    m->name = std::move(name);
    m->worker_seconds.assign(num_instances_, 0.0);
    return m;
  }

 private:
  size_t num_instances_;
  QueryMetrics metrics_;
};

/// One chunk of a dense 2-d array (SciDB chunks along both dims).
struct Chunk {
  size_t ci = 0;  // chunk row index
  size_t cj = 0;  // chunk col index
  la::Matrix data;
};

/// Dense 2-d SciDB-style array: <val:double>[i=0:n-1,chunk,0,
/// j=0:m-1,chunk,0]. Chunks are distributed across instances by a
/// chunk-coordinate hash, as SciDB does.
class Array2D {
 public:
  Array2D() : ctx_(nullptr), num_rows_(0), num_cols_(0), chunk_(1) {}
  Array2D(ArrayContext* ctx, size_t num_rows, size_t num_cols, size_t chunk,
          std::vector<Chunk> chunks);

  /// AQL build(): constant-filled array.
  static Array2D Build(ArrayContext* ctx, size_t num_rows, size_t num_cols,
                       size_t chunk, double fill = 0.0);
  /// Loads a dense local matrix into a distributed array.
  static Array2D FromDense(ArrayContext* ctx, const la::Matrix& m,
                           size_t chunk);

  ArrayContext* context() const { return ctx_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return num_cols_; }
  size_t chunk() const { return chunk_; }
  const std::vector<std::vector<Chunk>>& partitions() const {
    return partitions_;
  }

  /// Gathers into a local dense matrix (scan to coordinator).
  Result<la::Matrix> ToDense() const;

 private:
  ArrayContext* ctx_;
  std::vector<std::vector<Chunk>> partitions_;  // per instance
  size_t num_rows_, num_cols_, chunk_;
};

/// AQL gemm(A, B, C) = A * B + C. Chunk-parallel SUMMA-style multiply
/// with shuffle accounting.
Result<Array2D> Gemm(const Array2D& a, const Array2D& b, const Array2D& c);

/// AQL transpose().
Result<Array2D> Transpose(const Array2D& a);

/// AQL filter(A, pred(i, j, val)): non-matching cells become 0 in the
/// dense representation, and a validity mask is kept implicitly by the
/// caller; SciDB would make them empty cells.
Result<Array2D> FilterCells(
    const Array2D& a,
    const std::function<bool(size_t, size_t, double)>& pred,
    double empty_value);

/// AQL: SELECT min(val) ... GROUP BY i — per-row aggregate over a 2-d
/// array; cells equal to `skip_value` are treated as empty.
Result<la::Vector> MinOverRows(const Array2D& a, double skip_value);

/// AQL: SELECT max(val) over a 1-d result.
Result<double> MaxOfVector(ArrayContext* ctx, const la::Vector& v);

}  // namespace radb::scidb

#endif  // RADB_ENGINES_SCIDB_ARRAY_H_
