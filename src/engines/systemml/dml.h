#ifndef RADB_ENGINES_SYSTEMML_DML_H_
#define RADB_ENGINES_SYSTEMML_DML_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "la/matrix.h"
#include "la/vector.h"
#include "obs/query_metrics.h"

namespace radb::systemml {

/// Runtime configuration of the SystemML-style comparator. SystemML
/// V0.9 stores matrices as square blocks and chooses between local
/// (single-node, in-memory) and distributed (MR) execution per
/// operation — the paper's Figure 1/2 footnote marks the 10-dim runs
/// as "local mode". `local_threshold_bytes` models that hybrid
/// decision.
struct DmlConfig {
  size_t num_workers = 8;
  size_t block_size = 1000;  // SystemML default square block
  /// Operands smaller than this run in local mode (no distribution,
  /// no shuffle, no per-block bookkeeping).
  size_t local_threshold_bytes = 2u << 20;  // 2 MiB
};

/// Execution context: metrics + config.
class DmlContext {
 public:
  explicit DmlContext(DmlConfig config) : config_(config) {}

  const DmlConfig& config() const { return config_; }
  QueryMetrics& metrics() { return metrics_; }
  void ResetMetrics() { metrics_ = QueryMetrics{}; }

  OperatorMetrics* NewOp(std::string name) {
    metrics_.operators.push_back(OperatorMetrics{});
    OperatorMetrics* m = &metrics_.operators.back();
    m->name = std::move(name);
    m->worker_seconds.assign(config_.num_workers, 0.0);
    return m;
  }

 private:
  DmlConfig config_;
  QueryMetrics metrics_;
};

/// A SystemML matrix: square-blocked, distributed across workers (or
/// held locally when small — the hybrid runtime decides per op).
/// The API mirrors the DML constructs the paper's codes use:
///   t(X) %*% X, X %*% m, rowMins, rowIndexMax, diag, +, cell access.
class DmlMatrix {
 public:
  struct Block {
    size_t bi = 0, bj = 0;
    la::Matrix mat;
  };

  DmlMatrix() : ctx_(nullptr), num_rows_(0), num_cols_(0) {}

  /// Loads a dense matrix, blocking and distributing it.
  static DmlMatrix FromDense(DmlContext* ctx, const la::Matrix& m);

  DmlContext* context() const { return ctx_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return num_cols_; }
  size_t ByteSize() const { return 8 * num_rows_ * num_cols_; }
  bool IsLocal() const;

  /// t(this) %*% this — SystemML's TSMM fused operator: each worker
  /// computes the Gram of its block-rows locally, partials are
  /// tree-reduced. This is why SystemML is strong on Gram/regression.
  Result<DmlMatrix> Tsmm() const;

  /// this %*% other. Broadcast (MapMM) when one side is small,
  /// otherwise a replicated-join multiply (CPMM/RMM).
  Result<DmlMatrix> Multiply(const DmlMatrix& other) const;

  Result<DmlMatrix> Transpose() const;
  Result<DmlMatrix> Add(const DmlMatrix& other) const;

  /// diag(v): vector -> diagonal matrix semantics are covered by
  /// FromDense; this is diag(M): extract the main diagonal.
  Result<la::Vector> Diag() const;

  /// rowMins(this) as a local vector.
  Result<la::Vector> RowMins() const;
  /// rowIndexMax over a vector-shaped (1 x n or n x 1) matrix —
  /// returns the index of the max entry.
  Result<size_t> IndexMax() const;

  /// Adds `v[i]` to cell (i, i) (the paper's `all_dist +
  /// diag(diag_inf)` trick to knock out self-distances).
  Result<DmlMatrix> AddToDiagonal(const la::Vector& v) const;

  /// Solve(A, b) via local LU once operands are gathered — SystemML
  /// runs small solves locally.
  static Result<la::Vector> Solve(const DmlMatrix& a, const la::Vector& b);

  /// Gathers into a dense local matrix.
  Result<la::Matrix> ToDense() const;

 private:
  DmlMatrix(DmlContext* ctx, size_t rows, size_t cols);

  /// Distributes blocks across workers by block-coordinate hash.
  void Partition(std::vector<Block> blocks);

  DmlContext* ctx_;
  size_t num_rows_, num_cols_;
  std::vector<std::vector<Block>> partitions_;  // per worker
  /// Local-mode payload (exclusive with partitions_ content).
  std::shared_ptr<la::Matrix> local_;
};

}  // namespace radb::systemml

#endif  // RADB_ENGINES_SYSTEMML_DML_H_
