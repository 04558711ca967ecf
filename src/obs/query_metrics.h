#ifndef RADB_OBS_QUERY_METRICS_H_
#define RADB_OBS_QUERY_METRICS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace radb {

/// Per-operator execution metrics collected by the executor. This is
/// what Figure 4 of the paper plots (join time vs aggregation time for
/// tuple- vs vector-based Gram computation) and what the skew
/// discussion in §5 measures (a few overloaded workers finishing
/// late). It is also the one operator record of the telemetry store:
/// radb_operators, the JSONL exporter and the slow-query log read the
/// OperatorMetrics each QueryRecord keeps.
struct OperatorMetrics {
  std::string name;           // e.g. "HashJoin", "Aggregate(final)"
  size_t rows_in = 0;         // rows consumed from the child operator(s)
  size_t rows_out = 0;
  size_t bytes_out = 0;
  size_t rows_shuffled = 0;   // rows that crossed worker boundaries
  size_t bytes_shuffled = 0;  // payload of those rows / partial states
  size_t bytes_spilled = 0;   // bytes this operator wrote to spill files
  size_t spill_runs = 0;      // number of spill runs it flushed
  /// The optimizer's cardinality estimate for the plan node this
  /// operator executed (0 when unknown) — EXPLAIN ANALYZE's
  /// estimate-vs-actual column.
  double estimated_rows = 0.0;
  /// True when the columnar batch engine executed this operator (the
  /// row engine otherwise); `batches` counts the column batches it
  /// processed across all workers (0 on the row path).
  bool vectorized = false;
  size_t batches = 0;
  /// Wall-clock seconds spent per worker partition; the simulated
  /// parallel elapsed time of the operator is the max entry.
  std::vector<double> worker_seconds;

  double TotalSeconds() const;
  double MaxWorkerSeconds() const;
  /// max/mean worker time; 1.0 = perfectly balanced.
  double Skew() const;
  /// Relative cardinality misestimate: max(est/actual, actual/est),
  /// with both sides clamped to >= 1 row. 1.0 = exact; 0.0 when no
  /// estimate was recorded.
  double EstimationError() const;
  /// "batch" when the columnar engine ran this operator, else "row".
  const char* ExecMode() const { return vectorized ? "batch" : "row"; }
};

/// Whole-query metrics: the operator list in execution order.
struct QueryMetrics {
  std::vector<OperatorMetrics> operators;
  double wall_seconds = 0.0;

  /// Sum over operators of the slowest worker — the time a real
  /// shared-nothing cluster would take if every operator were a
  /// barrier stage.
  double SimulatedParallelSeconds() const;
  size_t TotalBytesShuffled() const;
  size_t TotalRowsProcessed() const;
  /// Bytes the whole query spilled to disk under memory pressure.
  size_t TotalBytesSpilled() const;

  /// Worst per-operator EstimationError() across the query — how far
  /// off the optimizer's costing was anywhere in the plan.
  double MaxEstimationError() const;

  /// Human-readable per-operator breakdown table.
  std::string ToString() const;

  /// Machine-readable export: the whole per-operator breakdown plus
  /// the query totals, as one JSON object. This is what the bench
  /// harness writes next to its stdout tables.
  std::string ToJson() const;

  /// Sums the per-worker times of all operators whose name contains
  /// `substr` (e.g. "Join", "Aggregate") — used by the Figure 4
  /// breakdown bench.
  double SecondsForOperatorsContaining(const std::string& substr) const;
};

}  // namespace radb

#endif  // RADB_OBS_QUERY_METRICS_H_
