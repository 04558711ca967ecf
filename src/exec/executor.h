#ifndef RADB_EXEC_EXECUTOR_H_
#define RADB_EXEC_EXECUTOR_H_

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "exec/cluster.h"
#include "obs/obs.h"
#include "obs/query_metrics.h"
#include "plan/logical_plan.h"
#include "storage/spill.h"
#include "storage/table.h"

namespace radb {

/// Rows distributed across the simulated cluster: one RowSet per
/// worker. This is the fully-materialized form the Database gathers
/// results from; between operators rows travel as a SpillableDist so
/// intermediates can overflow to disk under a memory budget.
using Dist = std::vector<RowSet>;

/// An operator's distributed output plus its physical property: if
/// `hashed_slot` is set, rows are placed by Hash(value of that slot)
/// modulo the worker count — the knowledge that lets a downstream
/// join skip re-shuffling that side (paper §2.1: "R was already
/// partitioned on the join key").
struct ExecResult {
  SpillableDist dist;
  std::optional<size_t> hashed_slot;
};

/// Plan node -> indexes into QueryMetrics::operators of the operators
/// that executed it (an Aggregate yields two: partial and final).
using NodeMetricIds = std::map<const LogicalOp*, std::vector<size_t>>;

/// Total payload bytes across all partitions.
size_t DistByteSize(const Dist& d);
/// Total row count across all partitions.
size_t DistRowCount(const Dist& d);
/// The same totals for the spillable form (O(workers), from the
/// buffers' running counters).
size_t SpillDistByteSize(const SpillableDist& d);
size_t SpillDistRowCount(const SpillableDist& d);

/// Executes optimized logical plans over the simulated shared-nothing
/// cluster. Hash joins shuffle (or broadcast) their inputs, group-by
/// aggregation runs in two phases (local partial aggregation, then a
/// shuffle of partial states by group key), and every cross-worker
/// byte is charged to the producing operator's metrics — that is the
/// data Figures 1-4 are built from.
///
/// When a ThreadPool is supplied, each simulated worker's partition
/// loop runs as one pool task, so the recorded max-worker time
/// becomes an actual wall-clock speedup. Every parallel loop writes
/// only per-worker state (out[w], worker_seconds[w], local shuffle
/// tallies merged on the driver afterwards) and preserves the
/// sequential iteration order within each worker, so results are
/// bit-identical at any thread count.
///
/// Memory governance: when a MemoryContext with a budgeted tracker is
/// supplied, every inter-operator row buffer is spillable (exact
/// append-order replay keeps floating-point results bit-identical),
/// hash-join build sides fall back to Grace-style partition spilling,
/// and aggregation admits groups against the budget, spilling rows of
/// unadmitted groups for later passes. State that cannot spill (sort
/// buffers, DISTINCT sets, broadcast tables, aggregate accumulator
/// growth) reserves hard and fails the query with ResourceExhausted,
/// leaving the Database healthy.
/// Engine selection knobs, threaded down from Database::Config.
struct ExecOptions {
  /// Master switch for the columnar batch engine. Even when on, a
  /// pipeline runs vectorized only if the optimizer marked its nodes
  /// batch-capable, and never under a memory budget (columnar
  /// operator state cannot spill; the row engine can).
  bool enable_vectorized = true;
  /// Lanes per ColumnBatch on the vectorized path.
  size_t batch_rows = 1024;
};

class Executor {
 public:
  /// `obs` carries the (optional) tracer and metrics registry; the
  /// default is the disabled null-object fast path. `pool` is the
  /// execution thread pool (null = sequential). `mem` is the per-query
  /// memory context (null tracker = untracked, unlimited).
  explicit Executor(const Cluster& cluster, QueryMetrics* metrics,
                    obs::ObsContext obs = {}, ThreadPool* pool = nullptr,
                    MemoryContext mem = {}, ExecOptions opts = {})
      : cluster_(cluster),
        metrics_(metrics),
        obs_(obs),
        pool_(pool),
        mem_(std::move(mem)),
        opts_(opts) {}

  Result<Dist> Execute(const LogicalOp& op);

  /// Per-worker columnar consumer a vectorized pipeline installs on
  /// its boundary join (vectorized.cc): ExecuteJoin streams joined
  /// pairs straight into the pipeline's column batches instead of
  /// materializing every joined Row into its output distribution —
  /// the dominant cost of high-fanout joins like the paper's
  /// tuple-coded Gram self-join. AppendPair carries the unconcatenated
  /// sides (left columns then right columns); AppendRow carries a
  /// materialized row where the join had to build one anyway
  /// (residual predicates, fused projection, the Grace merge).
  /// Calls for worker w arrive on w's thread and touch only worker-w
  /// state.
  class JoinBatchSink {
   public:
    virtual ~JoinBatchSink() = default;
    virtual Status AppendPair(size_t wkr, const Row& left,
                              const Row& right) = 0;
    virtual Status AppendRow(size_t wkr, Row joined) = 0;
  };

  /// The operators this execution produced per plan node; EXPLAIN
  /// ANALYZE annotates the plan tree with it.
  const NodeMetricIds& node_metrics() const { return node_metrics_; }

 private:
  friend class VectorizedPipeline;

  /// node_metrics() entry for `node`; nullptr when it never executed.
  const std::vector<size_t>* MetricsForNode(const LogicalOp* node) const {
    auto it = node_metrics_.find(node);
    return it == node_metrics_.end() ? nullptr : &it->second;
  }

  Result<ExecResult> ExecuteOp(const LogicalOp& op);
  /// Serves `op` from its spool when a copy already ran; otherwise runs
  /// it and, for a spool with later uses, holds the result.
  Result<ExecResult> DispatchOp(const LogicalOp& op);
  Result<ExecResult> RunOp(const LogicalOp& op);
  struct HeldSpool;
  /// Keeps a spool producer's result for its later uses and returns a
  /// copy for the producer's own consumer.
  Result<ExecResult> HoldSpool(const LogicalOp& op, ExecResult result);
  /// Hands a later copy of a spool the held result: a copy while more
  /// uses remain, the held rows themselves for the last one.
  Result<ExecResult> ServeSpool(const LogicalOp& op, HeldSpool& held);
  /// Row-for-row copy of `src` into fresh buffers on the same workers;
  /// per-worker copy time goes to `m` when given.
  Result<SpillableDist> CopyDist(SpillableDist& src, OperatorMetrics* m);
  /// Columnar fast path (vectorized.cc): when `op` heads a
  /// batch-capable scan/filter/project[/aggregate] chain, executes the
  /// whole chain batch-at-a-time and returns its result; nullopt means
  /// "not vectorizable here", and the caller dispatches to the row
  /// engine. Results are bit-identical to the row path.
  Result<std::optional<ExecResult>> TryVectorized(const LogicalOp& op);
  Result<ExecResult> ExecuteScan(const LogicalOp& op);
  /// B+ tree range scan for a kScan annotated with index bounds by the
  /// optimizer: probes the tree once, then materializes the matching
  /// rows per worker in (partition, ordinal) order — the same relative
  /// order a full scan would emit them, so downstream results are
  /// bit-identical to the unindexed plan.
  Result<ExecResult> ExecuteIndexScan(const LogicalOp& op,
                                      const storage::BTreeIndex& tree);
  /// Index-nested-loop join for a kJoin annotated `index_nl`: probes
  /// the inner scan's B+ tree with each outer row's key instead of
  /// building a hash table. nullopt when the annotation is stale (index
  /// dropped or degraded since planning) — the caller falls back to the
  /// hash path.
  Result<std::optional<ExecResult>> TryIndexJoin(const LogicalOp& op);
  Result<ExecResult> ExecuteFilter(const LogicalOp& op);
  Result<ExecResult> ExecuteProject(const LogicalOp& op);
  Result<ExecResult> ExecuteJoin(const LogicalOp& op);
  Result<ExecResult> ExecuteAggregate(const LogicalOp& op);
  Result<ExecResult> ExecuteDistinct(const LogicalOp& op);
  Result<ExecResult> ExecuteSort(const LogicalOp& op);
  Result<ExecResult> ExecuteLimit(const LogicalOp& op);

  /// slot -> position map for an operator's output.
  static std::map<size_t, size_t> LayoutOf(const LogicalOp& op);

  /// `n` empty spillable buffers wired to this query's MemoryContext.
  SpillableDist NewDist(size_t n) const;

  /// Appends an OperatorMetrics entry for `op`, seeded with the
  /// optimizer's cardinality estimate, and records the node → entry
  /// association for EXPLAIN ANALYZE.
  OperatorMetrics* NewOp(std::string name, const LogicalOp& op);

  /// Publishes whole-query totals to the metrics registry and
  /// synthesizes per-worker trace lanes (no-op when obs is disabled).
  void PublishObservability();

  /// Runs body(w) for w in [0, n), one pool task per simulated
  /// worker (sequential without a pool). Each task must touch only
  /// worker-w state. Returns the lowest-index non-OK status so error
  /// reporting is deterministic across thread counts.
  Status ForEachWorker(size_t n, const std::function<Status(size_t)>& body);

  const Cluster& cluster_;
  QueryMetrics* metrics_;
  obs::ObsContext obs_;
  ThreadPool* pool_ = nullptr;
  MemoryContext mem_;
  ExecOptions opts_;
  NodeMetricIds node_metrics_;
  /// Installed (and save/restored) by VectorizedPipeline around the
  /// execution of a boundary join; `join_sink_op_` pins the sink to
  /// that one join node so joins nested deeper in the subtree are
  /// unaffected.
  JoinBatchSink* join_sink_ = nullptr;
  const LogicalOp* join_sink_op_ = nullptr;

  /// A spool producer's result, held for the spool's later uses. It
  /// lives in the Executor — one per execution — never on the plan,
  /// which concurrent sessions share through the plan cache.
  struct HeldSpool {
    ExecResult result;
    const LogicalOp* producer = nullptr;  // maps hashed_slot by position
    size_t uses_left = 0;
  };
  std::map<size_t, HeldSpool> spools_;  // by LogicalOp::spool_id
  size_t spool_reuses_ = 0;
};

}  // namespace radb

#endif  // RADB_EXEC_EXECUTOR_H_
