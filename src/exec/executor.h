#ifndef RADB_EXEC_EXECUTOR_H_
#define RADB_EXEC_EXECUTOR_H_

#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <string>
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

/// How a row join places its inputs before the probe (paper §2.1): one
/// side broadcast to every worker, or both re-hashed by key.
struct JoinPlacement {
  enum class Kind { kBroadcastLeft, kBroadcastRight, kShuffle };
  Kind kind = Kind::kShuffle;
  /// kShuffle: a side already hash-placed on its single bare-column key
  /// stays where it is.
  bool left_stays = false;
  bool right_stays = false;
};

/// Plan node -> indexes into QueryMetrics::operators of the operators
/// that executed it (an Aggregate yields two: partial and final).
using NodeMetricIds = std::map<const LogicalOp*, std::vector<size_t>>;

/// Total payload bytes and rows across all partitions (O(workers),
/// from the buffers' running counters).
size_t SpillDistByteSize(const SpillableDist& d);
size_t SpillDistRowCount(const SpillableDist& d);

/// Execution options (none today; kept so callers can pass `{}`).
struct ExecOptions {};

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
///
/// Scans, index scans, Filter, Project and Aggregate run on the batch
/// engine (vectorized.cc): every chain of them executes as one pipeline
/// over column batches, and it is the only code that reads table
/// segments. Joins, DISTINCT, ORDER BY and LIMIT run operator at a
/// time over rows.
class Executor {
 public:
  /// `obs` carries the (optional) tracer and metrics registry; the
  /// default is the disabled null-object fast path. `pool` is the
  /// execution thread pool (null = sequential). `mem` is the per-query
  /// memory context (null tracker = untracked, unlimited).
  explicit Executor(const Cluster& cluster, QueryMetrics* metrics,
                    obs::ObsContext obs = {}, ThreadPool* pool = nullptr,
                    MemoryContext mem = {}, ExecOptions = {})
      : cluster_(cluster),
        metrics_(metrics),
        obs_(obs),
        pool_(pool),
        mem_(std::move(mem)) {}

  Result<Dist> Execute(const LogicalOp& op);

  /// Per-worker columnar consumer a pipeline (vectorized.cc) hands its
  /// boundary join when the query has no memory budget: ExecuteJoin
  /// streams joined pairs straight into the pipeline's column batches
  /// instead of materializing every joined Row into its output
  /// distribution — the dominant cost of high-fanout joins like the
  /// paper's tuple-coded Gram self-join. The sink is an argument of
  /// that one join's call (ExecuteOp → DispatchOp → RunOp →
  /// ExecuteJoin), so a join nested deeper gets none.
  /// AppendPair carries the unconcatenated sides (left columns then
  /// right columns); AppendRow carries a materialized row where the
  /// join had to build one anyway (rechecked equi pairs, residual
  /// predicates, fused projection). Calls for worker w arrive on w's
  /// thread and touch only worker-w state.
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

  using Clock = std::chrono::steady_clock;
  static double SecondsSince(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  /// The budget charge for admitting one aggregation group, or one
  /// DISTINCT entry, whose key serializes to `key_bytes`: the key held
  /// twice (map key and group state) plus the entry's bookkeeping.
  static size_t GroupAdmissionBytes(size_t key_bytes) {
    return 2 * key_bytes + 128;
  }

  /// Spills the resident tails of the given dists to disk when fewer
  /// than `needed` bytes of the budget remain free. Operators call
  /// this right before hard-reserving unspillable state while their
  /// (spillable) inputs are still charged: without it, a budget fully
  /// pinned by buffered input rows would fail the query even though
  /// those rows could simply move to disk and be replayed. The
  /// decision depends only on byte totals, never on thread timing, so
  /// it is deterministic for a given budget. Callers must not hold a
  /// live Reader on any of the buffers.
  static Status MakeHeadroom(const MemoryContext& mem, size_t needed,
                             const std::vector<SpillableDist*>& dists);

  /// Rolls consumed buffers' lifetime spill totals into `m`.
  static void CollectSpill(OperatorMetrics* m, const SpillableDist& d);

  /// node_metrics() entry for `node`; nullptr when it never executed.
  const std::vector<size_t>* MetricsForNode(const LogicalOp* node) const {
    auto it = node_metrics_.find(node);
    return it == node_metrics_.end() ? nullptr : &it->second;
  }

  /// Runs `op`; `sink` is for a join a pipeline consumes.
  Result<ExecResult> ExecuteOp(const LogicalOp& op,
                               JoinBatchSink* sink = nullptr);
  /// Serves `op` from its spool when a copy already ran; otherwise runs
  /// it and, for a spool with later uses, holds the result (a spooled
  /// join materializes, so it gets no sink).
  Result<ExecResult> DispatchOp(const LogicalOp& op, JoinBatchSink* sink);
  /// Runs `op` by its kind: a marked relational multiply goes to
  /// ExecuteMultiply, a Scan/Filter/Project/Aggregate to
  /// ExecutePipeline.
  Result<ExecResult> RunOp(const LogicalOp& op, JoinBatchSink* sink);
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
  /// The slot of `to`'s output at the position where `from`'s output
  /// has `slot`: equal subtrees emit equal columns in equal positions,
  /// so a copy of one's rows keeps its placement (`hashed_slot`) this
  /// way. Nullopt when `slot` is.
  static std::optional<size_t> SlotAtSamePosition(
      const LogicalOp& from, const LogicalOp& to,
      std::optional<size_t> slot);
  /// The batch engine (vectorized.cc): executes the chain `op` heads —
  /// Filter/Project nodes down to a scan or another operator, with an
  /// optional Aggregate on top — batch at a time. A bare Scan is a
  /// chain of its own; a scan annotated with index bounds reads only
  /// the rows its B+ tree returns, in the order a full scan would emit
  /// them.
  Result<ExecResult> ExecutePipeline(const LogicalOp& op);
  /// The one placement rule. A cross join broadcasts the smaller side
  /// by bytes; an equi-join broadcasts it when min(left, right) ×
  /// (workers − 1) < left + right, else shuffles. It reads byte totals,
  /// never the budget, so output orders do not depend on one.
  /// MultiplyOnVectors folds in the pair order it sets (DESIGN.md §19).
  JoinPlacement PlaceJoin(const LogicalOp& join, const SpillableDist& left,
                          const SpillableDist& right,
                          std::optional<size_t> left_hashed = std::nullopt,
                          std::optional<size_t> right_hashed = std::nullopt)
      const;
  /// A row join: the placement above, or for an `index_nl` join the
  /// outer input left in place; then on each worker one lookup (every
  /// broadcast row, a hash build, or the B+ tree) and one probe loop
  /// handing each pair to one joined-row path, ending in `sink` if given.
  Result<ExecResult> ExecuteJoin(const LogicalOp& op, JoinBatchSink* sink);
  static constexpr size_t kDropRow = static_cast<size_t>(-1);
  /// Routes each row of `side` to the worker `dest` names (kDropRow:
  /// nowhere) into runs[src][dst], each in its source's order, tallying
  /// the rows that change worker as `m`'s shuffle.
  Result<std::vector<SpillableDist>> Route(
      SpillableDist& side, OperatorMetrics* m,
      const std::function<Result<size_t>(size_t src, const Row& row)>& dest);
  Result<ExecResult> ExecuteDistinct(const LogicalOp& op);
  Result<ExecResult> ExecuteSort(const LogicalOp& op);
  Result<ExecResult> ExecuteLimit(const LogicalOp& op);
  /// Relational matrix multiply (multiply.cc, DESIGN.md §19) for an
  /// Aggregate the optimizer marked: runs the Join's two inputs (the
  /// first only, for a self product), then computes the product on the
  /// dense kernel. When the data does not admit it, the inputs are held
  /// for the Join (see held_inputs_; a self product's second is a copy
  /// of its first) and the Aggregate runs as if unmarked, so no input
  /// runs twice.
  Result<ExecResult> ExecuteMultiply(const LogicalOp& op);
  /// The skeleton both kernel paths run on (multiply.cc).
  class MultiplyRun;
  /// The kernel paths of ExecuteMultiply, for the tuple coding (dense
  /// tiles) and the vector coding (stacked vectors): nullopt with
  /// `*reason` set when the inputs do not admit it. They read the
  /// inputs without consuming them.
  Result<std::optional<SpillableDist>> MultiplyOnTiles(
      const LogicalOp& op, SpillableDist& left, SpillableDist& right,
      OperatorMetrics* m, std::string* reason);
  Result<std::optional<SpillableDist>> MultiplyOnVectors(
      const LogicalOp& op, SpillableDist& left, SpillableDist& right,
      OperatorMetrics* m, std::string* reason);

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
  NodeMetricIds node_metrics_;

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
  /// Join inputs a falling-back relational multiply already ran, taken
  /// by the first ExecuteOp of their plan node.
  std::map<const LogicalOp*, ExecResult> held_inputs_;
  size_t relational_multiplies_ = 0;
  size_t relational_multiply_fallbacks_ = 0;
};

}  // namespace radb

#endif  // RADB_EXEC_EXECUTOR_H_
