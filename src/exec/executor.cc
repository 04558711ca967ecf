#include "exec/executor.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "exec/expr_eval.h"
#include "exec/row_key.h"

namespace radb {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// KeyRow / KeyRowHash / HashRow / KeyHasNull live in exec/row_key.h,
// shared with the differential reference evaluator.

Result<KeyRow> EvalKey(const std::vector<BoundExprPtr>& key_exprs,
                       const Row& row) {
  Row values;
  values.reserve(key_exprs.size());
  for (const auto& e : key_exprs) {
    RADB_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, row));
    values.push_back(std::move(v));
  }
  return KeyRow::Of(std::move(values));
}

/// The slot a single equi-key expression reads, when the expression is
/// a bare column reference (a precondition for shuffle elision).
std::optional<size_t> SingleColumnKeySlot(
    const std::vector<std::pair<BoundExprPtr, BoundExprPtr>>& keys,
    bool left_side) {
  if (keys.size() != 1) return std::nullopt;
  const BoundExpr& e = left_side ? *keys[0].first : *keys[0].second;
  if (e.kind != BoundExpr::Kind::kColumnRef) return std::nullopt;
  return e.slot;
}

/// Approximate bookkeeping overhead of one hash-table entry (node,
/// bucket slot, key copy headers) charged on top of the row payload.
constexpr size_t kHashEntryOverhead = 64;
/// Grace-hash partition fanout: a build side that misses the budget
/// is split 16 ways, so each sub-build needs ~1/16 of the memory.
constexpr size_t kGraceFanout = 16;

/// Secondary hash for Grace partitioning. Must be independent of the
/// primary bucket hash (all rows on a worker already share
/// hash % num_workers), so the primary hash is remixed and the top
/// bits select the partition.
size_t GracePartition(size_t hash) {
  return (hash * 0x9e3779b97f4a7c15ULL) >> 60;  // top 4 bits: 0..15
}

/// Rows between cooperative cancellation checks in streaming loops.
/// Small enough that a cancel lands within microseconds, large enough
/// that the atomic load vanishes against per-row evaluation cost.
constexpr size_t kCancelCheckRows = 256;

/// Streams every row out of `buf` (exact append order) into `fn`,
/// then clears the buffer. Rows that never spilled are moved out of
/// the resident tail — the no-budget fast path has no serialization
/// or copy cost. Polls the query's cancellation token (carried by the
/// buffer's MemoryContext) every kCancelCheckRows rows.
template <typename Fn>
Status ConsumeRows(SpillableRowBuffer& buf, Fn&& fn) {
  const CancellationToken* cancel = buf.context().cancel;
  size_t since_check = 0;
  const auto maybe_check = [&]() -> Status {
    if (cancel != nullptr && ++since_check >= kCancelCheckRows) {
      since_check = 0;
      return cancel->Check();
    }
    return Status::OK();
  };
  if (!buf.has_spilled_rows()) {
    for (Row& row : buf.resident_rows()) {
      RADB_RETURN_NOT_OK(maybe_check());
      RADB_RETURN_NOT_OK(fn(std::move(row)));
    }
  } else {
    SpillableRowBuffer::Reader reader(&buf);
    while (true) {
      RADB_RETURN_NOT_OK(maybe_check());
      RADB_ASSIGN_OR_RETURN(std::optional<Row> row, reader.Next());
      if (!row.has_value()) break;
      RADB_RETURN_NOT_OK(fn(std::move(*row)));
    }
  }
  buf.Clear();
  return Status::OK();
}

}  // namespace

void Executor::CollectSpill(OperatorMetrics* m, const SpillableDist& d) {
  for (const SpillableRowBuffer& b : d) {
    m->bytes_spilled += b.spill_bytes();
    m->spill_runs += b.spill_runs();
  }
}

size_t DistByteSize(const Dist& d) {
  size_t s = 0;
  for (const RowSet& p : d) {
    for (const Row& r : p) s += RowByteSize(r);
  }
  return s;
}

size_t DistRowCount(const Dist& d) {
  size_t s = 0;
  for (const RowSet& p : d) s += p.size();
  return s;
}

size_t SpillDistByteSize(const SpillableDist& d) {
  size_t s = 0;
  for (const SpillableRowBuffer& b : d) s += b.byte_size();
  return s;
}

size_t SpillDistRowCount(const SpillableDist& d) {
  size_t s = 0;
  for (const SpillableRowBuffer& b : d) s += b.num_rows();
  return s;
}

Status Executor::MakeHeadroom(const MemoryContext& mem, size_t needed,
                              const std::vector<SpillableDist*>& dists) {
  if (!mem.has_budget()) return Status::OK();
  if (mem.tracker->remaining() >= needed) return Status::OK();
  for (SpillableDist* d : dists) {
    for (SpillableRowBuffer& buf : *d) {
      RADB_RETURN_NOT_OK(buf.SpillToDisk());
    }
  }
  return Status::OK();
}

SpillableDist Executor::NewDist(size_t n) const {
  SpillableDist d;
  d.reserve(n);
  for (size_t i = 0; i < n; ++i) d.emplace_back(mem_);
  return d;
}

std::map<size_t, size_t> Executor::LayoutOf(const LogicalOp& op) {
  std::map<size_t, size_t> layout;
  for (size_t i = 0; i < op.output.size(); ++i) {
    layout[op.output[i].slot] = i;
  }
  return layout;
}

OperatorMetrics* Executor::NewOp(std::string name, const LogicalOp& op) {
  metrics_->operators.push_back(OperatorMetrics{});
  OperatorMetrics* m = &metrics_->operators.back();
  m->name = std::move(name);
  m->estimated_rows = op.est_rows;
  m->worker_seconds.assign(cluster_.num_workers(), 0.0);
  node_metrics_[&op].push_back(metrics_->operators.size() - 1);
  return m;
}

void Executor::PublishObservability() {
  if (obs_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *obs_.metrics;
    size_t rows_out = 0, bytes_out = 0, rows_shuffled = 0, bytes_shuffled = 0;
    size_t bytes_spilled = 0;
    for (const OperatorMetrics& op : metrics_->operators) {
      rows_out += op.rows_out;
      bytes_out += op.bytes_out;
      rows_shuffled += op.rows_shuffled;
      bytes_shuffled += op.bytes_shuffled;
      bytes_spilled += op.bytes_spilled;
      reg.Observe("exec.operator_seconds", op.TotalSeconds());
      reg.Observe("exec.operator_skew", op.Skew());
    }
    reg.Add("exec.operators", metrics_->operators.size());
    reg.Add("exec.rows_out", rows_out);
    reg.Add("exec.bytes_out", bytes_out);
    reg.Add("exec.rows_shuffled", rows_shuffled);
    reg.Add("exec.bytes_shuffled", bytes_shuffled);
    if (bytes_spilled > 0) reg.Add("exec.bytes_spilled", bytes_spilled);
    if (spool_reuses_ > 0) reg.Add("exec.spool_reuses", spool_reuses_);
    if (relational_multiplies_ > 0) {
      reg.Add("exec.relational_multiplies", relational_multiplies_);
    }
    if (relational_multiply_fallbacks_ > 0) {
      reg.Add("exec.relational_multiply_fallbacks",
              relational_multiply_fallbacks_);
    }
    reg.Set("exec.workers", static_cast<double>(cluster_.num_workers()));
  }
}

Status Executor::ForEachWorker(size_t n,
                               const std::function<Status(size_t)>& body) {
  if (pool_ == nullptr || pool_->num_threads() <= 1 || n <= 1) {
    for (size_t w = 0; w < n; ++w) {
      RADB_RETURN_NOT_OK(body(w));
    }
    return Status::OK();
  }
  std::vector<Status> statuses(n, Status::OK());
  pool_->ParallelFor(n, [&](size_t w) { statuses[w] = body(w); });
  for (Status& s : statuses) {
    if (!s.ok()) return std::move(s);
  }
  return Status::OK();
}

Result<Dist> Executor::Execute(const LogicalOp& op) {
  // All pool regions started under this call — including nested LA
  // kernels reached through GlobalPool() — carry the query id as
  // their task tag, so the pool's fair scheduler can interleave this
  // query with concurrently running ones.
  ScopedTaskTag tag(mem_.query_id);
  Result<ExecResult> executed = ExecuteOp(op);
  // Held spool results and multiply inputs belong to this execution
  // alone: a failed or cancelled plan must not keep their rows, spill
  // files or budget charges past this call.
  spools_.clear();
  held_inputs_.clear();
  RADB_ASSIGN_OR_RETURN(ExecResult out, std::move(executed));
  PublishObservability();
  // The final result set is always materialized (it leaves the
  // governed execution pipeline here); draining releases the buffers'
  // budget charges.
  Dist dist(out.dist.size());
  for (size_t w = 0; w < out.dist.size(); ++w) {
    RADB_ASSIGN_OR_RETURN(dist[w], out.dist[w].Drain());
  }
  return dist;
}

Result<ExecResult> Executor::ExecuteOp(const LogicalOp& op) {
  // An input a falling-back relational multiply already ran.
  if (auto held = held_inputs_.find(&op); held != held_inputs_.end()) {
    ExecResult result = std::move(held->second);
    held_inputs_.erase(held);
    return result;
  }
  // Operator-granular cancellation: a fired token stops the plan
  // before the next operator starts; row loops inside operators poll
  // at kCancelCheckRows granularity via ConsumeRows.
  if (mem_.cancel != nullptr) RADB_RETURN_NOT_OK(mem_.cancel->Check());
  if (obs_.tracer == nullptr) return DispatchOp(op);

  // One span per plan node; children nest naturally because they
  // execute inside this call. The physical name ("HashJoin(bcast
  // right)") is known only after dispatch, so it is patched in then.
  obs::ScopedSpan span(obs_.tracer, KindName(op.kind), "exec");
  RADB_ASSIGN_OR_RETURN(ExecResult result, DispatchOp(op));
  if (const std::vector<size_t>* ids = MetricsForNode(&op)) {
    const OperatorMetrics& last = metrics_->operators[ids->back()];
    span.SetName(last.name);
    span.AddArg("rows_out", std::to_string(last.rows_out));
    if (last.bytes_shuffled > 0) {
      span.AddArg("bytes_shuffled", std::to_string(last.bytes_shuffled));
    }
    if (last.bytes_spilled > 0) {
      span.AddArg("bytes_spilled", std::to_string(last.bytes_spilled));
    }
    // Per-worker lanes: the accumulated per-worker seconds of every
    // metrics entry of this node, rendered as end-aligned complete
    // spans on tid 1+worker so chrome://tracing shows one row per
    // simulated worker under the pipeline row.
    const double end = obs_.tracer->NowSeconds();
    for (size_t id : *ids) {
      const OperatorMetrics& m = metrics_->operators[id];
      for (size_t w = 0; w < m.worker_seconds.size(); ++w) {
        const double dur = m.worker_seconds[w];
        if (dur <= 0.0) continue;
        obs_.tracer->AddCompleteSpan(m.name + " w" + std::to_string(w),
                                     "worker", span.id(), end - dur, dur,
                                     static_cast<int>(w) + 1);
      }
    }
  }
  return result;
}

Result<ExecResult> Executor::DispatchOp(const LogicalOp& op) {
  if (op.spool_id == 0) return RunOp(op);
  auto held = spools_.find(op.spool_id);
  if (held != spools_.end()) return ServeSpool(op, held->second);
  RADB_ASSIGN_OR_RETURN(ExecResult result, RunOp(op));
  return HoldSpool(op, std::move(result));
}

Result<SpillableDist> Executor::CopyDist(SpillableDist& src,
                                         OperatorMetrics* m) {
  SpillableDist out = NewDist(src.size());
  RADB_RETURN_NOT_OK(ForEachWorker(src.size(), [&](size_t wkr) -> Status {
    const auto t0 = Clock::now();
    SpillableRowBuffer::Reader reader(&src[wkr]);
    while (true) {
      RADB_ASSIGN_OR_RETURN(std::optional<Row> row, reader.Next());
      if (!row.has_value()) break;
      RADB_RETURN_NOT_OK(out[wkr].Append(std::move(*row)));
    }
    if (m != nullptr) m->worker_seconds[wkr] += SecondsSince(t0);
    return Status::OK();
  }));
  return out;
}

Result<ExecResult> Executor::HoldSpool(const LogicalOp& op,
                                       ExecResult result) {
  // Under a budget the held rows go to disk at once, so they never pin
  // budget that a later hard reservation needs; each use replays them.
  if (mem_.has_budget()) {
    for (SpillableRowBuffer& buf : result.dist) {
      RADB_RETURN_NOT_OK(buf.SpillToDisk());
    }
  }
  RADB_ASSIGN_OR_RETURN(SpillableDist copy, CopyDist(result.dist, nullptr));
  const std::optional<size_t> hashed = result.hashed_slot;
  spools_[op.spool_id] = HeldSpool{std::move(result), &op, op.spool_uses - 1};
  return ExecResult{std::move(copy), hashed};
}

Result<ExecResult> Executor::ServeSpool(const LogicalOp& op,
                                        HeldSpool& held) {
  OperatorMetrics* m = NewOp("SpoolReuse", op);
  // Equal subtrees emit equal columns in equal positions, so the
  // producer's placement carries over by output position.
  std::optional<size_t> hashed;
  if (held.result.hashed_slot) {
    for (size_t i = 0; i < held.producer->output.size(); ++i) {
      if (held.producer->output[i].slot == *held.result.hashed_slot) {
        hashed = op.output[i].slot;
      }
    }
  }
  ExecResult out{SpillableDist{}, hashed};
  if (--held.uses_left == 0) {
    // The last use takes the held rows, and with them the record of
    // their spill at production.
    out.dist = std::move(held.result.dist);
    spools_.erase(op.spool_id);
  } else {
    RADB_ASSIGN_OR_RETURN(out.dist, CopyDist(held.result.dist, m));
  }
  ++spool_reuses_;
  m->rows_out = SpillDistRowCount(out.dist);
  m->rows_in = m->rows_out;
  m->bytes_out = SpillDistByteSize(out.dist);
  CollectSpill(m, out.dist);
  return out;
}

Result<ExecResult> Executor::RunOp(const LogicalOp& op) {
  if (op.multiply.has_value()) return ExecuteMultiply(op);
  switch (op.kind) {
    case LogicalOp::Kind::kScan:
    case LogicalOp::Kind::kFilter:
    case LogicalOp::Kind::kProject:
    case LogicalOp::Kind::kAggregate:
      return ExecutePipeline(op);
    case LogicalOp::Kind::kJoin:
      return ExecuteJoin(op);
    case LogicalOp::Kind::kDistinct:
      return ExecuteDistinct(op);
    case LogicalOp::Kind::kSort:
      return ExecuteSort(op);
    case LogicalOp::Kind::kLimit:
      return ExecuteLimit(op);
  }
  return Status::Internal("unknown logical operator");
}

Result<std::optional<ExecResult>> Executor::TryIndexJoin(const LogicalOp& op) {
  const LogicalOp& inner = *op.children[1];
  if (inner.kind != LogicalOp::Kind::kScan || inner.index_name.empty()) {
    return std::optional<ExecResult>();
  }
  const IndexDef* idx = inner.table->FindIndex(inner.index_name);
  if (idx == nullptr || !idx->usable()) return std::optional<ExecResult>();
  const storage::BTreeIndex& tree = *idx->tree;

  // Map index key positions to the outer-side expressions probing
  // them: equi pair (l, r) probes key position k when r is a bare
  // column reference to the scan column idx->columns[k]. Pairs that
  // probe nothing are re-checked per candidate row below.
  std::vector<int> probe_for_key(tree.key_len(), -1);
  for (size_t e = 0; e < op.equi_keys.size(); ++e) {
    const BoundExpr& r = *op.equi_keys[e].second;
    if (r.kind != BoundExpr::Kind::kColumnRef) continue;
    size_t col = 0;
    bool found = false;
    for (size_t i = 0; i < inner.output.size(); ++i) {
      if (inner.output[i].slot == r.slot) {
        col = inner.scan_columns[i];
        found = true;
        break;
      }
    }
    if (!found) continue;
    for (size_t k = 0; k < tree.key_len(); ++k) {
      if (idx->columns[k] == col && probe_for_key[k] < 0) {
        probe_for_key[k] = static_cast<int>(e);
      }
    }
  }
  // The composite prefix must start with a probed column, and an
  // unprobed position makes every later one unusable.
  if (probe_for_key[0] < 0) return std::optional<ExecResult>();
  size_t probed_len = 0;
  while (probed_len < probe_for_key.size() && probe_for_key[probed_len] >= 0) {
    ++probed_len;
  }

  RADB_ASSIGN_OR_RETURN(ExecResult outer_in, ExecuteOp(*op.children[0]));
  SpillableDist& outer = outer_in.dist;
  const size_t w = cluster_.num_workers();
  const auto outer_layout = LayoutOf(*op.children[0]);

  OperatorMetrics* m = NewOp(
      "IndexJoin(" + inner.table->name() + "." + inner.index_name + ")", op);
  m->rows_in = SpillDistRowCount(outer);

  // Combined layout (outer columns then inner) for residual predicates
  // and a fused projection, exactly as in the hash join.
  std::map<size_t, size_t> combined;
  for (size_t i = 0; i < op.children[0]->output.size(); ++i) {
    combined[op.children[0]->output[i].slot] = i;
  }
  const size_t outer_arity = op.children[0]->output.size();
  for (size_t i = 0; i < inner.output.size(); ++i) {
    combined[inner.output[i].slot] = outer_arity + i;
  }
  std::vector<BoundExprPtr> residual;
  for (const auto& p : op.residual) {
    RADB_ASSIGN_OR_RETURN(BoundExprPtr r, RewriteToPositions(*p, combined));
    residual.push_back(std::move(r));
  }
  std::vector<BoundExprPtr> fused;
  for (const auto& e : op.exprs) {
    RADB_ASSIGN_OR_RETURN(BoundExprPtr r, RewriteToPositions(*e, combined));
    fused.push_back(std::move(r));
  }
  // Outer key expressions, rewritten to outer row positions. Unprobed
  // equi pairs are verified against the fetched inner row: its key
  // expression reads the concatenated row like a residual.
  std::vector<BoundExprPtr> outer_keys;
  for (const auto& [l, r] : op.equi_keys) {
    RADB_ASSIGN_OR_RETURN(BoundExprPtr lk,
                          RewriteToPositions(*l, outer_layout));
    outer_keys.push_back(std::move(lk));
  }
  std::vector<BoundExprPtr> inner_keys;
  for (const auto& [l, r] : op.equi_keys) {
    RADB_ASSIGN_OR_RETURN(BoundExprPtr rk, RewriteToPositions(*r, combined));
    inner_keys.push_back(std::move(rk));
  }
  std::vector<size_t> recheck;
  for (size_t e = 0; e < op.equi_keys.size(); ++e) {
    bool probed = false;
    for (size_t k = 0; k < probed_len; ++k) {
      if (probe_for_key[k] == static_cast<int>(e)) probed = true;
    }
    if (!probed) recheck.push_back(e);
  }

  SpillableDist out = NewDist(w);
  JoinBatchSink* sink = (join_sink_op_ == &op) ? join_sink_ : nullptr;

  RADB_RETURN_NOT_OK(ForEachWorker(w, [&](size_t wkr) -> Status {
    const auto t0 = Clock::now();
    size_t since_check = 0;
    std::array<int64_t, storage::BTreeIndex::kMaxKeyColumns> lo, hi;
    std::vector<storage::Rid> rids;
    RADB_RETURN_NOT_OK(ConsumeRows(outer[wkr], [&](Row o) -> Status {
      lo.fill(INT64_MIN);
      hi.fill(INT64_MAX);
      for (size_t k = 0; k < probed_len; ++k) {
        RADB_ASSIGN_OR_RETURN(
            Value v, EvalExpr(*outer_keys[probe_for_key[k]], o));
        // A NULL or non-INTEGER probe value can never equal the
        // indexed column's INTEGER values (Value equality is strict
        // about kinds, matching the hash join), so the row joins
        // nothing.
        if (v.kind() != TypeKind::kInteger) return Status::OK();
        lo[k] = v.int_value();
        hi[k] = v.int_value();
      }
      rids.clear();
      tree.Range(lo.data(), hi.data(), &rids);
      for (const storage::Rid& rid : rids) {
        if (mem_.cancel != nullptr && ++since_check >= kCancelCheckRows) {
          since_check = 0;
          RADB_RETURN_NOT_OK(mem_.cancel->Check());
        }
        RADB_ASSIGN_OR_RETURN(Row full, inner.table->FetchRow(rid));
        Row joined;
        joined.reserve(outer_arity + inner.scan_columns.size());
        for (const Value& v : o) joined.push_back(v);
        for (size_t col : inner.scan_columns) {
          joined.push_back(std::move(full[col]));
        }
        bool keep = true;
        for (size_t e : recheck) {
          RADB_ASSIGN_OR_RETURN(Value lv, EvalExpr(*outer_keys[e], o));
          RADB_ASSIGN_OR_RETURN(Value rv, EvalExpr(*inner_keys[e], joined));
          if (lv.is_null() || rv.is_null() || !lv.Equals(rv)) {
            keep = false;
            break;
          }
        }
        if (!keep) continue;
        for (const auto& p : residual) {
          RADB_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, joined));
          if (v.is_null() || !v.bool_value()) {
            keep = false;
            break;
          }
        }
        if (!keep) continue;
        if (!fused.empty()) {
          Row projected;
          projected.reserve(fused.size());
          for (const auto& e : fused) {
            RADB_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, joined));
            projected.push_back(std::move(v));
          }
          joined = std::move(projected);
        }
        RADB_RETURN_NOT_OK(sink != nullptr
                               ? sink->AppendRow(wkr, std::move(joined))
                               : out[wkr].Append(std::move(joined)));
      }
      return Status::OK();
    }));
    m->worker_seconds[wkr] += SecondsSince(t0);
    return Status::OK();
  }));
  m->rows_out = SpillDistRowCount(out);
  m->bytes_out = SpillDistByteSize(out);
  CollectSpill(m, out);
  return std::optional<ExecResult>(
      ExecResult{std::move(out), std::nullopt});
}

Result<ExecResult> Executor::ExecuteJoin(const LogicalOp& op) {
  if (op.index_nl) {
    RADB_ASSIGN_OR_RETURN(std::optional<ExecResult> inl, TryIndexJoin(op));
    if (inl.has_value()) return std::move(*inl);
  }
  RADB_ASSIGN_OR_RETURN(ExecResult left_in, ExecuteOp(*op.children[0]));
  RADB_ASSIGN_OR_RETURN(ExecResult right_in, ExecuteOp(*op.children[1]));
  SpillableDist& left = left_in.dist;
  SpillableDist& right = right_in.dist;
  const size_t w = cluster_.num_workers();
  const auto left_layout = LayoutOf(*op.children[0]);
  const auto right_layout = LayoutOf(*op.children[1]);

  // Combined layout for residual predicates: left columns then right.
  std::map<size_t, size_t> combined;
  for (size_t i = 0; i < op.children[0]->output.size(); ++i) {
    combined[op.children[0]->output[i].slot] = i;
  }
  const size_t left_arity = op.children[0]->output.size();
  for (size_t i = 0; i < op.children[1]->output.size(); ++i) {
    combined[op.children[1]->output[i].slot] = left_arity + i;
  }
  std::vector<BoundExprPtr> residual;
  for (const auto& p : op.residual) {
    RADB_ASSIGN_OR_RETURN(BoundExprPtr r, RewriteToPositions(*p, combined));
    residual.push_back(std::move(r));
  }
  // A projection fused into the join (placed there by the optimizer's
  // early-projection rule, §4.1) is evaluated per joined row, so the
  // wide concatenated row is never materialized.
  std::vector<BoundExprPtr> fused;
  for (const auto& e : op.exprs) {
    RADB_ASSIGN_OR_RETURN(BoundExprPtr r, RewriteToPositions(*e, combined));
    fused.push_back(std::move(r));
  }

  const bool is_cross = op.equi_keys.empty();
  const size_t left_bytes = SpillDistByteSize(left);
  const size_t right_bytes = SpillDistByteSize(right);
  const size_t rows_in = SpillDistRowCount(left) + SpillDistRowCount(right);

  std::vector<BoundExprPtr> left_keys, right_keys;
  for (const auto& [l, r] : op.equi_keys) {
    RADB_ASSIGN_OR_RETURN(BoundExprPtr lk,
                          RewriteToPositions(*l, left_layout));
    RADB_ASSIGN_OR_RETURN(BoundExprPtr rk,
                          RewriteToPositions(*r, right_layout));
    left_keys.push_back(std::move(lk));
    right_keys.push_back(std::move(rk));
  }

  OperatorMetrics* m = nullptr;
  SpillableDist out = NewDist(w);
  // When a batch pipeline owns this join as its boundary, joined
  // rows stream into its column batches instead of `out` (which then
  // stays empty; the pipeline patches rows_out/bytes_out). The guard
  // is the exact node pointer, so joins nested deeper in this subtree
  // still materialize normally.
  JoinBatchSink* sink = (join_sink_op_ == &op) ? join_sink_ : nullptr;

  // Joins a left/right row pair: applies residual predicates and the
  // fused projection; nullopt when a residual rejects the pair.
  auto make_joined = [&](const Row& l,
                         const Row& r) -> Result<std::optional<Row>> {
    Row joined;
    joined.reserve(l.size() + r.size());
    for (const Value& v : l) joined.push_back(v);
    for (const Value& v : r) joined.push_back(v);
    for (const auto& p : residual) {
      RADB_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, joined));
      if (v.is_null() || !v.bool_value()) return std::optional<Row>();
    }
    if (!fused.empty()) {
      Row projected;
      projected.reserve(fused.size());
      for (const auto& e : fused) {
        RADB_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, joined));
        projected.push_back(std::move(v));
      }
      return std::optional<Row>(std::move(projected));
    }
    return std::optional<Row>(std::move(joined));
  };
  auto emit = [&](size_t wkr, const Row& l, const Row& r) -> Status {
    if (sink != nullptr && residual.empty() && fused.empty()) {
      // Fast path: hand the sink the two sides as-is — the
      // concatenated Row is never built.
      return sink->AppendPair(wkr, l, r);
    }
    RADB_ASSIGN_OR_RETURN(std::optional<Row> j, make_joined(l, r));
    if (!j.has_value()) return Status::OK();
    if (sink != nullptr) return sink->AppendRow(wkr, std::move(*j));
    return out[wkr].Append(std::move(*j));
  };

  if (is_cross) {
    // Broadcast the smaller side; each worker crosses its local
    // partition of the bigger side with the full smaller side. The
    // broadcast copy cannot spill (every probe row scans all of it),
    // so it reserves hard.
    const bool broadcast_right = right_bytes <= left_bytes;
    m = NewOp(broadcast_right ? "CrossJoin(bcast right)"
                              : "CrossJoin(bcast left)",
              op);
    m->rows_in = rows_in;
    SpillableDist& small_side = broadcast_right ? right : left;
    const size_t small_bytes = broadcast_right ? right_bytes : left_bytes;
    std::optional<mem::MemoryTracker> bt;
    if (mem_.tracker != nullptr) {
      RADB_RETURN_NOT_OK(MakeHeadroom(mem_, small_bytes, {&left, &right}));
      bt.emplace("CrossJoin broadcast side", mem_.tracker);
      RADB_RETURN_NOT_OK(bt->Reserve(small_bytes));
    }
    RowSet small;
    small.reserve(SpillDistRowCount(small_side));
    for (SpillableRowBuffer& buf : small_side) {
      RADB_RETURN_NOT_OK(ConsumeRows(buf, [&](Row row) -> Status {
        small.push_back(std::move(row));
        return Status::OK();
      }));
    }
    m->bytes_shuffled += small_bytes * (w - 1);
    m->rows_shuffled += small.size() * (w - 1);
    SpillableDist& big = broadcast_right ? left : right;
    // Each worker crosses its own big-side partition with the shared
    // (read-only) broadcast copy.
    RADB_RETURN_NOT_OK(ForEachWorker(w, [&](size_t wkr) -> Status {
      const auto t0 = Clock::now();
      // Cross joins poll the token per produced pair, not per probe
      // row — one probe row fans out into |small| pairs, which would
      // stretch the row-granular poll interval by that factor.
      size_t since_check = 0;
      RADB_RETURN_NOT_OK(ConsumeRows(big[wkr], [&](Row b) -> Status {
        for (const Row& s : small) {
          if (mem_.cancel != nullptr && ++since_check >= kCancelCheckRows) {
            since_check = 0;
            RADB_RETURN_NOT_OK(mem_.cancel->Check());
          }
          RADB_RETURN_NOT_OK(broadcast_right ? emit(wkr, b, s)
                                             : emit(wkr, s, b));
        }
        return Status::OK();
      }));
      m->worker_seconds[wkr] += SecondsSince(t0);
      return Status::OK();
    }));
  } else {
    // Broadcast-vs-shuffle decision, the classical optimizer rule: if
    // replicating the small side everywhere moves fewer bytes than
    // re-hashing both sides, broadcast. (The decision depends only on
    // input sizes, never on the memory budget, so plans — and
    // therefore output orders — are identical with and without one.)
    const size_t shuffle_cost = left_bytes + right_bytes;
    const size_t bcast_small =
        std::min(left_bytes, right_bytes) * (w > 0 ? (w - 1) : 0);
    const bool broadcast = bcast_small < shuffle_cost;
    if (broadcast) {
      const bool broadcast_right = right_bytes <= left_bytes;
      m = NewOp(broadcast_right ? "HashJoin(bcast right)"
                                : "HashJoin(bcast left)",
                op);
      m->rows_in = rows_in;
      // The replicated hash table is unspillable: a Grace fallback
      // would have to re-shuffle both sides, changing the physical
      // plan (and output order) under budget. Reserve hard instead.
      SpillableDist& small_side = broadcast_right ? right : left;
      const size_t small_bytes = broadcast_right ? right_bytes : left_bytes;
      const size_t small_rows = SpillDistRowCount(small_side);
      std::optional<mem::MemoryTracker> bt;
      if (mem_.tracker != nullptr) {
        RADB_RETURN_NOT_OK(MakeHeadroom(
            mem_, small_bytes + small_rows * kHashEntryOverhead,
            {&left, &right}));
        bt.emplace("HashJoin broadcast build side", mem_.tracker);
        RADB_RETURN_NOT_OK(
            bt->Reserve(small_bytes + small_rows * kHashEntryOverhead));
      }
      RowSet small;
      small.reserve(small_rows);
      for (SpillableRowBuffer& buf : small_side) {
        RADB_RETURN_NOT_OK(ConsumeRows(buf, [&](Row row) -> Status {
          small.push_back(std::move(row));
          return Status::OK();
        }));
      }
      const auto& small_keys = broadcast_right ? right_keys : left_keys;
      std::unordered_multimap<KeyRow, const Row*, KeyRowHash> table;
      for (const Row& r : small) {
        RADB_ASSIGN_OR_RETURN(KeyRow key, EvalKey(small_keys, r));
        if (KeyHasNull(key)) continue;
        table.emplace(std::move(key), &r);
      }
      m->bytes_shuffled += small_bytes * (w - 1);
      SpillableDist& big = broadcast_right ? left : right;
      const auto& big_keys = broadcast_right ? left_keys : right_keys;
      // The replicated hash table was built sequentially above (so its
      // bucket chains — and therefore match order — are independent of
      // the thread count); probing reads it concurrently.
      RADB_RETURN_NOT_OK(ForEachWorker(w, [&](size_t wkr) -> Status {
        const auto t0 = Clock::now();
        RADB_RETURN_NOT_OK(ConsumeRows(big[wkr], [&](Row b) -> Status {
          RADB_ASSIGN_OR_RETURN(KeyRow key, EvalKey(big_keys, b));
          if (KeyHasNull(key)) return Status::OK();
          auto [begin, end] = table.equal_range(key);
          for (auto it = begin; it != end; ++it) {
            RADB_RETURN_NOT_OK(broadcast_right ? emit(wkr, b, *it->second)
                                               : emit(wkr, *it->second, b));
          }
          return Status::OK();
        }));
        m->worker_seconds[wkr] += SecondsSince(t0);
        return Status::OK();
      }));
    } else {
      // A side already hash-placed on its (single, bare-column) join
      // key needs no movement — the §2.1 decision of which side to
      // shuffle, made here with exact physical knowledge.
      const std::optional<size_t> lkey_slot =
          SingleColumnKeySlot(op.equi_keys, /*left_side=*/true);
      const std::optional<size_t> rkey_slot =
          SingleColumnKeySlot(op.equi_keys, /*left_side=*/false);
      const bool left_prehashed = lkey_slot && left_in.hashed_slot &&
                                  *lkey_slot == *left_in.hashed_slot;
      const bool right_prehashed = rkey_slot && right_in.hashed_slot &&
                                   *rkey_slot == *right_in.hashed_slot;
      m = NewOp(left_prehashed && right_prehashed
                    ? "HashJoin(co-located)"
                    : (left_prehashed || right_prehashed
                           ? "HashJoin(shuffle one side)"
                           : "HashJoin(shuffle)"),
                op);
      m->rows_in = rows_in;
      // Re-partition by join key hash into spillable per-(src,dst)
      // runs; `prehashed` sides stay put and are charged nothing.
      // Each destination later consumes its runs in source order —
      // the same bucket order the old sequential loop produced, so
      // join output is independent of thread count.
      auto route = [&](SpillableDist& side,
                       const std::vector<BoundExprPtr>& keys,
                       bool prehashed) -> Result<std::vector<SpillableDist>> {
        std::vector<SpillableDist> runs;
        runs.reserve(side.size());
        for (size_t s = 0; s < side.size(); ++s) runs.push_back(NewDist(w));
        std::vector<size_t> local_bytes(side.size(), 0);
        std::vector<size_t> local_rows(side.size(), 0);
        RADB_RETURN_NOT_OK(
            ForEachWorker(side.size(), [&](size_t src) -> Status {
              const auto t0 = Clock::now();
              RADB_RETURN_NOT_OK(ConsumeRows(
                  side[src], [&](Row row) -> Status {
                    RADB_ASSIGN_OR_RETURN(KeyRow key, EvalKey(keys, row));
                    if (KeyHasNull(key)) {
                      return Status::OK();  // inner join: NULL never matches
                    }
                    const size_t dst =
                        prehashed ? src : cluster_.WorkerForHash(key.hash);
                    if (dst != src) {
                      local_bytes[src] += RowByteSize(row);
                      ++local_rows[src];
                    }
                    return runs[src][dst].Append(std::move(row));
                  }));
              m->worker_seconds[src] += SecondsSince(t0);
              return Status::OK();
            }));
        for (size_t src = 0; src < side.size(); ++src) {
          m->bytes_shuffled += local_bytes[src];
          m->rows_shuffled += local_rows[src];
        }
        return runs;
      };
      RADB_ASSIGN_OR_RETURN(auto left_runs,
                            route(left, left_keys, left_prehashed));
      RADB_ASSIGN_OR_RETURN(auto right_runs,
                            route(right, right_keys, right_prehashed));

      // Grace-hash fallback for one worker: both sides are split into
      // sub-partitions by a secondary hash. All rows with one key land
      // in one sub-partition with their relative order intact, so each
      // sub-build's equal_range chains equal the monolithic table's.
      // Probe rows carry their arrival sequence; merging sub-partition
      // outputs by that sequence restores the exact probe-major output
      // order — budgeted results stay bit-identical.
      auto grace = [&](size_t wkr, mem::MemoryTracker& wt, size_t* spill_b,
                       size_t* spill_r) -> Status {
        SpillableDist bparts = NewDist(kGraceFanout);
        SpillableDist pparts = NewDist(kGraceFanout);
        SpillableDist pout = NewDist(kGraceFanout);
        for (size_t src = 0; src < right_runs.size(); ++src) {
          RADB_RETURN_NOT_OK(
              ConsumeRows(right_runs[src][wkr], [&](Row row) -> Status {
                RADB_ASSIGN_OR_RETURN(KeyRow key, EvalKey(right_keys, row));
                return bparts[GracePartition(key.hash)].Append(std::move(row));
              }));
        }
        int64_t seq = 0;
        for (size_t src = 0; src < left_runs.size(); ++src) {
          RADB_RETURN_NOT_OK(
              ConsumeRows(left_runs[src][wkr], [&](Row row) -> Status {
                RADB_ASSIGN_OR_RETURN(KeyRow key, EvalKey(left_keys, row));
                Row tagged;
                tagged.reserve(row.size() + 1);
                tagged.push_back(Value::Int(seq++));
                for (Value& v : row) tagged.push_back(std::move(v));
                return pparts[GracePartition(key.hash)].Append(
                    std::move(tagged));
              }));
        }
        for (size_t p = 0; p < kGraceFanout; ++p) {
          const size_t part_rows = bparts[p].num_rows();
          const size_t charge =
              bparts[p].byte_size() + part_rows * kHashEntryOverhead;
          // A sub-build that still misses the budget fails the query:
          // one level of partitioning is the depth this engine goes.
          RADB_RETURN_NOT_OK(wt.Reserve(charge));
          std::vector<std::pair<KeyRow, Row>> build;
          build.reserve(part_rows);
          RADB_RETURN_NOT_OK(ConsumeRows(bparts[p], [&](Row row) -> Status {
            RADB_ASSIGN_OR_RETURN(KeyRow key, EvalKey(right_keys, row));
            build.emplace_back(std::move(key), std::move(row));
            return Status::OK();
          }));
          std::unordered_multimap<KeyRow, const Row*, KeyRowHash> table;
          table.reserve(build.size());
          for (auto& [key, row] : build) table.emplace(key, &row);
          RADB_RETURN_NOT_OK(
              ConsumeRows(pparts[p], [&](Row tagged) -> Status {
                const Value seq_v = tagged[0];
                Row probe(std::make_move_iterator(tagged.begin() + 1),
                          std::make_move_iterator(tagged.end()));
                RADB_ASSIGN_OR_RETURN(KeyRow key, EvalKey(left_keys, probe));
                auto [begin, end] = table.equal_range(key);
                for (auto it = begin; it != end; ++it) {
                  RADB_ASSIGN_OR_RETURN(std::optional<Row> j,
                                        make_joined(probe, *it->second));
                  if (!j.has_value()) continue;
                  Row tagged_out;
                  tagged_out.reserve(j->size() + 1);
                  tagged_out.push_back(seq_v);
                  for (Value& v : *j) tagged_out.push_back(std::move(v));
                  RADB_RETURN_NOT_OK(pout[p].Append(std::move(tagged_out)));
                }
                return Status::OK();
              }));
          build.clear();
          table.clear();
          wt.Release(charge);
        }
        // Merge sub-partition outputs back into probe-arrival order.
        // Each pout[p] is already ascending in seq, and all matches of
        // one probe row live in one partition, so a min-seq merge
        // reproduces the monolithic probe loop's output exactly.
        {
          std::vector<std::unique_ptr<SpillableRowBuffer::Reader>> readers;
          std::vector<std::optional<Row>> heads(kGraceFanout);
          for (size_t p = 0; p < kGraceFanout; ++p) {
            readers.push_back(
                std::make_unique<SpillableRowBuffer::Reader>(&pout[p]));
            RADB_ASSIGN_OR_RETURN(heads[p], readers[p]->Next());
          }
          while (true) {
            int best = -1;
            for (size_t p = 0; p < kGraceFanout; ++p) {
              if (!heads[p].has_value()) continue;
              if (best < 0 || (*heads[p])[0].int_value() <
                                  (*heads[best])[0].int_value()) {
                best = static_cast<int>(p);
              }
            }
            if (best < 0) break;
            Row& t = *heads[best];
            Row row(std::make_move_iterator(t.begin() + 1),
                    std::make_move_iterator(t.end()));
            // Grace runs only under a budget, where no batch sink streams.
            RADB_RETURN_NOT_OK(out[wkr].Append(std::move(row)));
            RADB_ASSIGN_OR_RETURN(heads[best], readers[best]->Next());
          }
        }
        for (const SpillableDist* d : {&bparts, &pparts, &pout}) {
          for (const SpillableRowBuffer& b : *d) {
            *spill_b += b.spill_bytes();
            *spill_r += b.spill_runs();
          }
        }
        return Status::OK();
      };

      std::vector<size_t> grace_spill_b(w, 0), grace_spill_r(w, 0);
      RADB_RETURN_NOT_OK(ForEachWorker(w, [&](size_t wkr) -> Status {
        const auto t0 = Clock::now();
        size_t build_bytes = 0, build_rows = 0;
        for (size_t src = 0; src < right_runs.size(); ++src) {
          build_bytes += right_runs[src][wkr].byte_size();
          build_rows += right_runs[src][wkr].num_rows();
        }
        bool classic = true;
        std::optional<mem::MemoryTracker> wt;
        if (mem_.tracker != nullptr) {
          wt.emplace("HashJoin build (worker " + std::to_string(wkr) + ")",
                     mem_.tracker);
          classic =
              wt->TryReserve(build_bytes + build_rows * kHashEntryOverhead);
        }
        if (classic) {
          // In-memory path: materialize the build side in source
          // order, probe in source order — the seed implementation's
          // exact behavior. The worker tracker releases the build
          // charge when it goes out of scope.
          std::vector<std::pair<KeyRow, Row>> build;
          build.reserve(build_rows);
          for (size_t src = 0; src < right_runs.size(); ++src) {
            RADB_RETURN_NOT_OK(
                ConsumeRows(right_runs[src][wkr], [&](Row row) -> Status {
                  RADB_ASSIGN_OR_RETURN(KeyRow key, EvalKey(right_keys, row));
                  build.emplace_back(std::move(key), std::move(row));
                  return Status::OK();
                }));
          }
          std::unordered_multimap<KeyRow, const Row*, KeyRowHash> table;
          table.reserve(build.size());
          for (auto& [key, row] : build) table.emplace(key, &row);
          for (size_t src = 0; src < left_runs.size(); ++src) {
            RADB_RETURN_NOT_OK(
                ConsumeRows(left_runs[src][wkr], [&](Row row) -> Status {
                  RADB_ASSIGN_OR_RETURN(KeyRow key, EvalKey(left_keys, row));
                  auto [begin, end] = table.equal_range(key);
                  for (auto it = begin; it != end; ++it) {
                    RADB_RETURN_NOT_OK(emit(wkr, row, *it->second));
                  }
                  return Status::OK();
                }));
          }
        } else {
          RADB_RETURN_NOT_OK(
              grace(wkr, *wt, &grace_spill_b[wkr], &grace_spill_r[wkr]));
        }
        m->worker_seconds[wkr] += SecondsSince(t0);
        return Status::OK();
      }));
      for (size_t wkr = 0; wkr < w; ++wkr) {
        m->bytes_spilled += grace_spill_b[wkr];
        m->spill_runs += grace_spill_r[wkr];
      }
      for (const auto& runs : {std::cref(left_runs), std::cref(right_runs)}) {
        for (const SpillableDist& per_src : runs.get()) {
          CollectSpill(m, per_src);
        }
      }
    }
  }
  m->rows_out = SpillDistRowCount(out);
  m->bytes_out = SpillDistByteSize(out);
  CollectSpill(m, out);
  return ExecResult{std::move(out), std::nullopt};
}

Result<ExecResult> Executor::ExecuteDistinct(const LogicalOp& op) {
  RADB_ASSIGN_OR_RETURN(ExecResult child, ExecuteOp(*op.children[0]));
  SpillableDist& in = child.dist;
  OperatorMetrics* m = NewOp("Distinct", op);
  m->rows_in = SpillDistRowCount(in);
  const size_t w = cluster_.num_workers();
  // Shuffle by whole-row hash, then dedupe locally. Two phases so
  // both sides parallelize with disjoint writes: every source worker
  // splits its rows into per-destination runs, then every destination
  // dedupes its runs in source order — the same insertion order as a
  // sequential src-major sweep, so the surviving (first) duplicate
  // and the set's iteration order match at any thread count. The
  // shuffle runs are spillable; the dedupe set is not (it IS the
  // output), so it reserves hard.
  std::vector<SpillableDist> runs;
  runs.reserve(in.size());
  for (size_t src = 0; src < in.size(); ++src) runs.push_back(NewDist(w));
  std::vector<size_t> local_bytes(in.size(), 0);
  std::vector<size_t> local_rows(in.size(), 0);
  RADB_RETURN_NOT_OK(ForEachWorker(in.size(), [&](size_t src) -> Status {
    const auto t0 = Clock::now();
    RADB_RETURN_NOT_OK(ConsumeRows(in[src], [&](Row row) -> Status {
      const size_t dst = cluster_.WorkerForHash(HashRow(row));
      if (dst != src) {
        local_bytes[src] += RowByteSize(row);
        ++local_rows[src];
      }
      return runs[src][dst].Append(std::move(row));
    }));
    m->worker_seconds[src] += SecondsSince(t0);
    return Status::OK();
  }));
  for (size_t src = 0; src < in.size(); ++src) {
    m->bytes_shuffled += local_bytes[src];
    m->rows_shuffled += local_rows[src];
  }
  // The dedup sets are unspillable and charge 2× each distinct row
  // (key copy + stored row); free that much budget up front by
  // pushing the routed runs to disk if needed.
  {
    size_t runs_bytes = 0;
    std::vector<SpillableDist*> run_ptrs;
    for (SpillableDist& per_src : runs) {
      runs_bytes += SpillDistByteSize(per_src);
      run_ptrs.push_back(&per_src);
    }
    RADB_RETURN_NOT_OK(MakeHeadroom(mem_, 2 * runs_bytes, run_ptrs));
  }
  SpillableDist out = NewDist(w);
  RADB_RETURN_NOT_OK(ForEachWorker(w, [&](size_t dst) -> Status {
    const auto t0 = Clock::now();
    std::optional<mem::MemoryTracker> st;
    if (mem_.tracker != nullptr) {
      st.emplace("DISTINCT set (worker " + std::to_string(dst) + ")",
                 mem_.tracker);
    }
    std::unordered_map<KeyRow, Row, KeyRowHash> set;
    for (size_t src = 0; src < runs.size(); ++src) {
      RADB_RETURN_NOT_OK(
          ConsumeRows(runs[src][dst], [&](Row row) -> Status {
            const size_t rb = RowByteSize(row);
            KeyRow key{row, HashRow(row)};
            const auto [it, inserted] =
                set.emplace(std::move(key), std::move(row));
            if (inserted && st.has_value()) {
              // Key copy + stored row + map entry, unspillable.
              RADB_RETURN_NOT_OK(st->Reserve(GroupAdmissionBytes(rb)));
            }
            return Status::OK();
          }));
    }
    for (auto& [key, row] : set) {
      RADB_RETURN_NOT_OK(out[dst].Append(std::move(row)));
    }
    m->worker_seconds[dst] += SecondsSince(t0);
    return Status::OK();
  }));
  for (const SpillableDist& per_src : runs) CollectSpill(m, per_src);
  m->rows_out = SpillDistRowCount(out);
  m->bytes_out = SpillDistByteSize(out);
  CollectSpill(m, out);
  return ExecResult{std::move(out), std::nullopt};
}

Result<ExecResult> Executor::ExecuteSort(const LogicalOp& op) {
  RADB_ASSIGN_OR_RETURN(ExecResult child, ExecuteOp(*op.children[0]));
  SpillableDist& in = child.dist;
  OperatorMetrics* m = NewOp("Sort", op);
  m->rows_in = SpillDistRowCount(in);
  const auto layout = LayoutOf(*op.children[0]);
  std::vector<std::pair<BoundExprPtr, bool>> keys;
  for (const auto& [e, desc] : op.sort_keys) {
    RADB_ASSIGN_OR_RETURN(BoundExprPtr r, RewriteToPositions(*e, layout));
    keys.emplace_back(std::move(r), desc);
  }
  // Gather everything onto worker 0 and sort there. An external
  // (spilling) sort would need run-merging that reorders comparisons;
  // this engine keeps ORDER BY in memory, so the gather buffer
  // reserves hard and the query fails cleanly when it doesn't fit.
  std::optional<mem::MemoryTracker> st;
  if (mem_.tracker != nullptr) {
    RADB_RETURN_NOT_OK(MakeHeadroom(mem_, SpillDistByteSize(in), {&in}));
    st.emplace("Sort buffer", mem_.tracker);
    RADB_RETURN_NOT_OK(st->Reserve(SpillDistByteSize(in)));
  }
  RowSet all;
  all.reserve(SpillDistRowCount(in));
  for (size_t src = 0; src < in.size(); ++src) {
    RADB_RETURN_NOT_OK(ConsumeRows(in[src], [&](Row row) -> Status {
      if (src != 0) {
        m->bytes_shuffled += RowByteSize(row);
        ++m->rows_shuffled;
      }
      all.push_back(std::move(row));
      return Status::OK();
    }));
  }
  const auto t0 = Clock::now();
  Status sort_status = Status::OK();
  std::stable_sort(all.begin(), all.end(),
                   [&](const Row& a, const Row& b) {
                     if (!sort_status.ok()) return false;
                     for (const auto& [e, desc] : keys) {
                       auto va = EvalExpr(*e, a);
                       auto vb = EvalExpr(*e, b);
                       if (!va.ok() || !vb.ok()) {
                         sort_status = va.ok() ? vb.status() : va.status();
                         return false;
                       }
                       auto c = va->Compare(*vb);
                       if (!c.ok()) {
                         sort_status = c.status();
                         return false;
                       }
                       if (*c != 0) return desc ? *c > 0 : *c < 0;
                     }
                     return false;
                   });
  RADB_RETURN_NOT_OK(sort_status);
  m->worker_seconds[0] += SecondsSince(t0);
  SpillableDist out = NewDist(cluster_.num_workers());
  for (Row& row : all) {
    // Hand the charge over row by row: the output buffer charges the
    // row on Append, then the gather reservation shrinks by the same
    // amount, keeping the tracked total flat.
    const size_t b = st.has_value() ? RowByteSize(row) : 0;
    RADB_RETURN_NOT_OK(out[0].Append(std::move(row)));
    if (st.has_value()) st->Release(b);
  }
  m->rows_out = SpillDistRowCount(out);
  m->bytes_out = SpillDistByteSize(out);
  CollectSpill(m, out);
  return ExecResult{std::move(out), std::nullopt};
}

Result<ExecResult> Executor::ExecuteLimit(const LogicalOp& op) {
  RADB_ASSIGN_OR_RETURN(ExecResult child, ExecuteOp(*op.children[0]));
  SpillableDist& in = child.dist;
  OperatorMetrics* m = NewOp("Limit", op);
  m->rows_in = SpillDistRowCount(in);
  SpillableDist out = NewDist(cluster_.num_workers());
  const size_t limit = static_cast<size_t>(std::max<int64_t>(0, op.limit));
  size_t taken = 0;
  for (size_t src = 0; src < in.size() && taken < limit; ++src) {
    SpillableRowBuffer::Reader reader(&in[src]);
    while (taken < limit) {
      RADB_ASSIGN_OR_RETURN(std::optional<Row> row, reader.Next());
      if (!row.has_value()) break;
      if (src != 0) {
        m->bytes_shuffled += RowByteSize(*row);
        ++m->rows_shuffled;
      }
      RADB_RETURN_NOT_OK(out[0].Append(std::move(*row)));
      ++taken;
    }
  }
  for (SpillableRowBuffer& buf : in) buf.Clear();
  m->rows_out = SpillDistRowCount(out);
  m->bytes_out = SpillDistByteSize(out);
  CollectSpill(m, out);
  return ExecResult{std::move(out), std::nullopt};
}

}  // namespace radb
