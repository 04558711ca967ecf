#include "exec/executor.h"

#include <algorithm>
#include <array>
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

/// Buffers a join reads in order: a worker's runs, runs[src][wkr] for
/// each source, or every worker's buffer of one distribution.
using BufferList = std::vector<SpillableRowBuffer*>;

BufferList WorkerRuns(std::vector<SpillableDist>& runs, size_t wkr) {
  BufferList out;
  for (SpillableDist& per_src : runs) out.push_back(&per_src[wkr]);
  return out;
}

/// Where a worker's joined rows go: the pipeline's sink when given, else
/// `buf`. Under Grace (`tagged`) probe rows lead with their arrival
/// sequence number, and so does each joined row they make.
struct JoinOut {
  Executor::JoinBatchSink* sink;
  size_t wkr;
  SpillableRowBuffer* buf;
  bool tagged = false;
};

/// A join's expressions over its inputs' row positions, and the one
/// joined-row path every strategy hands its matched pairs to.
struct JoinedRows {
  std::vector<BoundExprPtr> left_keys, right_keys;  // per side
  /// Equi pairs the lookup does not match on (an index join's unprobed
  /// pairs); a pair whose keys differ or hold a NULL is dropped.
  std::vector<size_t> recheck;
  /// Over the joined row (left columns, then right): the residual
  /// predicates and the fused projection (early projection, §4.1).
  std::vector<BoundExprPtr> residual, fused;

  /// Joins (l, r). With nothing to recheck, filter or project, a sink
  /// takes the two sides as they are. Otherwise: recheck, build the
  /// row, filter, project, then append it to the sink or the buffer.
  Status Emit(const Row& l, const Row& r, const JoinOut& to,
              const Value* tag) const {
    if (to.sink != nullptr && recheck.empty() && residual.empty() &&
        fused.empty()) {
      return to.sink->AppendPair(to.wkr, l, r);
    }
    for (size_t e : recheck) {
      RADB_ASSIGN_OR_RETURN(Value lv, EvalExpr(*left_keys[e], l));
      RADB_ASSIGN_OR_RETURN(Value rv, EvalExpr(*right_keys[e], r));
      if (lv.is_null() || rv.is_null() || !lv.Equals(rv)) return Status::OK();
    }
    Row joined;
    joined.reserve(l.size() + r.size());
    joined.insert(joined.end(), l.begin(), l.end());
    joined.insert(joined.end(), r.begin(), r.end());
    for (const auto& p : residual) {
      RADB_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, joined));
      if (v.is_null() || !v.bool_value()) return Status::OK();
    }
    if (!fused.empty()) {
      Row projected;
      projected.reserve(fused.size());
      for (const auto& e : fused) {
        RADB_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, joined));
        projected.push_back(std::move(v));
      }
      joined = std::move(projected);
    }
    if (tag != nullptr) joined.insert(joined.begin(), *tag);
    return to.sink != nullptr ? to.sink->AppendRow(to.wkr, std::move(joined))
                              : to.buf->Append(std::move(joined));
  }
};

/// A join's build side and its lookup — the broadcast build, each
/// worker's in-memory build and each Grace sub-build. Rows are kept in
/// arrival order. With equi keys a row whose key has a NULL is dropped
/// (it matches nothing), and the rest are indexed by KeyRow in a
/// std::unordered_multimap filled in arrival order: the order
/// equal_range returns a key's rows in follows from that order alone,
/// so equal builds probe alike at any thread count. Without keys (a
/// cross join's broadcast side) every row matches, in arrival order.
class HashBuild {
 public:
  HashBuild(const std::vector<BoundExprPtr>& build_keys,
            const std::vector<BoundExprPtr>& probe_keys)
      : build_keys_(build_keys), probe_keys_(probe_keys) {}

  /// Takes every row of `bufs`, in order, and indexes them.
  Status Build(const BufferList& bufs) {
    size_t n = 0;
    for (const SpillableRowBuffer* buf : bufs) n += buf->num_rows();
    rows_.reserve(n);
    for (SpillableRowBuffer* buf : bufs) {
      RADB_RETURN_NOT_OK(buf->ConsumeRows(nullptr, [&](Row row) -> Status {
        KeyRow key;
        if (!build_keys_.empty()) {
          RADB_ASSIGN_OR_RETURN(key, EvalKey(build_keys_, row));
          if (KeyHasNull(key)) return Status::OK();
        }
        rows_.emplace_back(std::move(key), std::move(row));
        return Status::OK();
      }));
    }
    if (build_keys_.empty()) return Status::OK();
    table_.reserve(rows_.size());
    for (auto& [key, row] : rows_) table_.emplace(std::move(key), &row);
    return Status::OK();
  }

  /// Calls fn(build row) for each row matching `probe`, in lookup order.
  template <typename Fn>
  Status ForEachMatch(const Row& probe, Fn&& fn) const {
    if (probe_keys_.empty()) {
      for (const auto& entry : rows_) RADB_RETURN_NOT_OK(fn(entry.second));
      return Status::OK();
    }
    RADB_ASSIGN_OR_RETURN(KeyRow key, EvalKey(probe_keys_, probe));
    if (KeyHasNull(key)) return Status::OK();
    auto [begin, end] = table_.equal_range(key);
    for (auto it = begin; it != end; ++it) {
      RADB_RETURN_NOT_OK(fn(*it->second));
    }
    return Status::OK();
  }

 private:
  const std::vector<BoundExprPtr>& build_keys_;
  const std::vector<BoundExprPtr>& probe_keys_;
  std::vector<std::pair<KeyRow, Row>> rows_;
  std::unordered_multimap<KeyRow, const Row*, KeyRowHash> table_;
};

/// The index-nested-loop join's lookup: the inner scan's B+ tree,
/// probed with an outer row's values for the longest prefix of index
/// columns the equi pairs reach, then each match's scanned columns
/// fetched.
struct IndexLookup {
  const LogicalOp* scan;
  const storage::BTreeIndex* tree;
  const std::vector<BoundExprPtr>* outer_keys;
  std::vector<int> probe_for_key;  // the equi pair each position probes

  /// Calls fn(inner row) for each indexed row matching `outer` on the
  /// probed columns, in the tree's order.
  template <typename Fn>
  Status ForEachMatch(const Row& outer, Fn&& fn) const {
    std::array<int64_t, storage::BTreeIndex::kMaxKeyColumns> lo, hi;
    lo.fill(INT64_MIN);
    hi.fill(INT64_MAX);
    for (size_t k = 0; k < probe_for_key.size(); ++k) {
      RADB_ASSIGN_OR_RETURN(Value v,
                            EvalExpr(*(*outer_keys)[probe_for_key[k]], outer));
      // A NULL or non-INTEGER probe value can never equal the indexed
      // column's INTEGER values (Value equality is strict about kinds,
      // matching the hash join), so the row joins nothing.
      if (v.kind() != TypeKind::kInteger) return Status::OK();
      lo[k] = hi[k] = v.int_value();
    }
    std::vector<storage::Rid> rids;
    tree->Range(lo.data(), hi.data(), &rids);
    for (const storage::Rid& rid : rids) {
      RADB_ASSIGN_OR_RETURN(Row full, scan->table->FetchRow(rid));
      Row inner;
      inner.reserve(scan->scan_columns.size());
      for (size_t col : scan->scan_columns) {
        inner.push_back(std::move(full[col]));
      }
      RADB_RETURN_NOT_OK(fn(inner));
    }
    return Status::OK();
  }
};

/// The lookup of a join annotated `index_nl`, with `joined`'s unprobed
/// equi pairs set to recheck. nullopt when the annotation is stale
/// (index dropped or degraded since planning) or no equi pair reaches
/// the index's first column.
std::optional<IndexLookup> IndexLookupFor(const LogicalOp& join,
                                          JoinedRows* joined) {
  const LogicalOp& inner = *join.children[1];
  if (inner.kind != LogicalOp::Kind::kScan || inner.index_name.empty()) {
    return std::nullopt;
  }
  const IndexDef* idx = inner.table->FindIndex(inner.index_name);
  if (idx == nullptr || !idx->usable()) return std::nullopt;
  // Equi pair (l, r) probes key position k when r is a bare column
  // reference to the scan column idx->columns[k].
  std::vector<int> probe_for_key(idx->tree->key_len(), -1);
  for (size_t e = 0; e < join.equi_keys.size(); ++e) {
    const BoundExpr& r = *join.equi_keys[e].second;
    if (r.kind != BoundExpr::Kind::kColumnRef) continue;
    for (size_t i = 0; i < inner.output.size(); ++i) {
      if (inner.output[i].slot != r.slot) continue;
      for (size_t k = 0; k < probe_for_key.size(); ++k) {
        if (idx->columns[k] == inner.scan_columns[i] && probe_for_key[k] < 0) {
          probe_for_key[k] = static_cast<int>(e);
        }
      }
      break;
    }
  }
  // The composite prefix must start with a probed column, and an
  // unprobed position makes every later one unusable.
  const auto end = std::find(probe_for_key.begin(), probe_for_key.end(), -1);
  if (end == probe_for_key.begin()) return std::nullopt;
  probe_for_key.erase(end, probe_for_key.end());
  for (size_t e = 0; e < join.equi_keys.size(); ++e) {
    if (std::count(probe_for_key.begin(), probe_for_key.end(), e) == 0) {
      joined->recheck.push_back(e);
    }
  }
  return IndexLookup{&inner, idx->tree.get(), &joined->left_keys,
                     std::move(probe_for_key)};
}

/// The probe loop of every join strategy, on one worker: reads `bufs`
/// in order and hands each match `lookup` finds for a row, in lookup
/// order, to the joined-row path, with the probe row on its own side of
/// the join. `poll` ticks once per row read and once per pair.
template <typename Lookup>
Status ProbeRows(const BufferList& bufs, const Lookup& lookup,
                 bool probe_left, const JoinedRows& joined, const JoinOut& to,
                 CancelPoll& poll) {
  for (SpillableRowBuffer* buf : bufs) {
    RADB_RETURN_NOT_OK(buf->ConsumeRows(&poll, [&](Row row) -> Status {
      Value seq;
      if (to.tagged) {
        seq = std::move(row[0]);
        row.erase(row.begin());
      }
      const Value* tag = to.tagged ? &seq : nullptr;
      return lookup.ForEachMatch(row, [&](const Row& match) -> Status {
        RADB_RETURN_NOT_OK(poll.Tick());
        return probe_left ? joined.Emit(row, match, to, tag)
                          : joined.Emit(match, row, to, tag);
      });
    }));
  }
  return Status::OK();
}

/// The operator name of a join placed by `place`.
std::string JoinName(bool cross, const JoinPlacement& place) {
  using Kind = JoinPlacement::Kind;
  if (place.kind != Kind::kShuffle) {
    return std::string(cross ? "CrossJoin" : "HashJoin") +
           (place.kind == Kind::kBroadcastRight ? "(bcast right)"
                                                : "(bcast left)");
  }
  if (place.left_stays && place.right_stays) return "HashJoin(co-located)";
  if (place.left_stays || place.right_stays) {
    return "HashJoin(shuffle one side)";
  }
  return "HashJoin(shuffle)";
}

}  // namespace

void Executor::CollectSpill(OperatorMetrics* m, const SpillableDist& d) {
  for (const SpillableRowBuffer& b : d) {
    m->bytes_spilled += b.spill_bytes();
    m->spill_runs += b.spill_runs();
  }
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

Result<ExecResult> Executor::ExecuteOp(const LogicalOp& op,
                                       JoinBatchSink* sink) {
  // An input a falling-back relational multiply already ran.
  if (auto held = held_inputs_.find(&op); held != held_inputs_.end()) {
    ExecResult result = std::move(held->second);
    held_inputs_.erase(held);
    return result;
  }
  // Operator-granular cancellation: a fired token stops the plan
  // before the next operator starts. Loops inside operators tick a
  // CancelPoll (common/cancellation.h).
  if (mem_.cancel != nullptr) RADB_RETURN_NOT_OK(mem_.cancel->Check());
  if (obs_.tracer == nullptr) return DispatchOp(op, sink);

  // One span per plan node; children nest naturally because they
  // execute inside this call. The physical name ("HashJoin(bcast
  // right)") is known only after dispatch, so it is patched in then.
  obs::ScopedSpan span(obs_.tracer, KindName(op.kind), "exec");
  RADB_ASSIGN_OR_RETURN(ExecResult result, DispatchOp(op, sink));
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

Result<ExecResult> Executor::DispatchOp(const LogicalOp& op,
                                        JoinBatchSink* sink) {
  if (op.spool_id == 0) return RunOp(op, sink);
  auto held = spools_.find(op.spool_id);
  if (held != spools_.end()) return ServeSpool(op, held->second);
  RADB_ASSIGN_OR_RETURN(ExecResult result, RunOp(op, nullptr));
  return HoldSpool(op, std::move(result));
}

Result<SpillableDist> Executor::CopyDist(SpillableDist& src,
                                         OperatorMetrics* m) {
  SpillableDist out = NewDist(src.size());
  RADB_RETURN_NOT_OK(ForEachWorker(src.size(), [&](size_t wkr) -> Status {
    const auto t0 = Clock::now();
    RADB_RETURN_NOT_OK(src[wkr].ForEachRow(
        nullptr, [&](const Row& row) { return out[wkr].Append(row); }));
    if (m != nullptr) m->worker_seconds[wkr] += SecondsSince(t0);
    return Status::OK();
  }));
  return out;
}

std::optional<size_t> Executor::SlotAtSamePosition(
    const LogicalOp& from, const LogicalOp& to, std::optional<size_t> slot) {
  if (slot) {
    for (size_t i = 0; i < from.output.size(); ++i) {
      if (from.output[i].slot == *slot) return to.output[i].slot;
    }
  }
  return std::nullopt;
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
  ExecResult out{SpillableDist{},
                 SlotAtSamePosition(*held.producer, op,
                                    held.result.hashed_slot)};
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

Result<ExecResult> Executor::RunOp(const LogicalOp& op, JoinBatchSink* sink) {
  if (op.multiply.has_value()) return ExecuteMultiply(op);
  switch (op.kind) {
    case LogicalOp::Kind::kScan:
    case LogicalOp::Kind::kFilter:
    case LogicalOp::Kind::kProject:
    case LogicalOp::Kind::kAggregate:
      return ExecutePipeline(op);
    case LogicalOp::Kind::kJoin:
      return ExecuteJoin(op, sink);
    case LogicalOp::Kind::kDistinct:
      return ExecuteDistinct(op);
    case LogicalOp::Kind::kSort:
      return ExecuteSort(op);
    case LogicalOp::Kind::kLimit:
      return ExecuteLimit(op);
  }
  return Status::Internal("unknown logical operator");
}

JoinPlacement Executor::PlaceJoin(
    const LogicalOp& join, const SpillableDist& left,
    const SpillableDist& right, std::optional<size_t> left_hashed,
    std::optional<size_t> right_hashed) const {
  const size_t left_bytes = SpillDistByteSize(left);
  const size_t right_bytes = SpillDistByteSize(right);
  const size_t w = cluster_.num_workers();
  // Broadcast when replicating the smaller side everywhere moves fewer
  // bytes than re-hashing both; a cross join has no key to hash by.
  if (join.equi_keys.empty() ||
      std::min(left_bytes, right_bytes) * (w > 0 ? w - 1 : 0) <
          left_bytes + right_bytes) {
    return {right_bytes <= left_bytes ? JoinPlacement::Kind::kBroadcastRight
                                      : JoinPlacement::Kind::kBroadcastLeft};
  }
  // A side already hash-placed on its (single, bare-column) join key
  // needs no movement — the §2.1 decision of which side to shuffle,
  // made with exact physical knowledge.
  const auto stays = [&](bool left_side, std::optional<size_t> hashed) {
    if (join.equi_keys.size() != 1 || !hashed.has_value()) return false;
    const BoundExpr& key =
        left_side ? *join.equi_keys[0].first : *join.equi_keys[0].second;
    return key.kind == BoundExpr::Kind::kColumnRef && key.slot == *hashed;
  };
  return {JoinPlacement::Kind::kShuffle, stays(true, left_hashed),
          stays(false, right_hashed)};
}

Result<std::vector<SpillableDist>> Executor::Route(
    SpillableDist& side, OperatorMetrics* m,
    const std::function<Result<size_t>(size_t src, const Row& row)>& dest) {
  // Sources split their rows in parallel with disjoint writes; reading
  // runs[*][dst] in source order gives the same order at any thread count.
  std::vector<SpillableDist> runs(side.size());
  for (SpillableDist& per_src : runs) per_src = NewDist(cluster_.num_workers());
  std::vector<size_t> moved_bytes(side.size(), 0), moved_rows(side.size(), 0);
  RADB_RETURN_NOT_OK(ForEachWorker(side.size(), [&](size_t src) -> Status {
    const auto t0 = Clock::now();
    RADB_RETURN_NOT_OK(side[src].ConsumeRows(nullptr, [&](Row row) -> Status {
      RADB_ASSIGN_OR_RETURN(const size_t dst, dest(src, row));
      if (dst == kDropRow) return Status::OK();
      if (dst != src) {
        moved_bytes[src] += RowByteSize(row);
        ++moved_rows[src];
      }
      return runs[src][dst].Append(std::move(row));
    }));
    m->worker_seconds[src] += SecondsSince(t0);
    return Status::OK();
  }));
  for (size_t src = 0; src < side.size(); ++src) {
    m->bytes_shuffled += moved_bytes[src];
    m->rows_shuffled += moved_rows[src];
  }
  return runs;
}

Result<ExecResult> Executor::ExecuteJoin(const LogicalOp& op,
                                         JoinBatchSink* sink) {
  const LogicalOp& lhs = *op.children[0];
  const LogicalOp& rhs = *op.children[1];
  const std::map<size_t, size_t> left_layout = LayoutOf(lhs);
  const std::map<size_t, size_t> right_layout = LayoutOf(rhs);
  std::map<size_t, size_t> combined = left_layout;
  for (const auto& [slot, i] : right_layout) {
    combined[slot] = lhs.output.size() + i;
  }
  JoinedRows joined;
  const auto bind = [](const BoundExpr& e,
                       const std::map<size_t, size_t>& layout,
                       std::vector<BoundExprPtr>* out) -> Status {
    RADB_ASSIGN_OR_RETURN(BoundExprPtr r, RewriteToPositions(e, layout));
    out->push_back(std::move(r));
    return Status::OK();
  };
  for (const auto& [l, r] : op.equi_keys) {
    RADB_RETURN_NOT_OK(bind(*l, left_layout, &joined.left_keys));
    RADB_RETURN_NOT_OK(bind(*r, right_layout, &joined.right_keys));
  }
  for (const auto& p : op.residual) {
    RADB_RETURN_NOT_OK(bind(*p, combined, &joined.residual));
  }
  for (const auto& e : op.exprs) {
    RADB_RETURN_NOT_OK(bind(*e, combined, &joined.fused));
  }

  // An index-nested-loop join leaves its outer input where it is and
  // probes the inner table's B+ tree instead of running the inner
  // input; a stale annotation runs the hash join.
  const std::optional<IndexLookup> index =
      op.index_nl ? IndexLookupFor(op, &joined) : std::nullopt;
  RADB_ASSIGN_OR_RETURN(ExecResult left_in, ExecuteOp(lhs));
  ExecResult right_in;
  if (!index.has_value()) {
    RADB_ASSIGN_OR_RETURN(right_in, ExecuteOp(rhs));
  }
  SpillableDist& left = left_in.dist;
  SpillableDist& right = right_in.dist;
  const size_t w = cluster_.num_workers();
  const bool cross = op.equi_keys.empty();
  const size_t rows_in = SpillDistRowCount(left) + SpillDistRowCount(right);

  // Placement. Each worker then probes its runs probe[src][wkr] in
  // source order: the outer input in place, the side a broadcast does
  // not replicate, or the left side re-hashed by key against `build`,
  // the right side re-hashed the same way.
  OperatorMetrics* m = nullptr;
  std::vector<SpillableDist> probe, build;
  bool probe_left = true;
  std::optional<HashBuild> bcast;
  std::optional<mem::MemoryTracker> bcast_charge;
  if (index.has_value()) {
    m = NewOp("IndexJoin(" + rhs.table->name() + "." + rhs.index_name + ")",
              op);
    probe.push_back(std::move(left));
  } else {
    const JoinPlacement place = PlaceJoin(op, left, right, left_in.hashed_slot,
                                          right_in.hashed_slot);
    m = NewOp(JoinName(cross, place), op);
    if (place.kind == JoinPlacement::Kind::kShuffle) {
      // NULL keys never match (inner join), so routing drops them.
      const auto by_key = [this](const std::vector<BoundExprPtr>& keys,
                                 bool stays) {
        return [this, &keys, stays](size_t src,
                                    const Row& row) -> Result<size_t> {
          RADB_ASSIGN_OR_RETURN(KeyRow key, EvalKey(keys, row));
          if (KeyHasNull(key)) return kDropRow;
          return stays ? src : cluster_.WorkerForHash(key.hash);
        };
      };
      RADB_ASSIGN_OR_RETURN(
          probe, Route(left, m, by_key(joined.left_keys, place.left_stays)));
      RADB_ASSIGN_OR_RETURN(
          build, Route(right, m, by_key(joined.right_keys, place.right_stays)));
    } else {
      // The broadcast side is built once and read by every worker. It
      // cannot spill (every probe row reads all of it), and a Grace
      // fallback would re-shuffle both sides, changing the plan and the
      // output order under a budget; so it reserves hard.
      probe_left = place.kind == JoinPlacement::Kind::kBroadcastRight;
      SpillableDist& small = probe_left ? right : left;
      const size_t small_bytes = SpillDistByteSize(small);
      const size_t small_rows = SpillDistRowCount(small);
      const size_t charge =
          small_bytes + (cross ? 0 : small_rows * kHashEntryOverhead);
      if (mem_.tracker != nullptr) {
        RADB_RETURN_NOT_OK(MakeHeadroom(mem_, charge, {&left, &right}));
        bcast_charge.emplace(cross ? "CrossJoin broadcast side"
                                   : "HashJoin broadcast build side",
                             mem_.tracker);
        RADB_RETURN_NOT_OK(bcast_charge->Reserve(charge));
      }
      bcast.emplace(probe_left ? joined.right_keys : joined.left_keys,
                    probe_left ? joined.left_keys : joined.right_keys);
      BufferList all;
      for (SpillableRowBuffer& buf : small) all.push_back(&buf);
      RADB_RETURN_NOT_OK(bcast->Build(all));
      m->bytes_shuffled += small_bytes * (w - 1);
      m->rows_shuffled += small_rows * (w - 1);
      probe.push_back(std::move(probe_left ? left : right));
    }
  }
  m->rows_in = rows_in;

  SpillableDist out = NewDist(w);
  // Grace-hash fallback for one worker whose build misses the budget:
  // both sides are split into sub-partitions by a secondary hash. All
  // rows with one key land in one sub-partition with their relative
  // order intact, so each sub-build's equal_range chains equal the
  // whole build's. Probe rows carry their arrival sequence; merging the
  // sub-partitions' outputs by it restores the probe-major output
  // order — budgeted results stay bit-identical.
  std::vector<OperatorMetrics> grace_spill(w);  // per worker, merged below
  const auto grace = [&](size_t wkr, mem::MemoryTracker& wt,
                         CancelPoll& poll) -> Status {
    SpillableDist bparts = NewDist(kGraceFanout);
    SpillableDist pparts = NewDist(kGraceFanout);
    SpillableDist pout = NewDist(kGraceFanout);
    int64_t seq = 0;
    const auto split = [&](std::vector<SpillableDist>& runs,
                           const std::vector<BoundExprPtr>& keys,
                           SpillableDist& parts, bool tag) -> Status {
      for (SpillableRowBuffer* buf : WorkerRuns(runs, wkr)) {
        RADB_RETURN_NOT_OK(buf->ConsumeRows(&poll, [&](Row row) -> Status {
          RADB_ASSIGN_OR_RETURN(KeyRow key, EvalKey(keys, row));
          if (tag) row.insert(row.begin(), Value::Int(seq++));
          return parts[GracePartition(key.hash)].Append(std::move(row));
        }));
      }
      return Status::OK();
    };
    RADB_RETURN_NOT_OK(split(build, joined.right_keys, bparts, false));
    RADB_RETURN_NOT_OK(split(probe, joined.left_keys, pparts, true));
    for (size_t p = 0; p < kGraceFanout; ++p) {
      const size_t charge =
          bparts[p].byte_size() + bparts[p].num_rows() * kHashEntryOverhead;
      // A sub-build that still misses the budget fails the query: one
      // level of partitioning is the depth this engine goes.
      RADB_RETURN_NOT_OK(wt.Reserve(charge));
      HashBuild sub(joined.right_keys, joined.left_keys);
      RADB_RETURN_NOT_OK(sub.Build({&bparts[p]}));
      const JoinOut tagged{nullptr, wkr, &pout[p], /*tagged=*/true};
      RADB_RETURN_NOT_OK(ProbeRows({&pparts[p]}, sub, /*probe_left=*/true,
                                   joined, tagged, poll));
      wt.Release(charge);
    }
    // Merge sub-partition outputs back into probe-arrival order. Each
    // pout[p] is already ascending in seq, and all matches of one probe
    // row live in one partition, so a min-seq merge reproduces the
    // whole build's probe loop exactly. Grace runs only under a budget,
    // where no pipeline sink streams.
    std::vector<std::unique_ptr<SpillableRowBuffer::Reader>> readers;
    std::vector<std::optional<Row>> heads(kGraceFanout);
    for (size_t p = 0; p < kGraceFanout; ++p) {
      readers.push_back(std::make_unique<SpillableRowBuffer::Reader>(&pout[p]));
      RADB_ASSIGN_OR_RETURN(heads[p], readers[p]->Next());
    }
    while (true) {
      RADB_RETURN_NOT_OK(poll.Tick());
      int best = -1;
      for (size_t p = 0; p < kGraceFanout; ++p) {
        if (heads[p].has_value() &&
            (best < 0 ||
             (*heads[p])[0].int_value() < (*heads[best])[0].int_value())) {
          best = static_cast<int>(p);
        }
      }
      if (best < 0) break;
      Row& t = *heads[best];
      Row row(std::make_move_iterator(t.begin() + 1),
              std::make_move_iterator(t.end()));
      RADB_RETURN_NOT_OK(out[wkr].Append(std::move(row)));
      RADB_ASSIGN_OR_RETURN(heads[best], readers[best]->Next());
    }
    for (const SpillableDist* d : {&bparts, &pparts, &pout}) {
      CollectSpill(&grace_spill[wkr], *d);
    }
    return Status::OK();
  };

  // Lookup and probe, per worker.
  RADB_RETURN_NOT_OK(ForEachWorker(w, [&](size_t wkr) -> Status {
    const auto t0 = Clock::now();
    CancelPoll poll(mem_.cancel);
    const BufferList probe_bufs = WorkerRuns(probe, wkr);
    const JoinOut to{sink, wkr, &out[wkr]};
    const auto run = [&]() -> Status {
      if (index.has_value()) {
        return ProbeRows(probe_bufs, *index, true, joined, to, poll);
      }
      if (bcast.has_value()) {
        return ProbeRows(probe_bufs, *bcast, probe_left, joined, to, poll);
      }
      // A shuffled join's one in-memory-or-Grace decision: the worker
      // builds its right runs in memory when the budget admits the whole
      // build (its tracker releases the charge on scope exit), else it
      // runs Grace.
      const BufferList build_bufs = WorkerRuns(build, wkr);
      size_t bytes = 0, rows = 0;
      for (const SpillableRowBuffer* b : build_bufs) {
        bytes += b->byte_size();
        rows += b->num_rows();
      }
      std::optional<mem::MemoryTracker> wt;
      if (mem_.tracker != nullptr) {
        wt.emplace("HashJoin build (worker " + std::to_string(wkr) + ")",
                   mem_.tracker);
        if (!wt->TryReserve(bytes + rows * kHashEntryOverhead)) {
          return grace(wkr, *wt, poll);
        }
      }
      HashBuild table(joined.right_keys, joined.left_keys);
      RADB_RETURN_NOT_OK(table.Build(build_bufs));
      return ProbeRows(probe_bufs, table, true, joined, to, poll);
    };
    RADB_RETURN_NOT_OK(run());
    m->worker_seconds[wkr] += SecondsSince(t0);
    return Status::OK();
  }));
  if (!build.empty()) {  // a shuffle: its routed runs and Grace's parts
    for (const OperatorMetrics& g : grace_spill) {
      m->bytes_spilled += g.bytes_spilled;
      m->spill_runs += g.spill_runs;
    }
    for (const SpillableDist& per_src : probe) CollectSpill(m, per_src);
    for (const SpillableDist& per_src : build) CollectSpill(m, per_src);
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
  // Shuffle by whole-row hash, then every destination dedupes its runs
  // in source order, so the surviving (first) duplicate and the set's
  // iteration order match at any thread count. The shuffle runs are
  // spillable; the dedupe set is not (it IS the output), so it
  // reserves hard.
  RADB_ASSIGN_OR_RETURN(
      std::vector<SpillableDist> runs,
      Route(in, m, [&](size_t, const Row& row) -> Result<size_t> {
        return cluster_.WorkerForHash(HashRow(row));
      }));
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
    CancelPoll poll(mem_.cancel);
    for (size_t src = 0; src < runs.size(); ++src) {
      RADB_RETURN_NOT_OK(
          runs[src][dst].ConsumeRows(&poll, [&](Row row) -> Status {
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
  CancelPoll poll(mem_.cancel);
  for (size_t src = 0; src < in.size(); ++src) {
    RADB_RETURN_NOT_OK(in[src].ConsumeRows(&poll, [&](Row row) -> Status {
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
  CancelPoll poll(mem_.cancel);
  for (size_t src = 0; src < in.size() && taken < limit; ++src) {
    RADB_RETURN_NOT_OK(
        in[src].ForEachRow(&poll, [&](const Row& row) -> Result<bool> {
          if (src != 0) {
            m->bytes_shuffled += RowByteSize(row);
            ++m->rows_shuffled;
          }
          RADB_RETURN_NOT_OK(out[0].Append(row));
          return ++taken < limit;
        }));
  }
  for (SpillableRowBuffer& buf : in) buf.Clear();
  m->rows_out = SpillDistRowCount(out);
  m->bytes_out = SpillDistByteSize(out);
  CollectSpill(m, out);
  return ExecResult{std::move(out), std::nullopt};
}

}  // namespace radb
