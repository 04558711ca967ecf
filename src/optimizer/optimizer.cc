#include "optimizer/optimizer.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>

#include "common/string_util.h"
#include "storage/serialize.h"

namespace radb {

namespace {

/// Placement marker for slots that exist only hypothetically while
/// TryEarlyProjection evaluates the §4.1 rule. Must not collide with a
/// real slot id — 0 is a real slot, so SIZE_MAX is used.
constexpr size_t kHypotheticalSlot = SIZE_MAX;

/// Per-row CPU charge of the cost model, in byte-equivalents.
constexpr double kPerRowCpuCost = 64.0;

/// Selectivity guesses for non-join predicates, in the tradition of
/// System R's magic numbers.
double PredicateSelectivity(const BoundExpr& e) {
  if (e.kind == BoundExpr::Kind::kCompare) {
    switch (e.compare_op) {
      case CompareOp::kEq:
        return 0.1;
      case CompareOp::kNe:
        return 0.9;
      default:
        return 0.4;
    }
  }
  return 0.25;
}

// ---- Index selection (post-pass) ------------------------------------
//
// Runs over the finished plan: every Filter-over-Scan whose conjuncts
// bound an indexed INTEGER column becomes an index range scan (the
// filter stays — the index is a pre-filter, so residual predicates and
// the bounds themselves are still re-checked row by row), and a hash
// join whose inner is a bare indexed scan with a much larger
// cardinality becomes an index-nested-loop join.

struct IndexSelectionStats {
  size_t index_scans = 0;
  size_t index_nl_joins = 0;
};

/// Maps a slot emitted by `scan` back to its table column index.
bool SlotToScanColumn(const LogicalOp& scan, size_t slot, size_t* col) {
  for (size_t i = 0; i < scan.output.size(); ++i) {
    if (scan.output[i].slot == slot) {
      *col = scan.scan_columns[i];
      return true;
    }
  }
  return false;
}

/// Inclusive integer bounds accumulated for one table column.
struct ColumnBounds {
  int64_t lo = INT64_MIN;
  int64_t hi = INT64_MAX;
  bool bounded = false;
  bool eq() const { return bounded && lo == hi; }
};

/// Folds `col op literal` into `b`. `op` is already oriented with the
/// column on the left.
void FoldBound(CompareOp op, int64_t v, ColumnBounds* b) {
  switch (op) {
    case CompareOp::kEq:
      b->lo = std::max(b->lo, v);
      b->hi = std::min(b->hi, v);
      break;
    case CompareOp::kLt:
      if (v == INT64_MIN) return;  // always false; leave to the filter
      b->hi = std::min(b->hi, v - 1);
      break;
    case CompareOp::kLe:
      b->hi = std::min(b->hi, v);
      break;
    case CompareOp::kGt:
      if (v == INT64_MAX) return;
      b->lo = std::max(b->lo, v + 1);
      break;
    case CompareOp::kGe:
      b->lo = std::max(b->lo, v);
      break;
    case CompareOp::kNe:
      return;  // not a range
  }
  b->bounded = true;
}

CompareOp FlipCompare(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

/// Extracts `slot op int64` from a conjunct of shape
/// `colref op int-literal` (either orientation). NULL-safe: the
/// rewritten probe only ever *narrows* the scan, and the filter above
/// re-evaluates the predicate (false on NULL) anyway.
bool MatchSimpleComparison(const BoundExpr& e, size_t* slot, CompareOp* op,
                           int64_t* value) {
  if (e.kind != BoundExpr::Kind::kCompare || e.children.size() != 2) {
    return false;
  }
  const BoundExpr* l = e.children[0].get();
  const BoundExpr* r = e.children[1].get();
  CompareOp oriented = e.compare_op;
  if (l->kind == BoundExpr::Kind::kLiteral &&
      r->kind == BoundExpr::Kind::kColumnRef) {
    std::swap(l, r);
    oriented = FlipCompare(oriented);
  }
  if (l->kind != BoundExpr::Kind::kColumnRef ||
      r->kind != BoundExpr::Kind::kLiteral) {
    return false;
  }
  if (r->literal.kind() != TypeKind::kInteger) return false;
  *slot = l->slot;
  *op = oriented;
  *value = r->literal.int_value();
  return true;
}

/// Annotates `scan` with the best usable index for `bounds`
/// (table-column -> accumulated bounds). Composite B+ tree semantics:
/// the second key column's bounds only narrow the probe when the first
/// is equality-bound; otherwise it stays open.
bool ChooseIndex(LogicalOp& scan,
                 const std::map<size_t, ColumnBounds>& bounds) {
  const IndexDef* best = nullptr;
  int best_score = 0;
  for (const auto& idx : scan.table->indexes()) {
    if (!idx->usable()) continue;
    auto first = bounds.find(idx->columns[0]);
    if (first == bounds.end() || !first->second.bounded) continue;
    int score = first->second.eq() ? 2 : 1;
    if (first->second.eq() && idx->columns.size() > 1) {
      auto second = bounds.find(idx->columns[1]);
      if (second != bounds.end() && second->second.bounded) {
        score += second->second.eq() ? 2 : 1;
      }
    }
    if (score > best_score) {
      best_score = score;
      best = idx.get();
    }
  }
  if (best == nullptr) return false;

  scan.index_name = best->name;
  scan.index_lo.assign(best->columns.size(), INT64_MIN);
  scan.index_hi.assign(best->columns.size(), INT64_MAX);
  double selectivity = 1.0;
  for (size_t k = 0; k < best->columns.size(); ++k) {
    auto it = bounds.find(best->columns[k]);
    if (it == bounds.end() || !it->second.bounded) break;
    scan.index_lo[k] = it->second.lo;
    scan.index_hi[k] = it->second.hi;
    selectivity *= it->second.eq() ? 0.1 : 0.4;
    if (!it->second.eq()) break;  // range stops the composite prefix
  }
  scan.est_rows = std::max(1.0, scan.est_rows * selectivity);
  return true;
}

void SelectIndexes(LogicalOp& op, IndexSelectionStats* stats) {
  for (auto& child : op.children) SelectIndexes(*child, stats);

  if (op.kind == LogicalOp::Kind::kFilter && !op.children.empty() &&
      op.children[0]->kind == LogicalOp::Kind::kScan) {
    LogicalOp& scan = *op.children[0];
    if (!scan.table || scan.table->indexes().empty()) return;
    std::map<size_t, ColumnBounds> bounds;
    for (const BoundExprPtr& pred : op.predicates) {
      size_t slot, col;
      CompareOp cmp;
      int64_t value;
      if (!MatchSimpleComparison(*pred, &slot, &cmp, &value)) continue;
      if (!SlotToScanColumn(scan, slot, &col)) continue;
      FoldBound(cmp, value, &bounds[col]);
    }
    if (ChooseIndex(scan, bounds)) ++stats->index_scans;
    return;
  }

  if (op.kind == LogicalOp::Kind::kJoin && !op.equi_keys.empty() &&
      op.children.size() == 2 &&
      op.children[1]->kind == LogicalOp::Kind::kScan) {
    // Index-nested-loop: the inner must be a *bare* indexed scan (a
    // filtered inner would lose its pushed predicates if probed) whose
    // first index column is equi-probed, and the outer meaningfully
    // smaller — otherwise the hash join's single build pass wins.
    LogicalOp& inner = *op.children[1];
    const LogicalOp& outer = *op.children[0];
    if (!inner.table || inner.table->indexes().empty()) return;
    if (!inner.index_name.empty()) return;  // already a range scan
    if (outer.est_rows * 4.0 > inner.est_rows) return;
    // Table columns equi-probed by a bare inner-side column ref.
    std::set<size_t> probed;
    for (const auto& [l, r] : op.equi_keys) {
      size_t col;
      if (r->kind == BoundExpr::Kind::kColumnRef &&
          r->type.kind() == TypeKind::kInteger &&
          SlotToScanColumn(inner, r->slot, &col)) {
        probed.insert(col);
      }
    }
    for (const auto& idx : inner.table->indexes()) {
      if (!idx->usable()) continue;
      if (!probed.count(idx->columns[0])) continue;
      inner.index_name = idx->name;
      op.index_nl = true;
      ++stats->index_nl_joins;
      break;
    }
  }
}

// ---- Relational matrix multiply (post-pass) -------------------------
//
// A join, a sum of products and a GROUP BY on the free keys together
// make a matrix product (DESIGN.md §19), in the tuple coding (a join on
// a shared key, SUM(l.v * r.w)) or the vector coding (a cross join,
// SUM/MIN/MAX(inner_product(l.v, r.w))). This pass marks each Aggregate
// of either shape; the executor computes it on the dense kernel when
// the data admits it.

/// What `e`, an expression over `join`'s output, reads from the join's
/// inputs: a projection fused into the join maps its output slots to
/// the fused expressions. Null when the slot is not an output.
const BoundExpr* ThroughJoin(const LogicalOp& join, const BoundExpr& e) {
  if (e.kind != BoundExpr::Kind::kColumnRef || join.exprs.empty()) return &e;
  for (size_t i = 0; i < join.output.size(); ++i) {
    if (join.output[i].slot == e.slot) return join.exprs[i].get();
  }
  return nullptr;
}

/// The join input (0 left, 1 right) that emits `e` as a bare column of
/// kind `kind`; -1 when `e` is anything else.
int InputColumnSide(const LogicalOp& join, const BoundExpr* e, TypeKind kind) {
  if (e == nullptr || e->kind != BoundExpr::Kind::kColumnRef) return -1;
  for (int side = 0; side < 2; ++side) {
    for (const SlotInfo& s : join.children[side]->output) {
      if (s.slot == e->slot) return s.type.kind() == kind ? side : -1;
    }
  }
  return -1;
}

/// The residual conjunct `e` as a mask term l.a op r.b: a comparison
/// other than = between an INTEGER column of each join input.
std::optional<LogicalOp::MultiplyShape::MaskTerm> MatchMaskTerm(
    const LogicalOp& join, const BoundExpr& e) {
  if (e.kind != BoundExpr::Kind::kCompare || e.compare_op == CompareOp::kEq) {
    return std::nullopt;
  }
  const BoundExpr* a = e.children[0].get();
  const BoundExpr* b = e.children[1].get();
  const int a_side = InputColumnSide(join, a, TypeKind::kInteger);
  const int b_side = InputColumnSide(join, b, TypeKind::kInteger);
  if (a_side < 0 || b_side < 0 || a_side == b_side) return std::nullopt;
  if (a_side == 0) {
    return LogicalOp::MultiplyShape::MaskTerm{a->slot, b->slot, e.compare_op};
  }
  // r.b op l.a is l.a op' r.b with the comparison mirrored.
  const std::map<CompareOp, CompareOp> mirror = {
      {CompareOp::kNe, CompareOp::kNe}, {CompareOp::kLt, CompareOp::kGt},
      {CompareOp::kLe, CompareOp::kGe}, {CompareOp::kGt, CompareOp::kLt},
      {CompareOp::kGe, CompareOp::kLe}};
  return LogicalOp::MultiplyShape::MaskTerm{b->slot, a->slot,
                                            mirror.at(e.compare_op)};
}

std::optional<LogicalOp::MultiplyShape> MatchMultiply(const LogicalOp& agg) {
  using Coding = LogicalOp::MultiplyShape::Coding;
  if (agg.kind != LogicalOp::Kind::kAggregate || agg.aggs.size() != 1 ||
      agg.group_exprs.empty() || agg.group_exprs.size() > 2) {
    return std::nullopt;
  }
  const AggCall& call = agg.aggs[0];
  if (call.arg == nullptr || call.result_type.kind() != TypeKind::kDouble) {
    return std::nullopt;
  }
  const LogicalOp& join = *agg.children[0];
  if (join.kind != LogicalOp::Kind::kJoin || join.equi_keys.size() > 1) {
    return std::nullopt;
  }
  LogicalOp::MultiplyShape s;
  s.coding = join.equi_keys.empty() ? Coding::kVector : Coding::kTuple;
  const BoundExpr* product = ThroughJoin(join, *call.arg);
  if (product == nullptr) return std::nullopt;
  TypeKind value_kind = TypeKind::kDouble;
  if (s.coding == Coding::kTuple) {
    if (call.name != "sum" || product->kind != BoundExpr::Kind::kArith ||
        product->arith_op != ArithOp::kMul) {
      return std::nullopt;
    }
    const auto& [lk, rk] = join.equi_keys[0];
    if (InputColumnSide(join, lk.get(), TypeKind::kInteger) != 0 ||
        InputColumnSide(join, rk.get(), TypeKind::kInteger) != 1) {
      return std::nullopt;
    }
    s.left_key = lk->slot;
    s.right_key = rk->slot;
  } else {
    if ((call.name != "sum" && call.name != "min" && call.name != "max") ||
        product->kind != BoundExpr::Kind::kCall ||
        product->fn->signature.name() != "inner_product") {
      return std::nullopt;
    }
    value_kind = TypeKind::kVector;
  }
  const BoundExpr* a = product->children[0].get();
  const BoundExpr* b = product->children[1].get();
  const int a_side = InputColumnSide(join, a, value_kind);
  const int b_side = InputColumnSide(join, b, value_kind);
  if (a_side < 0 || b_side < 0 || a_side == b_side) return std::nullopt;
  s.left_value = (a_side == 0 ? a : b)->slot;
  s.right_value = (a_side == 0 ? b : a)->slot;

  for (size_t g = 0; g < agg.group_exprs.size(); ++g) {
    const BoundExpr* key = ThroughJoin(join, *agg.group_exprs[g]);
    const int side = InputColumnSide(join, key, TypeKind::kInteger);
    if (side < 0) return std::nullopt;
    std::optional<size_t>& index = side == 0 ? s.left_index : s.right_index;
    if (index.has_value()) return std::nullopt;  // two keys of one side
    index = key->slot;
    if (g == 0) s.right_index_first = side == 1;
  }

  for (const BoundExprPtr& conjunct : join.residual) {
    std::optional<LogicalOp::MultiplyShape::MaskTerm> term =
        MatchMaskTerm(join, *conjunct);
    if (!term.has_value()) return std::nullopt;
    // The tuple coding masks whole groups, so its terms read only the
    // two group keys.
    if (s.coding == Coding::kTuple &&
        (term->left != s.left_index || term->right != s.right_index)) {
      return std::nullopt;
    }
    s.mask.push_back(*term);
  }
  return s;
}

// ---- Shared subtrees (post-pass) ------------------------------------
//
// The binder inlines a view (or repeats a derived table) at every
// reference, with fresh slot ids per copy, so a statement that reads
// one view twice plans its joins and aggregates twice. This pass finds
// such repeats and marks them as one spool: the executor computes the
// first copy and serves the others from its held result.

/// Canonical text of a subtree: every field the executor reads, with
/// slot ids renumbered by first appearance, so two copies of one view
/// print the same. Display-only fields (names, aliases, estimates) are
/// left out. Variable-length tokens are length-prefixed, so distinct
/// trees never concatenate to the same text.
class SubtreeFingerprint {
 public:
  static std::string Of(const LogicalOp& op) {
    SubtreeFingerprint f;
    f.Node(op);
    return std::move(f.out_);
  }

 private:
  void Tok(const std::string& s) {
    out_ += std::to_string(s.size());
    out_ += ':';
    out_ += s;
  }
  void Num(uint64_t v) { Tok(std::to_string(v)); }
  void Slot(size_t slot) {
    Num(slots_.emplace(slot, slots_.size()).first->second);
  }
  void Ptr(const void* p) { Num(reinterpret_cast<uintptr_t>(p)); }

  void Expr(const BoundExpr& e) {
    Num(static_cast<uint64_t>(e.kind));
    Tok(e.type.ToString());
    switch (e.kind) {
      case BoundExpr::Kind::kLiteral: {
        std::ostringstream os;
        WriteValueBinary(os, e.literal);  // exact, doubles included
        Tok(os.str());
        break;
      }
      case BoundExpr::Kind::kColumnRef:
        Slot(e.slot);
        break;
      case BoundExpr::Kind::kParam:
        Num(e.slot);  // a parameter ordinal, not a slot
        break;
      case BoundExpr::Kind::kArith:
        Num(static_cast<uint64_t>(e.arith_op));
        break;
      case BoundExpr::Kind::kCompare:
        Num(static_cast<uint64_t>(e.compare_op));
        break;
      case BoundExpr::Kind::kLogic:
        Num(e.logic_is_and ? 1 : 0);
        break;
      case BoundExpr::Kind::kCall:
        Ptr(e.fn);
        break;
      case BoundExpr::Kind::kNot:
      case BoundExpr::Kind::kNeg:
        break;
    }
    Exprs(e.children);
  }
  void Exprs(const std::vector<BoundExprPtr>& es) {
    Num(es.size());
    for (const BoundExprPtr& e : es) Expr(*e);
  }

  void Node(const LogicalOp& op) {
    Tok(KindName(op.kind));
    Num(op.children.size());
    for (const LogicalOpPtr& c : op.children) Node(*c);
    switch (op.kind) {
      case LogicalOp::Kind::kScan:
        Ptr(op.table.get());
        Num(op.scan_columns.size());
        for (size_t col : op.scan_columns) Num(col);
        Tok(op.index_name);
        Num(op.index_lo.size());
        for (int64_t v : op.index_lo) Num(static_cast<uint64_t>(v));
        for (int64_t v : op.index_hi) Num(static_cast<uint64_t>(v));
        break;
      case LogicalOp::Kind::kFilter:
        Exprs(op.predicates);
        break;
      case LogicalOp::Kind::kJoin:
        Num(op.equi_keys.size());
        for (const auto& [l, r] : op.equi_keys) {
          Expr(*l);
          Expr(*r);
        }
        Exprs(op.residual);
        Exprs(op.exprs);
        Num(op.index_nl ? 1 : 0);
        break;
      case LogicalOp::Kind::kProject:
        Exprs(op.exprs);
        break;
      case LogicalOp::Kind::kAggregate:
        Exprs(op.group_exprs);
        Num(op.aggs.size());
        for (const AggCall& a : op.aggs) {
          Ptr(a.fn);
          Num(a.is_count_star ? 1 : 0);
          if (a.arg) Expr(*a.arg);
          Tok(a.result_type.ToString());
          Slot(a.out_slot);
        }
        // The shape itself follows from the subtree; the mark decides
        // how the executor runs it.
        Num(!op.multiply ? 0 : op.multiply->self ? 2 : 1);
        break;
      case LogicalOp::Kind::kSort:
        Num(op.sort_keys.size());
        for (const auto& [e, desc] : op.sort_keys) {
          Expr(*e);
          Num(desc ? 1 : 0);
        }
        break;
      case LogicalOp::Kind::kLimit:
        Num(static_cast<uint64_t>(op.limit));
        break;
      case LogicalOp::Kind::kDistinct:
        break;
    }
    Num(op.output.size());
    for (const SlotInfo& s : op.output) {
      Slot(s.slot);
      Tok(s.type.ToString());
    }
  }

  std::map<size_t, size_t> slots_;
  std::string out_;
};

/// Whether the tuple-coded product `s` over `join` is a self product:
/// the two inputs are one subtree (equal fingerprints, so they compute
/// the same rows on the same workers in the same order), the join key,
/// the group key and the value sit at the same output position in
/// both, and both group keys are present. Its operands are then one
/// tile T and its transpose, and the product is TᵀT (DESIGN.md §19).
bool IsSelfProduct(const LogicalOp& join, const LogicalOp::MultiplyShape& s) {
  if (s.coding != LogicalOp::MultiplyShape::Coding::kTuple || !s.left_index ||
      !s.right_index) {
    return false;
  }
  const LogicalOp& l = *join.children[0];
  const LogicalOp& r = *join.children[1];
  const auto position = [](const LogicalOp& in, size_t slot) {
    size_t i = 0;
    while (i < in.output.size() && in.output[i].slot != slot) ++i;
    return i;
  };
  return position(l, s.left_key) == position(r, s.right_key) &&
         position(l, *s.left_index) == position(r, *s.right_index) &&
         position(l, s.left_value) == position(r, s.right_value) &&
         SubtreeFingerprint::Of(l) == SubtreeFingerprint::Of(r);
}

void MarkRelationalMultiplies(LogicalOp& op) {
  for (const LogicalOpPtr& c : op.children) MarkRelationalMultiplies(*c);
  if (op.kind != LogicalOp::Kind::kAggregate) return;
  op.multiply = MatchMultiply(op);
  if (op.multiply) {
    op.multiply->self = IsSelfProduct(*op.children[0], *op.multiply);
  }
}

bool IsJoinOrAggregate(const LogicalOp& op) {
  return op.kind == LogicalOp::Kind::kJoin ||
         op.kind == LogicalOp::Kind::kAggregate;
}

/// One plan node in pre-order — the order in which the executor enters
/// nodes, so the first copy of a spool in this order is its producer.
struct PlanNode {
  LogicalOp* op = nullptr;
  size_t size = 1;      // nodes in the subtree, this one included
  bool costly = false;  // the subtree holds a Join or Aggregate
  /// False for the Join of a relational multiply: it executes only
  /// when the multiply falls back, so it cannot produce a spool.
  bool spoolable = true;
};

/// Collects `op`'s subtree, or only its first child's with `op` when
/// `first_child_only`: the Join of a self product, whose second input
/// never runs (the fallback copies the first), so it is no use of any
/// spool.
void CollectPreOrder(LogicalOp& op, std::vector<PlanNode>* out,
                     bool spoolable = true, bool first_child_only = false) {
  const size_t self = out->size();
  out->push_back(PlanNode{&op, 1, IsJoinOrAggregate(op), spoolable});
  const size_t children = first_child_only ? 1 : op.children.size();
  for (size_t i = 0; i < children; ++i) {
    const size_t child = out->size();
    CollectPreOrder(*op.children[i], out, !op.multiply.has_value(),
                    op.multiply.has_value() && op.multiply->self);
    (*out)[self].size += (*out)[child].size;
    (*out)[self].costly = (*out)[self].costly || (*out)[child].costly;
  }
}

/// Marks every set of two or more equal subtrees holding a Join or
/// Aggregate as one spool (LogicalOp::spool_id). Bare scans and
/// Filter/Project chains over one are never spooled: re-reading them
/// costs no more than copying a held result. Larger repeats go first,
/// so a repeat nested inside a reused copy — which never executes —
/// is not counted among its set's uses.
void MarkSharedSubtrees(LogicalOp& root) {
  std::vector<PlanNode> nodes;
  CollectPreOrder(root, &nodes);
  const auto join_or_agg =
      std::count_if(nodes.begin(), nodes.end(), [](const PlanNode& n) {
        return IsJoinOrAggregate(*n.op);
      });
  if (join_or_agg < 2) return;  // no costly subtree can repeat

  // Equal subtrees, each set in pre-order.
  std::map<std::string, std::vector<size_t>> sets;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].costly && nodes[i].spoolable) {
      sets[SubtreeFingerprint::Of(*nodes[i].op)].push_back(i);
    }
  }
  std::vector<const std::vector<size_t>*> repeats;
  for (const auto& [key, members] : sets) {
    if (members.size() >= 2) repeats.push_back(&members);
  }
  std::sort(repeats.begin(), repeats.end(),
            [&](const std::vector<size_t>* a, const std::vector<size_t>* b) {
              const size_t sa = nodes[a->front()].size;
              const size_t sb = nodes[b->front()].size;
              return sa != sb ? sa > sb : a->front() < b->front();
            });

  std::vector<bool> never_runs(nodes.size(), false);
  size_t spools = 0;
  for (const std::vector<size_t>* members : repeats) {
    std::vector<size_t> uses;
    for (size_t i : *members) {
      if (!never_runs[i]) uses.push_back(i);
    }
    if (uses.size() < 2) continue;
    ++spools;
    for (size_t u = 0; u < uses.size(); ++u) {
      const PlanNode& n = nodes[uses[u]];
      n.op->spool_id = spools;
      n.op->spool_uses = uses.size();
      n.op->spool_reuse = u > 0;
      if (u > 0) {
        std::fill(never_runs.begin() + static_cast<long>(uses[u] + 1),
                  never_runs.begin() + static_cast<long>(uses[u] + n.size),
                  true);
      }
    }
  }
}

}  // namespace

class Optimizer::PlanBuilder {
 public:
  PlanBuilder(const Options& options, size_t next_slot,
              obs::ObsContext obs = {})
      : options_(options), next_slot_(next_slot), obs_(obs) {}

  Result<LogicalOpPtr> Build(BoundQuery& q);

 private:
  /// One WHERE conjunct with the metadata the join search needs.
  struct Conjunct {
    BoundExprPtr expr;
    uint64_t rel_mask = 0;
    // Equi-join decomposition (a = b with each side touching exactly
    // one distinct relation group).
    bool is_equi = false;
    uint64_t lhs_mask = 0, rhs_mask = 0;
  };

  /// An expression that could be computed early: a whole SELECT item,
  /// GROUP BY key, or aggregate argument.
  struct Pending {
    enum class Target { kSelect, kGroup, kAggArg };
    Target target;
    size_t index;          // into the corresponding BoundQuery list
    const BoundExpr* expr; // borrowed from the query
    uint64_t rel_mask = 0;
    std::set<size_t> slots;
    double result_bytes = 0.0;
  };

  /// A candidate plan for a subset of relations.
  struct SubPlan {
    LogicalOpPtr op;
    double cost = 0.0;
    /// pending index -> slot carrying the precomputed value.
    std::map<size_t, size_t> placed;
    /// conjunct indexes already enforced inside this plan.
    std::set<size_t> applied;
  };

  double TypeWidth(const DataType& t) const {
    if (!options_.la_aware_costing && t.is_la()) return 16.0;
    return t.EstimatedByteSize();
  }

  double RowWidth(const LogicalOp& op) const {
    double w = 8.0;  // per-tuple overhead
    for (const SlotInfo& s : op.output) w += TypeWidth(s.type);
    return w;
  }

  void Annotate(LogicalOp* op, double rows) const {
    op->est_rows = std::max(rows, 1.0);
    op->est_row_bytes = RowWidth(*op);
  }

  double NodeCost(const LogicalOp& op) const {
    return op.est_rows * (op.est_row_bytes + kPerRowCpuCost);
  }

  uint64_t MaskOfSlots(const std::set<size_t>& slots) const {
    uint64_t mask = 0;
    for (size_t s : slots) {
      auto it = slot_to_rel_.find(s);
      if (it != slot_to_rel_.end()) mask |= (1ULL << it->second);
    }
    return mask;
  }

  Result<SubPlan> MakeLeaf(size_t rel_index);
  Result<SubPlan> JoinPlans(const SubPlan& left, const SubPlan& right,
                            uint64_t left_mask, uint64_t right_mask);
  /// Applies the early-projection rule (§4.1) to `plan`, whose output
  /// covers `mask`. May fuse computations into a join node or append a
  /// Project.
  Status TryEarlyProjection(SubPlan* plan, uint64_t mask);

  /// Slots that must still be visible above a plan covering `mask`
  /// given its placement state.
  std::set<size_t> NeededAbove(uint64_t mask, const SubPlan& plan) const;

  /// Replaces pending expressions that were placed early by column
  /// references in the final select/group/agg expressions.
  void ApplyPlacements(BoundQuery& q, const SubPlan& plan) const;

  const Options& options_;
  size_t next_slot_;
  obs::ObsContext obs_;
  /// Candidate (sub)plans costed during the join-order search — the
  /// optimizer.plans_considered counter.
  size_t plans_considered_ = 0;
  size_t early_projections_ = 0;

  std::vector<Conjunct> conjuncts_;
  std::vector<Pending> pendings_;
  std::set<size_t> always_needed_;  // slots referenced outside pendings
  std::map<size_t, size_t> slot_to_rel_;
  std::vector<const BoundRelation*> relations_;
};

// ---------------------------------------------------------------------

std::set<size_t> Optimizer::PlanBuilder::NeededAbove(
    uint64_t mask, const SubPlan& plan) const {
  std::set<size_t> needed = always_needed_;
  for (size_t ci = 0; ci < conjuncts_.size(); ++ci) {
    if (plan.applied.count(ci)) continue;
    std::set<size_t> slots;
    conjuncts_[ci].expr->CollectSlots(&slots);
    needed.insert(slots.begin(), slots.end());
  }
  for (size_t pi = 0; pi < pendings_.size(); ++pi) {
    auto it = plan.placed.find(pi);
    if (it != plan.placed.end()) {
      // The computed value itself — unless it is only hypothetically
      // placed, in which case it has no slot yet.
      if (it->second != kHypotheticalSlot) needed.insert(it->second);
    } else {
      needed.insert(pendings_[pi].slots.begin(), pendings_[pi].slots.end());
    }
  }
  (void)mask;
  return needed;
}

Result<Optimizer::PlanBuilder::SubPlan> Optimizer::PlanBuilder::MakeLeaf(
    size_t rel_index) {
  const BoundRelation& rel = *relations_[rel_index];
  SubPlan plan;

  if (rel.table) {
    // Column pruning: emit only slots referenced anywhere.
    std::set<size_t> referenced = always_needed_;
    for (const Conjunct& c : conjuncts_) {
      std::set<size_t> s;
      c.expr->CollectSlots(&s);
      referenced.insert(s.begin(), s.end());
    }
    for (const Pending& p : pendings_) {
      referenced.insert(p.slots.begin(), p.slots.end());
    }
    std::vector<size_t> cols;
    std::vector<SlotInfo> out;
    for (size_t i = 0; i < rel.columns.size(); ++i) {
      if (referenced.count(rel.columns[i].slot)) {
        cols.push_back(i);
        out.push_back(rel.columns[i]);
      }
    }
    plan.op = MakeScan(rel.table, rel.alias, std::move(cols), std::move(out));
    Annotate(plan.op.get(), static_cast<double>(rel.table->num_rows()));
    plan.cost = NodeCost(*plan.op);
  } else {
    // Derived table / view: plan the nested query independently.
    PlanBuilder nested(options_, next_slot_, obs_);
    RADB_ASSIGN_OR_RETURN(plan.op, nested.Build(*rel.subquery));
    next_slot_ = std::max(next_slot_, nested.next_slot_);
    plan.cost = plan.op->est_cost;
    // The relation exposes (possibly renamed) subquery outputs; keep
    // the plan's own SlotInfos (same slots, original names).
  }

  // Push down single-relation predicates.
  const uint64_t my_mask = 1ULL << rel_index;
  std::vector<BoundExprPtr> preds;
  double selectivity = 1.0;
  for (size_t ci = 0; ci < conjuncts_.size(); ++ci) {
    const Conjunct& c = conjuncts_[ci];
    if (c.rel_mask == my_mask && c.rel_mask != 0) {
      preds.push_back(c.expr->Clone());
      selectivity *= PredicateSelectivity(*c.expr);
      plan.applied.insert(ci);
    }
  }
  if (!preds.empty()) {
    auto filter = std::make_unique<LogicalOp>();
    filter->kind = LogicalOp::Kind::kFilter;
    filter->predicates = std::move(preds);
    filter->output = plan.op->output;
    const double rows = plan.op->est_rows * selectivity;
    filter->children.push_back(std::move(plan.op));
    Annotate(filter.get(), rows);
    plan.cost += NodeCost(*filter);
    plan.op = std::move(filter);
  }
  RADB_RETURN_NOT_OK(TryEarlyProjection(&plan, my_mask));
  return plan;
}

Result<Optimizer::PlanBuilder::SubPlan> Optimizer::PlanBuilder::JoinPlans(
    const SubPlan& left, const SubPlan& right, uint64_t left_mask,
    uint64_t right_mask) {
  const uint64_t mask = left_mask | right_mask;
  ++plans_considered_;
  SubPlan plan;
  plan.placed = left.placed;
  plan.placed.insert(right.placed.begin(), right.placed.end());
  plan.applied = left.applied;
  plan.applied.insert(right.applied.begin(), right.applied.end());
  plan.cost = left.cost + right.cost;

  auto join = std::make_unique<LogicalOp>();
  join->kind = LogicalOp::Kind::kJoin;

  // Classify the conjuncts that become enforceable at this node.
  double selectivity = 1.0;
  const double lrows = left.op->est_rows;
  const double rrows = right.op->est_rows;
  for (size_t ci = 0; ci < conjuncts_.size(); ++ci) {
    if (plan.applied.count(ci)) continue;
    const Conjunct& c = conjuncts_[ci];
    if (c.rel_mask == 0 || (c.rel_mask & mask) != c.rel_mask) continue;
    if (c.is_equi &&
        ((c.lhs_mask & left_mask) == c.lhs_mask &&
         (c.rhs_mask & right_mask) == c.rhs_mask)) {
      join->equi_keys.emplace_back(c.expr->children[0]->Clone(),
                                   c.expr->children[1]->Clone());
    } else if (c.is_equi &&
               ((c.lhs_mask & right_mask) == c.lhs_mask &&
                (c.rhs_mask & left_mask) == c.rhs_mask)) {
      join->equi_keys.emplace_back(c.expr->children[1]->Clone(),
                                   c.expr->children[0]->Clone());
    } else {
      join->residual.push_back(c.expr->Clone());
      selectivity *= PredicateSelectivity(*c.expr);
      plan.applied.insert(ci);
      continue;
    }
    selectivity *= 1.0 / std::max(1.0, std::max(lrows, rrows));
    plan.applied.insert(ci);
  }

  join->output = left.op->output;
  join->output.insert(join->output.end(), right.op->output.begin(),
                      right.op->output.end());
  const double rows = std::max(1.0, lrows * rrows * selectivity);
  join->children.push_back(left.op->Clone());
  join->children.push_back(right.op->Clone());
  Annotate(join.get(), rows);
  plan.op = std::move(join);
  plan.cost += NodeCost(*plan.op);
  RADB_RETURN_NOT_OK(TryEarlyProjection(&plan, mask));
  return plan;
}

Status Optimizer::PlanBuilder::TryEarlyProjection(SubPlan* plan,
                                                  uint64_t mask) {
  if (!options_.enable_early_projection) return Status::OK();

  // Collect candidates: unplaced pendings whose inputs are all here.
  std::vector<size_t> candidates;
  for (size_t pi = 0; pi < pendings_.size(); ++pi) {
    const Pending& p = pendings_[pi];
    if (plan->placed.count(pi)) continue;
    if (p.rel_mask == 0 || (p.rel_mask & mask) != p.rel_mask) continue;
    candidates.push_back(pi);
  }
  if (candidates.empty()) return Status::OK();

  // What must survive if we place every candidate.
  SubPlan hypothetical;
  hypothetical.applied = plan->applied;
  hypothetical.placed = plan->placed;
  for (size_t pi : candidates) hypothetical.placed[pi] = kHypotheticalSlot;
  std::set<size_t> needed = NeededAbove(mask, hypothetical);

  // Benefit: bytes of columns we could drop vs bytes of the computed
  // results we would add.
  double dropped = 0.0;
  for (const SlotInfo& s : plan->op->output) {
    if (!needed.count(s.slot)) dropped += TypeWidth(s.type);
  }
  double added = 0.0;
  for (size_t pi : candidates) added += pendings_[pi].result_bytes;
  if (dropped <= added) return Status::OK();
  ++early_projections_;
  obs::ScopedSpan rule_span(obs_.tracer, "rule:early_projection",
                            "optimizer");

  // Build the projection: surviving columns plus computed values.
  std::vector<BoundExprPtr> exprs;
  std::vector<SlotInfo> out;
  for (const SlotInfo& s : plan->op->output) {
    if (!needed.count(s.slot)) continue;
    exprs.push_back(MakeBoundColumnRef(s.slot, s.type, s.name));
    out.push_back(s);
  }
  for (size_t pi : candidates) {
    const Pending& p = pendings_[pi];
    const size_t slot = next_slot_++;
    exprs.push_back(p.expr->Clone());
    out.push_back(SlotInfo{slot, p.expr->ToString(), p.expr->type});
    plan->placed[pi] = slot;
  }

  if (plan->op->kind == LogicalOp::Kind::kJoin && plan->op->exprs.empty()) {
    // Fuse into the join so the wide row is never materialized; the
    // node's cost is recomputed with the narrow output.
    plan->cost -= NodeCost(*plan->op);
    plan->op->exprs = std::move(exprs);
    plan->op->output = std::move(out);
    Annotate(plan->op.get(), plan->op->est_rows);
    plan->cost += NodeCost(*plan->op);
  } else {
    auto project = std::make_unique<LogicalOp>();
    project->kind = LogicalOp::Kind::kProject;
    project->exprs = std::move(exprs);
    project->output = std::move(out);
    const double rows = plan->op->est_rows;
    project->children.push_back(std::move(plan->op));
    Annotate(project.get(), rows);
    plan->cost += NodeCost(*project);
    plan->op = std::move(project);
  }
  return Status::OK();
}

void Optimizer::PlanBuilder::ApplyPlacements(BoundQuery& q,
                                             const SubPlan& plan) const {
  for (const auto& [pi, slot] : plan.placed) {
    const Pending& p = pendings_[pi];
    BoundExprPtr ref =
        MakeBoundColumnRef(slot, p.expr->type, p.expr->ToString());
    switch (p.target) {
      case Pending::Target::kSelect:
        q.select_exprs[p.index] = std::move(ref);
        break;
      case Pending::Target::kGroup:
        q.group_exprs[p.index] = std::move(ref);
        break;
      case Pending::Target::kAggArg:
        q.aggs[p.index].arg = std::move(ref);
        break;
    }
  }
}

Result<LogicalOpPtr> Optimizer::PlanBuilder::Build(BoundQuery& q) {
  // ---- Setup: relation indexes and slot ownership. ----
  relations_.clear();
  slot_to_rel_.clear();
  conjuncts_.clear();
  pendings_.clear();
  always_needed_.clear();
  for (size_t i = 0; i < q.relations.size(); ++i) {
    relations_.push_back(&q.relations[i]);
    for (const SlotInfo& s : q.relations[i].columns) {
      slot_to_rel_[s.slot] = i;
    }
  }
  if (relations_.size() > 63) {
    return Status::NotImplemented("more than 63 relations in one query");
  }

  // ---- Conjunct classification. ----
  for (BoundExprPtr& c : q.conjuncts) {
    Conjunct conj;
    std::set<size_t> slots;
    c->CollectSlots(&slots);
    conj.rel_mask = MaskOfSlots(slots);
    if (c->kind == BoundExpr::Kind::kCompare &&
        c->compare_op == CompareOp::kEq) {
      std::set<size_t> ls, rs;
      c->children[0]->CollectSlots(&ls);
      c->children[1]->CollectSlots(&rs);
      const uint64_t lm = MaskOfSlots(ls), rm = MaskOfSlots(rs);
      if (lm != 0 && rm != 0 && (lm & rm) == 0 &&
          std::popcount(lm) == 1 && std::popcount(rm) == 1) {
        conj.is_equi = true;
        conj.lhs_mask = lm;
        conj.rhs_mask = rm;
      }
    }
    conj.expr = std::move(c);
    conjuncts_.push_back(std::move(conj));
  }
  q.conjuncts.clear();

  // ---- Pending (early-computable) expressions. ----
  auto consider_pending = [&](Pending::Target target, size_t index,
                              const BoundExpr* expr) {
    if (expr == nullptr) return;
    if (expr->kind == BoundExpr::Kind::kColumnRef ||
        expr->kind == BoundExpr::Kind::kLiteral) {
      // Nothing to compute; just mark its slots as needed at the top.
      std::set<size_t> slots;
      expr->CollectSlots(&slots);
      always_needed_.insert(slots.begin(), slots.end());
      return;
    }
    Pending p;
    p.target = target;
    p.index = index;
    p.expr = expr;
    expr->CollectSlots(&p.slots);
    p.rel_mask = MaskOfSlots(p.slots);
    p.result_bytes = TypeWidth(expr->type);
    if (p.rel_mask == 0) {
      return;  // constant expression: computed at the top for free
    }
    pendings_.push_back(std::move(p));
  };

  if (q.has_aggregate) {
    for (size_t i = 0; i < q.group_exprs.size(); ++i) {
      consider_pending(Pending::Target::kGroup, i, q.group_exprs[i].get());
    }
    for (size_t i = 0; i < q.aggs.size(); ++i) {
      consider_pending(Pending::Target::kAggArg, i, q.aggs[i].arg.get());
    }
    // Select expressions in aggregate queries reference group/agg
    // output slots, which live above the join anyway.
  } else {
    for (size_t i = 0; i < q.select_exprs.size(); ++i) {
      consider_pending(Pending::Target::kSelect, i, q.select_exprs[i].get());
    }
  }

  // ---- Join order search. ----
  const size_t n = relations_.size();
  SubPlan best;
  obs::ScopedSpan search_span(obs_.tracer, "rule:join_order_search",
                              "optimizer");
  if (n == 1) {
    RADB_ASSIGN_OR_RETURN(best, MakeLeaf(0));
  } else if (n <= options_.dp_relation_limit) {
    // Subset DP (bushy, cross products allowed).
    std::vector<std::unique_ptr<SubPlan>> memo(1ULL << n);
    for (size_t i = 0; i < n; ++i) {
      RADB_ASSIGN_OR_RETURN(SubPlan leaf, MakeLeaf(i));
      memo[1ULL << i] = std::make_unique<SubPlan>(std::move(leaf));
    }
    for (uint64_t mask = 1; mask < (1ULL << n); ++mask) {
      if (std::popcount(mask) < 2) continue;
      // Enumerate proper subset splits; canonical: lowest bit in lhs.
      const uint64_t lowest = mask & (~mask + 1);
      for (uint64_t sub = (mask - 1) & mask; sub > 0;
           sub = (sub - 1) & mask) {
        if (!(sub & lowest)) continue;
        const uint64_t other = mask ^ sub;
        if (other == 0) continue;
        if (!memo[sub] || !memo[other]) continue;
        RADB_ASSIGN_OR_RETURN(
            SubPlan cand, JoinPlans(*memo[sub], *memo[other], sub, other));
        if (!memo[mask] || cand.cost < memo[mask]->cost) {
          memo[mask] = std::make_unique<SubPlan>(std::move(cand));
        }
      }
    }
    best = std::move(*memo[(1ULL << n) - 1]);
  } else {
    // Greedy: start from the cheapest pair, add the relation that
    // yields the cheapest next join.
    std::vector<std::unique_ptr<SubPlan>> leaves(n);
    for (size_t i = 0; i < n; ++i) {
      RADB_ASSIGN_OR_RETURN(SubPlan leaf, MakeLeaf(i));
      leaves[i] = std::make_unique<SubPlan>(std::move(leaf));
    }
    std::set<size_t> remaining;
    for (size_t i = 0; i < n; ++i) remaining.insert(i);
    // Seed with the cheapest leaf.
    size_t seed = 0;
    for (size_t i = 1; i < n; ++i) {
      if (leaves[i]->cost < leaves[seed]->cost) seed = i;
    }
    SubPlan current = std::move(*leaves[seed]);
    uint64_t mask = 1ULL << seed;
    remaining.erase(seed);
    while (!remaining.empty()) {
      std::unique_ptr<SubPlan> best_next;
      size_t best_rel = 0;
      for (size_t i : remaining) {
        RADB_ASSIGN_OR_RETURN(
            SubPlan cand, JoinPlans(current, *leaves[i], mask, 1ULL << i));
        if (!best_next || cand.cost < best_next->cost) {
          best_next = std::make_unique<SubPlan>(std::move(cand));
          best_rel = i;
        }
      }
      current = std::move(*best_next);
      mask |= 1ULL << best_rel;
      remaining.erase(best_rel);
    }
    best = std::move(current);
  }
  search_span.AddArg("plans_considered", std::to_string(plans_considered_));
  search_span.End();

  // Leftover conjuncts (e.g. slot-free predicates like WHERE 1 = 0).
  std::vector<BoundExprPtr> leftovers;
  for (size_t ci = 0; ci < conjuncts_.size(); ++ci) {
    if (!best.applied.count(ci)) {
      leftovers.push_back(conjuncts_[ci].expr->Clone());
    }
  }
  if (!leftovers.empty()) {
    auto filter = std::make_unique<LogicalOp>();
    filter->kind = LogicalOp::Kind::kFilter;
    filter->predicates = std::move(leftovers);
    filter->output = best.op->output;
    const double rows = best.op->est_rows * 0.25;
    filter->children.push_back(std::move(best.op));
    Annotate(filter.get(), rows);
    best.cost += NodeCost(*filter);
    best.op = std::move(filter);
  }

  // ---- Rewrite placed expressions, then assemble the top. ----
  ApplyPlacements(q, best);

  LogicalOpPtr root = std::move(best.op);
  double cost = best.cost;

  if (q.has_aggregate) {
    auto agg = std::make_unique<LogicalOp>();
    agg->kind = LogicalOp::Kind::kAggregate;
    for (auto& g : q.group_exprs) agg->group_exprs.push_back(std::move(g));
    for (auto& a : q.aggs) agg->aggs.push_back(std::move(a));
    for (size_t i = 0; i < q.group_outputs.size(); ++i) {
      agg->output.push_back(q.group_outputs[i]);
    }
    for (const AggCall& a : agg->aggs) {
      agg->output.push_back(SlotInfo{
          a.out_slot, a.name + "(...)", a.result_type});
    }
    const double rows = agg->group_exprs.empty()
                            ? 1.0
                            : std::max(1.0, root->est_rows * 0.1);
    agg->children.push_back(std::move(root));
    Annotate(agg.get(), rows);
    cost += NodeCost(*agg);
    root = std::move(agg);

    if (q.having) {
      auto having = std::make_unique<LogicalOp>();
      having->kind = LogicalOp::Kind::kFilter;
      having->predicates.push_back(std::move(q.having));
      having->output = root->output;
      const double hrows = std::max(1.0, root->est_rows * 0.25);
      having->children.push_back(std::move(root));
      Annotate(having.get(), hrows);
      cost += NodeCost(*having);
      root = std::move(having);
    }
  }

  // Final projection to the declared output.
  {
    auto project = std::make_unique<LogicalOp>();
    project->kind = LogicalOp::Kind::kProject;
    for (size_t i = 0; i < q.select_exprs.size(); ++i) {
      project->exprs.push_back(std::move(q.select_exprs[i]));
      project->output.push_back(q.output[i]);
    }
    const double rows = root->est_rows;
    project->children.push_back(std::move(root));
    Annotate(project.get(), rows);
    cost += NodeCost(*project);
    root = std::move(project);
  }

  if (q.distinct) {
    auto distinct = std::make_unique<LogicalOp>();
    distinct->kind = LogicalOp::Kind::kDistinct;
    distinct->output = root->output;
    const double rows = std::max(1.0, root->est_rows * 0.5);
    distinct->children.push_back(std::move(root));
    Annotate(distinct.get(), rows);
    cost += NodeCost(*distinct);
    root = std::move(distinct);
  }
  if (!q.order_by.empty()) {
    auto sort = std::make_unique<LogicalOp>();
    sort->kind = LogicalOp::Kind::kSort;
    for (auto& [e, desc] : q.order_by) {
      sort->sort_keys.emplace_back(std::move(e), desc);
    }
    sort->output = root->output;
    const double rows = root->est_rows;
    sort->children.push_back(std::move(root));
    Annotate(sort.get(), rows);
    cost += NodeCost(*sort);
    root = std::move(sort);
  }
  if (q.limit) {
    auto limit = std::make_unique<LogicalOp>();
    limit->kind = LogicalOp::Kind::kLimit;
    limit->limit = *q.limit;
    limit->output = root->output;
    const double rows =
        std::min(root->est_rows, static_cast<double>(*q.limit));
    limit->children.push_back(std::move(root));
    Annotate(limit.get(), rows);
    cost += NodeCost(*limit);
    root = std::move(limit);
  }

  root->est_cost = cost;
  if (obs_.metrics != nullptr) {
    obs_.metrics->Add("optimizer.queries_planned", 1);
    obs_.metrics->Add("optimizer.plans_considered", plans_considered_);
    obs_.metrics->Add("optimizer.early_projections", early_projections_);
    obs_.metrics->Observe("optimizer.relations_per_query",
                          static_cast<double>(relations_.size()));
  }
  return root;
}

Result<LogicalOpPtr> Optimizer::Plan(std::unique_ptr<BoundQuery> query,
                                     obs::ObsContext obs) {
  PlanBuilder builder(options_, query->next_slot, obs);
  RADB_ASSIGN_OR_RETURN(LogicalOpPtr plan, builder.Build(*query));
  IndexSelectionStats stats;
  SelectIndexes(*plan, &stats);
  if (obs.metrics != nullptr &&
      (stats.index_scans > 0 || stats.index_nl_joins > 0)) {
    obs.metrics->Add("optimizer.index_scans", stats.index_scans);
    obs.metrics->Add("optimizer.index_nl_joins", stats.index_nl_joins);
  }
  // Like early projection, the rewrite uses what the optimizer knows
  // about LA (§4); the rule-based strawman keeps the tuple plan.
  if (options_.enable_early_projection) MarkRelationalMultiplies(*plan);
  MarkSharedSubtrees(*plan);
  return plan;
}

}  // namespace radb
