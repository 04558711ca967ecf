// Scan, Filter, Project and Aggregate execution: the batch engine.
//
// Executor::ExecutePipeline stitches the chain a Scan, Filter, Project
// or Aggregate node heads — Filter/Project middles down to a source (an
// in-chain Scan, or any other operator executed first as the chain's
// boundary) and an optional Aggregate on top — and executes the whole
// chain over ColumnBatches of kBatchRows lanes: a selection vector
// instead of row copies for filters, and late materialization (rows
// are rebuilt only at the sink or for emitted groups). A bare Scan is
// a chain with no middles, so this is the only code that reads table
// segments.
//
// Scans. A scan source copies runs of consecutive rows of one segment
// into the batch by range. A full scan reads each segment as one run
// and never lets a batch span two segments. An index range scan reads
// only the rows its B+ tree returns, in (partition, ordinal) order —
// the order a full scan would emit them — and packs its runs into a
// batch until it fills.
//
// Lanes. A chain column gets a typed lane (contiguous primitive
// payloads) when its static kind is a scalar and its source is
// runtime-kind pure (see OutputKindPure): every non-NULL value then
// has exactly the column's static kind. Every other column — VECTOR,
// MATRIX, LABELED_SCALAR, sparse, or a scalar of an impure source —
// gets a Value lane holding the row values as they are.
//
// Stages. A stage whose expressions are all typed-capable over typed
// lanes (and whose aggregates have typed accumulators) runs the
// columnar kernels below. Every other stage runs per lane, in row
// order, through EvalExpr on a scratch row and the row Aggregators:
// the per-row code of SQL semantics itself, so its results keep their
// bits. The typed kernels replicate that code exactly:
//  - arithmetic follows EvalArith (INTEGER x INTEGER stays int64,
//    anything else computes through AsDouble; only integer division
//    by zero errors),
//  - comparisons follow EvalCompare / Value::Compare (numerics through
//    double, strings lexicographic),
//  - AND/OR follow EvalExpr's three-valued short-circuit, including
//    its error suppression: the rhs is evaluated only on lanes the
//    lhs did not decide,
//  - group keys hash and compare exactly like KeyRow over Value::Hash,
//  - SUM/AVG replicate the "first non-null value is kept raw"
//    accumulator (signed overflow wraps like int64 adds; -0.0 survives
//    as a first value).
// A typed aggregate emits its groups in insertion order; a per-lane
// aggregate keeps its groups in a KeyRow hash map and merges and emits
// them in that map's order, so downstream floating-point folds see the
// rows in the order they always have. Either way merges walk sources in
// index order (src-major) and within a source its admission passes, so
// results are independent of the thread count and the budget.
//
// Budgets. Under a memory budget groups are admitted, charged and
// refused one at a time (admission passes, overflow rows replayed in
// order), growth of an admitted group's state reserves hard, and the
// in-flight batch closes at budget / (2 x workers) bytes.
//
// Errors. A statement fails with the error of its earliest failing
// operator: when a stage fails on a worker, the stages before it still
// run over that worker's remaining input (and a streaming boundary join
// still finishes), and the result is the failure of the lowest stage,
// then the lowest worker, then the first row.

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "exec/expr_eval.h"
#include "exec/row_key.h"
#include "types/column.h"

namespace radb {

namespace {

/// Lanes per ColumnBatch.
constexpr size_t kBatchRows = 1024;

// Hash constants mirroring Value::Hash / HashRow (exec/row_key.h):
// group placement (hash % workers) must agree with KeyRow's so shuffle
// metrics and merge order match the per-row code's.
constexpr size_t kNullHash = 0x517cc1b727220a95ULL;
constexpr size_t kTrueHash = 0x9ae16a3b2f90404fULL;
constexpr size_t kFalseHash = 0xc949d7c7509e6557ULL;
constexpr size_t kHashSeed = 0x9e3779b97f4a7c15ULL;

size_t LaneHash(const ColumnVector& c, size_t i) {
  if (c.null[i]) return kNullHash;
  switch (c.kind) {
    case TypeKind::kBoolean:
      return c.i64[i] != 0 ? kTrueHash : kFalseHash;
    case TypeKind::kInteger:
      return std::hash<double>()(static_cast<double>(c.i64[i]));
    case TypeKind::kDouble:
      return std::hash<double>()(c.f64[i]);
    case TypeKind::kString:
      return std::hash<std::string>()(c.str[i]);
    default:
      return kNullHash;
  }
}

/// KeyRow::Of: a single key hashes directly; several fold with the
/// golden-ratio mix. Zero keys (scalar aggregate) -> bare seed.
size_t KeyHashLanes(const std::vector<const ColumnVector*>& keys, size_t i) {
  if (keys.size() == 1) return LaneHash(*keys[0], i);
  size_t h = kHashSeed;
  for (const ColumnVector* k : keys) {
    h ^= LaneHash(*k, i) + kHashSeed + (h << 6) + (h >> 2);
  }
  return h;
}

// Wrapping int64 arithmetic: same bit results as EvalArith's plain
// signed ops on overflow, without the UB (and safe to run
// branchlessly over null lanes holding garbage payloads).
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

/// Runs f(lane) over the live lanes: the selection if present, else
/// the dense prefix [0, n).
template <typename F>
inline void ForLanes(const uint32_t* sel, size_t n, F&& f) {
  if (sel == nullptr) {
    for (size_t i = 0; i < n; ++i) f(i);
  } else {
    for (size_t j = 0; j < n; ++j) f(static_cast<size_t>(sel[j]));
  }
}

/// Reads a numeric column as double lanes exactly like Value::AsDouble
/// (booleans -> 0/1, integers widen).
struct NumReader {
  const int64_t* i = nullptr;
  const double* f = nullptr;
  bool is_bool = false;
  explicit NumReader(const ColumnVector& c) {
    if (c.kind == TypeKind::kDouble) {
      f = c.f64.data();
    } else {
      i = c.i64.data();
      is_bool = (c.kind == TypeKind::kBoolean);
    }
  }
  double Get(size_t l) const {
    if (f != nullptr) return f[l];
    return is_bool ? (i[l] != 0 ? 1.0 : 0.0) : static_cast<double>(i[l]);
  }
};

/// Runs f(lane, holds) over the live lanes, where holds(x, y) is
/// `x op y`; one instantiation per operator keeps the lane loop free
/// of a switch.
template <typename F>
void CompareLanes(CompareOp op, const uint32_t* sel, size_t n, F&& f) {
  const auto run = [&](auto holds) {
    ForLanes(sel, n, [&](size_t l) { f(l, holds); });
  };
  switch (op) {
    case CompareOp::kEq:
      return run(std::equal_to<>());
    case CompareOp::kNe:
      return run(std::not_equal_to<>());
    case CompareOp::kLt:
      return run(std::less<>());
    case CompareOp::kLe:
      return run(std::less_equal<>());
    case CompareOp::kGt:
      return run(std::greater<>());
    case CompareOp::kGe:
      return run(std::greater_equal<>());
  }
}

/// Types `out` and sizes it to `n` lanes without clearing payloads
/// (kernels overwrite the live lanes; dead lanes stay garbage).
void PrepareOut(ColumnVector& out, TypeKind k, size_t n) {
  out.kind = k;
  out.null.resize(n);
  switch (k) {
    case TypeKind::kBoolean:
    case TypeKind::kInteger:
      out.i64.resize(n);
      break;
    case TypeKind::kDouble:
      out.f64.resize(n);
      break;
    case TypeKind::kString:
      out.str.resize(n);
      break;
    default:
      break;
  }
}

void MarkLanesNull(ColumnVector& out, const uint32_t* sel, size_t n) {
  if (sel == nullptr) {
    std::fill_n(out.null.begin(), n, static_cast<uint8_t>(1));
  } else {
    for (size_t j = 0; j < n; ++j) out.null[sel[j]] = 1;
  }
}

/// Appends lane `i` of `src` (same kind) to `dst`: null byte plus raw
/// payload, garbage payloads of null lanes included (never read).
void AppendLane(ColumnVector& dst, const ColumnVector& src, size_t i) {
  dst.null.push_back(src.null[i]);
  switch (dst.kind) {
    case TypeKind::kBoolean:
    case TypeKind::kInteger:
      dst.i64.push_back(src.i64[i]);
      break;
    case TypeKind::kDouble:
      dst.f64.push_back(src.f64[i]);
      break;
    case TypeKind::kString:
      dst.str.push_back(src.str[i]);
      break;
    default:
      break;
  }
}

bool LaneEquals(const ColumnVector& a, size_t ia, const ColumnVector& b,
                size_t ib) {
  const bool an = a.null[ia] != 0, bn = b.null[ib] != 0;
  if (an || bn) return an && bn;  // Value equality: NULL == NULL
  switch (a.kind) {
    case TypeKind::kBoolean:
      return (a.i64[ia] != 0) == (b.i64[ib] != 0);
    case TypeKind::kInteger:
      return a.i64[ia] == b.i64[ib];
    case TypeKind::kDouble:
      return a.f64[ia] == b.f64[ib];  // -0.0 == 0.0, like variant ==
    case TypeKind::kString:
      return a.str[ia] == b.str[ib];
    default:
      return true;  // kNull columns: all lanes NULL, handled above
  }
}

// ---------------------------------------------------------------------------
// Compiled expressions
// ---------------------------------------------------------------------------

/// One compiled node per BoundExpr node: owns its result scratch (and
/// the AND/OR sub-selection buffer), reused across batches. One tree
/// per worker — scratches are written concurrently.
struct VExpr {
  const BoundExpr* src = nullptr;
  std::vector<std::unique_ptr<VExpr>> kids;
  ColumnVector out;
  std::vector<uint32_t> sub_sel;  // kLogic: lanes the lhs left pending
  size_t lit_filled = 0;          // kLiteral: broadcast lanes so far
};

std::unique_ptr<VExpr> CompileVExpr(const BoundExpr& e) {
  auto v = std::make_unique<VExpr>();
  v->src = &e;
  for (const auto& c : e.children) v->kids.push_back(CompileVExpr(*c));
  return v;
}

/// Evaluates `e` over the live lanes, returning a column with `nrows`
/// lanes whose live entries hold the result (dead lanes unspecified).
/// Column refs return the input column itself — zero copies.
Result<const ColumnVector*> EvalV(VExpr& e,
                                  const std::vector<const ColumnVector*>& cols,
                                  const uint32_t* sel, size_t n,
                                  size_t nrows) {
  const BoundExpr& s = *e.src;
  switch (s.kind) {
    case BoundExpr::Kind::kColumnRef:
      return cols[s.slot];

    case BoundExpr::Kind::kLiteral: {
      if (e.lit_filled < nrows) {
        const Value& v = s.literal;
        const TypeKind k = s.type.kind();
        e.out.Reset(k, nrows);
        if (v.is_null()) {
          std::fill(e.out.null.begin(), e.out.null.end(),
                    static_cast<uint8_t>(1));
        } else {
          switch (k) {
            case TypeKind::kBoolean:
              std::fill(e.out.i64.begin(), e.out.i64.end(),
                        static_cast<int64_t>(v.bool_value() ? 1 : 0));
              break;
            case TypeKind::kInteger:
              std::fill(e.out.i64.begin(), e.out.i64.end(), v.int_value());
              break;
            case TypeKind::kDouble:
              std::fill(e.out.f64.begin(), e.out.f64.end(), v.double_value());
              break;
            case TypeKind::kString:
              std::fill(e.out.str.begin(), e.out.str.end(), v.string_value());
              break;
            default:
              break;
          }
        }
        e.lit_filled = nrows;
      }
      return &e.out;
    }

    case BoundExpr::Kind::kArith: {
      const TypeKind ak = s.children[0]->type.kind();
      const TypeKind bk = s.children[1]->type.kind();
      RADB_ASSIGN_OR_RETURN(const ColumnVector* a,
                            EvalV(*e.kids[0], cols, sel, n, nrows));
      RADB_ASSIGN_OR_RETURN(const ColumnVector* b,
                            EvalV(*e.kids[1], cols, sel, n, nrows));
      PrepareOut(e.out, s.type.kind(), nrows);
      if (ak == TypeKind::kNull || bk == TypeKind::kNull) {
        // A statically-NULL operand: NULL in every lane (EvalArith).
        MarkLanesNull(e.out, sel, n);
        return &e.out;
      }
      const uint8_t* an = a->null.data();
      const uint8_t* bn = b->null.data();
      uint8_t* on = e.out.null.data();
      if (ak == TypeKind::kInteger && bk == TypeKind::kInteger) {
        const int64_t* av = a->i64.data();
        const int64_t* bv = b->i64.data();
        int64_t* ov = e.out.i64.data();
        switch (s.arith_op) {
          case ArithOp::kAdd:
            ForLanes(sel, n, [&](size_t l) {
              on[l] = an[l] | bn[l];
              ov[l] = WrapAdd(av[l], bv[l]);
            });
            break;
          case ArithOp::kSub:
            ForLanes(sel, n, [&](size_t l) {
              on[l] = an[l] | bn[l];
              ov[l] = WrapSub(av[l], bv[l]);
            });
            break;
          case ArithOp::kMul:
            ForLanes(sel, n, [&](size_t l) {
              on[l] = an[l] | bn[l];
              ov[l] = WrapMul(av[l], bv[l]);
            });
            break;
          case ArithOp::kDiv:
            // Lanes in selection (= row) order, erroring at the first
            // zero divisor like the row-at-a-time loop.
            for (size_t j = 0; j < n; ++j) {
              const size_t l = sel ? sel[j] : j;
              const uint8_t nl = an[l] | bn[l];
              on[l] = nl;
              if (nl) continue;
              if (bv[l] == 0) {
                return Status::NumericError("integer division by zero");
              }
              ov[l] = av[l] / bv[l];
            }
            break;
        }
        return &e.out;
      }
      // Mixed/bool/double operands compute through AsDouble; double
      // division by zero yields inf, never an error (ApplyScalar).
      const NumReader ra(*a), rb(*b);
      double* ov = e.out.f64.data();
      switch (s.arith_op) {
        case ArithOp::kAdd:
          ForLanes(sel, n, [&](size_t l) {
            on[l] = an[l] | bn[l];
            ov[l] = ra.Get(l) + rb.Get(l);
          });
          break;
        case ArithOp::kSub:
          ForLanes(sel, n, [&](size_t l) {
            on[l] = an[l] | bn[l];
            ov[l] = ra.Get(l) - rb.Get(l);
          });
          break;
        case ArithOp::kMul:
          ForLanes(sel, n, [&](size_t l) {
            on[l] = an[l] | bn[l];
            ov[l] = ra.Get(l) * rb.Get(l);
          });
          break;
        case ArithOp::kDiv:
          ForLanes(sel, n, [&](size_t l) {
            on[l] = an[l] | bn[l];
            ov[l] = ra.Get(l) / rb.Get(l);
          });
          break;
      }
      return &e.out;
    }

    case BoundExpr::Kind::kNeg: {
      const TypeKind ck = s.children[0]->type.kind();
      RADB_ASSIGN_OR_RETURN(const ColumnVector* c,
                            EvalV(*e.kids[0], cols, sel, n, nrows));
      PrepareOut(e.out, s.type.kind(), nrows);
      if (ck == TypeKind::kNull) {
        MarkLanesNull(e.out, sel, n);
        return &e.out;
      }
      const uint8_t* cn = c->null.data();
      uint8_t* on = e.out.null.data();
      if (ck == TypeKind::kDouble) {
        const double* cv = c->f64.data();
        double* ov = e.out.f64.data();
        ForLanes(sel, n, [&](size_t l) {
          on[l] = cn[l];
          ov[l] = -cv[l];
        });
      } else {
        // kInteger and kBoolean both negate to INTEGER; booleans are
        // already 0/1 lanes, matching -(int64)bool.
        const int64_t* cv = c->i64.data();
        int64_t* ov = e.out.i64.data();
        ForLanes(sel, n, [&](size_t l) {
          on[l] = cn[l];
          ov[l] = WrapSub(0, cv[l]);
        });
      }
      return &e.out;
    }

    case BoundExpr::Kind::kCompare: {
      const TypeKind ak = s.children[0]->type.kind();
      const TypeKind bk = s.children[1]->type.kind();
      RADB_ASSIGN_OR_RETURN(const ColumnVector* a,
                            EvalV(*e.kids[0], cols, sel, n, nrows));
      RADB_ASSIGN_OR_RETURN(const ColumnVector* b,
                            EvalV(*e.kids[1], cols, sel, n, nrows));
      PrepareOut(e.out, TypeKind::kBoolean, nrows);
      if (ak == TypeKind::kNull || bk == TypeKind::kNull) {
        MarkLanesNull(e.out, sel, n);
        return &e.out;
      }
      const uint8_t* an = a->null.data();
      const uint8_t* bn = b->null.data();
      uint8_t* on = e.out.null.data();
      int64_t* ov = e.out.i64.data();
      const auto compare = [&](const auto& av, const auto& bv) {
        CompareLanes(s.compare_op, sel, n, [&](size_t l, auto holds) {
          on[l] = an[l] | bn[l];
          ov[l] = holds(av(l), bv(l));
        });
      };
      if (ak == TypeKind::kString) {
        const std::string* as = a->str.data();
        const std::string* bs = b->str.data();
        compare([as](size_t l) -> const std::string& { return as[l]; },
                [bs](size_t l) -> const std::string& { return bs[l]; });
      } else if (a->kind == TypeKind::kInteger &&
                 b->kind == TypeKind::kInteger) {
        // Exact, as Value::Compare compares two INTEGERs.
        const int64_t* ai = a->i64.data();
        const int64_t* bi = b->i64.data();
        compare([ai](size_t l) { return ai[l]; },
                [bi](size_t l) { return bi[l]; });
      } else {
        const NumReader ra(*a), rb(*b);
        compare([&ra](size_t l) { return ra.Get(l); },
                [&rb](size_t l) { return rb.Get(l); });
      }
      return &e.out;
    }

    case BoundExpr::Kind::kNot: {
      RADB_ASSIGN_OR_RETURN(const ColumnVector* c,
                            EvalV(*e.kids[0], cols, sel, n, nrows));
      PrepareOut(e.out, TypeKind::kBoolean, nrows);
      const uint8_t* cn = c->null.data();
      const int64_t* cv = c->i64.data();
      uint8_t* on = e.out.null.data();
      int64_t* ov = e.out.i64.data();
      ForLanes(sel, n, [&](size_t l) {
        if (cn[l]) {
          on[l] = 1;
        } else {
          on[l] = 0;
          ov[l] = (cv[l] == 0);
        }
      });
      return &e.out;
    }

    case BoundExpr::Kind::kLogic: {
      // Three-valued AND/OR with EvalExpr's short-circuit: the
      // rhs is evaluated only on lanes the lhs left undecided, which
      // also reproduces its error suppression (a division error in
      // the rhs of `FALSE AND x/0` never surfaces).
      const bool is_and = s.logic_is_and;
      const int64_t decide = is_and ? 0 : 1;  // lhs value that decides
      RADB_ASSIGN_OR_RETURN(const ColumnVector* a,
                            EvalV(*e.kids[0], cols, sel, n, nrows));
      PrepareOut(e.out, TypeKind::kBoolean, nrows);
      const uint8_t* an = a->null.data();
      const int64_t* av = a->i64.data();
      uint8_t* on = e.out.null.data();
      int64_t* ov = e.out.i64.data();
      e.sub_sel.clear();
      ForLanes(sel, n, [&](size_t l) {
        if (!an[l] && av[l] == decide) {
          on[l] = 0;
          ov[l] = decide;
        } else {
          e.sub_sel.push_back(static_cast<uint32_t>(l));
        }
      });
      if (!e.sub_sel.empty()) {
        RADB_ASSIGN_OR_RETURN(
            const ColumnVector* b,
            EvalV(*e.kids[1], cols, e.sub_sel.data(), e.sub_sel.size(),
                  nrows));
        const uint8_t* bnn = b->null.data();
        const int64_t* bv = b->i64.data();
        for (const uint32_t l : e.sub_sel) {
          if (!bnn[l] && bv[l] == decide) {
            on[l] = 0;
            ov[l] = decide;
          } else if (an[l] || bnn[l]) {
            on[l] = 1;
          } else {
            on[l] = 0;
            ov[l] = 1 - decide;
          }
        }
      }
      return &e.out;
    }

    case BoundExpr::Kind::kCall:
    case BoundExpr::Kind::kParam:
      break;  // never batch-capable
  }
  return Status::Internal("expression is not vectorizable");
}

/// The placement of a base-table scan's output: the slot of the
/// table's hash column when the table is hash-partitioned with one
/// partition per worker, i.e. placed the way a join shuffle would
/// place it.
std::optional<size_t> ScanHashedSlot(const LogicalOp& op, size_t workers) {
  const Partitioning& part = op.table->partitioning();
  if (part.kind == Partitioning::Kind::kHash &&
      op.table->num_partitions() == workers) {
    for (size_t i = 0; i < op.scan_columns.size(); ++i) {
      if (op.scan_columns[i] == part.hash_column) return op.output[i].slot;
    }
  }
  return std::nullopt;
}

/// Sum of serialized lane bytes over the live lanes (matches
/// Value::ByteSize row accounting).
size_t ColBytes(const ColumnVector& c, const uint32_t* sel, size_t n) {
  size_t bytes = 0;
  ForLanes(sel, n, [&](size_t l) { bytes += c.LaneBytes(l); });
  return bytes;
}

// ---------------------------------------------------------------------------
// Lane and stage typing
// ---------------------------------------------------------------------------

/// How a chain column is stored: a typed lane of `kind`, or a Value
/// lane (the default).
struct LaneType {
  bool values = true;
  TypeKind kind = TypeKind::kNull;
};

LaneType TypedLane(TypeKind k) { return LaneType{false, k}; }

void ResetLane(ColumnVector& c, const LaneType& t, size_t n) {
  if (t.values) {
    c.ResetValues(n);
  } else {
    c.Reset(t.kind, n);
  }
}

/// Kinds a typed lane can carry as a real (payload-bearing) column.
bool ScalarColumnKind(TypeKind k) {
  return k == TypeKind::kBoolean || k == TypeKind::kInteger ||
         k == TypeKind::kDouble || k == TypeKind::kString;
}

/// Kinds EvalArith / EvalNegate accept on the scalar-numeric path.
/// kNull is a statically-NULL operand (a NULL literal): the result is
/// NULL in every lane, which the kernels handle directly.
bool NumericOperandKind(TypeKind k) {
  return k == TypeKind::kBoolean || k == TypeKind::kInteger ||
         k == TypeKind::kDouble || k == TypeKind::kNull;
}

/// True when the typed kernels (EvalV) evaluate `e`: literals and
/// column refs of scalar kinds, arithmetic/negation over scalar
/// numerics, comparisons, and three-valued AND/OR/NOT. Function calls
/// and anything touching the LA kinds are evaluated per lane.
bool BatchCapableExpr(const BoundExpr& e) {
  switch (e.kind) {
    case BoundExpr::Kind::kLiteral:
      return ScalarColumnKind(e.type.kind()) ||
             e.type.kind() == TypeKind::kNull;
    case BoundExpr::Kind::kColumnRef:
      return ScalarColumnKind(e.type.kind());
    case BoundExpr::Kind::kArith:
      return BatchCapableExpr(*e.children[0]) &&
             BatchCapableExpr(*e.children[1]) &&
             NumericOperandKind(e.children[0]->type.kind()) &&
             NumericOperandKind(e.children[1]->type.kind());
    case BoundExpr::Kind::kNeg:
      return BatchCapableExpr(*e.children[0]) &&
             NumericOperandKind(e.children[0]->type.kind());
    case BoundExpr::Kind::kCompare: {
      if (!BatchCapableExpr(*e.children[0]) ||
          !BatchCapableExpr(*e.children[1])) {
        return false;
      }
      const TypeKind a = e.children[0]->type.kind();
      const TypeKind b = e.children[1]->type.kind();
      if (a == TypeKind::kNull || b == TypeKind::kNull) return true;
      if (NumericOperandKind(a) && NumericOperandKind(b)) return true;
      return a == TypeKind::kString && b == TypeKind::kString;
    }
    case BoundExpr::Kind::kLogic:
    case BoundExpr::Kind::kNot:
      for (const auto& c : e.children) {
        if (!BatchCapableExpr(*c)) return false;
        const TypeKind k = c->type.kind();
        if (k != TypeKind::kBoolean && k != TypeKind::kNull) return false;
      }
      return true;
    case BoundExpr::Kind::kCall:
      return false;  // built-ins (incl. every LA function) run per lane
    case BoundExpr::Kind::kParam:
      return false;  // substituted to a literal before execution
  }
  return false;
}

/// Aggregates with a typed columnar accumulator. SUM/AVG keep their
/// first non-null argument's *runtime* representation (a BOOLEAN
/// argument can surface as a BOOLEAN sum over a one-row group), so
/// only INTEGER / DOUBLE arguments take the kernels; MIN/MAX and the
/// label-checking EMIN/EMAX compare through the same total order for
/// every scalar kind.
bool AggCallCapable(const AggCall& a) {
  if (a.is_count_star) return true;
  if (!a.arg || !BatchCapableExpr(*a.arg)) return false;
  const TypeKind arg = a.arg->type.kind();
  if (a.name == "count") return true;
  if (a.name == "sum" || a.name == "avg") {
    return arg == TypeKind::kInteger || arg == TypeKind::kDouble;
  }
  if (a.name == "min" || a.name == "max" || a.name == "emin" ||
      a.name == "emax") {
    return ScalarColumnKind(arg);
  }
  return false;
}

/// Whether every non-NULL value `op` produces has exactly its output
/// column's static kind. An INTEGER value legally stored in a DOUBLE
/// column keeps its runtime kind (it groups, hashes and sums as an
/// INTEGER), which a typed lane cannot represent, so only pure sources
/// get typed lanes. Purity holds at a scan of kind-pure columns
/// (Table::ColumnKindPure) and is kept by operators that pass values
/// through and by BatchCapableExpr expressions and AggCallCapable
/// aggregates, whose runtime result kinds match their static types
/// over pure inputs.
bool OutputKindPure(const LogicalOp& op) {
  for (const LogicalOpPtr& c : op.children) {
    if (!OutputKindPure(*c)) return false;
  }
  switch (op.kind) {
    case LogicalOp::Kind::kScan:
      for (size_t col : op.scan_columns) {
        if (!op.table->ColumnKindPure(col)) return false;
      }
      return true;
    case LogicalOp::Kind::kAggregate:
      for (const BoundExprPtr& g : op.group_exprs) {
        if (!BatchCapableExpr(*g)) return false;
      }
      for (const AggCall& a : op.aggs) {
        if (!AggCallCapable(a)) return false;
      }
      return true;
    default:
      // A Project, or a Join's fused projection, computes its outputs;
      // Filter/Distinct/Sort/Limit pass child values through.
      for (const BoundExprPtr& e : op.exprs) {
        if (!BatchCapableExpr(*e)) return false;
      }
      return true;
  }
}

/// Whether every column `e` (rewritten to positions) reads is typed.
bool RefsTyped(const BoundExpr& e, const std::vector<LaneType>& lanes) {
  if (e.kind == BoundExpr::Kind::kColumnRef) return !lanes[e.slot].values;
  for (const auto& c : e.children) {
    if (!RefsTyped(*c, lanes)) return false;
  }
  return true;
}

/// The typed kernels evaluate `e` over `lanes`.
bool TypedExpr(const BoundExpr& e, const std::vector<LaneType>& lanes) {
  return BatchCapableExpr(e) && RefsTyped(e, lanes);
}

/// The input positions `exprs` (rewritten to positions) read.
std::vector<size_t> RefsOf(const std::vector<const BoundExpr*>& exprs) {
  std::set<size_t> refs;
  for (const BoundExpr* e : exprs) e->CollectSlots(&refs);
  return std::vector<size_t>(refs.begin(), refs.end());
}

// ---------------------------------------------------------------------------
// Hash aggregation
// ---------------------------------------------------------------------------

/// The accumulator an AggCall compiles to: a typed accumulator when the
/// stage runs the kernels (SUM/AVG over INTEGER/DOUBLE; MIN/MAX, and
/// EMIN/EMAX, identical for scalars, over any scalar payload kind), or
/// the aggregate's own row Aggregator when it runs per lane.
struct AggSpec {
  enum class Op {
    kCountStar,
    kCount,
    kSumInt,
    kSumDouble,
    kAvgInt,
    kAvgDouble,
    kMin,
    kMax,
    kRow,
  };
  Op op = Op::kCountStar;
  TypeKind payload = TypeKind::kNull;  // min/max storage kind
  const AggregateFunction* fn = nullptr;  // kRow
};

AggSpec SpecFor(const AggCall& a, bool typed) {
  AggSpec s;
  if (!typed) {
    s.op = AggSpec::Op::kRow;
    s.fn = a.fn;
    return s;
  }
  if (a.is_count_star) {
    s.op = AggSpec::Op::kCountStar;
    return s;
  }
  const TypeKind k = a.arg->type.kind();
  s.payload = k;
  if (a.name == "count") {
    s.op = AggSpec::Op::kCount;
  } else if (a.name == "sum") {
    s.op = k == TypeKind::kInteger ? AggSpec::Op::kSumInt
                                   : AggSpec::Op::kSumDouble;
  } else if (a.name == "avg") {
    s.op = k == TypeKind::kInteger ? AggSpec::Op::kAvgInt
                                   : AggSpec::Op::kAvgDouble;
  } else if (a.name == "max" || a.name == "emax") {
    s.op = AggSpec::Op::kMax;
  } else {
    s.op = AggSpec::Op::kMin;  // "min" / "emin"
  }
  return s;
}

/// Accumulator arrays, group-indexed. Which arrays are live depends on
/// the spec (sum -> value + seen, avg -> value + cnt, min/max ->
/// payload + seen, count -> i64 only, kRow -> row).
struct AggAcc {
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string> str;
  std::vector<int64_t> cnt;
  std::vector<uint8_t> seen;
  std::vector<std::unique_ptr<Aggregator>> row;
};

void AddGroup(const AggSpec& s, AggAcc& a) {
  switch (s.op) {
    case AggSpec::Op::kCountStar:
    case AggSpec::Op::kCount:
      a.i64.push_back(0);
      break;
    case AggSpec::Op::kSumInt:
      a.i64.push_back(0);
      a.seen.push_back(0);
      break;
    case AggSpec::Op::kSumDouble:
      a.f64.push_back(0.0);
      a.seen.push_back(0);
      break;
    case AggSpec::Op::kAvgInt:
      a.i64.push_back(0);
      a.cnt.push_back(0);
      break;
    case AggSpec::Op::kAvgDouble:
      a.f64.push_back(0.0);
      a.cnt.push_back(0);
      break;
    case AggSpec::Op::kMin:
    case AggSpec::Op::kMax:
      a.seen.push_back(0);
      switch (s.payload) {
        case TypeKind::kBoolean:
        case TypeKind::kInteger:
          a.i64.push_back(0);
          break;
        case TypeKind::kDouble:
          a.f64.push_back(0.0);
          break;
        default:
          a.str.emplace_back();
          break;
      }
      break;
    case AggSpec::Op::kRow:
      a.row.push_back(s.fn->make());
      break;
  }
}

/// Batch update of a typed accumulator: for live lane j (group
/// gids[j]), fold in the argument column. Lane order is row order, so
/// first-value capture and floating-point accumulation match the row
/// Aggregators exactly.
void UpdateAgg(const AggSpec& s, AggAcc& acc, const ColumnVector* c,
               const uint32_t* sel, size_t n, const uint32_t* gids) {
  switch (s.op) {
    case AggSpec::Op::kCountStar:
      for (size_t j = 0; j < n; ++j) ++acc.i64[gids[j]];
      break;
    case AggSpec::Op::kCount: {
      const uint8_t* cn = c->null.data();
      for (size_t j = 0; j < n; ++j) {
        const size_t l = sel ? sel[j] : j;
        if (!cn[l]) ++acc.i64[gids[j]];
      }
      break;
    }
    case AggSpec::Op::kSumInt: {
      const uint8_t* cn = c->null.data();
      const int64_t* cv = c->i64.data();
      for (size_t j = 0; j < n; ++j) {
        const size_t l = sel ? sel[j] : j;
        if (cn[l]) continue;
        const uint32_t g = gids[j];
        if (acc.seen[g]) {
          acc.i64[g] = WrapAdd(acc.i64[g], cv[l]);
        } else {
          acc.i64[g] = cv[l];
          acc.seen[g] = 1;
        }
      }
      break;
    }
    case AggSpec::Op::kSumDouble: {
      const uint8_t* cn = c->null.data();
      const double* cv = c->f64.data();
      for (size_t j = 0; j < n; ++j) {
        const size_t l = sel ? sel[j] : j;
        if (cn[l]) continue;
        const uint32_t g = gids[j];
        if (acc.seen[g]) {
          acc.f64[g] += cv[l];
        } else {
          acc.f64[g] = cv[l];  // first value raw: -0.0 survives
          acc.seen[g] = 1;
        }
      }
      break;
    }
    case AggSpec::Op::kAvgInt: {
      const uint8_t* cn = c->null.data();
      const int64_t* cv = c->i64.data();
      for (size_t j = 0; j < n; ++j) {
        const size_t l = sel ? sel[j] : j;
        if (cn[l]) continue;
        const uint32_t g = gids[j];
        acc.i64[g] = acc.cnt[g] ? WrapAdd(acc.i64[g], cv[l]) : cv[l];
        ++acc.cnt[g];
      }
      break;
    }
    case AggSpec::Op::kAvgDouble: {
      const uint8_t* cn = c->null.data();
      const double* cv = c->f64.data();
      for (size_t j = 0; j < n; ++j) {
        const size_t l = sel ? sel[j] : j;
        if (cn[l]) continue;
        const uint32_t g = gids[j];
        acc.f64[g] = acc.cnt[g] ? acc.f64[g] + cv[l] : cv[l];
        ++acc.cnt[g];
      }
      break;
    }
    case AggSpec::Op::kMin:
    case AggSpec::Op::kMax: {
      const bool is_max = (s.op == AggSpec::Op::kMax);
      const uint8_t* cn = c->null.data();
      if (s.payload == TypeKind::kDouble) {
        const double* cv = c->f64.data();
        for (size_t j = 0; j < n; ++j) {
          const size_t l = sel ? sel[j] : j;
          if (cn[l]) continue;
          const uint32_t g = gids[j];
          if (!acc.seen[g]) {
            acc.f64[g] = cv[l];
            acc.seen[g] = 1;
          } else if (is_max ? cv[l] > acc.f64[g] : cv[l] < acc.f64[g]) {
            acc.f64[g] = cv[l];
          }
        }
      } else if (s.payload == TypeKind::kString) {
        const std::string* cv = c->str.data();
        for (size_t j = 0; j < n; ++j) {
          const size_t l = sel ? sel[j] : j;
          if (cn[l]) continue;
          const uint32_t g = gids[j];
          if (!acc.seen[g]) {
            acc.str[g] = cv[l];
            acc.seen[g] = 1;
          } else if (is_max ? acc.str[g] < cv[l] : cv[l] < acc.str[g]) {
            acc.str[g] = cv[l];
          }
        }
      } else {
        // INTEGER / BOOLEAN payloads compare as int64, like
        // Value::Compare (booleans are 0/1 lanes).
        const int64_t* cv = c->i64.data();
        for (size_t j = 0; j < n; ++j) {
          const size_t l = sel ? sel[j] : j;
          if (cn[l]) continue;
          const uint32_t g = gids[j];
          if (!acc.seen[g]) {
            acc.i64[g] = cv[l];
            acc.seen[g] = 1;
          } else if (is_max ? cv[l] > acc.i64[g] : cv[l] < acc.i64[g]) {
            acc.i64[g] = cv[l];
          }
        }
      }
      break;
    }
    case AggSpec::Op::kRow:
      break;  // folded lane by lane (PerLaneAggregate)
  }
}

/// Merges source group `sg` into destination group `dg` (same spec);
/// the typed cases mirror the row Aggregators' Merge methods. A freshly
/// AddGroup'ed typed destination merges as a plain copy.
Status MergeAgg(const AggSpec& s, AggAcc& dst, size_t dg, const AggAcc& src,
                size_t sg) {
  switch (s.op) {
    case AggSpec::Op::kCountStar:
    case AggSpec::Op::kCount:
      dst.i64[dg] += src.i64[sg];
      break;
    case AggSpec::Op::kSumInt:
      if (src.seen[sg]) {
        dst.i64[dg] = dst.seen[dg] ? WrapAdd(dst.i64[dg], src.i64[sg])
                                   : src.i64[sg];
        dst.seen[dg] = 1;
      }
      break;
    case AggSpec::Op::kSumDouble:
      if (src.seen[sg]) {
        dst.f64[dg] = dst.seen[dg] ? dst.f64[dg] + src.f64[sg] : src.f64[sg];
        dst.seen[dg] = 1;
      }
      break;
    case AggSpec::Op::kAvgInt:
      if (src.cnt[sg]) {
        dst.i64[dg] = dst.cnt[dg] ? WrapAdd(dst.i64[dg], src.i64[sg])
                                  : src.i64[sg];
        dst.cnt[dg] += src.cnt[sg];
      }
      break;
    case AggSpec::Op::kAvgDouble:
      if (src.cnt[sg]) {
        dst.f64[dg] = dst.cnt[dg] ? dst.f64[dg] + src.f64[sg] : src.f64[sg];
        dst.cnt[dg] += src.cnt[sg];
      }
      break;
    case AggSpec::Op::kMin:
    case AggSpec::Op::kMax: {
      if (!src.seen[sg]) break;
      const bool is_max = (s.op == AggSpec::Op::kMax);
      if (!dst.seen[dg]) {
        dst.seen[dg] = 1;
        if (s.payload == TypeKind::kDouble) {
          dst.f64[dg] = src.f64[sg];
        } else if (s.payload == TypeKind::kString) {
          dst.str[dg] = src.str[sg];
        } else {
          dst.i64[dg] = src.i64[sg];
        }
        break;
      }
      if (s.payload == TypeKind::kDouble) {
        if (is_max ? src.f64[sg] > dst.f64[dg] : src.f64[sg] < dst.f64[dg]) {
          dst.f64[dg] = src.f64[sg];
        }
      } else if (s.payload == TypeKind::kString) {
        if (is_max ? dst.str[dg] < src.str[sg] : src.str[sg] < dst.str[dg]) {
          dst.str[dg] = src.str[sg];
        }
      } else if (is_max ? src.i64[sg] > dst.i64[dg]
                        : src.i64[sg] < dst.i64[dg]) {
        dst.i64[dg] = src.i64[sg];
      }
      break;
    }
    case AggSpec::Op::kRow:
      return dst.row[dg]->Merge(*src.row[sg]);
  }
  return Status::OK();
}

/// Serialized state size, mirroring the row Aggregators' StateBytes
/// (shuffle byte metrics and budget charges depend on it).
size_t AccStateBytes(const AggSpec& s, const AggAcc& a, size_t g) {
  switch (s.op) {
    case AggSpec::Op::kCountStar:
    case AggSpec::Op::kCount:
      return 8;
    case AggSpec::Op::kSumInt:
    case AggSpec::Op::kSumDouble:
      return a.seen[g] ? 9 : 1;
    case AggSpec::Op::kAvgInt:
    case AggSpec::Op::kAvgDouble:
      return (a.cnt[g] ? 9 : 1) + 8;
    case AggSpec::Op::kMin:
    case AggSpec::Op::kMax:
      if (!a.seen[g]) return 1;
      switch (s.payload) {
        case TypeKind::kBoolean:
          return 2;
        case TypeKind::kString:
          return 9 + a.str[g].size();
        default:
          return 9;
      }
    case AggSpec::Op::kRow:
      return a.row[g]->StateBytes();
  }
  return 1;
}

Result<Value> FinalizeAgg(const AggSpec& s, const AggAcc& a, size_t g) {
  switch (s.op) {
    case AggSpec::Op::kCountStar:
    case AggSpec::Op::kCount:
      return Value::Int(a.i64[g]);
    case AggSpec::Op::kSumInt:
      return a.seen[g] ? Value::Int(a.i64[g]) : Value::Null();
    case AggSpec::Op::kSumDouble:
      return a.seen[g] ? Value::Double(a.f64[g]) : Value::Null();
    case AggSpec::Op::kAvgInt:
      // EvalArith(kDiv, Int(sum), Double(count)): through AsDouble.
      return a.cnt[g] ? Value::Double(static_cast<double>(a.i64[g]) /
                                      static_cast<double>(a.cnt[g]))
                      : Value::Null();
    case AggSpec::Op::kAvgDouble:
      return a.cnt[g] ? Value::Double(a.f64[g] /
                                      static_cast<double>(a.cnt[g]))
                      : Value::Null();
    case AggSpec::Op::kMin:
    case AggSpec::Op::kMax:
      if (!a.seen[g]) return Value::Null();
      switch (s.payload) {
        case TypeKind::kBoolean:
          return Value::Bool(a.i64[g] != 0);
        case TypeKind::kInteger:
          return Value::Int(a.i64[g]);
        case TypeKind::kDouble:
          return Value::Double(a.f64[g]);
        default:
          return Value::String(a.str[g]);
      }
    case AggSpec::Op::kRow:
      return a.row[g]->Finalize();
  }
  return Value::Null();
}

/// The groups of one aggregation pass, with dense group ids. Typed keys
/// live in key columns under an open-addressing table (linear probing,
/// grown at 0.7 load) whose hash and equality replicate KeyRow over
/// Value::Hash / variant equality; groups merge and emit in insertion
/// order. A per-lane aggregate's keys are KeyRows in a std hash map,
/// and its groups merge and emit in that map's iteration order: the
/// order in which a downstream floating-point fold has always seen the
/// groups of a per-row aggregate.
struct GroupTable {
  bool by_row = false;
  std::vector<ColumnVector> keys;
  std::vector<size_t> hashes;   // per group id
  std::vector<uint32_t> slots;  // group id + 1; 0 = empty
  size_t mask = 0;
  std::unordered_map<KeyRow, uint32_t, KeyRowHash> rows;
  std::vector<const KeyRow*> row_keys;  // per group id, into `rows`

  void Init(const std::vector<TypeKind>& kinds) {
    keys.resize(kinds.size());
    for (size_t i = 0; i < kinds.size(); ++i) keys[i].Reset(kinds[i], 0);
    slots.assign(16, 0);
    mask = 15;
  }

  void InitRows() { by_row = true; }

  size_t size() const { return hashes.size(); }

  void Grow() {
    const size_t cap = (mask + 1) * 2;
    slots.assign(cap, 0);
    mask = cap - 1;
    for (size_t g = 0; g < hashes.size(); ++g) {
      size_t pos = hashes[g] & mask;
      while (slots[pos] != 0) pos = (pos + 1) & mask;
      slots[pos] = static_cast<uint32_t>(g) + 1;
    }
  }

  bool KeysEqual(const std::vector<const ColumnVector*>& kc, size_t lane,
                 size_t g) const {
    for (size_t i = 0; i < keys.size(); ++i) {
      if (!LaneEquals(*kc[i], lane, keys[i], g)) return false;
    }
    return true;
  }

  /// The group of (key lanes at `lane`), if present.
  std::optional<uint32_t> Find(const std::vector<const ColumnVector*>& kc,
                               size_t lane, size_t hash) const {
    for (size_t pos = hash & mask;; pos = (pos + 1) & mask) {
      const uint32_t id = slots[pos];
      if (id == 0) return std::nullopt;
      const uint32_t g = id - 1;
      if (hashes[g] == hash && KeysEqual(kc, lane, g)) return g;
    }
  }

  /// Adds a new dense group for a key Find did not see.
  uint32_t Insert(const std::vector<const ColumnVector*>& kc, size_t lane,
                  size_t hash) {
    if ((size() + 1) * 10 >= (mask + 1) * 7) Grow();
    size_t pos = hash & mask;
    while (slots[pos] != 0) pos = (pos + 1) & mask;
    const uint32_t g = static_cast<uint32_t>(size());
    hashes.push_back(hash);
    for (size_t i = 0; i < keys.size(); ++i) {
      AppendLane(keys[i], *kc[i], lane);
    }
    slots[pos] = g + 1;
    return g;
  }

  /// Finds the group of (key lanes at `lane`), inserting a new dense
  /// group if absent.
  uint32_t Upsert(const std::vector<const ColumnVector*>& kc, size_t lane,
                  size_t hash, bool* inserted) {
    const std::optional<uint32_t> found = Find(kc, lane, hash);
    *inserted = !found.has_value();
    return *inserted ? Insert(kc, lane, hash) : *found;
  }

  std::optional<uint32_t> FindRow(const KeyRow& key) const {
    auto it = rows.find(key);
    if (it == rows.end()) return std::nullopt;
    return it->second;
  }

  uint32_t InsertRow(KeyRow key) {
    const uint32_t g = static_cast<uint32_t>(size());
    hashes.push_back(key.hash);
    row_keys.push_back(&rows.emplace(std::move(key), g).first->first);
    return g;
  }

  /// Calls f(group id) in merge and emission order; stops at the first
  /// error.
  template <typename F>
  Status ForEachGroup(F&& f) const {
    if (by_row) {
      for (const auto& entry : rows) RADB_RETURN_NOT_OK(f(entry.second));
    } else {
      for (size_t g = 0; g < size(); ++g) {
        RADB_RETURN_NOT_OK(f(static_cast<uint32_t>(g)));
      }
    }
    return Status::OK();
  }

  size_t KeyBytes(size_t g) const {
    if (by_row) return RowByteSize(row_keys[g]->values);
    size_t bytes = 0;
    for (const ColumnVector& k : keys) bytes += k.LaneBytes(g);
    return bytes;
  }

  Row KeyValues(size_t g) const {
    if (by_row) return row_keys[g]->values;
    Row row;
    row.reserve(keys.size());
    for (const ColumnVector& k : keys) row.push_back(k.GetValue(g));
    return row;
  }
};

/// One pass of aggregation state: a group table plus one accumulator
/// block per aggregate call.
struct LocalAgg {
  GroupTable table;
  std::vector<AggAcc> accs;
  // Typed keys without a budget: a running estimate, charged in one
  // lump.
  size_t state_bytes = 0;
  size_t charged = 0;
  // Charged per group (see VectorizedPipeline::group_charges_): its
  // admission charge and the bytes it has charged so far.
  std::vector<size_t> base;
  std::vector<size_t> group_charged;
};

/// One worker's partial aggregation. Without a budget it is a single
/// pass. Under one, groups are admitted one at a time: after a pass's
/// first refusal it admits no more groups, the rows of unadmitted
/// groups collect in `overflow`, and they become the next pass's input.
struct WorkerAgg {
  std::vector<LocalAgg> passes;
  bool admitting = true;
  SpillableRowBuffer overflow;
  size_t spill_bytes = 0;  // spill totals of drained overflow
  size_t spill_runs = 0;
};

/// Per-stage per-worker tallies, merged into OperatorMetrics after the
/// parallel region (workers write only their own slot).
struct StageTally {
  size_t rows_in = 0;
  size_t rows_out = 0;
  size_t bytes_out = 0;
  size_t batches = 0;
  double seconds = 0.0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Pipeline driver
// ---------------------------------------------------------------------------

/// Executes one stitched chain. Not reusable; one instance per
/// ExecutePipeline call.
///
/// Stages are numbered in execution order: 0 is the source (the
/// in-chain scan, or the boundary's rows), 1..M the Filter/Project
/// middles, M + 1 the head (the Aggregate, or the sink of a chain
/// without one).
class VectorizedPipeline {
 public:
  VectorizedPipeline(Executor& x, std::vector<const LogicalOp*> nodes,
                     const LogicalOp* scan, const LogicalOp* boundary)
      : x_(x),
        nodes_(std::move(nodes)),
        scan_(scan),
        boundary_(boundary),
        budgeted_(x.mem_.has_budget()) {}

  Result<ExecResult> Run();

 private:
  using Clock = Executor::Clock;

  struct StagePlan {
    const LogicalOp* op = nullptr;
    std::vector<BoundExprPtr> exprs;  // predicates / projections
    bool typed = false;               // runs the columnar kernels
    std::vector<size_t> refs;         // per lane: input positions read
    std::vector<LaneType> out;        // a Project's output lanes
    size_t metric = 0;                // index into metrics->operators
  };

  /// Compiled per-worker state (scratches are thread-local by
  /// construction: one WorkerCtx per simulated worker), built when the
  /// worker's first batch arrives.
  struct WorkerCtx {
    bool compiled = false;
    ColumnBatch batch;
    const std::vector<LaneType>* batch_lanes = nullptr;  // ingest layout
    size_t batch_bytes = 0;  // ingested bytes (tracked under a budget)
    std::vector<uint32_t> sel_a, sel_b;
    std::vector<std::vector<std::unique_ptr<VExpr>>> stage_vexprs;
    std::vector<std::vector<ColumnVector>> stage_out;  // per-lane Projects
    std::vector<std::unique_ptr<VExpr>> group_vexprs;
    std::vector<std::unique_ptr<VExpr>> agg_vexprs;  // null for COUNT(*)
    Row scratch;  // per-lane evaluation: the referenced positions only
    std::vector<const ColumnVector*> cols;
    std::vector<const ColumnVector*> keycols;
    std::vector<const ColumnVector*> args;
    std::vector<size_t> hash_buf;
    std::vector<uint32_t> gids;
    // Budgeted admission: admitted lanes not yet folded, with groups.
    std::vector<uint32_t> adm_sel, adm_gids;
    std::vector<StageTally> tally;  // per stage: source, middles, head
    WorkerAgg agg;                   // aggregate chains: partial state
    SpillableRowBuffer* out = nullptr;  // other chains: the sink
    /// The first stage that failed on this worker, and its error; only
    /// stages before it still run.
    size_t limit = std::numeric_limits<size_t>::max();
    Status failure;
  };

  class JoinIngest;

  size_t HeadStage() const { return stages_.size() + 1; }

  /// Plan compilation: lane and stage typing, expressions rewritten to
  /// positions, aggregate specs.
  Status PreparePlan();
  /// Metrics entries for the chain (the boundary subtree's were
  /// already created by its own execution), and an index scan's one
  /// probe, whose rid count is its entry's rows_in.
  void PrepareMetrics();
  /// Compiles one worker's expression trees (scratches must not be
  /// shared across threads) and opens its first aggregation pass.
  void CompileCtx(WorkerCtx& ctx);
  /// Opens a new admission pass with an empty overflow buffer.
  void StartPass(WorkerAgg& wa);
  /// Empties ctx.batch back to zero-lane columns of `lanes`.
  void ResetIngestBatch(WorkerCtx& ctx, const std::vector<LaneType>& lanes);
  /// Packs `buf`'s rows (exact append order) into batches of `lanes`,
  /// calling `flush` whenever one closes and once for the remainder,
  /// then clears `buf`. Stops reading once stage `first` has failed.
  /// Append time accrues to `*seconds`.
  Status IngestRows(WorkerCtx& ctx, SpillableRowBuffer& buf,
                    const std::vector<LaneType>& lanes, size_t first,
                    double* seconds, const std::function<Status()>& flush);
  /// Runs ctx.batch through the chain (through the aggregate stage
  /// alone when !run_stages) — cancel poll and transient memory
  /// charge per batch — then resets it for the next fill. A scan's
  /// batch is also counted as the source's output in `source`.
  Status FlushIngest(WorkerCtx& ctx, bool run_stages = true,
                     StageTally* source = nullptr);
  /// ProcessBatch with ctx.batch's `bytes` charged for its duration.
  void ProcessCharged(WorkerCtx& ctx, size_t bytes, bool run_stages);
  /// Whether ctx.batch is full: kBatchRows rows, or under a budget
  /// batch_cap_ bytes.
  bool BatchFull(const WorkerCtx& ctx) const;
  /// Rows of `pin` from `begin` that the current batch takes: at most
  /// `count`, and under a budget no more than bring ctx.batch_bytes to
  /// batch_cap_ (at least one). Adds their bytes to ctx.batch_bytes.
  size_t ScanBatchRows(WorkerCtx& ctx, const Table::SegmentPin& pin,
                       size_t begin, size_t count) const;
  /// Appends rows [begin, begin + count) of `pin`'s scanned columns to
  /// ctx.batch: a range copy of each segment column whose lane type is
  /// the source lane's, lane by lane otherwise.
  void ScanIntoBatch(WorkerCtx& ctx, const Table::SegmentPin& pin,
                     size_t begin, size_t count) const;
  /// Appends the run of rows [begin, begin + count) of `pin` to the
  /// scan's batches, running each batch through the chain as it fills.
  /// Once a chain stage has failed the run is skipped.
  Status ScanRun(WorkerCtx& ctx, const Table::SegmentPin& pin, size_t begin,
                 size_t count);
  /// The index range scan's share of one worker: its `rids` sorted by
  /// (partition, ordinal), consecutive ordinals of one segment read as
  /// one run.
  Status ScanIndexRows(WorkerCtx& ctx, std::vector<storage::Rid>& rids);
  /// One worker's share of the chain. Returns the source's own errors
  /// (scan, cancellation); a failing chain stage is recorded in `ctx`.
  Status RunWorker(size_t wkr, WorkerCtx& ctx);
  /// Runs ctx.batch through the stages before ctx.limit; a stage that
  /// fails lowers ctx.limit to itself.
  void ProcessBatch(WorkerCtx& ctx, bool run_stages);
  /// Middle stage `si` over the live lanes: narrows the selection
  /// (Filter) or swaps ctx.cols for its outputs (Project).
  Status RunStage(size_t si, WorkerCtx& ctx, const uint32_t** sel,
                  size_t* live, size_t nrows, StageTally& t);
  /// Copies lane `l` of the referenced columns into ctx.scratch.
  void FillScratch(WorkerCtx& ctx, const std::vector<size_t>& refs, size_t l);
  Status TypedAggregate(WorkerCtx& ctx, const uint32_t* sel, size_t live,
                        size_t nrows);
  /// The aggregate stage of a per-lane chain: the row-at-a-time
  /// aggregate loop (key, admission, argument, growth charge), lane by
  /// lane in row order.
  Status PerLaneAggregate(WorkerCtx& ctx, const uint32_t* sel, size_t live);
  /// Budgeted typed aggregate stage: admits new groups lane by lane
  /// and routes refused lanes to the overflow.
  Status AdmitLanes(WorkerCtx& ctx, const uint32_t* sel, size_t live,
                    size_t nrows);
  /// Folds the pending admitted lanes into their groups and charges
  /// the resulting accumulator growth.
  Status FoldAdmitted(WorkerCtx& ctx, LocalAgg& agg, size_t nrows);
  /// Raises group `g`'s charge to its admission charge plus the
  /// accumulators' state bytes (never lowers it); returns the increase.
  size_t ChargeGrowth(LocalAgg& agg, size_t g) const;
  /// Late-materializes lane `lane` of the aggregate input into the
  /// current pass's overflow rows.
  Status Overflow(WorkerCtx& ctx, size_t lane);
  std::optional<size_t> PropagateHashedSlot() const;

  Executor& x_;
  std::vector<const LogicalOp*> nodes_;  // bottom-up middles, then head
  const LogicalOp* scan_ = nullptr;      // in-chain source, or
  const LogicalOp* boundary_ = nullptr;  // operator-executed child
  ExecResult boundary_res_;
  /// An index range scan's tree (null for a full scan), and per worker
  /// the rids of the rows it returned.
  const storage::BTreeIndex* index_ = nullptr;
  std::vector<std::vector<storage::Rid>> rids_;

  /// Under a memory budget: groups are admitted one at a time, a
  /// boundary join materializes, and batches close at batch_cap_.
  const bool budgeted_;
  size_t batch_cap_ = std::numeric_limits<size_t>::max();
  size_t workers_ = 0;
  std::vector<LaneType> source_lanes_;
  std::vector<StagePlan> stages_;  // the Filter/Project middles

  const LogicalOp* agg_op_ = nullptr;
  bool agg_typed_ = false;
  std::vector<LaneType> agg_in_lanes_;  // also the overflow rows' layout
  std::vector<size_t> agg_refs_;        // per lane: input positions read
  std::vector<BoundExprPtr> group_exprs_;
  std::vector<BoundExprPtr> agg_args_;  // null entry = COUNT(*)
  std::vector<AggSpec> specs_;
  std::vector<TypeKind> key_kinds_;
  /// The unspillable aggregate state's tracker; null when the query is
  /// untracked.
  mem::MemoryTracker* agg_mem_ = nullptr;
  /// Groups carry their own admission and growth charges: typed groups
  /// under a budget, per-lane groups whenever the query is tracked.
  bool group_charges_ = false;
  /// A string MIN/MAX state can shrink, so its growth is charged lane
  /// by lane (see FoldAdmitted).
  bool lane_growth_ = false;
  size_t scan_metric_ = 0;
  size_t agg_partial_metric_ = 0;
  size_t agg_final_metric_ = 0;
};

Status VectorizedPipeline::PreparePlan() {
  workers_ = x_.cluster_.num_workers();
  if (budgeted_) {
    // Half the budget, split across the workers' in-flight batches.
    batch_cap_ =
        std::max<size_t>(1, x_.mem_.tracker->budget() / (2 * workers_));
  }

  if (scan_ != nullptr && !scan_->index_lo.empty()) {
    // Only a scan with bounds reads its index (an index-nested-loop
    // annotation alone does not), and only while the index is usable:
    // a stale annotation (index dropped or degraded after planning)
    // runs the full scan, which is always correct.
    const IndexDef* idx = scan_->table->FindIndex(scan_->index_name);
    if (idx != nullptr && idx->usable()) index_ = idx->tree.get();
  }

  const LogicalOp* source = scan_ != nullptr ? scan_ : boundary_;
  const bool source_pure = scan_ != nullptr || OutputKindPure(*boundary_);
  for (size_t i = 0; i < source->output.size(); ++i) {
    const TypeKind k = source->output[i].type.kind();
    const bool pure = scan_ != nullptr
                          ? scan_->table->ColumnKindPure(scan_->scan_columns[i])
                          : source_pure;
    source_lanes_.push_back(pure && ScalarColumnKind(k) ? TypedLane(k)
                                                        : LaneType{});
  }

  // Rewrite every stage's expressions against its child's layout
  // (slot id -> column position), once, shared read-only by workers,
  // and type each stage by the lanes it reads.
  std::vector<LaneType> lanes = source_lanes_;
  const LogicalOp* prev = source;
  for (const LogicalOp* node : nodes_) {
    const auto layout = Executor::LayoutOf(*prev);
    if (node->kind == LogicalOp::Kind::kAggregate) {
      agg_op_ = node;
      agg_in_lanes_ = lanes;
      std::vector<const BoundExpr*> read;
      bool typed = true;
      for (const auto& g : node->group_exprs) {
        RADB_ASSIGN_OR_RETURN(BoundExprPtr e, RewriteToPositions(*g, layout));
        typed = typed && TypedExpr(*e, lanes) &&
                ScalarColumnKind(e->type.kind());
        key_kinds_.push_back(e->type.kind());
        read.push_back(e.get());
        group_exprs_.push_back(std::move(e));
      }
      for (const AggCall& a : node->aggs) {
        if (a.is_count_star) {
          agg_args_.push_back(nullptr);
          continue;
        }
        RADB_ASSIGN_OR_RETURN(BoundExprPtr e,
                              RewriteToPositions(*a.arg, layout));
        typed = typed && TypedExpr(*e, lanes) && AggCallCapable(a);
        read.push_back(e.get());
        agg_args_.push_back(std::move(e));
      }
      agg_typed_ = typed;
      if (!typed) agg_refs_ = RefsOf(read);
      for (const AggCall& a : node->aggs) {
        specs_.push_back(SpecFor(a, typed));
        const AggSpec& spec = specs_.back();
        lane_growth_ |= (spec.op == AggSpec::Op::kMin ||
                         spec.op == AggSpec::Op::kMax) &&
                        spec.payload == TypeKind::kString;
      }
      group_charges_ = typed ? budgeted_ : x_.mem_.tracker != nullptr;
      break;  // the aggregate is always the chain head
    }
    StagePlan stage;
    stage.op = node;
    const auto& exprs = node->kind == LogicalOp::Kind::kFilter
                            ? node->predicates
                            : node->exprs;
    std::vector<const BoundExpr*> read;
    stage.typed = true;
    for (const auto& e : exprs) {
      RADB_ASSIGN_OR_RETURN(BoundExprPtr r, RewriteToPositions(*e, layout));
      stage.typed = stage.typed && TypedExpr(*r, lanes);
      read.push_back(r.get());
      stage.exprs.push_back(std::move(r));
    }
    if (!stage.typed) stage.refs = RefsOf(read);
    if (node->kind == LogicalOp::Kind::kProject) {
      // A per-lane Project still gives a typed lane to each output the
      // kernels could have computed: its values have the static kind.
      for (const BoundExprPtr& e : stage.exprs) {
        const TypeKind k = e->type.kind();
        stage.out.push_back(
            stage.typed || (TypedExpr(*e, lanes) && ScalarColumnKind(k))
                ? TypedLane(k)
                : LaneType{});
      }
      lanes = stage.out;
    }
    stages_.push_back(std::move(stage));
    prev = node;
  }
  return Status::OK();
}

void VectorizedPipeline::PrepareMetrics() {
  // Metrics entries, child-first like operator-at-a-time execution. All
  // entries are created before the parallel region (a later NewOp would
  // reallocate the vector), so indexes are stable.
  auto& ops = x_.metrics_->operators;
  if (scan_ != nullptr) {
    const Table& table = *scan_->table;
    OperatorMetrics* m = x_.NewOp(
        index_ == nullptr
            ? "Scan(" + table.name() + ")"
            : "IndexScan(" + table.name() + "." + scan_->index_name + ")",
        *scan_);
    m->rows_in = table.num_rows();
    m->vectorized = true;
    scan_metric_ = ops.size() - 1;
    if (index_ != nullptr) {
      // One probe; each row stays on the worker owning its partition
      // (the full scan's round-robin map).
      std::array<int64_t, storage::BTreeIndex::kMaxKeyColumns> lo, hi;
      lo.fill(INT64_MIN);
      hi.fill(INT64_MAX);
      for (size_t k = 0; k < index_->key_len() && k < scan_->index_lo.size();
           ++k) {
        lo[k] = scan_->index_lo[k];
        hi[k] = scan_->index_hi[k];
      }
      std::vector<storage::Rid> rids;
      index_->Range(lo.data(), hi.data(), &rids);
      m->rows_in = rids.size();
      rids_.resize(workers_);
      for (const storage::Rid& rid : rids) {
        rids_[rid.partition % workers_].push_back(rid);
      }
    }
  }
  for (StagePlan& stage : stages_) {
    OperatorMetrics* m = x_.NewOp(
        stage.op->kind == LogicalOp::Kind::kFilter ? "Filter" : "Project",
        *stage.op);
    m->vectorized = true;
    stage.metric = ops.size() - 1;
  }
  if (agg_op_ != nullptr) {
    OperatorMetrics* m1 = x_.NewOp("Aggregate(partial)", *agg_op_);
    m1->vectorized = true;
    agg_partial_metric_ = ops.size() - 1;
    OperatorMetrics* m2 = x_.NewOp("Aggregate(final)", *agg_op_);
    m2->vectorized = true;
    agg_final_metric_ = ops.size() - 1;
  }
}

void VectorizedPipeline::CompileCtx(WorkerCtx& ctx) {
  ctx.compiled = true;
  ctx.stage_vexprs.resize(stages_.size());
  ctx.stage_out.resize(stages_.size());
  for (size_t si = 0; si < stages_.size(); ++si) {
    const StagePlan& stage = stages_[si];
    if (!stage.typed) {
      ctx.stage_out[si].resize(stage.out.size());
      continue;
    }
    for (const auto& e : stage.exprs) {
      ctx.stage_vexprs[si].push_back(CompileVExpr(*e));
    }
  }
  if (agg_typed_) {
    for (const auto& g : group_exprs_) {
      ctx.group_vexprs.push_back(CompileVExpr(*g));
    }
    for (const auto& a : agg_args_) {
      ctx.agg_vexprs.push_back(a == nullptr ? nullptr : CompileVExpr(*a));
    }
  }
  if (agg_op_ != nullptr) StartPass(ctx.agg);
}

void VectorizedPipeline::StartPass(WorkerAgg& wa) {
  LocalAgg& agg = wa.passes.emplace_back();
  if (agg_typed_) {
    agg.table.Init(key_kinds_);
  } else {
    agg.table.InitRows();
  }
  agg.accs.resize(specs_.size());
  wa.admitting = true;
  wa.overflow = SpillableRowBuffer(x_.mem_);
}

void VectorizedPipeline::ResetIngestBatch(WorkerCtx& ctx,
                                          const std::vector<LaneType>& lanes) {
  ctx.batch.num_rows = 0;
  ctx.batch.columns.resize(lanes.size());
  for (size_t c = 0; c < lanes.size(); ++c) {
    ResetLane(ctx.batch.columns[c], lanes[c], 0);
  }
  ctx.batch_lanes = &lanes;
  ctx.batch_bytes = 0;
}

Status VectorizedPipeline::IngestRows(WorkerCtx& ctx, SpillableRowBuffer& buf,
                                      const std::vector<LaneType>& lanes,
                                      size_t first, double* seconds,
                                      const std::function<Status()>& flush) {
  ResetIngestBatch(ctx, lanes);
  RADB_RETURN_NOT_OK(
      buf.ForEachRow(nullptr, [&](const Row& row) -> Result<bool> {
        if (ctx.limit <= first) return false;
        const auto t0 = Clock::now();
        for (size_t c = 0; c < lanes.size(); ++c) {
          ctx.batch.columns[c].AppendValue(row[c]);
        }
        ++ctx.batch.num_rows;
        if (budgeted_) ctx.batch_bytes += RowByteSize(row);
        *seconds += Executor::SecondsSince(t0);
        if (BatchFull(ctx)) RADB_RETURN_NOT_OK(flush());
        return true;
      }));
  // The input stays charged until the last batch has run.
  RADB_RETURN_NOT_OK(flush());
  buf.Clear();
  return Status::OK();
}

Status VectorizedPipeline::FlushIngest(WorkerCtx& ctx, bool run_stages,
                                       StageTally* source) {
  if (ctx.batch.num_rows == 0) return Status::OK();
  // Cooperative cancellation once per batch: a scan's rows reach the
  // chain through no other poll.
  if (x_.mem_.cancel != nullptr) RADB_RETURN_NOT_OK(x_.mem_.cancel->Check());
  const auto t0 = Clock::now();
  size_t batch_bytes = 0;
  for (const ColumnVector& c : ctx.batch.columns) {
    batch_bytes += ColBytes(c, nullptr, ctx.batch.num_rows);
  }
  if (source != nullptr) {
    ++source->batches;
    source->rows_out += ctx.batch.num_rows;
    source->bytes_out += batch_bytes;
    source->seconds += Executor::SecondsSince(t0);
  }
  ProcessCharged(ctx, batch_bytes, run_stages);
  ResetIngestBatch(ctx, *ctx.batch_lanes);
  return Status::OK();
}

void VectorizedPipeline::ProcessCharged(WorkerCtx& ctx, size_t bytes,
                                        bool run_stages) {
  // The in-flight batch is a spillable-class charge that never fails
  // the query. Under a budget a batch closes once it reaches
  // batch_cap_ bytes, so the workers' batches together add about half
  // the budget at most (each can pass the cap by one row).
  mem::MemoryTracker* tracker = x_.mem_.tracker;
  if (tracker != nullptr) tracker->ForceReserve(bytes);
  ProcessBatch(ctx, run_stages);
  if (tracker != nullptr) tracker->Release(bytes);
}

bool VectorizedPipeline::BatchFull(const WorkerCtx& ctx) const {
  return ctx.batch.num_rows >= kBatchRows || ctx.batch_bytes >= batch_cap_;
}

size_t VectorizedPipeline::ScanBatchRows(WorkerCtx& ctx,
                                         const Table::SegmentPin& pin,
                                         size_t begin, size_t count) const {
  if (!budgeted_) return count;
  const ColumnBatch& batch = pin.batch();
  for (size_t n = 0; n < count; ++n) {
    for (size_t col : scan_->scan_columns) {
      ctx.batch_bytes += batch.columns[col].LaneBytes(begin + n);
    }
    if (ctx.batch_bytes >= batch_cap_) return n + 1;
  }
  return count;
}

void VectorizedPipeline::ScanIntoBatch(WorkerCtx& ctx,
                                       const Table::SegmentPin& pin,
                                       size_t begin, size_t count) const {
  const size_t end = begin + count;
  for (size_t c = 0; c < source_lanes_.size(); ++c) {
    ColumnVector& col = ctx.batch.columns[c];
    const ColumnVector& src = pin.batch().columns[scan_->scan_columns[c]];
    if (src.values == col.values && (src.values || src.kind == col.kind)) {
      col.AppendRange(src, begin, count);
    } else {
      for (size_t r = begin; r < end; ++r) col.AppendValue(src.GetValue(r));
    }
  }
  ctx.batch.num_rows += count;
}

Status VectorizedPipeline::ScanRun(WorkerCtx& ctx,
                                   const Table::SegmentPin& pin, size_t begin,
                                   size_t count) {
  StageTally& st = ctx.tally[0];
  for (const size_t end = begin + count; begin < end && ctx.limit > 1;) {
    const auto t0 = Clock::now();
    const size_t n = ScanBatchRows(
        ctx, pin, begin, std::min(kBatchRows - ctx.batch.num_rows, end - begin));
    ScanIntoBatch(ctx, pin, begin, n);
    begin += n;
    st.seconds += Executor::SecondsSince(t0);
    if (BatchFull(ctx)) RADB_RETURN_NOT_OK(FlushIngest(ctx, true, &st));
  }
  return Status::OK();
}

Status VectorizedPipeline::ScanIndexRows(WorkerCtx& ctx,
                                         std::vector<storage::Rid>& rids) {
  const Table& table = *scan_->table;
  StageTally& st = ctx.tally[0];
  auto t0 = Clock::now();
  std::sort(rids.begin(), rids.end(),
            [](const storage::Rid& a, const storage::Rid& b) {
              return a.partition != b.partition ? a.partition < b.partition
                                                : a.ordinal < b.ordinal;
            });
  // Sorted rids visit each segment once; keep the current one pinned.
  Table::SegmentPin pin;
  uint32_t pin_part = 0, pin_seg = 0;
  for (size_t i = 0; i < rids.size();) {
    const storage::Rid& rid = rids[i];
    RADB_ASSIGN_OR_RETURN(Table::RowLocation loc,
                          table.LocateRow(rid.partition, rid.ordinal));
    if (!pin || pin_part != rid.partition || pin_seg != loc.segment) {
      RADB_ASSIGN_OR_RETURN(pin, table.PinSegment(rid.partition, loc.segment));
      pin_part = rid.partition;
      pin_seg = loc.segment;
    }
    size_t n = 1;
    while (i + n < rids.size() && rids[i + n].partition == rid.partition &&
           rids[i + n].ordinal == rid.ordinal + n &&
           loc.offset + n < pin.num_rows()) {
      ++n;
    }
    st.seconds += Executor::SecondsSince(t0);
    RADB_RETURN_NOT_OK(ScanRun(ctx, pin, loc.offset, n));
    t0 = Clock::now();
    i += n;
  }
  st.seconds += Executor::SecondsSince(t0);
  return Status::OK();
}

void VectorizedPipeline::FillScratch(WorkerCtx& ctx,
                                     const std::vector<size_t>& refs,
                                     size_t l) {
  for (size_t p : refs) ctx.scratch[p] = ctx.cols[p]->GetValue(l);
}

Status VectorizedPipeline::RunStage(size_t si, WorkerCtx& ctx,
                                    const uint32_t** sel, size_t* live,
                                    size_t nrows, StageTally& t) {
  StagePlan& stage = stages_[si];
  t.rows_in += *live;
  ++t.batches;
  if (!stage.typed) ctx.scratch.resize(ctx.cols.size());
  if (stage.op->kind == LogicalOp::Kind::kFilter) {
    auto& vexprs = ctx.stage_vexprs[si];
    // Narrow into the selection buffer not currently referenced.
    auto next_buffer = [&]() -> std::vector<uint32_t>& {
      std::vector<uint32_t>& next =
          (!ctx.sel_a.empty() && *sel == ctx.sel_a.data()) ? ctx.sel_b
                                                           : ctx.sel_a;
      next.clear();
      return next;
    };
    if (stage.typed) {
      for (size_t p = 0; p < vexprs.size() && *live > 0; ++p) {
        RADB_ASSIGN_OR_RETURN(
            const ColumnVector* pred,
            EvalV(*vexprs[p], ctx.cols, *sel, *live, nrows));
        std::vector<uint32_t>& next = next_buffer();
        const uint8_t* pn = pred->null.data();
        const int64_t* pv = pred->i64.data();
        ForLanes(*sel, *live, [&](size_t l) {
          if (!pn[l] && pv[l] != 0) next.push_back(static_cast<uint32_t>(l));
        });
        *sel = next.data();
        *live = next.size();
      }
    } else {
      std::vector<uint32_t>& next = next_buffer();
      for (size_t j = 0; j < *live; ++j) {
        const size_t l = *sel ? (*sel)[j] : j;
        FillScratch(ctx, stage.refs, l);
        bool keep = true;
        for (const BoundExprPtr& p : stage.exprs) {
          RADB_ASSIGN_OR_RETURN(Value v, EvalExpr(*p, ctx.scratch));
          if (v.is_null() || !v.bool_value()) {
            keep = false;
            break;
          }
        }
        if (keep) next.push_back(static_cast<uint32_t>(l));
      }
      *sel = next.data();
      *live = next.size();
    }
  } else if (stage.typed) {  // kProject
    std::vector<const ColumnVector*> out_cols;
    out_cols.reserve(stage.exprs.size());
    for (auto& ve : ctx.stage_vexprs[si]) {
      RADB_ASSIGN_OR_RETURN(const ColumnVector* c,
                            EvalV(*ve, ctx.cols, *sel, *live, nrows));
      out_cols.push_back(c);
    }
    ctx.cols = std::move(out_cols);
  } else {
    std::vector<ColumnVector>& out = ctx.stage_out[si];
    for (size_t k = 0; k < out.size(); ++k) {
      ResetLane(out[k], stage.out[k], nrows);
    }
    for (size_t j = 0; j < *live; ++j) {
      const size_t l = *sel ? (*sel)[j] : j;
      FillScratch(ctx, stage.refs, l);
      for (size_t k = 0; k < out.size(); ++k) {
        RADB_ASSIGN_OR_RETURN(Value v, EvalExpr(*stage.exprs[k], ctx.scratch));
        out[k].SetValue(l, std::move(v));
      }
    }
    ctx.cols.clear();
    for (const ColumnVector& c : out) ctx.cols.push_back(&c);
  }
  t.rows_out += *live;
  for (const ColumnVector* c : ctx.cols) t.bytes_out += ColBytes(*c, *sel, *live);
  return Status::OK();
}

void VectorizedPipeline::ProcessBatch(WorkerCtx& ctx, bool run_stages) {
  if (!ctx.compiled) CompileCtx(ctx);
  ColumnBatch& batch = ctx.batch;
  const size_t nrows = batch.num_rows;
  ctx.cols.clear();
  for (const ColumnVector& c : batch.columns) ctx.cols.push_back(&c);
  const uint32_t* sel = nullptr;
  size_t live = nrows;

  // Middle stages: filters narrow the selection, projects swap the
  // visible column array for their outputs. (An overflow pass re-reads
  // rows that already passed them.)
  for (size_t si = 0; run_stages && si < stages_.size(); ++si) {
    if (si + 1 >= ctx.limit) return;
    StageTally& t = ctx.tally[si + 1];
    const auto t0 = Clock::now();
    Status s = RunStage(si, ctx, &sel, &live, nrows, t);
    t.seconds += Executor::SecondsSince(t0);
    if (!s.ok()) {
      ctx.limit = si + 1;
      ctx.failure = std::move(s);
      return;
    }
    if (live == 0) return;
  }

  if (HeadStage() >= ctx.limit) return;
  StageTally& t = ctx.tally[HeadStage()];
  const auto t0 = Clock::now();
  Status s = Status::OK();
  if (agg_op_ != nullptr) {
    if (ctx.agg.passes.size() == 1) t.rows_in += live;  // not overflow re-reads
    ++t.batches;
    s = agg_typed_ ? TypedAggregate(ctx, sel, live, nrows)
                   : PerLaneAggregate(ctx, sel, live);
  } else {
    // Sink: late materialization back into rows.
    for (size_t j = 0; j < live && s.ok(); ++j) {
      const size_t l = sel ? sel[j] : j;
      Row row;
      row.reserve(ctx.cols.size());
      for (const ColumnVector* c : ctx.cols) row.push_back(c->GetValue(l));
      s = ctx.out->Append(std::move(row));
    }
  }
  t.seconds += Executor::SecondsSince(t0);
  if (!s.ok()) {
    ctx.limit = HeadStage();
    ctx.failure = std::move(s);
  }
}

Status VectorizedPipeline::TypedAggregate(WorkerCtx& ctx, const uint32_t* sel,
                                          size_t live, size_t nrows) {
  // Group keys -> hashes -> dense group ids for every live lane.
  ctx.keycols.clear();
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    RADB_ASSIGN_OR_RETURN(
        const ColumnVector* k,
        EvalV(*ctx.group_vexprs[i], ctx.cols, sel, live, nrows));
    ctx.keycols.push_back(k);
  }
  if (budgeted_) return AdmitLanes(ctx, sel, live, nrows);
  LocalAgg* agg = &ctx.agg.passes.back();
  ctx.gids.resize(live);
  if (group_exprs_.empty()) {
    // Scalar aggregate: one keyless group (created lazily so a worker
    // that sees no rows stays empty).
    if (agg->table.size() == 0) {
      agg->table.hashes.push_back(kHashSeed);
      for (size_t k = 0; k < specs_.size(); ++k) {
        AddGroup(specs_[k], agg->accs[k]);
      }
      agg->state_bytes += Executor::GroupAdmissionBytes(0);
    }
    std::fill(ctx.gids.begin(), ctx.gids.end(), 0u);
  } else {
    ctx.hash_buf.resize(live);
    for (size_t j = 0; j < live; ++j) {
      const size_t l = sel ? sel[j] : j;
      ctx.hash_buf[j] = KeyHashLanes(ctx.keycols, l);
    }
    for (size_t j = 0; j < live; ++j) {
      const size_t l = sel ? sel[j] : j;
      bool inserted = false;
      const uint32_t g =
          agg->table.Upsert(ctx.keycols, l, ctx.hash_buf[j], &inserted);
      if (inserted) {
        for (size_t k = 0; k < specs_.size(); ++k) {
          AddGroup(specs_[k], agg->accs[k]);
        }
        agg->state_bytes +=
            Executor::GroupAdmissionBytes(agg->table.KeyBytes(g));
      }
      ctx.gids[j] = g;
    }
  }
  for (size_t k = 0; k < specs_.size(); ++k) {
    const ColumnVector* arg = nullptr;
    if (agg_args_[k] != nullptr) {
      RADB_ASSIGN_OR_RETURN(
          arg, EvalV(*ctx.agg_vexprs[k], ctx.cols, sel, live, nrows));
    }
    UpdateAgg(specs_[k], agg->accs[k], arg, sel, live, ctx.gids.data());
  }
  if (agg_mem_ != nullptr && agg->state_bytes > agg->charged) {
    RADB_RETURN_NOT_OK(agg_mem_->Reserve(agg->state_bytes - agg->charged));
    agg->charged = agg->state_bytes;
  }
  return Status::OK();
}

Status VectorizedPipeline::PerLaneAggregate(WorkerCtx& ctx,
                                            const uint32_t* sel, size_t live) {
  // Per row: the group key, then (for a new group) admission, then the
  // arguments folded in, then the growth of the group's state charged.
  // A new group is charged GroupAdmissionBytes — hard for the first
  // group of a pass (so every pass makes progress or fails),
  // tentatively after that — and after a refusal the pass admits no
  // more groups: the rows of unadmitted groups go to the overflow.
  WorkerAgg& wa = ctx.agg;
  LocalAgg& agg = wa.passes.back();
  ctx.scratch.resize(ctx.cols.size());
  for (size_t j = 0; j < live; ++j) {
    const size_t l = sel ? sel[j] : j;
    FillScratch(ctx, agg_refs_, l);
    Row values;
    values.reserve(group_exprs_.size());
    for (const BoundExprPtr& e : group_exprs_) {
      RADB_ASSIGN_OR_RETURN(Value v, EvalExpr(*e, ctx.scratch));
      values.push_back(std::move(v));
    }
    KeyRow key = KeyRow::Of(std::move(values));
    std::optional<uint32_t> g = agg.table.FindRow(key);
    if (!g.has_value()) {
      const size_t admit =
          Executor::GroupAdmissionBytes(RowByteSize(key.values));
      if (agg_mem_ != nullptr) {
        if (agg.table.size() == 0) {
          RADB_RETURN_NOT_OK(agg_mem_->Reserve(admit));
        } else if (!wa.admitting || !agg_mem_->TryReserve(admit)) {
          wa.admitting = false;
          RADB_RETURN_NOT_OK(Overflow(ctx, l));
          continue;
        }
      }
      g = agg.table.InsertRow(std::move(key));
      for (size_t k = 0; k < specs_.size(); ++k) {
        AddGroup(specs_[k], agg.accs[k]);
      }
      agg.base.push_back(admit);
      agg.group_charged.push_back(admit);
    }
    for (size_t k = 0; k < specs_.size(); ++k) {
      Value v = Value::Int(1);  // COUNT(*)
      if (agg_args_[k] != nullptr) {
        RADB_ASSIGN_OR_RETURN(v, EvalExpr(*agg_args_[k], ctx.scratch));
      }
      RADB_RETURN_NOT_OK(agg.accs[k].row[*g]->Update(v));
    }
    if (agg_mem_ != nullptr) {
      // Accumulator growth (e.g. a Gram-matrix SUM state) is
      // unspillable: reserve hard or fail the query.
      const size_t grown = ChargeGrowth(agg, *g);
      if (grown > 0) RADB_RETURN_NOT_OK(agg_mem_->Reserve(grown));
    }
  }
  return Status::OK();
}

Status VectorizedPipeline::RunWorker(size_t wkr, WorkerCtx& ctx) {
  if (scan_ != nullptr) {
    // Once a chain stage has failed the scan only finishes its input
    // (ScanRun copies nothing more), as it would before its consumer
    // ran, so the scan's own errors still come first.
    ResetIngestBatch(ctx, source_lanes_);
    if (index_ != nullptr) {
      // Runs pack into batches across segments and partitions.
      RADB_RETURN_NOT_OK(ScanIndexRows(ctx, rids_[wkr]));
      RADB_RETURN_NOT_OK(FlushIngest(ctx, true, &ctx.tally[0]));
    } else {
      const Table& table = *scan_->table;
      for (size_t p = wkr; p < table.num_partitions(); p += workers_) {
        const size_t nsegs = table.NumSegments(p);
        for (size_t seg = 0; seg < nsegs; ++seg) {
          // A buffer-pool miss reads and decodes the segment here, so
          // the pin is the scan's time too.
          const auto pinned = Clock::now();
          RADB_ASSIGN_OR_RETURN(Table::SegmentPin pin,
                                table.PinSegment(p, seg));
          ctx.tally[0].seconds += Executor::SecondsSince(pinned);
          RADB_RETURN_NOT_OK(ScanRun(ctx, pin, 0, pin.num_rows()));
          // A batch never spans two segments.
          RADB_RETURN_NOT_OK(FlushIngest(ctx, true, &ctx.tally[0]));
        }
      }
    }
  } else {
    // Boundary source: drain the boundary's buffer for this worker
    // (replayed from disk if it spilled under a budget).
    RADB_RETURN_NOT_OK(IngestRows(ctx, boundary_res_.dist[wkr], source_lanes_,
                                  /*first=*/1, &ctx.tally[0].seconds,
                                  [&] { return FlushIngest(ctx); }));
  }

  // Further admission passes (a pass may refuse groups when the query
  // is tracked): each re-aggregates the previous pass's overflow rows,
  // in order, through the aggregate stage alone.
  WorkerAgg& wa = ctx.agg;
  while (!wa.overflow.empty()) {
    SpillableRowBuffer carried = std::move(wa.overflow);
    StartPass(wa);
    Status s = IngestRows(ctx, carried, agg_in_lanes_, HeadStage(),
                          &ctx.tally[HeadStage()].seconds, [&] {
                            return FlushIngest(ctx, /*run_stages=*/false);
                          });
    wa.spill_bytes += carried.spill_bytes();
    wa.spill_runs += carried.spill_runs();
    RADB_RETURN_NOT_OK(s);
  }
  return Status::OK();
}

Status VectorizedPipeline::AdmitLanes(WorkerCtx& ctx, const uint32_t* sel,
                                      size_t live, size_t nrows) {
  // PerLaneAggregate's admission rules over typed key lanes. Admitted
  // lanes are folded in runs between admissions, so each admission
  // check sees every earlier lane's growth charged, as row by row.
  WorkerAgg& wa = ctx.agg;
  LocalAgg& agg = wa.passes.back();
  ctx.adm_sel.clear();
  ctx.adm_gids.clear();
  for (size_t j = 0; j < live; ++j) {
    const size_t l = sel ? sel[j] : j;
    const size_t hash =
        group_exprs_.empty() ? kHashSeed : KeyHashLanes(ctx.keycols, l);
    std::optional<uint32_t> g = agg.table.Find(ctx.keycols, l, hash);
    if (!g.has_value()) {
      if (!wa.admitting) {
        RADB_RETURN_NOT_OK(Overflow(ctx, l));
        continue;
      }
      RADB_RETURN_NOT_OK(FoldAdmitted(ctx, agg, nrows));
      size_t key_bytes = 0;
      for (const ColumnVector* k : ctx.keycols) key_bytes += k->LaneBytes(l);
      const size_t admit = Executor::GroupAdmissionBytes(key_bytes);
      if (agg.table.size() == 0) {
        RADB_RETURN_NOT_OK(agg_mem_->Reserve(admit));
      } else if (!agg_mem_->TryReserve(admit)) {
        wa.admitting = false;
        RADB_RETURN_NOT_OK(Overflow(ctx, l));
        continue;
      }
      g = agg.table.Insert(ctx.keycols, l, hash);
      for (size_t k = 0; k < specs_.size(); ++k) {
        AddGroup(specs_[k], agg.accs[k]);
      }
      agg.base.push_back(admit);
      agg.group_charged.push_back(admit);
    }
    ctx.adm_sel.push_back(static_cast<uint32_t>(l));
    ctx.adm_gids.push_back(*g);
  }
  return FoldAdmitted(ctx, agg, nrows);
}

Status VectorizedPipeline::FoldAdmitted(WorkerCtx& ctx, LocalAgg& agg,
                                        size_t nrows) {
  const size_t n = ctx.adm_sel.size();
  if (n == 0) return Status::OK();
  const uint32_t* sel = ctx.adm_sel.data();
  const uint32_t* gids = ctx.adm_gids.data();
  // Arguments of admitted lanes only: a refused row's arguments are
  // never evaluated in the pass that refused it.
  ctx.args.assign(specs_.size(), nullptr);
  for (size_t k = 0; k < specs_.size(); ++k) {
    if (agg_args_[k] != nullptr) {
      RADB_ASSIGN_OR_RETURN(
          ctx.args[k], EvalV(*ctx.agg_vexprs[k], ctx.cols, sel, n, nrows));
    }
  }
  // A group's charge is raised after every row. Scalar states only
  // grow, so charging after the whole run adds the same bytes; a string
  // MIN/MAX can shrink again, so it folds one lane at a time to charge
  // the same high-water mark.
  const size_t step = lane_growth_ ? 1 : n;
  size_t grown = 0;
  for (size_t i = 0; i < n; i += step) {
    const size_t m = std::min(step, n - i);
    for (size_t k = 0; k < specs_.size(); ++k) {
      UpdateAgg(specs_[k], agg.accs[k], ctx.args[k], sel + i, m, gids + i);
    }
    for (size_t j = i; j < i + m; ++j) grown += ChargeGrowth(agg, gids[j]);
  }
  ctx.adm_sel.clear();
  ctx.adm_gids.clear();
  // Accumulator growth is unspillable: reserve hard or fail the query.
  return grown > 0 ? agg_mem_->Reserve(grown) : Status::OK();
}

size_t VectorizedPipeline::ChargeGrowth(LocalAgg& agg, size_t g) const {
  size_t needed = agg.base[g];
  for (size_t k = 0; k < specs_.size(); ++k) {
    needed += AccStateBytes(specs_[k], agg.accs[k], g);
  }
  if (needed <= agg.group_charged[g]) return 0;
  const size_t grown = needed - agg.group_charged[g];
  agg.group_charged[g] = needed;
  return grown;
}

Status VectorizedPipeline::Overflow(WorkerCtx& ctx, size_t lane) {
  Row row;
  row.reserve(ctx.cols.size());
  for (const ColumnVector* c : ctx.cols) row.push_back(c->GetValue(lane));
  return ctx.agg.overflow.Append(std::move(row));
}

/// The Executor::JoinBatchSink a pipeline hands its boundary join when
/// the query has no memory budget: joined pairs land directly in
/// per-worker column lanes, and full batches run through the chain
/// inside the join's worker loop — neither the joined Row nor the
/// join's output distribution is ever materialized. Lane-append
/// time stays attributed to the join (it replaces the row
/// materialization the join no longer does); chain-processing seconds
/// accumulate in the workers' tallies and Run() moves them off the
/// join's metric afterwards. A failing chain stage does not stop the
/// join: it runs to its end, so its own errors come first.
class VectorizedPipeline::JoinIngest : public Executor::JoinBatchSink {
 public:
  JoinIngest(VectorizedPipeline& p, std::vector<WorkerCtx>& ctxs)
      : p_(p), ctxs_(ctxs), rows_(ctxs.size(), 0), bytes_(ctxs.size(), 0) {}

  Status AppendPair(size_t wkr, const Row& left, const Row& right) override {
    ColumnBatch& batch = ctxs_[wkr].batch;
    if (ctxs_[wkr].limit <= 1) return Status::OK();
    size_t c = 0;
    for (const Value& v : left) batch.columns[c++].AppendValue(v);
    for (const Value& v : right) batch.columns[c++].AppendValue(v);
    return Appended(wkr);
  }

  Status AppendRow(size_t wkr, Row joined) override {
    ColumnBatch& batch = ctxs_[wkr].batch;
    if (ctxs_[wkr].limit <= 1) return Status::OK();
    for (size_t c = 0; c < joined.size(); ++c) {
      batch.columns[c].AppendValue(joined[c]);
    }
    return Appended(wkr);
  }

  /// Also called for the per-worker remainders after the join returns.
  Status Flush(size_t wkr) {
    WorkerCtx& ctx = ctxs_[wkr];
    if (ctx.batch.num_rows == 0) return Status::OK();
    for (const ColumnVector& c : ctx.batch.columns) {
      bytes_[wkr] += ColBytes(c, nullptr, ctx.batch.num_rows);
    }
    return p_.FlushIngest(ctx);
  }

  size_t rows(size_t wkr) const { return rows_[wkr]; }
  size_t bytes(size_t wkr) const { return bytes_[wkr]; }

 private:
  Status Appended(size_t wkr) {
    ++rows_[wkr];
    return ++ctxs_[wkr].batch.num_rows >= kBatchRows ? Flush(wkr)
                                                      : Status::OK();
  }

  VectorizedPipeline& p_;
  std::vector<WorkerCtx>& ctxs_;
  std::vector<size_t> rows_, bytes_;  // per-worker streamed totals
};

std::optional<size_t> VectorizedPipeline::PropagateHashedSlot() const {
  std::optional<size_t> hashed =
      scan_ != nullptr ? ScanHashedSlot(*scan_, workers_)
                       : boundary_res_.hashed_slot;
  for (const LogicalOp* node : nodes_) {
    if (node->kind == LogicalOp::Kind::kAggregate) return std::nullopt;
    if (node->kind == LogicalOp::Kind::kFilter) continue;  // placement kept
    // kProject: survives only through an identity column reference.
    std::optional<size_t> next;
    if (hashed.has_value()) {
      for (size_t i = 0; i < node->exprs.size(); ++i) {
        const BoundExpr& e = *node->exprs[i];
        if (e.kind == BoundExpr::Kind::kColumnRef && e.slot == *hashed) {
          next = node->output[i].slot;
        }
      }
    }
    hashed = next;
  }
  return hashed;
}

Result<ExecResult> VectorizedPipeline::Run() {
  // A boundary join is consumed in-line: the pipeline hands the join
  // a JoinIngest sink so it streams its pairs straight into column
  // batches instead of materializing rows we would only re-read (the
  // dominant cost of high-fanout joins like the paper's tuple-coded
  // Gram self-join). Any other boundary executes first, exactly as it
  // would below any operator (its metrics precede the chain's). A
  // spooled join must materialize: its held rows serve later copies.
  // So must every join under a budget: the join's build state is
  // released before group state is admitted, and its output spills
  // instead of holding the budget.
  const bool join_inline = !budgeted_ && boundary_ != nullptr &&
                           boundary_->kind == LogicalOp::Kind::kJoin &&
                           boundary_->spool_id == 0;
  if (boundary_ != nullptr && !join_inline) {
    RADB_ASSIGN_OR_RETURN(boundary_res_, x_.ExecuteOp(*boundary_));
  }
  RADB_RETURN_NOT_OK(PreparePlan());

  const size_t w = workers_;

  // Unspillable aggregate state charges a child tracker (whatever is
  // still charged is released on scope exit).
  std::optional<mem::MemoryTracker> agg_tracker;
  if (agg_op_ != nullptr && x_.mem_.tracker != nullptr) {
    agg_tracker.emplace("Aggregate state", x_.mem_.tracker);
    agg_mem_ = &*agg_tracker;
  }

  SpillableDist out = x_.NewDist(w);
  std::vector<WorkerCtx> ctxs(w);
  for (size_t wkr = 0; wkr < w; ++wkr) {
    ctxs[wkr].tally.resize(HeadStage() + 1);
    ctxs[wkr].out = &out[wkr];
  }

  if (join_inline) {
    for (WorkerCtx& ctx : ctxs) ResetIngestBatch(ctx, source_lanes_);
    JoinIngest ingest(*this, ctxs);
    RADB_ASSIGN_OR_RETURN(boundary_res_, x_.ExecuteOp(*boundary_, &ingest));
    // Chain-processing seconds recorded inside the join's timed
    // worker loops belong to the pipeline's stages, not the join;
    // move them off its metric (lane appends stay — they replace the
    // row materialization the join no longer pays for). Then flush
    // the per-worker remainders, outside the join's clock, and credit
    // the join with the output it streamed.
    const std::vector<size_t>* ids = x_.MetricsForNode(boundary_);
    OperatorMetrics* mj =
        ids != nullptr ? &x_.metrics_->operators[ids->back()] : nullptr;
    for (size_t wkr = 0; wkr < w; ++wkr) {
      if (mj != nullptr) {
        double chain = 0.0;
        for (const StageTally& t : ctxs[wkr].tally) chain += t.seconds;
        mj->worker_seconds[wkr] =
            std::max(0.0, mj->worker_seconds[wkr] - chain);
      }
      RADB_RETURN_NOT_OK(ingest.Flush(wkr));
      if (mj != nullptr) {
        mj->rows_out += ingest.rows(wkr);
        mj->bytes_out += ingest.bytes(wkr);
      }
    }
    PrepareMetrics();
  } else {
    PrepareMetrics();
    if (budgeted_ && agg_op_ != nullptr && boundary_ != nullptr) {
      // Group state may approach the input's size, so if that much of
      // the budget is not free, the resident input goes to disk first
      // and streams back.
      RADB_RETURN_NOT_OK(Executor::MakeHeadroom(
          x_.mem_, SpillDistByteSize(boundary_res_.dist),
          {&boundary_res_.dist}));
    }
    RADB_RETURN_NOT_OK(x_.ForEachWorker(
        w, [&](size_t wkr) -> Status { return RunWorker(wkr, ctxs[wkr]); }));
  }
  // The earliest failing stage's error, from its lowest worker.
  const WorkerCtx* failed = nullptr;
  for (const WorkerCtx& ctx : ctxs) {
    if (ctx.limit < (failed != nullptr ? failed->limit
                                       : std::numeric_limits<size_t>::max())) {
      failed = &ctx;
    }
  }
  if (failed != nullptr) return failed->failure;

  // Fold per-worker tallies into the shared metrics entries.
  auto& ops = x_.metrics_->operators;
  auto fold = [&](OperatorMetrics& m, size_t slot, bool rows_in) {
    for (size_t wkr = 0; wkr < w; ++wkr) {
      const StageTally& t = ctxs[wkr].tally[slot];
      if (rows_in) m.rows_in += t.rows_in;
      m.rows_out += t.rows_out;
      m.bytes_out += t.bytes_out;
      m.batches += t.batches;
      m.worker_seconds[wkr] += t.seconds;
    }
  };
  // Ingesting a boundary's rows is the first chain operator's work.
  OperatorMetrics& first =
      ops[scan_ != nullptr        ? scan_metric_
          : !stages_.empty()      ? stages_.front().metric
                                  : agg_partial_metric_];
  fold(first, 0, /*rows_in=*/false);
  for (size_t si = 0; si < stages_.size(); ++si) {
    fold(ops[stages_[si].metric], si + 1, /*rows_in=*/true);
  }
  if (agg_op_ == nullptr) {
    // The sink (late materialization) rides on the chain head's
    // metrics entry: the last Filter/Project, or a bare scan's own.
    OperatorMetrics& mhead =
        ops[stages_.empty() ? scan_metric_ : stages_.back().metric];
    for (size_t wkr = 0; wkr < w; ++wkr) {
      mhead.worker_seconds[wkr] += ctxs[wkr].tally[HeadStage()].seconds;
    }
    Executor::CollectSpill(&mhead, out);
    return ExecResult{std::move(out), PropagateHashedSlot()};
  }

  // ---- Aggregate phases 2 + 3: src-major merge, then emission ----
  {
    OperatorMetrics& m1 = ops[agg_partial_metric_];
    size_t partial_groups = 0;
    for (size_t wkr = 0; wkr < w; ++wkr) {
      const WorkerAgg& wa = ctxs[wkr].agg;
      for (const LocalAgg& pass : wa.passes) partial_groups += pass.table.size();
      m1.bytes_spilled += wa.spill_bytes;
      m1.spill_runs += wa.spill_runs;
      const StageTally& t = ctxs[wkr].tally[HeadStage()];
      m1.rows_in += t.rows_in;
      m1.batches += t.batches;
      m1.worker_seconds[wkr] += t.seconds;
    }
    m1.rows_out = partial_groups;
    OperatorMetrics& m2 = ops[agg_final_metric_];
    m2.rows_in = partial_groups;
    m2.batches = m1.batches;
  }

  // Charged groups keep their charges into the final states: a group's
  // first partial state carries its charge over, growth from a merge
  // reserves hard, and each merged-away partial state is released. A
  // per-lane group's first partial state is moved, not merged.
  std::vector<LocalAgg> finals(w);
  std::vector<size_t> shuffle_bytes(w, 0), shuffle_rows(w, 0);
  std::vector<double> merge_secs(w, 0.0);
  RADB_RETURN_NOT_OK(x_.ForEachWorker(w, [&](size_t dst) -> Status {
    const auto t0 = Clock::now();
    LocalAgg& fin = finals[dst];
    if (agg_typed_) {
      fin.table.Init(key_kinds_);
    } else {
      fin.table.InitRows();
    }
    fin.accs.resize(specs_.size());
    std::vector<const ColumnVector*> kc(key_kinds_.size());
    // Sources, then each source's passes, in index order.
    for (size_t src = 0; src < w; ++src) {
      for (LocalAgg& pa : ctxs[src].agg.passes) {
        if (agg_typed_) {
          for (size_t i = 0; i < key_kinds_.size(); ++i) {
            kc[i] = &pa.table.keys[i];
          }
        }
        RADB_RETURN_NOT_OK(pa.table.ForEachGroup([&](uint32_t g) -> Status {
          const size_t hash = pa.table.hashes[g];
          const size_t owner =
              group_exprs_.empty() ? 0 : x_.cluster_.WorkerForHash(hash);
          if (owner != dst) return Status::OK();
          if (dst != src) {
            size_t state_bytes = pa.table.KeyBytes(g);
            for (size_t k = 0; k < specs_.size(); ++k) {
              state_bytes += AccStateBytes(specs_[k], pa.accs[k], g);
            }
            shuffle_bytes[dst] += state_bytes;
            ++shuffle_rows[dst];
          }
          bool inserted = false;
          uint32_t fg = 0;
          if (agg_typed_) {
            fg = fin.table.Upsert(kc, g, hash, &inserted);
          } else if (std::optional<uint32_t> found =
                         fin.table.FindRow(*pa.table.row_keys[g])) {
            fg = *found;
          } else {
            fg = fin.table.InsertRow(*pa.table.row_keys[g]);
            inserted = true;
          }
          for (size_t k = 0; k < specs_.size(); ++k) {
            if (!inserted) {
              RADB_RETURN_NOT_OK(
                  MergeAgg(specs_[k], fin.accs[k], fg, pa.accs[k], g));
            } else if (specs_[k].op == AggSpec::Op::kRow) {
              fin.accs[k].row.push_back(std::move(pa.accs[k].row[g]));
            } else {
              AddGroup(specs_[k], fin.accs[k]);
              RADB_RETURN_NOT_OK(
                  MergeAgg(specs_[k], fin.accs[k], fg, pa.accs[k], g));
            }
          }
          if (!group_charges_) return Status::OK();
          if (inserted) {
            fin.base.push_back(pa.base[g]);
            fin.group_charged.push_back(pa.group_charged[g]);
          } else {
            const size_t grown = ChargeGrowth(fin, fg);
            if (grown > 0) RADB_RETURN_NOT_OK(agg_mem_->Reserve(grown));
            agg_mem_->Release(pa.group_charged[g]);
          }
          return Status::OK();
        }));
      }
    }
    merge_secs[dst] += Executor::SecondsSince(t0);
    return Status::OK();
  }));
  ctxs.clear();

  // Emission in the final table's group order, releasing each group's
  // charge as its row is emitted.
  std::vector<double> emit_secs(w, 0.0);
  RADB_RETURN_NOT_OK(x_.ForEachWorker(w, [&](size_t wkr) -> Status {
    const auto t0 = Clock::now();
    LocalAgg& fin = finals[wkr];
    RADB_RETURN_NOT_OK(fin.table.ForEachGroup([&](uint32_t g) -> Status {
      Row row = fin.table.KeyValues(g);
      row.reserve(key_kinds_.size() + specs_.size());
      for (size_t k = 0; k < specs_.size(); ++k) {
        RADB_ASSIGN_OR_RETURN(Value v,
                              FinalizeAgg(specs_[k], fin.accs[k], g));
        row.push_back(std::move(v));
      }
      RADB_RETURN_NOT_OK(out[wkr].Append(std::move(row)));
      if (group_charges_) agg_mem_->Release(fin.group_charged[g]);
      return Status::OK();
    }));
    emit_secs[wkr] += Executor::SecondsSince(t0);
    return Status::OK();
  }));

  // A scalar aggregate over zero rows still yields one row (SQL
  // semantics: COUNT() = 0, SUM() = NULL).
  if (group_exprs_.empty() && SpillDistRowCount(out) == 0) {
    Row row;
    for (const AggCall& a : agg_op_->aggs) {
      auto aggr = a.fn->make();
      RADB_ASSIGN_OR_RETURN(Value v, aggr->Finalize());
      row.push_back(std::move(v));
    }
    RADB_RETURN_NOT_OK(out[0].Append(std::move(row)));
  }

  OperatorMetrics& m2 = ops[agg_final_metric_];
  for (size_t wkr = 0; wkr < w; ++wkr) {
    m2.bytes_shuffled += shuffle_bytes[wkr];
    m2.rows_shuffled += shuffle_rows[wkr];
    m2.worker_seconds[wkr] += merge_secs[wkr] + emit_secs[wkr];
  }
  m2.rows_out = SpillDistRowCount(out);
  m2.bytes_out = SpillDistByteSize(out);
  Executor::CollectSpill(&m2, out);

  return ExecResult{std::move(out), std::nullopt};
}

// ---------------------------------------------------------------------------
// Chain stitching
// ---------------------------------------------------------------------------

Result<ExecResult> Executor::ExecutePipeline(const LogicalOp& op) {
  std::vector<const LogicalOp*> nodes;  // collected top-down
  const LogicalOp* boundary = nullptr;
  const LogicalOp* cur = &op;
  while (cur->kind != LogicalOp::Kind::kScan) {
    nodes.push_back(cur);
    const LogicalOp* child = cur->children[0].get();
    // A spooled node bounds the chain: it must pass through ExecuteOp,
    // which holds or serves its result.
    if (child->kind != LogicalOp::Kind::kScan &&
        (child->spool_id != 0 || (child->kind != LogicalOp::Kind::kFilter &&
                                  child->kind != LogicalOp::Kind::kProject))) {
      boundary = child;  // executed as an operator of its own
      break;
    }
    cur = child;
  }
  const LogicalOp* scan = boundary == nullptr ? cur : nullptr;
  std::reverse(nodes.begin(), nodes.end());  // bottom-up
  return VectorizedPipeline(*this, std::move(nodes), scan, boundary).Run();
}

}  // namespace radb
