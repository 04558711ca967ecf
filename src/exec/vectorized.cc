// Columnar batch-at-a-time execution (the vectorized engine).
//
// Executor::TryVectorized stitches a maximal chain of batch-capable
// plan nodes — an optional in-chain Scan source, Filter/Project
// middles, an optional Aggregate head — and executes the whole chain
// over typed ColumnBatches: ~batch_rows lanes per batch, a selection
// vector instead of row copies for filters, and tight per-column
// kernels instead of per-row Value dispatch. Late materialization:
// rows are rebuilt only at the pipeline sink (result buffers) or in
// the typed hash aggregate's emitted groups.
//
// Bit-identity with the row engine is a hard requirement (the
// differential fuzzer cross-checks every query on both engines), so
// every kernel replicates the row engine's exact semantics:
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
//    accumulator (signed overflow wraps just like the row engine's
//    int64 adds; -0.0 survives as a first value),
//  - aggregate merge walks sources in index order (src-major), and
//    within a source its admission passes, the same sequence as the
//    row engine's phase 2, so floating-point results are independent
//    of the thread count and the budget,
//  - under a memory budget, groups are admitted, charged and refused
//    by the row engine's rules (AdmitLanes), so at one thread both
//    engines succeed or fail alike.
//
// The optimizer only marks a node batch_capable when its inputs are
// runtime-kind pure (see AnnotateBatchCapability), so a column's
// non-null lanes all carry the column's static kind and the typed
// kernels are sound.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "exec/expr_eval.h"
#include "types/column.h"

namespace radb {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Hash constants mirroring Value::Hash / HashRow (exec/row_key.h):
// group placement (hash % workers) must agree with the row engine so
// shuffle metrics and merge order match.
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

// Wrapping int64 arithmetic: same bit results as the row engine's
// plain signed ops on overflow, without the UB (and safe to run
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
      if (ak == TypeKind::kString) {
        const std::string* av = a->str.data();
        const std::string* bv = b->str.data();
        switch (s.compare_op) {
          case CompareOp::kEq:
            ForLanes(sel, n, [&](size_t l) {
              on[l] = an[l] | bn[l];
              ov[l] = (av[l] == bv[l]);
            });
            break;
          case CompareOp::kNe:
            ForLanes(sel, n, [&](size_t l) {
              on[l] = an[l] | bn[l];
              ov[l] = (av[l] != bv[l]);
            });
            break;
          case CompareOp::kLt:
            ForLanes(sel, n, [&](size_t l) {
              on[l] = an[l] | bn[l];
              ov[l] = (av[l] < bv[l]);
            });
            break;
          case CompareOp::kLe:
            ForLanes(sel, n, [&](size_t l) {
              on[l] = an[l] | bn[l];
              ov[l] = (av[l] <= bv[l]);
            });
            break;
          case CompareOp::kGt:
            ForLanes(sel, n, [&](size_t l) {
              on[l] = an[l] | bn[l];
              ov[l] = (av[l] > bv[l]);
            });
            break;
          case CompareOp::kGe:
            ForLanes(sel, n, [&](size_t l) {
              on[l] = an[l] | bn[l];
              ov[l] = (av[l] >= bv[l]);
            });
            break;
        }
        return &e.out;
      }
      const NumReader ra(*a), rb(*b);
      switch (s.compare_op) {
        case CompareOp::kEq:
          ForLanes(sel, n, [&](size_t l) {
            on[l] = an[l] | bn[l];
            ov[l] = (ra.Get(l) == rb.Get(l));
          });
          break;
        case CompareOp::kNe:
          ForLanes(sel, n, [&](size_t l) {
            on[l] = an[l] | bn[l];
            ov[l] = (ra.Get(l) != rb.Get(l));
          });
          break;
        case CompareOp::kLt:
          ForLanes(sel, n, [&](size_t l) {
            on[l] = an[l] | bn[l];
            ov[l] = (ra.Get(l) < rb.Get(l));
          });
          break;
        case CompareOp::kLe:
          ForLanes(sel, n, [&](size_t l) {
            on[l] = an[l] | bn[l];
            ov[l] = (ra.Get(l) <= rb.Get(l));
          });
          break;
        case CompareOp::kGt:
          ForLanes(sel, n, [&](size_t l) {
            on[l] = an[l] | bn[l];
            ov[l] = (ra.Get(l) > rb.Get(l));
          });
          break;
        case CompareOp::kGe:
          ForLanes(sel, n, [&](size_t l) {
            on[l] = an[l] | bn[l];
            ov[l] = (ra.Get(l) >= rb.Get(l));
          });
          break;
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
      // Three-valued AND/OR with the row engine's short-circuit: the
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

/// Sum of serialized lane bytes over the live lanes (matches
/// Value::ByteSize row accounting).
size_t ColBytes(const ColumnVector& c, const uint32_t* sel, size_t n) {
  size_t bytes = 0;
  ForLanes(sel, n, [&](size_t l) { bytes += c.LaneBytes(l); });
  return bytes;
}

// ---------------------------------------------------------------------------
// Typed hash aggregation
// ---------------------------------------------------------------------------

/// The typed accumulator an AggCall compiles to. SUM/AVG admit only
/// INTEGER/DOUBLE arguments (the capability check enforces it);
/// MIN/MAX (and EMIN/EMAX, identical for scalars) carry any scalar
/// payload kind.
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
  };
  Op op = Op::kCountStar;
  TypeKind payload = TypeKind::kNull;  // min/max storage kind
};

AggSpec SpecFor(const AggCall& a) {
  AggSpec s;
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

/// Columnar accumulator arrays, group-indexed. Which arrays are live
/// depends on the spec (sum -> value + seen, avg -> value + cnt,
/// min/max -> payload + seen, count -> i64 only).
struct AggAcc {
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string> str;
  std::vector<int64_t> cnt;
  std::vector<uint8_t> seen;
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
  }
}

/// Batch update: for live lane j (group gids[j]), fold in the
/// argument column. Lane order is row order, so first-value capture
/// and floating-point accumulation match the row engine exactly.
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
        // INTEGER / BOOLEAN payloads compare through double, exactly
        // like Value::Compare.
        const int64_t* cv = c->i64.data();
        for (size_t j = 0; j < n; ++j) {
          const size_t l = sel ? sel[j] : j;
          if (cn[l]) continue;
          const uint32_t g = gids[j];
          if (!acc.seen[g]) {
            acc.i64[g] = cv[l];
            acc.seen[g] = 1;
          } else {
            const double cand = static_cast<double>(cv[l]);
            const double best = static_cast<double>(acc.i64[g]);
            if (is_max ? cand > best : cand < best) acc.i64[g] = cv[l];
          }
        }
      }
      break;
    }
  }
}

/// Merges source group `sg` into destination group `dg` (same spec);
/// mirrors the row Aggregator Merge methods. A freshly AddGroup'ed
/// destination merges as a plain copy, so insertion reuses this.
void MergeAgg(const AggSpec& s, AggAcc& dst, size_t dg, const AggAcc& src,
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
      } else {
        const double cand = static_cast<double>(src.i64[sg]);
        const double best = static_cast<double>(dst.i64[dg]);
        if (is_max ? cand > best : cand < best) dst.i64[dg] = src.i64[sg];
      }
      break;
    }
  }
}

/// Serialized state size, mirroring the row Aggregators' StateBytes
/// (shuffle byte metrics must match the row engine).
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
  }
  return Value::Null();
}

/// Open-addressing group table over dense columnar keys: key columns
/// in insertion order (group id = dense index), per-group hash, and a
/// power-of-two slot array (linear probing, grown at 0.7 load). Hash
/// and equality replicate KeyRow over Value::Hash / variant equality.
struct GroupTable {
  std::vector<ColumnVector> keys;
  std::vector<size_t> hashes;
  std::vector<uint32_t> slots;  // group id + 1; 0 = empty
  size_t mask = 0;

  void Init(const std::vector<TypeKind>& kinds) {
    keys.resize(kinds.size());
    for (size_t i = 0; i < kinds.size(); ++i) keys[i].Reset(kinds[i], 0);
    slots.assign(64, 0);
    mask = 63;
  }

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

  size_t KeyBytes(size_t g) const {
    size_t bytes = 0;
    for (const ColumnVector& k : keys) bytes += k.LaneBytes(g);
    return bytes;
  }
};

/// One pass of aggregation state: a group table plus one accumulator
/// block per aggregate call.
struct LocalAgg {
  GroupTable table;
  std::vector<AggAcc> accs;
  // Without a budget: a running estimate, charged in one lump.
  size_t state_bytes = 0;
  size_t charged = 0;
  // Under a budget, per group: its admission charge and the bytes it
  // has charged so far (the row engine's GroupState::base / charged).
  std::vector<size_t> base;
  std::vector<size_t> group_charged;
};

/// One worker's partial aggregation. Without a budget it is a single
/// pass. Under one, groups are admitted one at a time as in the row
/// engine: after a pass's first refusal it admits no more groups, the
/// rows of unadmitted groups collect in `overflow`, and they become the
/// next pass's input.
struct WorkerAgg {
  std::vector<LocalAgg> passes;
  bool admitting = true;
  SpillableRowBuffer overflow;
  std::vector<TypeKind> overflow_kinds;  // column kinds of overflow rows
  size_t spill_bytes = 0;                // spill totals of drained overflow
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
/// TryVectorized call.
class VectorizedPipeline {
 public:
  VectorizedPipeline(Executor& x, const LogicalOp& root,
                     std::vector<const LogicalOp*> nodes,
                     const LogicalOp* scan, const LogicalOp* boundary)
      : x_(x),
        root_(root),
        nodes_(std::move(nodes)),
        scan_(scan),
        boundary_(boundary),
        budgeted_(x.mem_.has_budget()) {}

  Result<ExecResult> Run();

 private:
  struct StagePlan {
    const LogicalOp* op = nullptr;
    std::vector<BoundExprPtr> exprs;  // predicates / projections
    size_t metric = 0;                // index into metrics->operators
  };

  /// Compiled per-worker state (scratches are thread-local by
  /// construction: one WorkerCtx per simulated worker).
  struct WorkerCtx {
    ColumnBatch batch;
    const std::vector<TypeKind>* batch_kinds = nullptr;  // ingest layout
    size_t batch_bytes = 0;  // ingested bytes (tracked under a budget)
    std::vector<uint32_t> sel_a, sel_b;
    std::vector<std::vector<std::unique_ptr<VExpr>>> stage_vexprs;
    std::vector<std::unique_ptr<VExpr>> group_vexprs;
    std::vector<std::unique_ptr<VExpr>> agg_vexprs;  // null for COUNT(*)
    std::vector<const ColumnVector*> cols;
    std::vector<const ColumnVector*> keycols;
    std::vector<const ColumnVector*> args;
    std::vector<size_t> hash_buf;
    std::vector<uint32_t> gids;
    // Budgeted admission: admitted lanes not yet folded, with groups.
    std::vector<uint32_t> adm_sel, adm_gids;
  };

  class JoinIngest;

  /// Plan compilation: layouts, stage expressions, aggregate specs.
  Status PreparePlan();
  /// Metrics entries for the chain (the boundary subtree's were
  /// already created by its own execution).
  void PrepareMetrics();
  /// Compiles one worker's expression trees (scratches must not be
  /// shared across threads) and opens its first aggregation pass.
  void CompileCtx(WorkerCtx& ctx, WorkerAgg* wa);
  /// Opens a new admission pass with an empty overflow buffer.
  void StartPass(WorkerAgg& wa);
  /// Empties ctx.batch back to zero-lane columns of `kinds`.
  void ResetIngestBatch(WorkerCtx& ctx, const std::vector<TypeKind>& kinds);
  /// Packs `buf`'s rows (exact append order) into batches of `kinds`,
  /// calling `flush` whenever one closes and once for the remainder,
  /// then clears `buf`. Append time accrues to `*seconds`.
  Status IngestRows(WorkerCtx& ctx, SpillableRowBuffer& buf,
                    const std::vector<TypeKind>& kinds, double* seconds,
                    const std::function<Status()>& flush);
  /// Runs ctx.batch through the chain (through the aggregate stage
  /// alone when !run_stages) — cancel poll and transient memory
  /// charge per batch — then resets it for the next fill.
  Status FlushIngest(WorkerCtx& ctx, std::vector<StageTally>& tally,
                     WorkerAgg* wa, SpillableRowBuffer* sink,
                     mem::MemoryTracker* agg_tracker, bool run_stages = true);
  /// ProcessBatch with ctx.batch's `bytes` charged for its duration.
  Status ProcessCharged(WorkerCtx& ctx, std::vector<StageTally>& tally,
                        WorkerAgg* wa, SpillableRowBuffer* sink,
                        mem::MemoryTracker* agg_tracker, size_t bytes,
                        bool run_stages);
  /// Rows of a scan batch starting at `begin`: at most `count`, and
  /// under a budget no more than fit batch_cap_ (at least one).
  size_t ScanBatchRows(const RowSet& rows, size_t begin, size_t count) const;
  Status RunWorker(size_t wkr, WorkerCtx& ctx, std::vector<StageTally>& tally,
                   WorkerAgg* wa, SpillableRowBuffer* sink,
                   mem::MemoryTracker* agg_tracker);
  Status ProcessBatch(WorkerCtx& ctx, std::vector<StageTally>& tally,
                      WorkerAgg* wa, SpillableRowBuffer* sink,
                      mem::MemoryTracker* agg_tracker, bool run_stages);
  /// Budgeted aggregate stage: admits new groups lane by lane with the
  /// row engine's rules and routes refused lanes to the overflow.
  Status AdmitLanes(WorkerCtx& ctx, WorkerAgg& wa, const uint32_t* sel,
                    size_t live, size_t nrows,
                    mem::MemoryTracker* agg_tracker);
  /// Folds the pending admitted lanes into their groups and charges
  /// the resulting accumulator growth.
  Status FoldAdmitted(WorkerCtx& ctx, LocalAgg& agg, size_t nrows,
                      mem::MemoryTracker* agg_tracker);
  /// Raises group `g`'s charge to its admission charge plus the
  /// accumulators' state bytes (never lowers it); returns the increase.
  size_t ChargeGrowth(LocalAgg& agg, size_t g) const;
  /// Late-materializes lane `lane` of the aggregate input into the
  /// current pass's overflow rows.
  Status Overflow(WorkerCtx& ctx, WorkerAgg& wa, size_t lane);
  std::optional<size_t> PropagateHashedSlot() const;

  Executor& x_;
  const LogicalOp& root_;
  std::vector<const LogicalOp*> nodes_;  // bottom-up, incl. root
  const LogicalOp* scan_ = nullptr;      // in-chain source, or
  const LogicalOp* boundary_ = nullptr;  // row-engine child
  ExecResult boundary_res_;

  /// Under a memory budget: groups are admitted one at a time, a
  /// boundary join materializes, and batches close at batch_cap_.
  const bool budgeted_;
  size_t batch_cap_ = std::numeric_limits<size_t>::max();
  size_t workers_ = 0;
  size_t batch_rows_ = 1024;
  std::vector<TypeKind> source_kinds_;
  std::vector<StagePlan> stages_;  // bottom-up, excluding scan + agg

  const LogicalOp* agg_op_ = nullptr;
  std::vector<BoundExprPtr> group_exprs_;
  std::vector<BoundExprPtr> agg_args_;  // null entry = COUNT(*)
  std::vector<AggSpec> specs_;
  std::vector<TypeKind> key_kinds_;
  /// A string MIN/MAX state can shrink, so its growth is charged lane
  /// by lane (see FoldAdmitted).
  bool lane_growth_ = false;
  size_t scan_metric_ = 0;
  size_t agg_partial_metric_ = 0;
  size_t agg_final_metric_ = 0;
};

Status VectorizedPipeline::PreparePlan() {
  workers_ = x_.cluster_.num_workers();
  batch_rows_ = std::max<size_t>(1, x_.opts_.batch_rows);
  if (budgeted_) {
    // Half the budget, split across the workers' in-flight batches.
    batch_cap_ =
        std::max<size_t>(1, x_.mem_.tracker->budget() / (2 * workers_));
  }

  const LogicalOp* source = scan_ != nullptr ? scan_ : boundary_;
  source_kinds_.clear();
  for (const SlotInfo& s : source->output) {
    source_kinds_.push_back(s.type.kind());
  }

  // Rewrite every stage's expressions against its child's layout
  // (slot id -> column position), once, shared read-only by workers.
  const LogicalOp* prev = source;
  for (const LogicalOp* node : nodes_) {
    const auto layout = Executor::LayoutOf(*prev);
    if (node->kind == LogicalOp::Kind::kAggregate) {
      agg_op_ = node;
      for (const auto& g : node->group_exprs) {
        RADB_ASSIGN_OR_RETURN(BoundExprPtr e, RewriteToPositions(*g, layout));
        key_kinds_.push_back(e->type.kind());
        group_exprs_.push_back(std::move(e));
      }
      for (const AggCall& a : node->aggs) {
        specs_.push_back(SpecFor(a));
        const AggSpec& spec = specs_.back();
        lane_growth_ |= (spec.op == AggSpec::Op::kMin ||
                         spec.op == AggSpec::Op::kMax) &&
                        spec.payload == TypeKind::kString;
        if (a.is_count_star) {
          agg_args_.push_back(nullptr);
        } else {
          RADB_ASSIGN_OR_RETURN(BoundExprPtr e,
                                RewriteToPositions(*a.arg, layout));
          agg_args_.push_back(std::move(e));
        }
      }
      break;  // the aggregate is always the chain head
    }
    StagePlan stage;
    stage.op = node;
    const auto& exprs = node->kind == LogicalOp::Kind::kFilter
                            ? node->predicates
                            : node->exprs;
    for (const auto& e : exprs) {
      RADB_ASSIGN_OR_RETURN(BoundExprPtr r, RewriteToPositions(*e, layout));
      stage.exprs.push_back(std::move(r));
    }
    stages_.push_back(std::move(stage));
    prev = node;
  }
  return Status::OK();
}

void VectorizedPipeline::PrepareMetrics() {
  // Metrics entries, child-first like the row engine's post-order
  // execution. All entries are created before the parallel region (a
  // later NewOp would reallocate the vector), so indexes are stable.
  auto& ops = x_.metrics_->operators;
  if (scan_ != nullptr) {
    OperatorMetrics* m = x_.NewOp("Scan(" + scan_->table->name() + ")",
                                  *scan_);
    m->rows_in = scan_->table->num_rows();
    m->vectorized = true;
    scan_metric_ = ops.size() - 1;
  }
  for (StagePlan& stage : stages_) {
    if (stage.op->kind == LogicalOp::Kind::kScan) {
      stage.metric = scan_metric_;
      continue;
    }
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

void VectorizedPipeline::CompileCtx(WorkerCtx& ctx, WorkerAgg* wa) {
  ctx.stage_vexprs.resize(stages_.size());
  for (size_t si = 0; si < stages_.size(); ++si) {
    for (const auto& e : stages_[si].exprs) {
      ctx.stage_vexprs[si].push_back(CompileVExpr(*e));
    }
  }
  for (const auto& g : group_exprs_) {
    ctx.group_vexprs.push_back(CompileVExpr(*g));
  }
  for (const auto& a : agg_args_) {
    ctx.agg_vexprs.push_back(a == nullptr ? nullptr : CompileVExpr(*a));
  }
  if (wa != nullptr) StartPass(*wa);
}

void VectorizedPipeline::StartPass(WorkerAgg& wa) {
  LocalAgg& agg = wa.passes.emplace_back();
  agg.table.Init(key_kinds_);
  agg.accs.resize(specs_.size());
  wa.admitting = true;
  wa.overflow = SpillableRowBuffer(x_.mem_);
}

void VectorizedPipeline::ResetIngestBatch(WorkerCtx& ctx,
                                          const std::vector<TypeKind>& kinds) {
  ctx.batch.Clear();
  ctx.batch.columns.resize(kinds.size());
  for (size_t c = 0; c < kinds.size(); ++c) {
    ctx.batch.columns[c].Reset(kinds[c], 0);
  }
  ctx.batch_kinds = &kinds;
  ctx.batch_bytes = 0;
}

Status VectorizedPipeline::IngestRows(WorkerCtx& ctx, SpillableRowBuffer& buf,
                                      const std::vector<TypeKind>& kinds,
                                      double* seconds,
                                      const std::function<Status()>& flush) {
  ResetIngestBatch(ctx, kinds);
  auto ingest = [&](const Row& row) -> Status {
    const auto t0 = Clock::now();
    for (size_t c = 0; c < kinds.size(); ++c) {
      ctx.batch.columns[c].AppendValue(row[c]);
    }
    ++ctx.batch.num_rows;
    if (budgeted_) ctx.batch_bytes += RowByteSize(row);
    *seconds += SecondsSince(t0);
    if (ctx.batch.num_rows >= batch_rows_ || ctx.batch_bytes >= batch_cap_) {
      return flush();
    }
    return Status::OK();
  };
  if (!buf.has_spilled_rows()) {
    for (const Row& row : buf.resident_rows()) {
      RADB_RETURN_NOT_OK(ingest(row));
    }
  } else {
    SpillableRowBuffer::Reader reader(&buf);
    while (true) {
      RADB_ASSIGN_OR_RETURN(std::optional<Row> row, reader.Next());
      if (!row.has_value()) break;
      RADB_RETURN_NOT_OK(ingest(*row));
    }
  }
  RADB_RETURN_NOT_OK(flush());
  buf.Clear();
  return Status::OK();
}

Status VectorizedPipeline::FlushIngest(WorkerCtx& ctx,
                                       std::vector<StageTally>& tally,
                                       WorkerAgg* wa,
                                       SpillableRowBuffer* sink,
                                       mem::MemoryTracker* agg_tracker,
                                       bool run_stages) {
  if (ctx.batch.num_rows == 0) return Status::OK();
  // Cooperative cancellation once per batch (the vectorized analogue
  // of the row loops' kCancelCheckRows polling).
  if (x_.mem_.cancel != nullptr) RADB_RETURN_NOT_OK(x_.mem_.cancel->Check());
  size_t batch_bytes = 0;
  for (const ColumnVector& c : ctx.batch.columns) {
    batch_bytes += ColBytes(c, nullptr, ctx.batch.num_rows);
  }
  RADB_RETURN_NOT_OK(ProcessCharged(ctx, tally, wa, sink, agg_tracker,
                                    batch_bytes, run_stages));
  ResetIngestBatch(ctx, *ctx.batch_kinds);
  return Status::OK();
}

Status VectorizedPipeline::ProcessCharged(WorkerCtx& ctx,
                                          std::vector<StageTally>& tally,
                                          WorkerAgg* wa,
                                          SpillableRowBuffer* sink,
                                          mem::MemoryTracker* agg_tracker,
                                          size_t bytes, bool run_stages) {
  // The in-flight batch is a spillable-class charge that never fails
  // the query. Under a budget a batch closes once it reaches
  // batch_cap_ bytes, so the workers' batches together add about half
  // the budget at most (each can pass the cap by one row).
  mem::MemoryTracker* tracker = x_.mem_.tracker;
  if (tracker != nullptr) tracker->ForceReserve(bytes);
  const Status s = ProcessBatch(ctx, tally, wa, sink, agg_tracker, run_stages);
  if (tracker != nullptr) tracker->Release(bytes);
  return s;
}

size_t VectorizedPipeline::ScanBatchRows(const RowSet& rows, size_t begin,
                                         size_t count) const {
  if (!budgeted_) return count;
  size_t bytes = 0;
  for (size_t n = 0; n < count; ++n) {
    for (size_t col : scan_->scan_columns) {
      bytes += rows[begin + n][col].ByteSize();
    }
    if (bytes >= batch_cap_) return n + 1;
  }
  return count;
}

Status VectorizedPipeline::ProcessBatch(WorkerCtx& ctx,
                                        std::vector<StageTally>& tally,
                                        WorkerAgg* wa,
                                        SpillableRowBuffer* sink,
                                        mem::MemoryTracker* agg_tracker,
                                        bool run_stages) {
  ColumnBatch& batch = ctx.batch;
  const size_t nrows = batch.num_rows;
  ctx.cols.clear();
  for (const ColumnVector& c : batch.columns) ctx.cols.push_back(&c);
  const uint32_t* sel = nullptr;
  size_t live = nrows;

  // Middle stages: filters narrow the selection, projects swap the
  // visible column array for their kernel outputs. (An overflow pass
  // re-reads rows that already passed them.)
  for (size_t si = 0; run_stages && si < stages_.size(); ++si) {
    StagePlan& stage = stages_[si];
    if (stage.op->kind == LogicalOp::Kind::kScan) continue;  // source
    StageTally& t = tally[si];
    const auto t0 = Clock::now();
    t.rows_in += live;
    ++t.batches;
    auto& vexprs = ctx.stage_vexprs[si];
    if (stage.op->kind == LogicalOp::Kind::kFilter) {
      for (size_t p = 0; p < vexprs.size() && live > 0; ++p) {
        RADB_ASSIGN_OR_RETURN(
            const ColumnVector* pred,
            EvalV(*vexprs[p], ctx.cols, sel, live, nrows));
        // Narrow into the selection buffer not currently referenced.
        std::vector<uint32_t>& next =
            (!ctx.sel_a.empty() && sel == ctx.sel_a.data()) ? ctx.sel_b
                                                            : ctx.sel_a;
        next.clear();
        const uint8_t* pn = pred->null.data();
        const int64_t* pv = pred->i64.data();
        ForLanes(sel, live, [&](size_t l) {
          if (!pn[l] && pv[l] != 0) next.push_back(static_cast<uint32_t>(l));
        });
        sel = next.data();
        live = next.size();
      }
      t.rows_out += live;
      for (const ColumnVector* c : ctx.cols) {
        t.bytes_out += ColBytes(*c, sel, live);
      }
    } else {  // kProject
      std::vector<const ColumnVector*> out_cols;
      out_cols.reserve(vexprs.size());
      for (auto& ve : vexprs) {
        RADB_ASSIGN_OR_RETURN(const ColumnVector* c,
                              EvalV(*ve, ctx.cols, sel, live, nrows));
        out_cols.push_back(c);
      }
      ctx.cols = std::move(out_cols);
      t.rows_out += live;
      for (const ColumnVector* c : ctx.cols) {
        t.bytes_out += ColBytes(*c, sel, live);
      }
    }
    t.seconds += SecondsSince(t0);
    if (live == 0) return Status::OK();
  }

  if (wa != nullptr) {
    StageTally& t = tally[stages_.size()];
    const auto t0 = Clock::now();
    if (wa->passes.size() == 1) t.rows_in += live;  // not overflow re-reads
    ++t.batches;
    // Group keys -> hashes -> dense group ids for every live lane.
    ctx.keycols.clear();
    for (size_t i = 0; i < group_exprs_.size(); ++i) {
      RADB_ASSIGN_OR_RETURN(
          const ColumnVector* k,
          EvalV(*ctx.group_vexprs[i], ctx.cols, sel, live, nrows));
      ctx.keycols.push_back(k);
    }
    if (budgeted_) {
      RADB_RETURN_NOT_OK(AdmitLanes(ctx, *wa, sel, live, nrows, agg_tracker));
      t.seconds += SecondsSince(t0);
      return Status::OK();
    }
    LocalAgg* agg = &wa->passes.back();
    ctx.gids.resize(live);
    if (group_exprs_.empty()) {
      // Scalar aggregate: one keyless group (created lazily so a
      // worker that sees no rows stays empty, like the row engine's
      // per-worker map).
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
    if (agg_tracker != nullptr && agg->state_bytes > agg->charged) {
      RADB_RETURN_NOT_OK(agg_tracker->Reserve(agg->state_bytes -
                                              agg->charged));
      agg->charged = agg->state_bytes;
    }
    t.seconds += SecondsSince(t0);
    return Status::OK();
  }

  // Sink: late materialization back into rows.
  StageTally& t = tally[stages_.size()];
  const auto t0 = Clock::now();
  for (size_t j = 0; j < live; ++j) {
    const size_t l = sel ? sel[j] : j;
    Row row;
    row.reserve(ctx.cols.size());
    for (const ColumnVector* c : ctx.cols) row.push_back(c->GetValue(l));
    RADB_RETURN_NOT_OK(sink->Append(std::move(row)));
  }
  t.seconds += SecondsSince(t0);
  return Status::OK();
}

Status VectorizedPipeline::RunWorker(size_t wkr, WorkerCtx& ctx,
                                     std::vector<StageTally>& tally,
                                     WorkerAgg* wa, SpillableRowBuffer* sink,
                                     mem::MemoryTracker* agg_tracker) {
  CompileCtx(ctx, wa);

  const CancellationToken* cancel = x_.mem_.cancel;
  if (scan_ != nullptr) {
    const Table& table = *scan_->table;
    StageTally& st = tally[0];
    for (size_t p = wkr; p < table.num_partitions(); p += workers_) {
      const size_t nsegs = table.NumSegments(p);
      for (size_t seg = 0; seg < nsegs; ++seg) {
        RADB_ASSIGN_OR_RETURN(Table::SegmentPin pin, table.PinSegment(p, seg));
        const RowSet& rows = pin.rows();
        const size_t part_rows = rows.size();
        for (size_t begin = 0; begin < part_rows;) {
          // Cooperative cancellation once per batch (the vectorized
          // analogue of the row loops' kCancelCheckRows polling).
          if (cancel != nullptr) RADB_RETURN_NOT_OK(cancel->Check());
          const auto t0 = Clock::now();
          const size_t count = ScanBatchRows(
              rows, begin, std::min(batch_rows_, part_rows - begin));
          table.ExtractColumns(rows, scan_->scan_columns, begin, count,
                               &ctx.batch);
          begin += count;
          ++st.batches;
          st.rows_out += count;
          size_t batch_bytes = 0;
          for (const ColumnVector& c : ctx.batch.columns) {
            batch_bytes += ColBytes(c, nullptr, count);
          }
          st.bytes_out += batch_bytes;
          st.seconds += SecondsSince(t0);
          RADB_RETURN_NOT_OK(ProcessCharged(ctx, tally, wa, sink, agg_tracker,
                                            batch_bytes, /*run_stages=*/true));
        }
      }
    }
  } else {
    // Boundary source: drain the row-engine child's buffer for this
    // worker (replayed from disk if it spilled under a budget).
    RADB_RETURN_NOT_OK(IngestRows(
        ctx, boundary_res_.dist[wkr], source_kinds_, &tally[0].seconds,
        [&] { return FlushIngest(ctx, tally, wa, sink, agg_tracker); }));
  }

  // Further admission passes (only under a budget, where a pass may
  // refuse groups): each re-aggregates the previous pass's overflow
  // rows, in order, through the aggregate stage alone.
  while (wa != nullptr && !wa->overflow.empty()) {
    SpillableRowBuffer carried = std::move(wa->overflow);
    StartPass(*wa);
    RADB_RETURN_NOT_OK(IngestRows(
        ctx, carried, wa->overflow_kinds, &tally[stages_.size()].seconds,
        [&] {
          return FlushIngest(ctx, tally, wa, sink, agg_tracker,
                             /*run_stages=*/false);
        }));
    wa->spill_bytes += carried.spill_bytes();
    wa->spill_runs += carried.spill_runs();
  }
  return Status::OK();
}

Status VectorizedPipeline::AdmitLanes(WorkerCtx& ctx, WorkerAgg& wa,
                                      const uint32_t* sel, size_t live,
                                      size_t nrows,
                                      mem::MemoryTracker* agg_tracker) {
  // The row engine's admission rules, lane by lane in row order: a new
  // group is charged GroupAdmissionBytes — hard for the first group of
  // a pass (so every pass makes progress or fails), tentatively after
  // that — and after a refusal the pass admits no more groups. Admitted
  // lanes are folded in runs between admissions, so each admission
  // check sees every earlier lane's growth charged, as row by row.
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
        RADB_RETURN_NOT_OK(Overflow(ctx, wa, l));
        continue;
      }
      RADB_RETURN_NOT_OK(FoldAdmitted(ctx, agg, nrows, agg_tracker));
      size_t key_bytes = 0;
      for (const ColumnVector* k : ctx.keycols) key_bytes += k->LaneBytes(l);
      const size_t admit = Executor::GroupAdmissionBytes(key_bytes);
      if (agg.table.size() == 0) {
        RADB_RETURN_NOT_OK(agg_tracker->Reserve(admit));
      } else if (!agg_tracker->TryReserve(admit)) {
        wa.admitting = false;
        RADB_RETURN_NOT_OK(Overflow(ctx, wa, l));
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
  return FoldAdmitted(ctx, agg, nrows, agg_tracker);
}

Status VectorizedPipeline::FoldAdmitted(WorkerCtx& ctx, LocalAgg& agg,
                                        size_t nrows,
                                        mem::MemoryTracker* agg_tracker) {
  const size_t n = ctx.adm_sel.size();
  if (n == 0) return Status::OK();
  const uint32_t* sel = ctx.adm_sel.data();
  const uint32_t* gids = ctx.adm_gids.data();
  // Arguments of admitted lanes only: the row engine never evaluates a
  // refused row's arguments in the pass that refused it.
  ctx.args.assign(specs_.size(), nullptr);
  for (size_t k = 0; k < specs_.size(); ++k) {
    if (agg_args_[k] != nullptr) {
      RADB_ASSIGN_OR_RETURN(
          ctx.args[k], EvalV(*ctx.agg_vexprs[k], ctx.cols, sel, n, nrows));
    }
  }
  // The row engine raises a group's charge after every row. Scalar
  // states only grow, so charging after the whole run adds the same
  // bytes; a string MIN/MAX can shrink again, so it folds one lane at
  // a time to charge the same high-water mark.
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
  return grown > 0 ? agg_tracker->Reserve(grown) : Status::OK();
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

Status VectorizedPipeline::Overflow(WorkerCtx& ctx, WorkerAgg& wa,
                                    size_t lane) {
  if (wa.overflow_kinds.empty()) {
    for (const ColumnVector* c : ctx.cols) wa.overflow_kinds.push_back(c->kind);
  }
  Row row;
  row.reserve(ctx.cols.size());
  for (const ColumnVector* c : ctx.cols) row.push_back(c->GetValue(lane));
  return wa.overflow.Append(std::move(row));
}

/// The Executor::JoinBatchSink a pipeline installs when its boundary
/// is a join and the query has no memory budget: joined pairs land
/// directly in per-worker column lanes,
/// and full batches run through the chain inside the join's worker
/// loop — neither the joined Row nor the join's output distribution
/// is ever materialized. Lane-append time stays attributed to the
/// join (it replaces the row materialization the join no longer
/// does); chain-processing seconds accumulate in the pipeline's
/// tallies and Run() moves them off the join's metric afterwards.
class VectorizedPipeline::JoinIngest : public Executor::JoinBatchSink {
 public:
  JoinIngest(VectorizedPipeline& p, std::vector<WorkerCtx>& ctxs,
             std::vector<std::vector<StageTally>>& tallies,
             std::vector<WorkerAgg>* partials, SpillableDist& out,
             mem::MemoryTracker* agg_tracker)
      : p_(p),
        ctxs_(ctxs),
        tallies_(tallies),
        partials_(partials),
        out_(out),
        agg_tracker_(agg_tracker),
        rows_(ctxs.size(), 0),
        bytes_(ctxs.size(), 0) {}

  Status AppendPair(size_t wkr, const Row& left, const Row& right) override {
    ColumnBatch& batch = ctxs_[wkr].batch;
    size_t c = 0;
    for (const Value& v : left) batch.columns[c++].AppendValue(v);
    for (const Value& v : right) batch.columns[c++].AppendValue(v);
    ++batch.num_rows;
    ++rows_[wkr];
    return batch.num_rows >= p_.batch_rows_ ? Flush(wkr) : Status::OK();
  }

  Status AppendRow(size_t wkr, Row joined) override {
    ColumnBatch& batch = ctxs_[wkr].batch;
    for (size_t c = 0; c < joined.size(); ++c) {
      batch.columns[c].AppendValue(joined[c]);
    }
    ++batch.num_rows;
    ++rows_[wkr];
    return batch.num_rows >= p_.batch_rows_ ? Flush(wkr) : Status::OK();
  }

  /// Also called for the per-worker remainders after the join returns.
  Status Flush(size_t wkr) {
    WorkerCtx& ctx = ctxs_[wkr];
    if (ctx.batch.num_rows == 0) return Status::OK();
    for (const ColumnVector& c : ctx.batch.columns) {
      bytes_[wkr] += ColBytes(c, nullptr, ctx.batch.num_rows);
    }
    return p_.FlushIngest(ctx, tallies_[wkr],
                          partials_ != nullptr ? &(*partials_)[wkr] : nullptr,
                          &out_[wkr], agg_tracker_);
  }

  size_t rows(size_t wkr) const { return rows_[wkr]; }
  size_t bytes(size_t wkr) const { return bytes_[wkr]; }

 private:
  VectorizedPipeline& p_;
  std::vector<WorkerCtx>& ctxs_;
  std::vector<std::vector<StageTally>>& tallies_;
  std::vector<WorkerAgg>* partials_;  // null for a non-aggregate chain
  SpillableDist& out_;
  mem::MemoryTracker* agg_tracker_;
  std::vector<size_t> rows_, bytes_;  // per-worker streamed totals
};

std::optional<size_t> VectorizedPipeline::PropagateHashedSlot() const {
  std::optional<size_t> hashed;
  if (scan_ != nullptr) {
    const Partitioning& part = scan_->table->partitioning();
    if (part.kind == Partitioning::Kind::kHash &&
        scan_->table->num_partitions() == workers_) {
      for (size_t i = 0; i < scan_->scan_columns.size(); ++i) {
        if (scan_->scan_columns[i] == part.hash_column) {
          hashed = scan_->output[i].slot;
        }
      }
    }
  } else {
    hashed = boundary_res_.hashed_slot;
  }
  for (const LogicalOp* node : nodes_) {
    if (node->kind == LogicalOp::Kind::kScan) continue;  // the source
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
  // A boundary join is consumed in-line: the pipeline installs a
  // JoinIngest sink so the join streams its pairs straight into
  // column batches instead of materializing 10^6-scale joined rows we
  // would only re-read (the dominant cost of the paper's tuple-coded
  // Gram self-join). Any other boundary executes first, exactly as it
  // would below a row operator (its metrics precede the chain's).
  // A spooled join must materialize: its held rows serve later copies.
  // So must every join under a budget: as in the row engine, the join's
  // build state is released before group state is admitted, and its
  // output spills instead of holding the budget.
  const bool join_inline = !budgeted_ && boundary_ != nullptr &&
                           boundary_->kind == LogicalOp::Kind::kJoin &&
                           boundary_->spool_id == 0;
  if (boundary_ != nullptr && !join_inline) {
    RADB_ASSIGN_OR_RETURN(boundary_res_, x_.ExecuteOp(*boundary_));
  }
  RADB_RETURN_NOT_OK(PreparePlan());

  const size_t w = workers_;

  // Unspillable aggregate state charges a child tracker, as in the row
  // engine (whatever is still charged is released on scope exit).
  std::optional<mem::MemoryTracker> agg_tracker;
  if (agg_op_ != nullptr && x_.mem_.tracker != nullptr) {
    agg_tracker.emplace("Aggregate state", x_.mem_.tracker);
  }

  // One tally slot per stage plus one for the sink/aggregate-update.
  const size_t tally_slots = stages_.size() + 1;
  std::vector<std::vector<StageTally>> tallies(
      w, std::vector<StageTally>(tally_slots));
  std::vector<WorkerCtx> ctxs(w);
  std::vector<WorkerAgg> partials(agg_op_ != nullptr ? w : 0);
  SpillableDist out = x_.NewDist(w);

  if (join_inline) {
    for (size_t wkr = 0; wkr < w; ++wkr) {
      CompileCtx(ctxs[wkr], agg_op_ != nullptr ? &partials[wkr] : nullptr);
      ResetIngestBatch(ctxs[wkr], source_kinds_);
    }
    JoinIngest ingest(*this, ctxs, tallies,
                      agg_op_ != nullptr ? &partials : nullptr, out,
                      agg_tracker.has_value() ? &*agg_tracker : nullptr);
    // Save/restore: a pipeline nested deeper in the join's subtree
    // may install its own sink for its own boundary join.
    Executor::JoinBatchSink* prev_sink = x_.join_sink_;
    const LogicalOp* prev_op = x_.join_sink_op_;
    x_.join_sink_ = &ingest;
    x_.join_sink_op_ = boundary_;
    Result<ExecResult> joined = x_.ExecuteOp(*boundary_);
    x_.join_sink_ = prev_sink;
    x_.join_sink_op_ = prev_op;
    RADB_ASSIGN_OR_RETURN(boundary_res_, std::move(joined));
    // Chain-processing seconds recorded inside the join's timed
    // worker loops belong to the pipeline's stages, not the join;
    // move them off its metric (lane appends stay — they replace the
    // row materialization the join no longer pays for). Then flush
    // the per-worker remainders, outside the join's clock, and credit
    // the join with the output it streamed.
    if (const std::vector<size_t>* ids = x_.MetricsForNode(boundary_)) {
      OperatorMetrics& mj = x_.metrics_->operators[ids->back()];
      for (size_t wkr = 0; wkr < w; ++wkr) {
        double chain = 0.0;
        for (const StageTally& t : tallies[wkr]) chain += t.seconds;
        mj.worker_seconds[wkr] =
            std::max(0.0, mj.worker_seconds[wkr] - chain);
      }
      for (size_t wkr = 0; wkr < w; ++wkr) {
        RADB_RETURN_NOT_OK(ingest.Flush(wkr));
        mj.rows_out += ingest.rows(wkr);
        mj.bytes_out += ingest.bytes(wkr);
      }
    } else {
      for (size_t wkr = 0; wkr < w; ++wkr) {
        RADB_RETURN_NOT_OK(ingest.Flush(wkr));
      }
    }
    PrepareMetrics();
  } else {
    PrepareMetrics();
    if (budgeted_ && agg_op_ != nullptr && boundary_ != nullptr) {
      // As the row engine's aggregate does: group state may approach
      // the input's size, so if that much of the budget is not free,
      // the resident input goes to disk first and streams back.
      RADB_RETURN_NOT_OK(Executor::MakeHeadroom(
          x_.mem_, SpillDistByteSize(boundary_res_.dist),
          {&boundary_res_.dist}));
    }
    RADB_RETURN_NOT_OK(x_.ForEachWorker(w, [&](size_t wkr) -> Status {
      return RunWorker(wkr, ctxs[wkr], tallies[wkr],
                       agg_op_ != nullptr ? &partials[wkr] : nullptr,
                       &out[wkr],
                       agg_tracker.has_value() ? &*agg_tracker : nullptr);
    }));
  }

  // Fold per-worker tallies into the shared metrics entries.
  auto& ops = x_.metrics_->operators;
  for (size_t si = 0; si < stages_.size(); ++si) {
    const StagePlan& stage = stages_[si];
    const bool is_scan = stage.op->kind == LogicalOp::Kind::kScan;
    OperatorMetrics& m =
        ops[is_scan ? scan_metric_ : stage.metric];
    for (size_t wkr = 0; wkr < w; ++wkr) {
      const StageTally& t = tallies[wkr][si];
      if (!is_scan) m.rows_in += t.rows_in;
      m.rows_out += t.rows_out;
      m.bytes_out += t.bytes_out;
      m.batches += t.batches;
      m.worker_seconds[wkr] += t.seconds;
    }
  }
  if (agg_op_ == nullptr) {
    // The sink (late materialization) rides on the chain head's
    // metrics entry — the root is always a Filter/Project here.
    OperatorMetrics& mhead = ops[stages_.back().metric];
    for (size_t wkr = 0; wkr < w; ++wkr) {
      mhead.worker_seconds[wkr] += tallies[wkr][stages_.size()].seconds;
    }
    Executor::CollectSpill(&mhead, out);
    ExecResult result{std::move(out), PropagateHashedSlot()};
    return result;
  }

  // ---- Aggregate phases 2 + 3: src-major merge, then emission ----
  {
    OperatorMetrics& m1 = ops[agg_partial_metric_];
    size_t partial_groups = 0;
    for (size_t wkr = 0; wkr < w; ++wkr) {
      for (const LocalAgg& pass : partials[wkr].passes) {
        partial_groups += pass.table.size();
      }
      m1.bytes_spilled += partials[wkr].spill_bytes;
      m1.spill_runs += partials[wkr].spill_runs;
      const StageTally& t = tallies[wkr][stages_.size()];
      m1.rows_in += t.rows_in;
      m1.batches += t.batches;
      m1.worker_seconds[wkr] += t.seconds;
    }
    m1.rows_out = partial_groups;
    OperatorMetrics& m2 = ops[agg_final_metric_];
    m2.rows_in = partial_groups;
    m2.batches = m1.batches;
  }

  // Under a budget the final states keep the row engine's charges: a
  // group's first partial state carries its charge over, growth from a
  // merge reserves hard, and each merged-away partial state is released.
  std::vector<LocalAgg> finals(w);
  std::vector<size_t> shuffle_bytes(w, 0), shuffle_rows(w, 0);
  std::vector<double> merge_secs(w, 0.0);
  RADB_RETURN_NOT_OK(x_.ForEachWorker(w, [&](size_t dst) -> Status {
    const auto t0 = Clock::now();
    LocalAgg& fin = finals[dst];
    fin.table.Init(key_kinds_);
    fin.accs.resize(specs_.size());
    std::vector<const ColumnVector*> kc(key_kinds_.size());
    // Sources, then each source's passes, in index order.
    for (size_t src = 0; src < w; ++src) {
      for (const LocalAgg& pa : partials[src].passes) {
        for (size_t i = 0; i < key_kinds_.size(); ++i) {
          kc[i] = &pa.table.keys[i];
        }
        for (size_t g = 0; g < pa.table.size(); ++g) {
          const size_t owner =
              group_exprs_.empty()
                  ? 0
                  : x_.cluster_.WorkerForHash(pa.table.hashes[g]);
          if (owner != dst) continue;
          if (dst != src) {
            size_t state_bytes = pa.table.KeyBytes(g);
            for (size_t k = 0; k < specs_.size(); ++k) {
              state_bytes += AccStateBytes(specs_[k], pa.accs[k], g);
            }
            shuffle_bytes[dst] += state_bytes;
            ++shuffle_rows[dst];
          }
          bool inserted = false;
          const uint32_t fg =
              fin.table.Upsert(kc, g, pa.table.hashes[g], &inserted);
          if (inserted) {
            for (size_t k = 0; k < specs_.size(); ++k) {
              AddGroup(specs_[k], fin.accs[k]);
            }
            if (budgeted_) {
              fin.base.push_back(pa.base[g]);
              fin.group_charged.push_back(pa.group_charged[g]);
            }
          }
          for (size_t k = 0; k < specs_.size(); ++k) {
            MergeAgg(specs_[k], fin.accs[k], fg, pa.accs[k], g);
          }
          if (budgeted_ && !inserted) {
            const size_t grown = ChargeGrowth(fin, fg);
            if (grown > 0) RADB_RETURN_NOT_OK(agg_tracker->Reserve(grown));
            agg_tracker->Release(pa.group_charged[g]);
          }
        }
      }
    }
    merge_secs[dst] += SecondsSince(t0);
    return Status::OK();
  }));
  partials.clear();

  // Emission in dense (insertion) order. The row engine emits in its
  // hash-map iteration order — a different but equally valid order;
  // results are compared as multisets (ORDER BY pins any order the
  // tests rely on).
  std::vector<double> emit_secs(w, 0.0);
  RADB_RETURN_NOT_OK(x_.ForEachWorker(w, [&](size_t wkr) -> Status {
    const auto t0 = Clock::now();
    LocalAgg& fin = finals[wkr];
    for (size_t g = 0; g < fin.table.size(); ++g) {
      Row row;
      row.reserve(key_kinds_.size() + specs_.size());
      for (const ColumnVector& k : fin.table.keys) {
        row.push_back(k.GetValue(g));
      }
      for (size_t k = 0; k < specs_.size(); ++k) {
        RADB_ASSIGN_OR_RETURN(Value v,
                              FinalizeAgg(specs_[k], fin.accs[k], g));
        row.push_back(std::move(v));
      }
      RADB_RETURN_NOT_OK(out[wkr].Append(std::move(row)));
      if (budgeted_) agg_tracker->Release(fin.group_charged[g]);
    }
    emit_secs[wkr] += SecondsSince(t0);
    return Status::OK();
  }));

  // A scalar aggregate over zero rows still yields one row (COUNT()=0,
  // SUM()=NULL) — finalize fresh aggregators exactly like the row
  // engine.
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

Result<std::optional<ExecResult>> Executor::TryVectorized(
    const LogicalOp& op) {
  // Only Filter/Project/Aggregate head a chain: a bare capable Scan is
  // left to the row engine (no operator above it to amortize the
  // columnar transposition).
  if (!op.batch_capable) return std::optional<ExecResult>();
  if (op.kind != LogicalOp::Kind::kFilter &&
      op.kind != LogicalOp::Kind::kProject &&
      op.kind != LogicalOp::Kind::kAggregate) {
    return std::optional<ExecResult>();
  }

  std::vector<const LogicalOp*> nodes;  // collected top-down
  nodes.push_back(&op);
  const LogicalOp* scan = nullptr;
  const LogicalOp* boundary = nullptr;
  const LogicalOp* cur = &op;
  while (true) {
    const LogicalOp* child = cur->children[0].get();
    if (child->batch_capable && child->kind == LogicalOp::Kind::kScan) {
      // An index-annotated scan stays on the row engine: its B+ tree
      // probe reads a tiny fraction of the table, which beats columnar
      // full-scan throughput whenever the optimizer chose it.
      if (!child->index_name.empty() && !child->index_lo.empty()) {
        const IndexDef* idx = child->table->FindIndex(child->index_name);
        if (idx != nullptr && idx->usable()) {
          boundary = child;
          break;
        }
      }
      scan = child;
      break;
    }
    // A spooled node bounds the chain: it must pass through ExecuteOp,
    // which holds or serves its result.
    if (child->batch_capable && child->spool_id == 0 &&
        (child->kind == LogicalOp::Kind::kFilter ||
         child->kind == LogicalOp::Kind::kProject)) {
      nodes.push_back(child);
      cur = child;
      continue;
    }
    boundary = child;  // row engine executes this subtree
    break;
  }
  std::reverse(nodes.begin(), nodes.end());  // bottom-up

  // The in-chain scan participates as stage 0 (so its metrics entry
  // exists); it carries no expressions.
  if (scan != nullptr) nodes.insert(nodes.begin(), scan);

  VectorizedPipeline pipeline(*this, op, std::move(nodes), scan, boundary);
  RADB_ASSIGN_OR_RETURN(ExecResult result, pipeline.Run());
  return std::optional<ExecResult>(std::move(result));
}

}  // namespace radb
