// Relational matrix multiply (DESIGN.md §19).
//
// The optimizer marks an Aggregate that computes a matrix product
// written as a join and a GROUP BY on the free keys, in one of two
// codings:
//   - tuple: SUM(l.v * r.w) over l JOIN r ON l.k = r.k, grouped by l.i
//     and/or r.j, the coding of C = A·B with A[i][k] = l.v and
//     B[k][j] = r.w. MultiplyOnTiles compacts keys and indexes into
//     sorted dictionaries, scatters the values into a dense I×K and a
//     dense K×J tile and calls la::Multiply. A self product (both
//     inputs one subtree with the same roles) reads its one input into
//     one K×J tile T and calls la::TransposeSelfMultiply for TᵀT.
//   - vector: SUM, MIN or MAX of inner_product(l.v, r.w) over a cross
//     join. MultiplyOnVectors stacks each side's vectors into a dense
//     matrix, computes every pair's inner product with la::Multiply and
//     folds the values into groups in the order the join and aggregate
//     would have.
// Both run on one skeleton, MultiplyRun, and keep only their math.
// Residual conjuncts comparing an INTEGER column of each side are
// applied as a mask. la::Multiply rounds identically at any thread
// count. When the inputs do not admit the kernel, they go to the Join
// and the Aggregate runs as if unmarked.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "exec/executor.h"
#include "la/matrix.h"

namespace radb {

namespace {

/// A kernel path's answer: the product's rows, or nullopt to fall back.
using Product = std::optional<SpillableDist>;

/// Fewest filled cells a tile may have, as a share of its size. A
/// sparser tile would mostly multiply zeros, while the join touches
/// only the pairs that exist.
constexpr double kMinTileFill = 0.5;

/// One input row on its way into a tile. After the key dictionary is
/// built, `key` holds the key's position in it (-1: the key is not on
/// both sides, so the row joins nothing).
struct Cell {
  int64_t key = 0;
  int64_t index = 0;  // 0 on a side without a group key
  double value = 0.0;
};

/// Staged bytes per input row: its Cell plus three dictionary entries,
/// more than the dictionaries (at most two entries per value each, see
/// Dictionary) ever hold at once per input row.
constexpr size_t kStagedBytesPerRow = sizeof(Cell) + 3 * sizeof(int64_t);

/// Where one input's columns of the product sit in its rows.
struct InputColumns {
  size_t key = 0;  // the join key (tuple coding)
  size_t value = 0;
  std::optional<size_t> index;  // the group key
  std::vector<size_t> mask;  // one per mask term
};

/// Reads the INTEGER key `k` into `*out`. Returns `if_null` for a NULL,
/// "non-INTEGER key" for another kind, else null.
const char* ReadKey(const Value& k, const char* if_null, int64_t* out) {
  if (k.is_null()) return if_null;
  if (k.kind() != TypeKind::kInteger) return "non-INTEGER key";
  *out = k.int_value();
  return nullptr;
}

/// Reads `row` into `*cell`. Returns why the row cannot enter a tile,
/// or null when it can; `*joins` is false for a NULL join key, which
/// never joins, so the row is skipped.
const char* ReadCell(const Row& row, const InputColumns& c, Cell* cell,
                     bool* joins) {
  *joins = !row[c.key].is_null();
  if (!*joins) return nullptr;
  if (const char* why = ReadKey(row[c.key], nullptr, &cell->key)) return why;
  const Value& v = row[c.value];
  if (v.is_null()) return "NULL value";
  if (v.kind() != TypeKind::kDouble) return "non-DOUBLE value";
  if (!std::isfinite(v.double_value())) return "non-finite value";
  cell->value = v.double_value();
  cell->index = 0;
  if (!c.index) return nullptr;
  return ReadKey(row[*c.index], "NULL group key", &cell->index);
}

/// A sorted dictionary of INTEGER values: their distinct values in
/// ascending order, each standing for its position. When the values
/// span at most twice as many integers as there are values, a presence
/// table over the span yields the sorted values in one pass and then
/// answers Find by offset; otherwise the values are sorted and Find
/// searches them. Both give the same values and positions, and hold at
/// most two 8-byte entries per value the dictionary is built from.
class Dictionary {
 public:
  /// The dictionary of the values each(f) passes to f; `each` is called
  /// twice and must pass the same values both times.
  template <typename Each>
  static Dictionary Of(const Each& each) {
    Dictionary d;
    size_t count = 0;
    int64_t lo = INT64_MAX, hi = INT64_MIN;
    each([&](int64_t x) {
      ++count;
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    });
    if (count == 0) return d;
    const uint64_t span = uint64_t(hi) - uint64_t(lo);  // exact: hi - lo
    if (span < 2 * uint64_t(count) && span < uint64_t(INT32_MAX)) {
      // At most 2·count int32 offsets: one 8-byte entry per value.
      d.lo_ = lo;
      d.offset_.assign(span + 1, -1);
      size_t distinct = 0;
      each([&](int64_t x) {
        int32_t& at = d.offset_[uint64_t(x) - uint64_t(lo)];
        if (at < 0) ++distinct;
        at = 0;
      });
      d.values_.reserve(distinct);
      for (size_t o = 0; o < d.offset_.size(); ++o) {
        if (d.offset_[o] < 0) continue;
        d.offset_[o] = static_cast<int32_t>(d.values_.size());
        d.values_.push_back(static_cast<int64_t>(uint64_t(lo) + o));
      }
      return d;
    }
    d.values_.reserve(count);
    each([&](int64_t x) { d.values_.push_back(x); });
    std::sort(d.values_.begin(), d.values_.end());
    d.values_.erase(std::unique(d.values_.begin(), d.values_.end()),
                    d.values_.end());
    return d;
  }

  size_t size() const { return values_.size(); }
  int64_t operator[](size_t p) const { return values_[p]; }
  const std::vector<int64_t>& values() const { return values_; }

  /// Position of `x`, or -1.
  int64_t Find(int64_t x) const {
    if (!offset_.empty()) {
      const uint64_t o = uint64_t(x) - uint64_t(lo_);
      return o < offset_.size() ? offset_[o] : -1;
    }
    const auto it = std::lower_bound(values_.begin(), values_.end(), x);
    return it != values_.end() && *it == x ? it - values_.begin() : -1;
  }

 private:
  std::vector<int64_t> values_;
  int64_t lo_ = 0;  // the value at offset 0
  /// Per offset o: the position of lo_ + o, or -1. Empty: Find searches.
  std::vector<int32_t> offset_;
};

/// Passes each of `v` to its callback, for Dictionary::Of.
auto EachOf(const std::vector<int64_t>& v) {
  return [&v](const auto& f) {
    for (int64_t x : v) f(x);
  };
}

/// Replaces each of `keys` by its position in their dictionary, which
/// it returns.
Dictionary Encode(std::vector<int64_t>* keys) {
  Dictionary dict = Dictionary::Of(EachOf(*keys));
  for (int64_t& k : *keys) k = dict.Find(k);
  return dict;
}

/// One side's cells in worker order, as the tile fill reads them.
using SideCells = std::vector<std::vector<Cell>>;

/// Passes the key of each cell of `side`, for Dictionary::Of.
auto KeysOf(const SideCells& side) {
  return [&side](const auto& f) {
    for (const std::vector<Cell>& part : side) {
      for (const Cell& c : part) f(c.key);
    }
  };
}

/// The dictionary of the indexes of the cells of `side` that join (a
/// key position other than -1), with their count in `*joined`.
Dictionary IndexDictionary(const SideCells& side, size_t* joined) {
  const auto each = [&side](const auto& f) {
    for (const std::vector<Cell>& part : side) {
      for (const Cell& c : part) {
        if (c.key >= 0) f(c.index);
      }
    }
  };
  *joined = 0;
  each([joined](int64_t) { ++*joined; });
  return Dictionary::Of(each);
}

/// Whether `a op b` holds for two INTEGER keys. They compare exactly,
/// as EvalCompare compares them on the join.
bool Holds(CompareOp op, int64_t a, int64_t b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

using MaskTerm = LogicalOp::MultiplyShape::MaskTerm;

/// Whether every mask term holds for a pair whose left and right rows
/// carry the mask keys `l` and `r`, one per term.
bool MaskPasses(const std::vector<MaskTerm>& mask, const int64_t* l,
                const int64_t* r) {
  for (size_t t = 0; t < mask.size(); ++t) {
    if (!Holds(mask[t].op, l[t], r[t])) return false;
  }
  return true;
}

/// The output row of group (i, j): the GROUP BY keys in their order,
/// then the aggregate's value.
Row GroupRow(const LogicalOp::MultiplyShape& s, int64_t i, int64_t j,
             Value value) {
  Row row;
  row.reserve(3);
  if (s.left_index && s.right_index) {
    row.push_back(Value::Int(s.right_index_first ? j : i));
    row.push_back(Value::Int(s.right_index_first ? i : j));
  } else {
    row.push_back(Value::Int(s.left_index ? i : j));
  }
  row.push_back(std::move(value));
  return row;
}

/// Bytes of the product the vector coding computes at once: it
/// multiplies bands of the probe side's rows whose product fits.
constexpr size_t kBandBytes = 2u << 20;

/// Charged per partial group state of the vector coding: its slot and
/// a heap Aggregator holding one DOUBLE.
constexpr size_t kStateBytes = 96;

/// Vector length of a worker that has read no row yet.
constexpr size_t kNoLength = SIZE_MAX;

/// One side of a vector-coded product, read in place from its rows:
/// per worker its vectors packed row after row, and per row (numbered
/// in worker order) its group key and mask keys.
struct VectorSide {
  const InputColumns* cols = nullptr;
  std::vector<size_t> begin;  // each worker's first row, then the total
  std::vector<std::vector<double>> packed;  // per worker
  std::vector<size_t> length;  // per worker: vector length, or kNoLength
  /// Per row: its group key (0 without one), after Encode its position
  /// in `dict`.
  std::vector<int64_t> group;
  Dictionary dict;  // the group keys
  std::vector<int64_t> mask_keys;  // per row: one per term

  size_t rows() const { return begin.back(); }

  /// Reads row `r`, the next row of worker `wkr`. Returns why it cannot
  /// enter the kernel, or null.
  const char* Read(const Row& row, size_t wkr, size_t r) {
    const Value& v = row[cols->value];
    if (v.is_null()) return "NULL vector";
    if (v.kind() != TypeKind::kVector) return "non-VECTOR value";
    if (cols->index) {
      if (const char* why = ReadKey(row[*cols->index], "NULL key", &group[r])) {
        return why;
      }
    }
    const size_t terms = cols->mask.size();
    for (size_t t = 0; t < terms; ++t) {
      if (const char* why = ReadKey(row[cols->mask[t]], "NULL key",
                                    &mask_keys[r * terms + t])) {
        return why;
      }
    }
    const la::Vector& x = v.vector();
    if (length[wkr] == kNoLength) length[wkr] = x.size();
    if (x.size() != length[wkr]) return "vector lengths differ";
    for (size_t e = 0; e < x.size(); ++e) {
      if (!std::isfinite(x[e])) return "non-finite element";
    }
    packed[wkr].insert(packed[wkr].end(), x.data(), x.data() + x.size());
    return nullptr;
  }

  /// Copies the vectors of rows [r0, r1), `d` elements each, to `out`.
  void CopyRows(size_t r0, size_t r1, size_t d, double* out) const {
    for (size_t wkr = 0; wkr + 1 < begin.size(); ++wkr) {
      const size_t lo = std::max(r0, begin[wkr]);
      const size_t hi = std::min(r1, begin[wkr + 1]);
      if (lo >= hi) continue;
      const double* from = packed[wkr].data() + (lo - begin[wkr]) * d;
      std::copy(from, from + (hi - lo) * d, out + (lo - r0) * d);
    }
  }
};

/// One worker's partial aggregate of a vector-coded product: the group
/// positions of its probe rows, as a dictionary, and a row of states
/// per dictionary position, one state per broadcast-side group.
struct Partial {
  Dictionary probe_groups;
  std::vector<std::unique_ptr<Aggregator>> states;

  /// Row of states for probe-side group `g`, or null when none of this
  /// worker's rows has it.
  std::unique_ptr<Aggregator>* StatesOf(int64_t g, size_t width) {
    const int64_t p = probe_groups.Find(g);
    return p < 0 ? nullptr : states.data() + size_t(p) * width;
  }
};

}  // namespace

/// One kernel attempt of either coding: the columns it reads, the
/// scoped tracker of its unspillable state (released on every way out,
/// cancellation included), one read of both inputs (of the one input,
/// for a self product, whose `right` is `left`), one emitter and a
/// cancellation poll per worker. Work on the calling thread is charged
/// to worker 0's seconds and polls worker 0's poll.
class Executor::MultiplyRun {
 public:
  MultiplyRun(Executor& x, const LogicalOp& op, const char* tracker_name,
              SpillableDist& left, SpillableDist& right, OperatorMetrics* m,
              std::string* reason)
      : x_(x),
        w_(left.size()),
        sides_(op.multiply->self ? 1 : 2),
        inputs_{&left, &right},
        m_(m),
        reason_(reason),
        polls_(w_, CancelPoll(x.mem_.cancel)) {
    const LogicalOp::MultiplyShape& s = *op.multiply;
    for (int side = 0; side < 2; ++side) {
      const auto layout = LayoutOf(*op.children[0]->children[side]);
      const bool l = side == 0;
      InputColumns& c = cols[side];
      if (s.coding == LogicalOp::MultiplyShape::Coding::kTuple) {
        c.key = layout.at(l ? s.left_key : s.right_key);
      }
      c.value = layout.at(l ? s.left_value : s.right_value);
      if (const auto& index = l ? s.left_index : s.right_index) {
        c.index = layout.at(*index);
      }
      for (const MaskTerm& t : s.mask) {
        c.mask.push_back(layout.at(l ? t.left : t.right));
      }
    }
    if (x.mem_.tracker != nullptr) {
      tracker_.emplace(tracker_name, x.mem_.tracker);
    }
    m->rows_in = SpillDistRowCount(left);
    if (sides_ == 2) m->rows_in += SpillDistRowCount(right);
  }

  InputColumns cols[2];

  size_t workers() const { return w_; }
  /// The inputs read: 1 for a self product, else 2.
  int sides() const { return sides_; }
  CancelPoll& poll(size_t wkr) { return polls_[wkr]; }

  /// Gives the kernel up for `why`: the inputs go to the join.
  Product Refuse(std::string why) {
    *reason_ = std::move(why);
    return Product();
  }

  /// Reserves `bytes` of unspillable `what`; false, with the reason
  /// set, when the budget refuses.
  bool Admit(size_t bytes, const char* what) {
    if (!tracker_.has_value() || tracker_->TryReserve(bytes)) return true;
    *reason_ = "memory budget refused " + FormatBytes(double(bytes)) +
               " of " + what;
    return false;
  }

  /// Every worker reads its partition of each input in place, left
  /// then right, calling read(side, wkr, i, row) on its i-th row of a
  /// side until that returns a refusal. Then `settle` may refuse the
  /// inputs as a whole. Returns the lowest (side, worker)'s refusal,
  /// else settle's, else null, and then the rows read on workers other
  /// than 0 count as gathered to worker 0.
  template <typename ReadRow>
  Result<const char*> Read(const ReadRow& read,
                           const std::function<const char*()>& settle = {}) {
    std::vector<const char*> refusals(2 * w_, nullptr);
    RADB_RETURN_NOT_OK(x_.ForEachWorker(w_, [&](size_t wkr) -> Status {
      const auto t0 = Clock::now();
      for (int side = 0; side < sides_; ++side) {
        const char*& refusal = refusals[side * w_ + wkr];
        size_t i = 0;
        RADB_RETURN_NOT_OK((*inputs_[side])[wkr].ForEachRow(
            &polls_[wkr], [&](const Row& row) -> Result<bool> {
              refusal = read(side, wkr, i++, row);
              return refusal == nullptr;
            }));
      }
      m_->worker_seconds[wkr] += SecondsSince(t0);
      return Status::OK();
    }));
    for (const char* refusal : refusals) {
      if (refusal != nullptr) return refusal;
    }
    if (const char* why = settle ? settle() : nullptr) return why;
    for (int side = 0; side < sides_; ++side) Tally(*inputs_[side]);
    return static_cast<const char*>(nullptr);
  }

  /// Each worker emits an equal slice of the positions [0, n) in order:
  /// row_at(q) builds position q's row, or nullopt for none. Rows on
  /// workers other than 0 count as scattered.
  template <typename RowAt>
  Result<SpillableDist> Emit(size_t n, const RowAt& row_at) {
    SpillableDist out = x_.NewDist(w_);
    RADB_RETURN_NOT_OK(x_.ForEachWorker(w_, [&](size_t wkr) -> Status {
      const auto t0 = Clock::now();
      for (size_t q = n * wkr / w_; q < n * (wkr + 1) / w_; ++q) {
        RADB_RETURN_NOT_OK(polls_[wkr].Tick());
        RADB_ASSIGN_OR_RETURN(std::optional<Row> row, row_at(q));
        if (row) RADB_RETURN_NOT_OK(out[wkr].Append(std::move(*row)));
      }
      m_->worker_seconds[wkr] += SecondsSince(t0);
      return Status::OK();
    }));
    Tally(out);
    m_->rows_out = SpillDistRowCount(out);
    m_->bytes_out = SpillDistByteSize(out);
    CollectSpill(m_, out);
    return out;
  }

 private:
  /// Counts the rows of `d` on workers other than 0 as shuffled.
  void Tally(const SpillableDist& d) {
    for (size_t wkr = 1; wkr < w_; ++wkr) {
      m_->rows_shuffled += d[wkr].num_rows();
      m_->bytes_shuffled += d[wkr].byte_size();
    }
  }

  Executor& x_;
  const size_t w_;
  const int sides_;
  SpillableDist* inputs_[2];
  OperatorMetrics* m_;
  std::string* reason_;
  std::vector<CancelPoll> polls_;  // per worker
  std::optional<mem::MemoryTracker> tracker_;
};

Result<ExecResult> Executor::ExecuteMultiply(const LogicalOp& op) {
  const LogicalOp& join = *op.children[0];
  const LogicalOp* inputs[] = {join.children[0].get(), join.children[1].get()};
  // A self product runs its first input only and reads it as both.
  const bool self = op.multiply->self;
  RADB_ASSIGN_OR_RETURN(ExecResult left, ExecuteOp(*inputs[0]));
  ExecResult right;
  if (!self) {
    RADB_ASSIGN_OR_RETURN(right, ExecuteOp(*inputs[1]));
  }
  SpillableDist& right_dist = self ? left.dist : right.dist;
  OperatorMetrics* m = NewOp("RelationalMultiply(kernel)", op);
  std::string reason;
  RADB_ASSIGN_OR_RETURN(
      Product product,
      op.multiply->coding == LogicalOp::MultiplyShape::Coding::kTuple
          ? MultiplyOnTiles(op, left.dist, right_dist, m, &reason)
          : MultiplyOnVectors(op, left.dist, right_dist, m, &reason));
  if (product.has_value()) {
    ++relational_multiplies_;
    return ExecResult{std::move(*product), std::nullopt};
  }
  // The unmarked Join and Aggregate, over the inputs already run. A
  // self product's second input is a copy of its first: the rows, in
  // each worker's order, that running the equal subtree again gives.
  m->name = "RelationalMultiply(fallback: " + reason + ")";
  ++relational_multiply_fallbacks_;
  if (self) {
    RADB_ASSIGN_OR_RETURN(right.dist, CopyDist(left.dist, m));
    right.hashed_slot =
        SlotAtSamePosition(*inputs[0], *inputs[1], left.hashed_slot);
  }
  held_inputs_[inputs[0]] = std::move(left);
  held_inputs_[inputs[1]] = std::move(right);
  Result<ExecResult> out = ExecutePipeline(op);
  // An index-nested-loop join probes its inner table instead of taking
  // the held input.
  for (const LogicalOp* in : inputs) held_inputs_.erase(in);
  return out;
}

Result<std::optional<SpillableDist>> Executor::MultiplyOnTiles(
    const LogicalOp& op, SpillableDist& left, SpillableDist& right,
    OperatorMetrics* m, std::string* reason) {
  const LogicalOp::MultiplyShape& s = *op.multiply;
  // Cells and tiles are unspillable.
  MultiplyRun run(*this, op, "RelationalMultiply tiles", left, right, m,
                  reason);
  const size_t w = run.workers();
  if (!run.Admit(m->rows_in * kStagedBytesPerRow, "cells")) return Product();
  // A self product reads one side of cells; its right side is its left
  // (DESIGN.md §19).
  const int r = s.self ? 0 : 1;
  SideCells cells[2] = {SideCells(w), SideCells(s.self ? 0 : w)};
  RADB_ASSIGN_OR_RETURN(
      const char* refusal,
      run.Read([&](int side, size_t wkr, size_t i, const Row& row) {
        std::vector<Cell>& out = cells[side][wkr];
        if (i == 0) out.reserve((side == 0 ? left : right)[wkr].num_rows());
        Cell cell;
        bool joins = false;
        const char* why = ReadCell(row, run.cols[side], &cell, &joins);
        if (why == nullptr && joins) out.push_back(cell);
        return why;
      }));
  if (refusal != nullptr) return run.Refuse(refusal);

  const auto t0 = Clock::now();
  // The keys on both sides (a key on one side only joins nothing; a
  // self product's keys are all on both); each cell's key becomes its
  // position among them.
  size_t nk = 0;
  {
    Dictionary keys;
    if (s.self) {
      keys = Dictionary::Of(KeysOf(cells[0]));
    } else {
      std::vector<int64_t> both;
      {
        const Dictionary left_keys = Dictionary::Of(KeysOf(cells[0]));
        const Dictionary right_keys = Dictionary::Of(KeysOf(cells[1]));
        std::set_intersection(
            left_keys.values().begin(), left_keys.values().end(),
            right_keys.values().begin(), right_keys.values().end(),
            std::back_inserter(both));
      }
      keys = Dictionary::Of(EachOf(both));
    }
    nk = keys.size();
    for (int side = 0; side < run.sides(); ++side) {
      for (std::vector<Cell>& part : cells[side]) {
        for (Cell& c : part) c.key = keys.Find(c.key);
      }
    }
  }
  if (nk == 0) {  // nothing joins, so there are no groups
    m->worker_seconds[0] += SecondsSince(t0);
    return Product(NewDist(w));
  }
  size_t joined[2] = {0, 0};
  Dictionary index_dicts[2];
  for (int side = 0; side < run.sides(); ++side) {
    index_dicts[side] = IndexDictionary(cells[side], &joined[side]);
  }
  joined[1] = joined[r];
  const Dictionary* dicts[2] = {&index_dicts[0], &index_dicts[r]};
  // A side without a group key has the one index 0, so it contributes
  // one row (left) or one column (right) of the product.
  const size_t ni = dicts[0]->size();
  const size_t nj = dicts[1]->size();
  const double sizes[2] = {double(ni) * double(nk), double(nk) * double(nj)};
  for (int side = 0; side < 2; ++side) {
    if (double(joined[side]) < kMinTileFill * sizes[side]) {
      return run.Refuse("tile under half full");
    }
  }
  // The I×K and K×J tiles and the product; a self product's cells fill
  // only the K×J tile T, whose transpose is the I×K tile. When both
  // tiles may have holes, a presence twin of each decides which groups
  // exist.
  const bool presence =
      double(joined[0]) < sizes[0] && double(joined[1]) < sizes[1];
  const size_t left_cells = s.self ? 0 : ni * nk;
  const size_t tile_cells = left_cells + nk * nj + ni * nj;
  const size_t tile_bytes = tile_cells * sizeof(double) * (presence ? 2 : 1) +
                            (left_cells + nk * nj) / 8;
  if (!run.Admit(tile_bytes, "tiles")) return Product();

  la::Matrix tiles[2] = {la::Matrix(s.self ? 0 : ni, nk), la::Matrix(nk, nj)};
  std::vector<bool> filled[2] = {std::vector<bool>(left_cells),
                                 std::vector<bool>(nk * nj)};
  const int first_tile = s.self ? 1 : 0;
  for (int side = first_tile; side < 2; ++side) {
    for (const std::vector<Cell>& part : cells[side == 0 ? 0 : r]) {
      for (const Cell& c : part) {
        RADB_RETURN_NOT_OK(run.poll(0).Tick());
        if (c.key < 0) continue;
        const size_t index = static_cast<size_t>(dicts[side]->Find(c.index));
        const size_t key = static_cast<size_t>(c.key);
        const size_t at = side == 0 ? index * nk + key : key * nj + index;
        if (filled[side][at]) return run.Refuse("repeated cell");
        filled[side][at] = true;
        tiles[side].data()[at] = c.value;
      }
    }
  }
  for (SideCells& side : cells) side.clear();

  // TᵀT, whose bits equal Tᵀ·T's on finite values (DESIGN.md §19), or
  // the product of the two tiles.
  const auto multiply = [&]() -> Result<la::Matrix> {
    if (s.self) return la::TransposeSelfMultiply(tiles[1]);
    return la::Multiply(tiles[0], tiles[1]);
  };
  RADB_ASSIGN_OR_RETURN(la::Matrix product, multiply());
  // Groups in row-major (i, j) order: all of them unless both tiles
  // have holes, else those the 0/1 presence product counts a pair for;
  // of these, those the mask keeps. The mask reads only i and j, so it
  // rejects either every pair of a group or none.
  const bool listed = presence || !s.mask.empty();
  std::vector<size_t> groups;
  if (presence) {
    for (int side = first_tile; side < 2; ++side) {
      double* p = tiles[side].data();
      for (size_t at = 0; at < filled[side].size(); ++at) {
        p[at] = filled[side][at] ? 1.0 : 0.0;
      }
    }
    RADB_ASSIGN_OR_RETURN(la::Matrix pairs, multiply());
    for (size_t g = 0; g < ni * nj; ++g) {
      if (pairs.data()[g] > 0.0) groups.push_back(g);
    }
  } else if (listed) {
    groups.resize(ni * nj);
    for (size_t g = 0; g < ni * nj; ++g) groups[g] = g;
  }
  if (!s.mask.empty()) {
    std::vector<size_t> kept;
    for (size_t g : groups) {
      const int64_t i = (*dicts[0])[g / nj];
      const int64_t j = (*dicts[1])[g % nj];
      bool holds = true;
      for (const MaskTerm& t : s.mask) holds = holds && Holds(t.op, i, j);
      if (holds) kept.push_back(g);
    }
    groups = std::move(kept);
  }
  m->worker_seconds[0] += SecondsSince(t0);

  // The listed groups, or all of them, in equal slices.
  RADB_ASSIGN_OR_RETURN(
      SpillableDist out,
      run.Emit(listed ? groups.size() : ni * nj,
               [&](size_t q) -> Result<std::optional<Row>> {
                 const size_t g = listed ? groups[q] : q;
                 return std::make_optional(
                     GroupRow(s, (*dicts[0])[g / nj], (*dicts[1])[g % nj],
                              Value::Double(product.data()[g])));
               }));
  return Product(std::move(out));
}

Result<std::optional<SpillableDist>> Executor::MultiplyOnVectors(
    const LogicalOp& op, SpillableDist& left, SpillableDist& right,
    OperatorMetrics* m, std::string* reason) {
  const LogicalOp::MultiplyShape& s = *op.multiply;
  const AggCall& call = op.aggs[0];
  const size_t terms = s.mask.size();
  // Packed vectors, the broadcast operand, the bands and the partial
  // states are unspillable.
  MultiplyRun run(*this, op, "RelationalMultiply vectors", left, right, m,
                  reason);
  const size_t w = run.workers();
  // A row's vector packs into no more than its serialized bytes.
  const size_t staged =
      SpillDistByteSize(left) + SpillDistByteSize(right) +
      m->rows_in * (2 * sizeof(int64_t) + terms * sizeof(double));
  if (!run.Admit(staged, "packed vectors")) return Product();
  VectorSide sides[2];
  for (int side = 0; side < 2; ++side) {
    VectorSide& v = sides[side];
    v.cols = &run.cols[side];
    v.begin.assign(1, 0);
    for (const SpillableRowBuffer& buf : side == 0 ? left : right) {
      v.begin.push_back(v.begin.back() + buf.num_rows());
    }
    v.packed.resize(w);
    v.length.assign(w, kNoLength);
    v.group.resize(v.rows());
    v.mask_keys.resize(v.rows() * terms);
  }

  // Every row must have one vector length: the join raises the
  // mismatch.
  size_t d = kNoLength;
  RADB_ASSIGN_OR_RETURN(
      const char* refusal,
      run.Read(
          [&](int side, size_t wkr, size_t i, const Row& row) {
            VectorSide& v = sides[side];
            return v.Read(row, wkr, v.begin[wkr] + i);
          },
          [&]() -> const char* {
            for (const VectorSide& v : sides) {
              for (size_t len : v.length) {
                if (len == kNoLength) continue;
                if (d != kNoLength && len != d) return "vector lengths differ";
                d = len;
              }
            }
            return nullptr;
          }));
  if (refusal != nullptr) return run.Refuse(refusal);
  if (sides[0].rows() == 0 || sides[1].rows() == 0) {  // no pairs
    return Product(NewDist(w));
  }

  // The join's placement rule picks the broadcast side; each worker
  // pairs each of its own rows of the other (probe) side with every
  // broadcast row, in order. The fold follows the same pairs.
  const auto t0 = Clock::now();
  const bool probe_left = PlaceJoin(*op.children[0], left, right).kind ==
                          JoinPlacement::Kind::kBroadcastRight;
  VectorSide& probe = sides[probe_left ? 0 : 1];
  VectorSide& bcast = sides[probe_left ? 1 : 0];
  for (VectorSide& v : sides) v.dict = Encode(&v.group);
  const size_t nb = bcast.rows();
  const size_t width = bcast.dict.size();  // states per probe group
  std::vector<Partial> partials(w);
  size_t slots = 0;
  for (size_t wkr = 0; wkr < w; ++wkr) {
    Partial& p = partials[wkr];
    p.probe_groups = Dictionary::Of([&](const auto& f) {
      for (size_t r = probe.begin[wkr]; r < probe.begin[wkr + 1]; ++r) {
        f(probe.group[r]);
      }
    });
    slots += p.probe_groups.size() * width;
  }
  const size_t num_groups = sides[0].dict.size() * sides[1].dict.size();
  const size_t state_bytes =
      slots * kStateBytes + num_groups * sizeof(std::unique_ptr<Aggregator>);
  if (!run.Admit(state_bytes, "group states")) return Product();
  const size_t band_rows =
      std::min(probe.rows(), std::max<size_t>(1, kBandBytes / (nb * 8)));
  const size_t band_bytes = (nb * d + band_rows * (d + nb)) * sizeof(double);
  if (!run.Admit(band_bytes, "product bands")) return Product();
  for (Partial& p : partials) p.states.resize(p.probe_groups.size() * width);
  // The broadcast side's vectors as the columns of a d x nb operand.
  la::Matrix bcast_t(d, nb);
  for (size_t wkr = 0; wkr < w; ++wkr) {
    const std::vector<double>& packed = bcast.packed[wkr];
    for (size_t c = bcast.begin[wkr]; c < bcast.begin[wkr + 1]; ++c) {
      RADB_RETURN_NOT_OK(run.poll(0).Tick());
      const double* x = packed.data() + (c - bcast.begin[wkr]) * d;
      for (size_t k = 0; k < d; ++k) bcast_t.data()[k * nb + c] = x[k];
    }
  }
  bcast.packed.clear();
  m->worker_seconds[0] += SecondsSince(t0);

  // Band by band: one la::Multiply from the calling thread, so the
  // kernel has the whole pool, then every worker folds the pairs of its
  // own probe rows in the band through the aggregate's Aggregators.
  // Each value is a k-ascending sum of the same products from +0.0, as
  // inner_product computes it.
  for (size_t r0 = 0; r0 < probe.rows(); r0 += band_rows) {
    const auto t1 = Clock::now();
    const size_t r1 = std::min(probe.rows(), r0 + band_rows);
    la::Matrix band(r1 - r0, d);
    probe.CopyRows(r0, r1, d, band.data());
    RADB_ASSIGN_OR_RETURN(la::Matrix values, la::Multiply(band, bcast_t));
    m->worker_seconds[0] += SecondsSince(t1);
    RADB_RETURN_NOT_OK(ForEachWorker(w, [&](size_t wkr) -> Status {
      const auto t2 = Clock::now();
      Partial& p = partials[wkr];
      const size_t lo = std::max(r0, probe.begin[wkr]);
      const size_t hi = std::min(r1, probe.begin[wkr + 1]);
      for (size_t r = lo; r < hi; ++r) {
        std::unique_ptr<Aggregator>* states =
            p.StatesOf(probe.group[r], width);
        const double* row_values = values.data() + (r - r0) * nb;
        const int64_t* pm = probe.mask_keys.data() + r * terms;
        for (size_t c = 0; c < nb; ++c) {
          RADB_RETURN_NOT_OK(run.poll(wkr).Tick());
          const int64_t* bm = bcast.mask_keys.data() + c * terms;
          if (terms > 0 && !(probe_left ? MaskPasses(s.mask, pm, bm)
                                        : MaskPasses(s.mask, bm, pm))) {
            continue;
          }
          std::unique_ptr<Aggregator>& state = states[bcast.group[c]];
          if (state == nullptr) state = call.fn->make();
          RADB_RETURN_NOT_OK(state->Update(Value::Double(row_values[c])));
        }
      }
      m->worker_seconds[wkr] += SecondsSince(t2);
      return Status::OK();
    }));
  }

  // Every (i, j) position in equal slices, merging each group's partial
  // states in worker order, as the aggregate merges them. A group no
  // pair passed the mask for has no state and no row.
  const size_t nj = sides[1].dict.size();
  RADB_ASSIGN_OR_RETURN(
      SpillableDist out,
      run.Emit(num_groups, [&](size_t g) -> Result<std::optional<Row>> {
        const size_t i = g / nj, j = g % nj;
        std::unique_ptr<Aggregator> merged;
        for (Partial& p : partials) {
          std::unique_ptr<Aggregator>* states =
              p.StatesOf(probe_left ? i : j, width);
          if (states == nullptr) continue;
          std::unique_ptr<Aggregator>& state = states[probe_left ? j : i];
          if (state == nullptr) continue;
          if (merged == nullptr) {
            merged = std::move(state);
          } else {
            RADB_RETURN_NOT_OK(merged->Merge(*state));
          }
        }
        if (merged == nullptr) return std::optional<Row>();
        RADB_ASSIGN_OR_RETURN(Value value, merged->Finalize());
        return std::make_optional(GroupRow(s, sides[0].dict[i],
                                           sides[1].dict[j], std::move(value)));
      }));
  return Product(std::move(out));
}

}  // namespace radb
