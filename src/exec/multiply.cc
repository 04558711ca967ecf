// Relational matrix multiply (DESIGN.md §19).
//
// The optimizer marks an Aggregate computing SUM(l.v * r.w) over
// l JOIN r ON l.k = r.k, grouped by l.i and/or r.j: the tuple coding
// of C = A·B with A[i][k] = l.v and B[k][j] = r.w. ExecuteMultiply runs
// the two join inputs, compacts keys and indexes into sorted
// dictionaries, scatters the values into a dense I×K and a dense K×J
// tile and calls la::Multiply, which rounds identically at any thread
// count. When the inputs do not admit tiles, they go to the Join and
// the Aggregate runs as if unmarked.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "exec/executor.h"
#include "la/matrix.h"

namespace radb {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Fewest filled cells a tile may have, as a share of its size. A
/// sparser tile would mostly multiply zeros, while the join touches
/// only the pairs that exist.
constexpr double kMinTileFill = 0.5;

/// Rows between cancellation polls, as in the row operators.
constexpr size_t kCancelCheckRows = 256;

/// One input row on its way into a tile. After the key dictionary is
/// built, `key` holds the key's position in it (-1: the key is not on
/// both sides, so the row joins nothing).
struct Cell {
  int64_t key = 0;
  int64_t index = 0;  // 0 on a side without a group key
  double value = 0.0;
};

/// Staged bytes per input row: its Cell plus at most three dictionary
/// entries (its key twice, its index once).
constexpr size_t kStagedBytesPerRow = sizeof(Cell) + 3 * sizeof(int64_t);

/// Where one side's join key, value and group index sit in its rows.
struct SideColumns {
  size_t key = 0;
  size_t value = 0;
  std::optional<size_t> index;
};

/// Calls fn(row) for each row of `buf` in append order and leaves the
/// buffer as it was.
template <typename Fn>
Status VisitRows(SpillableRowBuffer& buf, Fn&& fn) {
  if (!buf.has_spilled_rows()) {
    for (const Row& row : buf.resident_rows()) RADB_RETURN_NOT_OK(fn(row));
    return Status::OK();
  }
  SpillableRowBuffer::Reader reader(&buf);
  while (true) {
    RADB_ASSIGN_OR_RETURN(std::optional<Row> row, reader.Next());
    if (!row.has_value()) return Status::OK();
    RADB_RETURN_NOT_OK(fn(*row));
  }
}

/// Reads `row` into `*cell`. Returns why the row cannot enter a tile,
/// or null when it can; `*joins` is false for a NULL join key, which
/// never joins, so the row is skipped.
const char* ReadCell(const Row& row, const SideColumns& c, Cell* cell,
                     bool* joins) {
  const Value& key = row[c.key];
  *joins = !key.is_null();
  if (!*joins) return nullptr;
  if (key.kind() != TypeKind::kInteger) return "non-INTEGER key";
  const Value& v = row[c.value];
  if (v.is_null()) return "NULL value";
  if (v.kind() != TypeKind::kDouble) return "non-DOUBLE value";
  if (!std::isfinite(v.double_value())) return "non-finite value";
  cell->key = key.int_value();
  cell->value = v.double_value();
  cell->index = 0;
  if (c.index) {
    const Value& i = row[*c.index];
    if (i.is_null()) return "NULL group key";
    if (i.kind() != TypeKind::kInteger) return "non-INTEGER key";
    cell->index = i.int_value();
  }
  return nullptr;
}

void SortUnique(std::vector<int64_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

/// Position of `x` in the sorted `dict`, or -1.
int64_t Find(const std::vector<int64_t>& dict, int64_t x) {
  const auto it = std::lower_bound(dict.begin(), dict.end(), x);
  return it != dict.end() && *it == x ? it - dict.begin() : -1;
}

/// One side's cells in worker order, as the tile fill reads them.
using SideCells = std::vector<std::vector<Cell>>;

/// Replaces each cell's key by its position in `keys` and returns the
/// sorted distinct indexes of the cells that join, with their count in
/// `*joined`.
std::vector<int64_t> IndexDictionary(SideCells& side,
                                     const std::vector<int64_t>& keys,
                                     size_t* joined) {
  std::vector<int64_t> dict;
  for (std::vector<Cell>& part : side) {
    for (Cell& c : part) {
      c.key = Find(keys, c.key);
      if (c.key >= 0) dict.push_back(c.index);
    }
  }
  *joined = dict.size();
  SortUnique(&dict);
  return dict;
}

}  // namespace

Result<ExecResult> Executor::ExecuteMultiply(const LogicalOp& op) {
  const LogicalOp& join = *op.children[0];
  const LogicalOp* inputs[] = {join.children[0].get(), join.children[1].get()};
  RADB_ASSIGN_OR_RETURN(ExecResult left, ExecuteOp(*inputs[0]));
  RADB_ASSIGN_OR_RETURN(ExecResult right, ExecuteOp(*inputs[1]));
  OperatorMetrics* m = NewOp("RelationalMultiply(kernel)", op);
  std::string reason;
  RADB_ASSIGN_OR_RETURN(
      std::optional<SpillableDist> product,
      MultiplyOnTiles(op, left.dist, right.dist, m, &reason));
  if (product.has_value()) {
    ++relational_multiplies_;
    return ExecResult{std::move(*product), std::nullopt};
  }
  // The unmarked Join and Aggregate, over the inputs already run.
  m->name = "RelationalMultiply(fallback: " + reason + ")";
  ++relational_multiply_fallbacks_;
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
  const LogicalOp& join = *op.children[0];
  const auto side_columns = [](const LogicalOp& input, size_t key,
                               size_t value, std::optional<size_t> index) {
    const std::map<size_t, size_t> layout = LayoutOf(input);
    SideColumns c{layout.at(key), layout.at(value), std::nullopt};
    if (index) c.index = layout.at(*index);
    return c;
  };
  const SideColumns cols[2] = {
      side_columns(*join.children[0], s.left_key, s.left_value, s.left_index),
      side_columns(*join.children[1], s.right_key, s.right_value,
                   s.right_index)};
  SpillableDist* dists[2] = {&left, &right};
  const size_t w = left.size();
  const size_t rows_in = SpillDistRowCount(left) + SpillDistRowCount(right);
  m->rows_in = rows_in;
  const auto no_tiles = [&](std::string why) {
    *reason = std::move(why);
    return std::optional<SpillableDist>();
  };
  const auto check_cancel = [&]() -> Status {
    return mem_.cancel != nullptr ? mem_.cancel->Check() : Status::OK();
  };

  // Cells and tiles are unspillable. The scoped tracker releases them
  // on every way out, cancellation included.
  std::optional<mem::MemoryTracker> tracker;
  if (mem_.tracker != nullptr) {
    tracker.emplace("RelationalMultiply tiles", mem_.tracker);
  }
  const auto admit = [&](size_t bytes) {
    return !tracker.has_value() || tracker->TryReserve(bytes);
  };
  if (!admit(rows_in * kStagedBytesPerRow)) {
    return no_tiles("memory budget refused " +
                    FormatBytes(double(rows_in * kStagedBytesPerRow)) +
                    " of cells");
  }

  // Every worker reads its partition of both sides; the calling thread
  // gathers the cells, moving the rows of workers other than 0.
  SideCells cells[2] = {SideCells(w), SideCells(w)};
  std::vector<const char*> refusals(2 * w, nullptr);
  RADB_RETURN_NOT_OK(ForEachWorker(w, [&](size_t wkr) -> Status {
    const auto t0 = Clock::now();
    size_t since_check = 0;
    for (int side = 0; side < 2; ++side) {
      const char*& refusal = refusals[side * w + wkr];
      std::vector<Cell>& out = cells[side][wkr];
      out.reserve((*dists[side])[wkr].num_rows());
      RADB_RETURN_NOT_OK(
          VisitRows((*dists[side])[wkr], [&](const Row& row) -> Status {
            if (++since_check >= kCancelCheckRows) {
              since_check = 0;
              RADB_RETURN_NOT_OK(check_cancel());
            }
            if (refusal != nullptr) return Status::OK();
            Cell cell;
            bool joins = false;
            refusal = ReadCell(row, cols[side], &cell, &joins);
            if (refusal == nullptr && joins) out.push_back(cell);
            return Status::OK();
          }));
    }
    m->worker_seconds[wkr] += SecondsSince(t0);
    return Status::OK();
  }));
  for (const char* refusal : refusals) {
    if (refusal != nullptr) return no_tiles(refusal);
  }
  for (const SpillableDist* d : dists) {
    for (size_t wkr = 1; wkr < w; ++wkr) {
      m->rows_shuffled += (*d)[wkr].num_rows();
      m->bytes_shuffled += (*d)[wkr].byte_size();
    }
  }

  const auto t0 = Clock::now();
  // Keys on both sides; a key on one side only joins nothing.
  std::vector<int64_t> side_keys[2];
  for (int side = 0; side < 2; ++side) {
    for (const std::vector<Cell>& part : cells[side]) {
      for (const Cell& c : part) side_keys[side].push_back(c.key);
    }
    SortUnique(&side_keys[side]);
  }
  std::vector<int64_t> keys;
  std::set_intersection(side_keys[0].begin(), side_keys[0].end(),
                        side_keys[1].begin(), side_keys[1].end(),
                        std::back_inserter(keys));
  if (keys.empty()) {  // nothing joins, so there are no groups
    m->worker_seconds[0] += SecondsSince(t0);
    return std::optional<SpillableDist>(NewDist(w));
  }
  size_t joined[2] = {0, 0};
  const std::vector<int64_t> dicts[2] = {
      IndexDictionary(cells[0], keys, &joined[0]),
      IndexDictionary(cells[1], keys, &joined[1])};
  // A side without a group key contributes one row (left) or one
  // column (right) of the product.
  const size_t ni = s.left_index ? dicts[0].size() : 1;
  const size_t nk = keys.size();
  const size_t nj = s.right_index ? dicts[1].size() : 1;
  const double sizes[2] = {double(ni) * double(nk), double(nk) * double(nj)};
  for (int side = 0; side < 2; ++side) {
    if (double(joined[side]) < kMinTileFill * sizes[side]) {
      return no_tiles("tile under half full");
    }
  }
  // The two tiles and the product; when both tiles may have holes, a
  // presence twin of each decides which groups exist.
  const bool presence =
      double(joined[0]) < sizes[0] && double(joined[1]) < sizes[1];
  const size_t tile_cells = ni * nk + nk * nj + ni * nj;
  const size_t tile_bytes = tile_cells * sizeof(double) * (presence ? 2 : 1) +
                            (ni * nk + nk * nj) / 8;
  if (!admit(tile_bytes)) {
    return no_tiles("memory budget refused " +
                    FormatBytes(double(tile_bytes)) + " of tiles");
  }
  RADB_RETURN_NOT_OK(check_cancel());

  la::Matrix tiles[2] = {la::Matrix(ni, nk), la::Matrix(nk, nj)};
  std::vector<bool> filled[2] = {std::vector<bool>(ni * nk),
                                 std::vector<bool>(nk * nj)};
  size_t since_check = 0;
  for (int side = 0; side < 2; ++side) {
    const bool indexed = side == 0 ? s.left_index.has_value()
                                   : s.right_index.has_value();
    for (const std::vector<Cell>& part : cells[side]) {
      for (const Cell& c : part) {
        if (++since_check >= kCancelCheckRows) {
          since_check = 0;
          RADB_RETURN_NOT_OK(check_cancel());
        }
        if (c.key < 0) continue;
        const size_t index =
            indexed ? static_cast<size_t>(Find(dicts[side], c.index)) : 0;
        const size_t key = static_cast<size_t>(c.key);
        const size_t at = side == 0 ? index * nk + key : key * nj + index;
        if (filled[side][at]) return no_tiles("repeated cell");
        filled[side][at] = true;
        tiles[side].data()[at] = c.value;
      }
    }
  }
  for (SideCells& side : cells) side.clear();

  RADB_ASSIGN_OR_RETURN(la::Matrix product, la::Multiply(tiles[0], tiles[1]));
  // Groups in row-major (i, j) order: all of them unless both tiles
  // have holes, else those the 0/1 presence product counts a pair for.
  std::vector<size_t> groups;
  if (presence) {
    for (int side = 0; side < 2; ++side) {
      double* p = tiles[side].data();
      for (size_t at = 0; at < filled[side].size(); ++at) {
        p[at] = filled[side][at] ? 1.0 : 0.0;
      }
    }
    RADB_ASSIGN_OR_RETURN(la::Matrix pairs, la::Multiply(tiles[0], tiles[1]));
    for (size_t g = 0; g < ni * nj; ++g) {
      if (pairs.data()[g] > 0.0) groups.push_back(g);
    }
  }
  const size_t num_groups = presence ? groups.size() : ni * nj;
  m->worker_seconds[0] += SecondsSince(t0);

  // Each worker emits an equal slice of the groups: the GROUP BY keys
  // in their order, then the sum.
  SpillableDist out = NewDist(w);
  RADB_RETURN_NOT_OK(ForEachWorker(w, [&](size_t wkr) -> Status {
    const auto t1 = Clock::now();
    for (size_t q = num_groups * wkr / w; q < num_groups * (wkr + 1) / w;
         ++q) {
      const size_t g = presence ? groups[q] : q;
      Row row;
      row.reserve(3);
      const Value i = Value::Int(s.left_index ? dicts[0][g / nj] : 0);
      const Value j = Value::Int(s.right_index ? dicts[1][g % nj] : 0);
      if (s.left_index && s.right_index) {
        row.push_back(s.right_index_first ? j : i);
        row.push_back(s.right_index_first ? i : j);
      } else {
        row.push_back(s.left_index ? i : j);
      }
      row.push_back(Value::Double(product.data()[g]));
      RADB_RETURN_NOT_OK(out[wkr].Append(std::move(row)));
    }
    m->worker_seconds[wkr] += SecondsSince(t1);
    return Status::OK();
  }));
  for (size_t wkr = 1; wkr < w; ++wkr) {
    m->rows_shuffled += out[wkr].num_rows();
    m->bytes_shuffled += out[wkr].byte_size();
  }
  m->rows_out = num_groups;
  m->bytes_out = SpillDistByteSize(out);
  CollectSpill(m, out);
  return std::optional<SpillableDist>(std::move(out));
}

}  // namespace radb
