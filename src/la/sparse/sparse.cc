#include "la/sparse/sparse.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/metrics_registry.h"

namespace radb::la::sparse {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Status ShapeMismatch(const char* op, size_t ar, size_t ac, size_t br,
                     size_t bc) {
  return Status::DimensionMismatch(
      std::string(op) + ": shapes " + std::to_string(ar) + "x" +
      std::to_string(ac) + " and " + std::to_string(br) + "x" +
      std::to_string(bc) + " are incompatible");
}

void Count(const char* metric, uint64_t n) {
  if (obs::MetricsRegistry* reg = obs::GlobalMetrics()) reg->Add(metric, n);
}

/// True when a computed matrix cell maps back to "no entry".
bool IsStructural(double v, const Semiring& s) {
  return v == 0.0 || v == s.zero;
}

}  // namespace

// ------------------------------------------------------------------
// Semiring
// ------------------------------------------------------------------

double Semiring::Add(double a, double b) const {
  switch (kind) {
    case SemiringKind::kPlusTimes:
      return a + b;
    case SemiringKind::kMinPlus:
      return b < a ? b : a;
    case SemiringKind::kMaxPlus:
      return b > a ? b : a;
    case SemiringKind::kOrAnd:
      return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
  }
  return a + b;
}

double Semiring::Mul(double a, double b) const {
  switch (kind) {
    case SemiringKind::kPlusTimes:
      return a * b;
    case SemiringKind::kMinPlus:
    case SemiringKind::kMaxPlus:
      return a + b;
    case SemiringKind::kOrAnd:
      return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
  }
  return a * b;
}

const Semiring& PlusTimes() {
  static const Semiring kPlus{SemiringKind::kPlusTimes, "plus_times", 0.0,
                              1.0};
  return kPlus;
}

Result<Semiring> SemiringByName(const std::string& name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(static_cast<char>(
        c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c));
  }
  if (lower == "plus_times") return PlusTimes();
  if (lower == "min_plus") {
    return Semiring{SemiringKind::kMinPlus, "min_plus", kInf, 0.0};
  }
  if (lower == "max_plus") {
    return Semiring{SemiringKind::kMaxPlus, "max_plus", -kInf, 0.0};
  }
  if (lower == "or_and") {
    return Semiring{SemiringKind::kOrAnd, "or_and", 0.0, 1.0};
  }
  return Status::InvalidArgument(
      "unknown semiring '" + name +
      "' (expected plus_times, min_plus, max_plus, or or_and)");
}

const std::vector<std::string>& SemiringNames() {
  static const std::vector<std::string> kNames = {"plus_times", "min_plus",
                                                  "max_plus", "or_and"};
  return kNames;
}

// ------------------------------------------------------------------
// CsrMatrix
// ------------------------------------------------------------------

void CsrMatrix::PushEntry(size_t row, size_t col, double v) {
  (void)row;  // rows are sealed explicitly, ascending
  col_.push_back(static_cast<uint32_t>(col));
  val_.push_back(v);
}

void CsrMatrix::SealRowsThrough(size_t row) {
  row_ptr_[row + 1] = col_.size();
}

CsrMatrix CsrMatrix::FromDense(const Matrix& m, double threshold) {
  CsrMatrix out(m.rows(), m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowPtr(r);
    for (size_t c = 0; c < m.cols(); ++c) {
      if (std::fabs(row[c]) > threshold) out.PushEntry(r, c, row[c]);
    }
    out.SealRowsThrough(r);
  }
  Count("la.sparse.compress_calls", 1);
  return out;
}

Result<CsrMatrix> CsrMatrix::FromCoo(const CooMatrix& coo) {
  std::vector<CooEntry> sorted = coo.entries;
  std::sort(sorted.begin(), sorted.end(),
            [](const CooEntry& a, const CooEntry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  CsrMatrix out(coo.rows, coo.cols);
  size_t cur_row = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const CooEntry& e = sorted[i];
    if (e.row >= coo.rows || e.col >= coo.cols) {
      return Status::InvalidArgument(
          "COO entry (" + std::to_string(e.row) + ", " +
          std::to_string(e.col) + ") out of range for " +
          std::to_string(coo.rows) + "x" + std::to_string(coo.cols));
    }
    if (i > 0 && sorted[i - 1].row == e.row && sorted[i - 1].col == e.col) {
      return Status::InvalidArgument(
          "duplicate COO entry at (" + std::to_string(e.row) + ", " +
          std::to_string(e.col) + ")");
    }
    while (cur_row < e.row) out.SealRowsThrough(cur_row++);
    if (e.val != 0.0) out.PushEntry(e.row, e.col, e.val);
  }
  while (cur_row < coo.rows) out.SealRowsThrough(cur_row++);
  return out;
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    double* row = out.RowPtr(r);
    for (uint64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      row[col_[i]] = val_[i];
    }
  }
  Count("la.sparse.densify_calls", 1);
  return out;
}

CooMatrix CsrMatrix::ToCoo() const {
  CooMatrix out;
  out.rows = rows_;
  out.cols = cols_;
  out.entries.reserve(nnz());
  for (size_t r = 0; r < rows_; ++r) {
    for (uint64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      out.entries.push_back(CooEntry{r, col_[i], val_[i]});
    }
  }
  return out;
}

double CsrMatrix::At(size_t r, size_t c) const {
  const uint64_t b = row_ptr_[r], e = row_ptr_[r + 1];
  auto it = std::lower_bound(col_.begin() + static_cast<ptrdiff_t>(b),
                             col_.begin() + static_cast<ptrdiff_t>(e),
                             static_cast<uint32_t>(c));
  if (it != col_.begin() + static_cast<ptrdiff_t>(e) &&
      *it == static_cast<uint32_t>(c)) {
    return val_[static_cast<size_t>(it - col_.begin())];
  }
  return 0.0;
}

std::string CsrMatrix::ToString(size_t max_entries) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " sparse nnz=" << nnz() << " [";
  size_t shown = 0;
  for (size_t r = 0; r < rows_ && shown < max_entries; ++r) {
    for (uint64_t i = row_ptr_[r];
         i < row_ptr_[r + 1] && shown < max_entries; ++i, ++shown) {
      if (shown > 0) os << " ";
      os << "(" << r << "," << col_[i] << ")=" << val_[i];
    }
  }
  if (nnz() > max_entries) os << " ...";
  os << "]";
  return os.str();
}

// ------------------------------------------------------------------
// Sparse kernels
// ------------------------------------------------------------------

Result<CsrMatrix> SpGemm(const CsrMatrix& a, const CsrMatrix& b,
                         const Semiring& s) {
  if (a.cols() != b.rows()) {
    return ShapeMismatch("matrix_multiply", a.rows(), a.cols(), b.rows(),
                         b.cols());
  }
  const size_t n = b.cols();
  CsrMatrix out(a.rows(), n);
  // Gustavson with a dense accumulator row. Per output cell the ⊕
  // order is k ascending (CSR rows are sorted), matching the dense
  // i-k-j kernel's accumulation order for bit-identical plus-times.
  //
  // Occupied columns are tracked in a word bitmap instead of the
  // classic unsorted touched-list: scanning set bits emits columns in
  // ascending order for free, where sorting a per-row touched list
  // dominated the whole kernel at low density (hundreds of tiny
  // std::sort calls per multiply). Plus-times additionally gets a
  // specialized inner loop — the semiring indirection is a
  // non-inlined call per element, exactly the margin the
  // density-adaptive dispatch exists to win. Accumulation order is
  // unchanged either way, so results stay bit-for-bit the same.
  std::vector<double> acc(n, s.zero);
  const size_t words = (n + 63) / 64;
  std::vector<uint64_t> occupied(words, 0);
  uint64_t flops = 0;
  const bool plus_times = s.kind == SemiringKind::kPlusTimes;
  for (size_t i = 0; i < a.rows(); ++i) {
    for (uint64_t ai = a.row_ptr()[i]; ai < a.row_ptr()[i + 1]; ++ai) {
      const double aik = a.values()[ai];
      const size_t k = a.col_idx()[ai];
      const uint64_t b_end = b.row_ptr()[k + 1];
      if (plus_times) {
        for (uint64_t bi = b.row_ptr()[k]; bi < b_end; ++bi) {
          const uint32_t j = b.col_idx()[bi];
          acc[j] += aik * b.values()[bi];
          occupied[j >> 6] |= uint64_t{1} << (j & 63);
        }
        flops += b_end - b.row_ptr()[k];
        continue;
      }
      for (uint64_t bi = b.row_ptr()[k]; bi < b_end; ++bi) {
        const uint32_t j = b.col_idx()[bi];
        acc[j] = s.Add(acc[j], s.Mul(aik, b.values()[bi]));
        occupied[j >> 6] |= uint64_t{1} << (j & 63);
        ++flops;
      }
    }
    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = occupied[w];
      if (bits == 0) continue;
      occupied[w] = 0;
      while (bits != 0) {
        const size_t j = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (!IsStructural(acc[j], s)) out.PushEntry(i, j, acc[j]);
        acc[j] = s.zero;
      }
    }
    out.SealRowsThrough(i);
  }
  Count("la.sparse.spgemm_calls", 1);
  Count("la.sparse.flops", 2 * flops);
  Count("la.sparse.nnz_out", out.nnz());
  return out;
}

Result<Matrix> SpMm(const CsrMatrix& a, const Matrix& b, const Semiring& s) {
  if (a.cols() != b.rows()) {
    return ShapeMismatch("matrix_multiply", a.rows(), a.cols(), b.rows(),
                         b.cols());
  }
  const size_t n = b.cols();
  Matrix out(a.rows(), n, s.zero);
  uint64_t flops = 0;
  for (size_t i = 0; i < a.rows(); ++i) {
    double* out_row = out.RowPtr(i);
    for (uint64_t ai = a.row_ptr()[i]; ai < a.row_ptr()[i + 1]; ++ai) {
      const double aik = a.values()[ai];
      const double* b_row = b.RowPtr(a.col_idx()[ai]);
      for (size_t j = 0; j < n; ++j) {
        if (b_row[j] == 0.0) continue;  // structural
        out_row[j] = s.Add(out_row[j], s.Mul(aik, b_row[j]));
        ++flops;
      }
    }
    for (size_t j = 0; j < n; ++j) {
      if (IsStructural(out_row[j], s)) out_row[j] = 0.0;
    }
  }
  Count("la.sparse.spmm_calls", 1);
  Count("la.sparse.flops", 2 * flops);
  return out;
}

Matrix SpTransposeSelfMultiply(const CsrMatrix& a, const Semiring& s) {
  const size_t n = a.cols();
  Matrix out(n, n, s.zero);
  uint64_t flops = 0;
  // Rank-1 updates row by row over the symmetric upper half, like the
  // dense tsmm; all our semirings have commutative ⊗ so mirroring is
  // exact.
  for (size_t r = 0; r < a.rows(); ++r) {
    for (uint64_t ai = a.row_ptr()[r]; ai < a.row_ptr()[r + 1]; ++ai) {
      const size_t i = a.col_idx()[ai];
      const double v = a.values()[ai];
      double* out_row = out.RowPtr(i);
      for (uint64_t aj = ai; aj < a.row_ptr()[r + 1]; ++aj) {
        const size_t j = a.col_idx()[aj];
        out_row[j] = s.Add(out_row[j], s.Mul(v, a.values()[aj]));
        ++flops;
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) out.At(i, j) = out.At(j, i);
    for (size_t j = i; j < n; ++j) {
      if (IsStructural(out.At(i, j), s)) out.At(i, j) = 0.0;
    }
  }
  // Re-mirror after the structural fixup so both halves agree.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) out.At(i, j) = out.At(j, i);
  }
  Count("la.sparse.sptsmm_calls", 1);
  Count("la.sparse.flops", 2 * flops);
  return out;
}

Result<Vector> SpMV(const CsrMatrix& a, const Vector& x, const Semiring& s) {
  if (a.cols() != x.size()) {
    return ShapeMismatch("matrix_vector_multiply", a.rows(), a.cols(),
                         x.size(), 1);
  }
  Vector out(a.rows(), s.zero);
  uint64_t flops = 0;
  for (size_t i = 0; i < a.rows(); ++i) {
    double acc = s.zero;
    for (uint64_t ai = a.row_ptr()[i]; ai < a.row_ptr()[i + 1]; ++ai) {
      acc = s.Add(acc, s.Mul(a.values()[ai], x[a.col_idx()[ai]]));
      ++flops;
    }
    out[i] = acc;  // vector results stay literal (may be s.zero)
  }
  Count("la.sparse.spmv_calls", 1);
  Count("la.sparse.flops", 2 * flops);
  return out;
}

Result<Vector> SpVM(const Vector& x, const CsrMatrix& a, const Semiring& s) {
  if (x.size() != a.rows()) {
    return ShapeMismatch("vector_matrix_multiply", 1, x.size(), a.rows(),
                         a.cols());
  }
  Vector out(a.cols(), s.zero);
  uint64_t flops = 0;
  for (size_t r = 0; r < a.rows(); ++r) {
    const double xr = x[r];
    for (uint64_t ai = a.row_ptr()[r]; ai < a.row_ptr()[r + 1]; ++ai) {
      const uint32_t c = a.col_idx()[ai];
      out[c] = s.Add(out[c], s.Mul(xr, a.values()[ai]));
      ++flops;
    }
  }
  Count("la.sparse.spvm_calls", 1);
  Count("la.sparse.flops", 2 * flops);
  return out;
}

CsrMatrix SpTranspose(const CsrMatrix& a) {
  CsrMatrix out(a.cols(), a.rows());
  // Counting sort by column: bucket sizes, then stable placement —
  // output rows come out with ascending column indexes.
  std::vector<uint64_t> counts(a.cols() + 1, 0);
  for (uint32_t c : a.col_idx()) ++counts[c + 1];
  for (size_t i = 1; i < counts.size(); ++i) counts[i] += counts[i - 1];
  std::vector<uint32_t> tcol(a.nnz());
  std::vector<double> tval(a.nnz());
  std::vector<uint64_t> next = counts;
  for (size_t r = 0; r < a.rows(); ++r) {
    for (uint64_t ai = a.row_ptr()[r]; ai < a.row_ptr()[r + 1]; ++ai) {
      const uint64_t pos = next[a.col_idx()[ai]]++;
      tcol[pos] = static_cast<uint32_t>(r);
      tval[pos] = a.values()[ai];
    }
  }
  size_t pos = 0;
  for (size_t r = 0; r < a.cols(); ++r) {
    while (pos < counts[r + 1]) {
      out.PushEntry(r, tcol[pos], tval[pos]);
      ++pos;
    }
    out.SealRowsThrough(r);
  }
  return out;
}

Result<CsrMatrix> EWiseAdd(const CsrMatrix& a, const CsrMatrix& b,
                           const Semiring& s) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ShapeMismatch("elementwise_add", a.rows(), a.cols(), b.rows(),
                         b.cols());
  }
  CsrMatrix out(a.rows(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    uint64_t i = a.row_ptr()[r], j = b.row_ptr()[r];
    const uint64_t ie = a.row_ptr()[r + 1], je = b.row_ptr()[r + 1];
    while (i < ie || j < je) {
      double v;
      size_t c;
      if (j >= je || (i < ie && a.col_idx()[i] < b.col_idx()[j])) {
        c = a.col_idx()[i];
        v = a.values()[i++];  // ⊕ with missing = identity
      } else if (i >= ie || b.col_idx()[j] < a.col_idx()[i]) {
        c = b.col_idx()[j];
        v = b.values()[j++];
      } else {
        c = a.col_idx()[i];
        v = s.Add(a.values()[i++], b.values()[j++]);
      }
      if (!IsStructural(v, s)) out.PushEntry(r, c, v);
    }
    out.SealRowsThrough(r);
  }
  Count("la.sparse.ewise_calls", 1);
  return out;
}

Result<CsrMatrix> EWiseMul(const CsrMatrix& a, const CsrMatrix& b,
                           const Semiring& s) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ShapeMismatch("elementwise_multiply", a.rows(), a.cols(),
                         b.rows(), b.cols());
  }
  CsrMatrix out(a.rows(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    uint64_t i = a.row_ptr()[r], j = b.row_ptr()[r];
    const uint64_t ie = a.row_ptr()[r + 1], je = b.row_ptr()[r + 1];
    while (i < ie && j < je) {
      if (a.col_idx()[i] < b.col_idx()[j]) {
        ++i;
      } else if (b.col_idx()[j] < a.col_idx()[i]) {
        ++j;
      } else {
        const double v = s.Mul(a.values()[i], b.values()[j]);
        if (!IsStructural(v, s)) out.PushEntry(r, a.col_idx()[i], v);
        ++i;
        ++j;
      }
    }
    out.SealRowsThrough(r);
  }
  Count("la.sparse.ewise_calls", 1);
  return out;
}

Result<CsrMatrix> Mask(const CsrMatrix& a, const CsrMatrix& mask,
                       bool complement) {
  if (a.rows() != mask.rows() || a.cols() != mask.cols()) {
    return ShapeMismatch("matrix_mask", a.rows(), a.cols(), mask.rows(),
                         mask.cols());
  }
  CsrMatrix out(a.rows(), a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    uint64_t j = mask.row_ptr()[r];
    const uint64_t je = mask.row_ptr()[r + 1];
    for (uint64_t i = a.row_ptr()[r]; i < a.row_ptr()[r + 1]; ++i) {
      const uint32_t c = a.col_idx()[i];
      while (j < je && mask.col_idx()[j] < c) ++j;
      const bool present = j < je && mask.col_idx()[j] == c;
      if (present != complement) out.PushEntry(r, c, a.values()[i]);
    }
    out.SealRowsThrough(r);
  }
  Count("la.sparse.mask_calls", 1);
  return out;
}

// ------------------------------------------------------------------
// Dense semiring kernels (oracle + dense non-plus-times path)
// ------------------------------------------------------------------

Result<Matrix> DenseMultiply(const Matrix& a, const Matrix& b,
                             const Semiring& s) {
  if (s.kind == SemiringKind::kPlusTimes) return Multiply(a, b);
  if (a.cols() != b.rows()) {
    return ShapeMismatch("matrix_multiply", a.rows(), a.cols(), b.rows(),
                         b.cols());
  }
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix out(m, n, s.zero);
  for (size_t i = 0; i < m; ++i) {
    double* out_row = out.RowPtr(i);
    const double* a_row = a.RowPtr(i);
    for (size_t kk = 0; kk < k; ++kk) {
      const double aik = a_row[kk];
      if (aik == 0.0) continue;  // structural
      const double* b_row = b.RowPtr(kk);
      for (size_t j = 0; j < n; ++j) {
        if (b_row[j] == 0.0) continue;
        out_row[j] = s.Add(out_row[j], s.Mul(aik, b_row[j]));
      }
    }
    for (size_t j = 0; j < n; ++j) {
      if (IsStructural(out_row[j], s)) out_row[j] = 0.0;
    }
  }
  return out;
}

Matrix DenseTransposeSelfMultiply(const Matrix& a, const Semiring& s) {
  if (s.kind == SemiringKind::kPlusTimes) return TransposeSelfMultiply(a);
  const size_t n = a.cols();
  Matrix out(n, n, s.zero);
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.RowPtr(r);
    for (size_t i = 0; i < n; ++i) {
      const double v = row[i];
      if (v == 0.0) continue;
      double* out_row = out.RowPtr(i);
      for (size_t j = i; j < n; ++j) {
        if (row[j] == 0.0) continue;
        out_row[j] = s.Add(out_row[j], s.Mul(v, row[j]));
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) {
      if (IsStructural(out.At(i, j), s)) out.At(i, j) = 0.0;
    }
    for (size_t j = 0; j < i; ++j) out.At(i, j) = out.At(j, i);
  }
  return out;
}

Result<Vector> DenseMatVec(const Matrix& a, const Vector& x,
                           const Semiring& s) {
  if (s.kind == SemiringKind::kPlusTimes) return MatrixVectorMultiply(a, x);
  if (a.cols() != x.size()) {
    return ShapeMismatch("matrix_vector_multiply", a.rows(), a.cols(),
                         x.size(), 1);
  }
  Vector out(a.rows(), s.zero);
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.RowPtr(r);
    double acc = s.zero;
    for (size_t c = 0; c < a.cols(); ++c) {
      if (row[c] == 0.0) continue;  // structural matrix entry
      acc = s.Add(acc, s.Mul(row[c], x[c]));
    }
    out[r] = acc;
  }
  return out;
}

Result<Vector> DenseVecMat(const Vector& x, const Matrix& a,
                           const Semiring& s) {
  if (s.kind == SemiringKind::kPlusTimes) return VectorMatrixMultiply(x, a);
  if (x.size() != a.rows()) {
    return ShapeMismatch("vector_matrix_multiply", 1, x.size(), a.rows(),
                         a.cols());
  }
  Vector out(a.cols(), s.zero);
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.RowPtr(r);
    for (size_t c = 0; c < a.cols(); ++c) {
      if (row[c] == 0.0) continue;
      out[c] = s.Add(out[c], s.Mul(x[r], row[c]));
    }
  }
  return out;
}

Result<Matrix> DenseEWiseAdd(const Matrix& a, const Matrix& b,
                             const Semiring& s) {
  if (s.kind == SemiringKind::kPlusTimes) return Add(a, b);
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ShapeMismatch("elementwise_add", a.rows(), a.cols(), b.rows(),
                         b.cols());
  }
  Matrix out(a.rows(), a.cols());
  for (size_t i = 0; i < a.rows() * a.cols(); ++i) {
    const double av = a.data()[i], bv = b.data()[i];
    double v;
    if (av == 0.0) {
      v = bv;
    } else if (bv == 0.0) {
      v = av;
    } else {
      v = s.Add(av, bv);
    }
    out.data()[i] = IsStructural(v, s) ? 0.0 : v;
  }
  return out;
}

Result<Matrix> DenseEWiseMul(const Matrix& a, const Matrix& b,
                             const Semiring& s) {
  if (s.kind == SemiringKind::kPlusTimes) return Mul(a, b);
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ShapeMismatch("elementwise_multiply", a.rows(), a.cols(),
                         b.rows(), b.cols());
  }
  Matrix out(a.rows(), a.cols());
  for (size_t i = 0; i < a.rows() * a.cols(); ++i) {
    const double av = a.data()[i], bv = b.data()[i];
    if (av == 0.0 || bv == 0.0) continue;  // ⊗ annihilator
    const double v = s.Mul(av, bv);
    out.data()[i] = IsStructural(v, s) ? 0.0 : v;
  }
  return out;
}

Result<Vector> VectorEWiseAdd(const Vector& a, const Vector& b,
                              const Semiring& s) {
  if (a.size() != b.size()) {
    return ShapeMismatch("vector_elementwise_add", 1, a.size(), 1, b.size());
  }
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = s.Add(a[i], b[i]);
  return out;
}

size_t DenseNnz(const Matrix& m) {
  size_t n = 0;
  for (size_t i = 0; i < m.rows() * m.cols(); ++i) {
    if (m.data()[i] != 0.0) ++n;
  }
  return n;
}

}  // namespace radb::la::sparse
