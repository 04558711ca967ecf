#ifndef RADB_LA_SPARSE_SPARSE_H_
#define RADB_LA_SPARSE_SPARSE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "la/matrix.h"
#include "la/vector.h"

namespace radb::la::sparse {

// ---------------------------------------------------------------------
// Semiring descriptor (LaraDB-style): one pair of operations (⊕, ⊗)
// parameterizes every kernel in this file, so numeric LA and graph
// algorithms (min-plus shortest paths, or-and reachability) share one
// implementation.
//
// Storage convention ("structural zero"): in both representations the
// stored value 0.0 means "no entry". Sparse matrices simply omit such
// entries; dense matrices hold a literal 0.0 cell. Every MATRIX kernel
// interprets a missing/0.0 entry as the semiring's ⊕-identity (`zero`
// below): under plus-times that IS ordinary arithmetic (and the dense
// plus-times path delegates to the existing kernels, bit for bit);
// under min-plus a 0.0 cell means "no edge" (+inf), so edge weights
// must be > 0. VECTOR arguments are always fully-stored and literal —
// a 0.0 vector entry is the number zero (e.g. the source distance in
// SSSP), never a structural hole. Computed matrix cells equal to the
// semiring's `zero` (or to 0.0) map back to "no entry".
// ---------------------------------------------------------------------
enum class SemiringKind { kPlusTimes, kMinPlus, kMaxPlus, kOrAnd };

struct Semiring {
  SemiringKind kind = SemiringKind::kPlusTimes;
  const char* name = "plus_times";
  double zero = 0.0;  // ⊕ identity and ⊗ annihilator
  double one = 1.0;   // ⊗ identity

  double Add(double a, double b) const;
  double Mul(double a, double b) const;
};

/// The default arithmetic semiring (+, *, 0, 1).
const Semiring& PlusTimes();
/// Lookup by SQL-visible name: "plus_times", "min_plus", "max_plus",
/// "or_and". InvalidArgument for anything else.
Result<Semiring> SemiringByName(const std::string& name);
/// All registered names, for error messages and the fuzzer.
const std::vector<std::string>& SemiringNames();

// ---------------------------------------------------------------------
// COO: the construction / interchange format. Entries need not be
// sorted; FromCoo sorts them. Explicit 0.0 values are dropped on
// conversion (structural convention above); duplicate coordinates are
// an InvalidArgument.
// ---------------------------------------------------------------------
struct CooEntry {
  uint64_t row = 0;
  uint64_t col = 0;
  double val = 0.0;
};

struct CooMatrix {
  uint64_t rows = 0;
  uint64_t cols = 0;
  std::vector<CooEntry> entries;

  /// Allocation-exact heap bytes (capacity-aware) for tracker charges.
  size_t ByteSize() const {
    return entries.capacity() * sizeof(CooEntry);
  }
};

// ---------------------------------------------------------------------
// CSR: the compute format. Canonical invariants (established by every
// constructor and kernel here): column indexes strictly ascending
// within each row, and no stored value equals 0.0 — so two CSR
// matrices are logically equal iff their arrays are equal.
// ---------------------------------------------------------------------
class CsrMatrix {
 public:
  CsrMatrix() : row_ptr_(1, 0) {}
  /// An empty (all-structural-zero) matrix of the given shape.
  CsrMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

  /// Compresses a dense matrix, keeping entries with |v| > threshold.
  /// The default threshold 0.0 drops exactly the (structural) zeros.
  static CsrMatrix FromDense(const Matrix& m, double threshold = 0.0);
  /// Sorts + validates COO input. InvalidArgument on out-of-range
  /// coordinates or duplicate (row, col) pairs.
  static Result<CsrMatrix> FromCoo(const CooMatrix& coo);

  Matrix ToDense() const;
  CooMatrix ToCoo() const;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return val_.size(); }
  /// nnz / (rows*cols); 1.0 for a degenerate 0-cell shape so empty
  /// tiles never look "sparse" to the dispatcher.
  double density() const {
    const size_t cells = rows_ * cols_;
    return cells == 0 ? 1.0 : static_cast<double>(nnz()) / cells;
  }

  const std::vector<uint64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<uint32_t>& col_idx() const { return col_; }
  const std::vector<double>& values() const { return val_; }

  /// Entry at (r, c): the stored value or 0.0. O(log row-nnz).
  double At(size_t r, size_t c) const;

  /// Allocation-exact heap bytes (capacity-aware), the number the
  /// MemoryTracker is charged. The serialized size is different —
  /// see SerializedByteSize.
  size_t ByteSize() const {
    return row_ptr_.capacity() * sizeof(uint64_t) +
           col_.capacity() * sizeof(uint32_t) +
           val_.capacity() * sizeof(double);
  }
  /// Exact payload bytes WriteValueBinary emits for this matrix
  /// (excluding the 1-byte value tag): dims + nnz + row_ptr + cols
  /// (as u64) + values.
  size_t SerializedByteSize() const {
    return 8 * 3 + (rows_ + 1) * 8 + nnz() * 16;
  }

  bool operator==(const CsrMatrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && row_ptr_ == o.row_ptr_ &&
           col_ == o.col_ && val_ == o.val_;
  }

  std::string ToString(size_t max_entries = 6) const;

  /// Internal: appends one entry; caller must respect the canonical
  /// order and never pass 0.0. Used by kernels and deserialization.
  void PushEntry(size_t row, size_t col, double v);
  /// Internal: closes out rows up to and including `row`.
  void SealRowsThrough(size_t row);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<uint64_t> row_ptr_;  // rows+1, cumulative nnz
  std::vector<uint32_t> col_;      // per-row ascending
  std::vector<double> val_;        // never 0.0
};

// ---------------------------------------------------------------------
// Sparse kernels. All written from scratch (no BLAS); accumulation
// visits k in ascending order per output cell — the same order as the
// dense kernels — so the plus-times results are bit-identical to
// la::Multiply / la::TransposeSelfMultiply / la::*VectorMultiply on
// matrices that sparsify losslessly.
// ---------------------------------------------------------------------

/// Gustavson SpGEMM: c = a ⊗ b under `s`. DimensionMismatch on shape.
Result<CsrMatrix> SpGemm(const CsrMatrix& a, const CsrMatrix& b,
                         const Semiring& s);
/// Sparse × dense: c = a * b with a sparse, result dense.
Result<Matrix> SpMm(const CsrMatrix& a, const Matrix& b, const Semiring& s);
/// aᵀ ⊗ a without materializing aᵀ (sparse Gram); dense result.
Matrix SpTransposeSelfMultiply(const CsrMatrix& a, const Semiring& s);
/// y = a ⊗ x (x a literal column vector).
Result<Vector> SpMV(const CsrMatrix& a, const Vector& x, const Semiring& s);
/// y = xᵀ ⊗ a (x a literal row vector).
Result<Vector> SpVM(const Vector& x, const CsrMatrix& a, const Semiring& s);
/// aᵀ (counting sort over columns; stays canonical).
CsrMatrix SpTranspose(const CsrMatrix& a);
/// Element-wise union c_ij = a_ij ⊕ b_ij (missing = s.zero).
Result<CsrMatrix> EWiseAdd(const CsrMatrix& a, const CsrMatrix& b,
                           const Semiring& s);
/// Element-wise intersection c_ij = a_ij ⊗ b_ij.
Result<CsrMatrix> EWiseMul(const CsrMatrix& a, const CsrMatrix& b,
                           const Semiring& s);
/// Keeps a's entries where `mask` has an entry (complement = false) or
/// has none (complement = true).
Result<CsrMatrix> Mask(const CsrMatrix& a, const CsrMatrix& mask,
                       bool complement);

// ---------------------------------------------------------------------
// Dense semiring kernels: the oracle path for the sparse kernels and
// the execution path for non-plus-times multiplies of dense values.
// For plus-times these delegate to the existing dense kernels, so
// today's results stay bit-identical.
// ---------------------------------------------------------------------
Result<Matrix> DenseMultiply(const Matrix& a, const Matrix& b,
                             const Semiring& s);
Matrix DenseTransposeSelfMultiply(const Matrix& a, const Semiring& s);
Result<Vector> DenseMatVec(const Matrix& a, const Vector& x,
                           const Semiring& s);
Result<Vector> DenseVecMat(const Vector& x, const Matrix& a,
                           const Semiring& s);
Result<Matrix> DenseEWiseAdd(const Matrix& a, const Matrix& b,
                             const Semiring& s);
Result<Matrix> DenseEWiseMul(const Matrix& a, const Matrix& b,
                             const Semiring& s);
/// Literal element-wise v_i ⊕ w_i over two equal-length vectors (no
/// structural interpretation — see the convention above).
Result<Vector> VectorEWiseAdd(const Vector& a, const Vector& b,
                              const Semiring& s);

/// Number of cells not equal to 0.0 (for a dense matrix) — the dense
/// counterpart of CsrMatrix::nnz() under the storage convention.
size_t DenseNnz(const Matrix& m);

// ---------------------------------------------------------------------
// Density-adaptive dispatch policy. A dense left operand of a multiply
// whose density is <= kAutoSparsifyDensity is compressed on the fly
// and routed through the sparse kernel; the result representation
// still follows the inputs' representations (sparse results only
// appear when an input was explicitly sparse), so auto-dispatch is
// purely a kernel-selection device and results stay bit-identical.
// The threshold is where the sparse kernels stop winning clearly
// (bench/ablation_sparse).
// ---------------------------------------------------------------------
inline constexpr double kAutoSparsifyDensity = 0.05;

}  // namespace radb::la::sparse

#endif  // RADB_LA_SPARSE_SPARSE_H_
