#ifndef RADB_LA_MATRIX_H_
#define RADB_LA_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "la/vector.h"

namespace radb::la {

/// Dense row-major matrix of doubles; the runtime payload of the SQL
/// MATRIX type. All kernels are written from scratch (no BLAS/LAPACK,
/// per the reproduction rules); products and solves run on the
/// register-blocked kernels of la/kernel.h.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(size_t rows, size_t cols, std::vector<double> data);

  /// r-by-r identity.
  static Matrix Identity(size_t r);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  /// Allocation-exact heap bytes (capacity-aware) — the number the
  /// MemoryTracker is charged. Serialized size is rows*cols*8 and is
  /// computed by Value::ByteSize directly.
  size_t ByteSize() const { return data_.capacity() * sizeof(double); }

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

  /// Max |a_ij - b_ij| under la::MaxAbsDiff's NaN rule; infinity on
  /// shape mismatch.
  double MaxAbsDiff(const Matrix& other) const;

  Vector Row(size_t r) const;
  Vector Col(size_t c) const;
  /// Copies `v` into row `r` (sizes must already match; asserts).
  void SetRow(size_t r, const Vector& v);
  void SetCol(size_t c, const Vector& v);

  double Sum() const;
  double Min() const;
  double Max() const;
  /// Frobenius norm.
  double NormF() const;

  /// Per-row minima as a column vector (used by the SystemML-style
  /// engine's rowMins).
  Vector RowMins() const;
  Vector RowMaxs() const;

  std::string ToString(size_t max_rows = 4, size_t max_cols = 8) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// out = a * b. Shape-checked: a.cols == b.rows.
Result<Matrix> Multiply(const Matrix& a, const Matrix& b);
/// out = aᵀ * a without materializing aᵀ (the "tsmm" pattern the
/// SystemML engine exploits for Gram matrices).
Matrix TransposeSelfMultiply(const Matrix& a);
/// out = a * v (v interpreted as a column vector). Shape-checked.
Result<Vector> MatrixVectorMultiply(const Matrix& a, const Vector& v);
/// out = vᵀ * a (v interpreted as a row vector). Shape-checked.
Result<Vector> VectorMatrixMultiply(const Vector& v, const Matrix& a);
/// Outer product a bᵀ: (|a| x |b|) matrix.
Matrix OuterProduct(const Vector& a, const Vector& b);
/// aᵀ.
Matrix Transpose(const Matrix& a);
/// Main diagonal of a square matrix. Shape-checked (paper §4.2:
/// diag(MATRIX[a][a]) -> VECTOR[a]).
Result<Vector> Diagonal(const Matrix& a);
/// Square diagonal matrix with `v` on the diagonal.
Matrix DiagonalMatrix(const Vector& v);

/// dst += src, shape-checked. The allocation-free accumulate path the
/// SUM aggregate uses (one fresh matrix per row would dominate Gram
/// computations otherwise).
Status AddInPlace(Matrix* dst, const Matrix& src);

/// Element-wise arithmetic, shape-checked.
Result<Matrix> Add(const Matrix& a, const Matrix& b);
Result<Matrix> Sub(const Matrix& a, const Matrix& b);
Result<Matrix> Mul(const Matrix& a, const Matrix& b);  // Hadamard
Result<Matrix> Div(const Matrix& a, const Matrix& b);

/// Scalar broadcast.
Matrix AddScalar(const Matrix& a, double s);
Matrix SubScalar(const Matrix& a, double s);   // a - s
Matrix RsubScalar(double s, const Matrix& a);  // s - a
Matrix MulScalar(const Matrix& a, double s);
Matrix DivScalar(const Matrix& a, double s);   // a / s
Matrix RdivScalar(double s, const Matrix& a);  // s / a

/// LU decomposition with partial pivoting, in place on a copy.
/// Returns {LU, perm, sign} or NumericError for singular input.
struct LuDecomposition {
  Matrix lu;
  std::vector<size_t> perm;
  int sign = 1;
};
Result<LuDecomposition> LuDecompose(const Matrix& a);

/// Solves a x = b for square a via LU. Shape-checked.
Result<Vector> Solve(const Matrix& a, const Vector& b);
/// Solves a X = B for all columns of B at once. Shape-checked.
Result<Matrix> SolveMatrix(const Matrix& a, const Matrix& b);
/// a⁻¹ for square non-singular a. NumericError when singular.
Result<Matrix> Inverse(const Matrix& a);
/// Cholesky factor L with a = L Lᵀ (lower triangular). NumericError
/// when `a` is not (numerically) symmetric positive definite.
Result<Matrix> Cholesky(const Matrix& a);
/// SPD solve through Cholesky — the right factorization for normal
/// equations XᵀX β = Xᵀy (about half the flops of LU).
Result<Vector> SolveSpd(const Matrix& a, const Vector& b);
/// det(a) via LU. Shape-checked.
Result<double> Determinant(const Matrix& a);
/// Trace of a square matrix.
Result<double> Trace(const Matrix& a);

}  // namespace radb::la

#endif  // RADB_LA_MATRIX_H_
