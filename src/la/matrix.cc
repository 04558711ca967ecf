#include "la/matrix.h"

#include "la/kernel.h"
#include "obs/metrics_registry.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

namespace radb::la {

namespace {

Status ShapeMismatch(const char* op, size_t ar, size_t ac, size_t br,
                     size_t bc) {
  return Status::DimensionMismatch(
      std::string(op) + ": shapes " + std::to_string(ar) + "x" +
      std::to_string(ac) + " and " + std::to_string(br) + "x" +
      std::to_string(bc) + " are incompatible");
}

}  // namespace

Matrix::Matrix(size_t rows, size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  assert(data_.size() == rows * cols);
}

Matrix Matrix::Identity(size_t r) {
  Matrix m(r, r);
  for (size_t i = 0; i < r; ++i) m.At(i, i) = 1.0;
  return m;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return std::numeric_limits<double>::infinity();
  }
  return la::MaxAbsDiff(data(), other.data(), data_.size());
}

Vector Matrix::Row(size_t r) const {
  Vector v(cols_);
  const double* p = RowPtr(r);
  for (size_t c = 0; c < cols_; ++c) v[c] = p[c];
  return v;
}

Vector Matrix::Col(size_t c) const {
  Vector v(rows_);
  for (size_t r = 0; r < rows_; ++r) v[r] = At(r, c);
  return v;
}

void Matrix::SetRow(size_t r, const Vector& v) {
  assert(v.size() == cols_);
  double* p = RowPtr(r);
  for (size_t c = 0; c < cols_; ++c) p[c] = v[c];
}

void Matrix::SetCol(size_t c, const Vector& v) {
  assert(v.size() == rows_);
  for (size_t r = 0; r < rows_; ++r) At(r, c) = v[r];
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::Min() const {
  double m = std::numeric_limits<double>::infinity();
  for (double v : data_) m = std::min(m, v);
  return m;
}

double Matrix::Max() const {
  double m = -std::numeric_limits<double>::infinity();
  for (double v : data_) m = std::max(m, v);
  return m;
}

double Matrix::NormF() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

Vector Matrix::RowMins() const {
  Vector out(rows_, std::numeric_limits<double>::infinity());
  for (size_t r = 0; r < rows_; ++r) {
    const double* p = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) out[r] = std::min(out[r], p[c]);
  }
  return out;
}

Vector Matrix::RowMaxs() const {
  Vector out(rows_, -std::numeric_limits<double>::infinity());
  for (size_t r = 0; r < rows_; ++r) {
    const double* p = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) out[r] = std::max(out[r], p[c]);
  }
  return out;
}

std::string Matrix::ToString(size_t max_rows, size_t max_cols) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " [";
  for (size_t r = 0; r < rows_ && r < max_rows; ++r) {
    if (r > 0) os << "; ";
    for (size_t c = 0; c < cols_ && c < max_cols; ++c) {
      if (c > 0) os << " ";
      os << At(r, c);
    }
    if (cols_ > max_cols) os << " ...";
  }
  if (rows_ > max_rows) os << "; ...";
  os << "]";
  return os.str();
}

Result<Matrix> Multiply(const Matrix& a, const Matrix& b) {
  return kernel::Multiply(kernel::ActiveIsa(), a, b);
}

Matrix TransposeSelfMultiply(const Matrix& a) {
  return kernel::TransposeSelfMultiply(kernel::ActiveIsa(), a);
}

Result<Vector> MatrixVectorMultiply(const Matrix& a, const Vector& v) {
  if (a.cols() != v.size()) {
    return ShapeMismatch("matrix_vector_multiply", a.rows(), a.cols(),
                         v.size(), 1);
  }
  if (obs::MetricsRegistry* reg = obs::GlobalMetrics()) {
    reg->Add("la.matvec_calls", 1);
    reg->Add("la.matvec_flops", 2 * a.rows() * a.cols());
  }
  Vector out(a.rows());
  // Each out[r] is an independent dot product — trivially band-safe.
  kernel::ForRowBands(
      a.rows(), 2 * a.rows() * a.cols(), [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const double* row = a.RowPtr(r);
          double s = 0.0;
          for (size_t c = 0; c < a.cols(); ++c) s += row[c] * v[c];
          out[r] = s;
        }
      });
  return out;
}

Result<Vector> VectorMatrixMultiply(const Vector& v, const Matrix& a) {
  return kernel::VectorMatrixMultiply(kernel::ActiveIsa(), v, a);
}

Matrix OuterProduct(const Vector& a, const Vector& b) {
  if (obs::MetricsRegistry* reg = obs::GlobalMetrics()) {
    reg->Add("la.outer_product_calls", 1);
    reg->Add("la.outer_product_flops", a.size() * b.size());
  }
  Matrix out(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    const double ar = a[r];
    double* row = out.RowPtr(r);
    for (size_t c = 0; c < b.size(); ++c) row[c] = ar * b[c];
  }
  return out;
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  // Tiled transpose to stay cache-friendly on large matrices.
  constexpr size_t kTile = 32;
  for (size_t r0 = 0; r0 < a.rows(); r0 += kTile) {
    const size_t r1 = std::min(r0 + kTile, a.rows());
    for (size_t c0 = 0; c0 < a.cols(); c0 += kTile) {
      const size_t c1 = std::min(c0 + kTile, a.cols());
      for (size_t r = r0; r < r1; ++r) {
        for (size_t c = c0; c < c1; ++c) out.At(c, r) = a.At(r, c);
      }
    }
  }
  return out;
}

Result<Vector> Diagonal(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::DimensionMismatch(
        "diag: matrix is " + std::to_string(a.rows()) + "x" +
        std::to_string(a.cols()) + ", expected square");
  }
  Vector out(a.rows());
  for (size_t i = 0; i < a.rows(); ++i) out[i] = a.At(i, i);
  return out;
}

Matrix DiagonalMatrix(const Vector& v) {
  Matrix out(v.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) out.At(i, i) = v[i];
  return out;
}

namespace {

template <typename F>
Result<Matrix> ElementWise(const char* op, const Matrix& a, const Matrix& b,
                           F f) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ShapeMismatch(op, a.rows(), a.cols(), b.rows(), b.cols());
  }
  Matrix out(a.rows(), a.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out.data();
  const size_t n = a.rows() * a.cols();
  for (size_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
  return out;
}

template <typename F>
Matrix ScalarWise(const Matrix& a, F f) {
  Matrix out(a.rows(), a.cols());
  const double* pa = a.data();
  double* po = out.data();
  const size_t n = a.rows() * a.cols();
  for (size_t i = 0; i < n; ++i) po[i] = f(pa[i]);
  return out;
}

}  // namespace

Status AddInPlace(Matrix* dst, const Matrix& src) {
  if (dst->rows() != src.rows() || dst->cols() != src.cols()) {
    return ShapeMismatch("add", dst->rows(), dst->cols(), src.rows(),
                         src.cols());
  }
  double* d = dst->data();
  const double* s = src.data();
  const size_t n = src.rows() * src.cols();
  for (size_t i = 0; i < n; ++i) d[i] += s[i];
  return Status::OK();
}

Result<Matrix> Add(const Matrix& a, const Matrix& b) {
  return ElementWise("add", a, b, [](double x, double y) { return x + y; });
}
Result<Matrix> Sub(const Matrix& a, const Matrix& b) {
  return ElementWise("sub", a, b, [](double x, double y) { return x - y; });
}
Result<Matrix> Mul(const Matrix& a, const Matrix& b) {
  return ElementWise("mul", a, b, [](double x, double y) { return x * y; });
}
Result<Matrix> Div(const Matrix& a, const Matrix& b) {
  return ElementWise("div", a, b, [](double x, double y) { return x / y; });
}

Matrix AddScalar(const Matrix& a, double s) {
  return ScalarWise(a, [s](double x) { return x + s; });
}
Matrix SubScalar(const Matrix& a, double s) {
  return ScalarWise(a, [s](double x) { return x - s; });
}
Matrix RsubScalar(double s, const Matrix& a) {
  return ScalarWise(a, [s](double x) { return s - x; });
}
Matrix MulScalar(const Matrix& a, double s) {
  return ScalarWise(a, [s](double x) { return x * s; });
}
Matrix DivScalar(const Matrix& a, double s) {
  return ScalarWise(a, [s](double x) { return x / s; });
}
Matrix RdivScalar(double s, const Matrix& a) {
  return ScalarWise(a, [s](double x) { return s / x; });
}

Result<LuDecomposition> LuDecompose(const Matrix& a) {
  return kernel::LuDecompose(kernel::ActiveIsa(), a);
}

Result<Vector> Solve(const Matrix& a, const Vector& b) {
  return kernel::Solve(kernel::ActiveIsa(), a, b);
}

Result<Matrix> SolveMatrix(const Matrix& a, const Matrix& b) {
  return kernel::SolveMatrix(kernel::ActiveIsa(), a, b);
}

Result<Matrix> Inverse(const Matrix& a) {
  return kernel::Inverse(kernel::ActiveIsa(), a);
}

Result<Matrix> Cholesky(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::DimensionMismatch("cholesky: expected square matrix");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t j = 0; j < n; ++j) {
    double diag = a.At(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l.At(j, k) * l.At(j, k);
    if (diag <= 0.0) {
      return Status::NumericError(
          "matrix is not positive definite (pivot " + std::to_string(diag) +
          " at column " + std::to_string(j) + ")");
    }
    const double ljj = std::sqrt(diag);
    l.At(j, j) = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      double s = a.At(i, j);
      const double* row_i = l.RowPtr(i);
      const double* row_j = l.RowPtr(j);
      for (size_t k = 0; k < j; ++k) s -= row_i[k] * row_j[k];
      l.At(i, j) = s / ljj;
    }
  }
  return l;
}

Result<Vector> SolveSpd(const Matrix& a, const Vector& b) {
  if (a.rows() != b.size()) {
    return ShapeMismatch("solve_spd", a.rows(), a.cols(), b.size(), 1);
  }
  RADB_ASSIGN_OR_RETURN(Matrix l, Cholesky(a));
  const size_t n = b.size();
  // Forward substitution L y = b.
  Vector y(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    const double* row = l.RowPtr(i);
    for (size_t j = 0; j < i; ++j) s -= row[j] * y[j];
    y[i] = s / row[i];
  }
  // Back substitution Lᵀ x = y.
  Vector x(n);
  for (size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (size_t j = ii + 1; j < n; ++j) s -= l.At(j, ii) * x[j];
    x[ii] = s / l.At(ii, ii);
  }
  return x;
}

Result<double> Determinant(const Matrix& a) {
  auto d = LuDecompose(a);
  if (!d.ok()) {
    if (d.status().code() == StatusCode::kNumericError) return 0.0;
    return d.status();
  }
  double det = d->sign;
  for (size_t i = 0; i < a.rows(); ++i) det *= d->lu.At(i, i);
  return det;
}

Result<double> Trace(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::DimensionMismatch("trace: expected square matrix");
  }
  double t = 0.0;
  for (size_t i = 0; i < a.rows(); ++i) t += a.At(i, i);
  return t;
}

}  // namespace radb::la
