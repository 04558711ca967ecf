#include "la/kernel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics_registry.h"

namespace radb::la::kernel {

namespace {

/// out = left * b over rows [r0, r1), where left(i, k) is
/// left[i * si + k * sk]: a's rows for Multiply and
/// VectorMatrixMultiply, a's columns for TransposeSelfMultiply.
struct ProductArgs {
  const double* left;
  size_t si, sk;
  size_t k;  // inner dimension
  const double* b;
  size_t ldb;
  size_t n;  // output columns
  double* c;
  size_t ldc;
  bool upper;  // only columns j >= the panel's first row (TSMM)
};

namespace baseline {
inline constexpr size_t kVecBytes = 16;
#include "la/dense_kernel.inc"
}  // namespace baseline

#if defined(__x86_64__)
#pragma GCC push_options
#pragma GCC target("avx2,no-fma")
namespace avx2 {
inline constexpr size_t kVecBytes = 32;
#include "la/dense_kernel.inc"
}  // namespace avx2
#pragma GCC pop_options
#endif

struct Variant {
  void (*product_rows)(const ProductArgs&, size_t, size_t);
  bool (*lu_factor)(double*, size_t, size_t*, int*, size_t*);
  void (*lu_solve)(const double*, const size_t*, size_t, const double*,
                   size_t, double*);
};

const Variant& VariantFor(Isa isa) {
  static constexpr Variant kBaseline{&baseline::ProductRows,
                                     &baseline::LuFactor, &baseline::LuSolve};
#if defined(__x86_64__)
  static constexpr Variant kAvx2{&avx2::ProductRows, &avx2::LuFactor,
                                 &avx2::LuSolve};
  if (isa == Isa::kAvx2) return kAvx2;
#endif
  (void)isa;
  return kBaseline;
}

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

/// Solves a x = b for the m columns of the row-major n x m `b`. Per
/// column: n(n-1) multiply-subtract pairs and n divisions.
void Substitute(Isa isa, const LuDecomposition& d, const double* b, size_t m,
                double* x) {
  const uint64_t n = d.perm.size();
  Count("la.solve_flops", m * (2 * n * n - n));
  VariantFor(isa).lu_solve(d.lu.data(), d.perm.data(), n, b, m, x);
}

}  // namespace

bool IsaSupported(Isa isa) {
  if (isa == Isa::kBaseline) return true;
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Isa ActiveIsa() {
  static const Isa isa =
      IsaSupported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kBaseline;
  return isa;
}

void ForRowBands(size_t rows, size_t flops,
                 const std::function<void(size_t, size_t)>& band) {
  constexpr size_t kMinParallelFlops = 1 << 16;
  ThreadPool* pool = GlobalPool();
  if (pool == nullptr || pool->num_threads() <= 1 ||
      flops < kMinParallelFlops) {
    band(0, rows);
    return;
  }
  const size_t panels = (rows + kTileRows - 1) / kTileRows;
  pool->ParallelRanges(panels, [&](size_t p0, size_t p1) {
    band(p0 * kTileRows, std::min(p1 * kTileRows, rows));
  });
}

Result<Matrix> Multiply(Isa isa, const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    return ShapeMismatch("matrix_multiply", a.rows(), a.cols(), b.rows(),
                         b.cols());
  }
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  Count("la.matmul_calls", 1);
  Count("la.matmul_flops", 2 * m * k * n);
  Matrix out(m, n);
  const ProductArgs p{a.data(), k, 1, k, b.data(), n, n, out.data(), n, false};
  const Variant& v = VariantFor(isa);
  ForRowBands(m, 2 * m * k * n,
              [&](size_t r0, size_t r1) { v.product_rows(p, r0, r1); });
  return out;
}

Matrix TransposeSelfMultiply(Isa isa, const Matrix& a) {
  const size_t n = a.cols();
  Count("la.tsmm_calls", 1);
  Count("la.tsmm_flops", a.rows() * n * n);  // symmetric half x2
  Matrix out(n, n);
  // Output row i is column i of a times a, for columns j >= i; the
  // lower triangle is mirrored afterwards.
  const ProductArgs p{a.data(), 1, n, a.rows(), a.data(), n, n, out.data(),
                      n, true};
  const Variant& v = VariantFor(isa);
  ForRowBands(n, a.rows() * n * n,
              [&](size_t r0, size_t r1) { v.product_rows(p, r0, r1); });
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) out.At(i, j) = out.At(j, i);
  }
  return out;
}

Result<Vector> VectorMatrixMultiply(Isa isa, const Vector& v,
                                    const Matrix& a) {
  if (v.size() != a.rows()) {
    return ShapeMismatch("vector_matrix_multiply", 1, v.size(), a.rows(),
                         a.cols());
  }
  const size_t k = a.rows(), n = a.cols();
  Count("la.vecmat_calls", 1);
  Count("la.vecmat_flops", 2 * k * n);
  Vector out(n);
  // The one-row product: v is a 1 x k left operand.
  const ProductArgs p{v.data(), k, 1, k, a.data(), n, n, out.data(), n, false};
  VariantFor(isa).product_rows(p, 0, 1);
  return out;
}

Result<LuDecomposition> LuDecompose(Isa isa, const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::DimensionMismatch(
        "lu: matrix is " + std::to_string(a.rows()) + "x" +
        std::to_string(a.cols()) + ", expected square");
  }
  const uint64_t n = a.rows();
  // Column k: n-k-1 divisions and (n-k-1)^2 multiply-subtract pairs.
  Count("la.solve_calls", 1);
  if (n > 0) {
    Count("la.solve_flops", n * (n - 1) / 2 + (n - 1) * n * (2 * n - 1) / 3);
  }
  LuDecomposition d;
  d.lu = a;
  d.perm.resize(n);
  std::iota(d.perm.begin(), d.perm.end(), size_t{0});
  size_t zero_col = 0;
  if (!VariantFor(isa).lu_factor(d.lu.data(), n, d.perm.data(), &d.sign,
                                 &zero_col)) {
    return Status::NumericError("matrix is singular (zero pivot at column " +
                                std::to_string(zero_col) + ")");
  }
  return d;
}

Result<Vector> Solve(Isa isa, const Matrix& a, const Vector& b) {
  if (a.rows() != b.size()) {
    return ShapeMismatch("solve", a.rows(), a.cols(), b.size(), 1);
  }
  RADB_ASSIGN_OR_RETURN(LuDecomposition d, LuDecompose(isa, a));
  Vector x(b.size());
  Substitute(isa, d, b.data(), 1, x.data());
  return x;
}

Result<Matrix> SolveMatrix(Isa isa, const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    return ShapeMismatch("solve", a.rows(), a.cols(), b.rows(), b.cols());
  }
  RADB_ASSIGN_OR_RETURN(LuDecomposition d, LuDecompose(isa, a));
  Matrix x(b.rows(), b.cols());
  Substitute(isa, d, b.data(), b.cols(), x.data());
  return x;
}

Result<Matrix> Inverse(Isa isa, const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::DimensionMismatch(
        "matrix_inverse: matrix is " + std::to_string(a.rows()) + "x" +
        std::to_string(a.cols()) + ", expected square");
  }
  return SolveMatrix(isa, a, Matrix::Identity(a.rows()));
}

}  // namespace radb::la::kernel
