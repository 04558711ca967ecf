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

/// out = left * b over rows [r0, r1) (out -= left * b when `subtract`),
/// where left(i, k) is left[i * si + k * sk]: a's rows for Multiply and
/// VectorMatrixMultiply, a's columns for TransposeSelfMultiply, L's
/// rows for LU's trailing update and the forward substitution.
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
  /// Each term is subtracted: out_ij - a_ik * b_kj, which rounds exactly
  /// as out_ij + (-a_ik) * b_kj.
  bool subtract = false;
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
  bool (*lu_panel)(double*, size_t, size_t, size_t, size_t*, int*, size_t*);
  void (*lu_upper)(double*, size_t, size_t, size_t);
  void (*lu_solve)(const double*, const size_t*, size_t, const double*,
                   double*, size_t, size_t);
};

const Variant& VariantFor(Isa isa) {
  static constexpr Variant kBaseline{&baseline::ProductRows,
                                     &baseline::LuPanel, &baseline::LuUpper,
                                     &baseline::LuSolve};
#if defined(__x86_64__)
  static constexpr Variant kAvx2{&avx2::ProductRows, &avx2::LuPanel,
                                 &avx2::LuUpper, &avx2::LuSolve};
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

/// The process-global pool when `flops` of work should fan out on it;
/// nullptr when there is no pool, it has one thread, or the work is
/// below ~64K flops.
ThreadPool* PoolFor(size_t flops) {
  constexpr size_t kMinParallelFlops = 1 << 16;
  ThreadPool* pool = GlobalPool();
  if (pool == nullptr || pool->num_threads() <= 1 ||
      flops < kMinParallelFlops) {
    return nullptr;
  }
  return pool;
}

/// Columns per LU panel: the trailing update's inner dimension.
constexpr size_t kPanelCols = 32;

/// In-place LU with partial pivoting of the n x n row-major `lu`, one
/// panel of columns at a time (DESIGN.md §18): factor the panel, finish
/// its rows of U, then run the trailing update A22 -= L21 * U12 as a
/// product on parallel row bands, one pool region per panel. Returns
/// false at the first zero pivot, with its column in *zero_col.
bool LuFactor(Isa isa, double* lu, size_t n, size_t* perm, int* sign,
              size_t* zero_col) {
  const Variant& v = VariantFor(isa);
  for (size_t k0 = 0; k0 < n; k0 += kPanelCols) {
    const size_t k1 = std::min(n, k0 + kPanelCols), w = k1 - k0;
    if (!v.lu_panel(lu, n, k0, k1, perm, sign, zero_col)) return false;
    if (k1 == n) break;
    v.lu_upper(lu, n, k0, k1);
    const size_t rows = n - k1;
    const ProductArgs p{lu + k1 * n + k0, n, 1, w, lu + k0 * n + k1, n, rows,
                        lu + k1 * n + k1, n, false, /*subtract=*/true};
    ForRowBands(rows, 2 * rows * w * rows,
                [&](size_t r0, size_t r1) { v.product_rows(p, r0, r1); });
  }
  return true;
}

/// Right-hand sides per solve strip: a multiple of 8 doubles (a cache
/// line), so strips of line-aligned rows never share a line.
constexpr size_t kStripCols = 64;

/// Solves a x = b for the m columns of the row-major n x m `b`, one
/// strip of columns per pool task. Per column: n(n-1) multiply-subtract
/// pairs and n divisions.
void Substitute(Isa isa, const LuDecomposition& d, const double* b, size_t m,
                double* x) {
  const uint64_t n = d.perm.size();
  const uint64_t flops = m * (2 * n * n - n);
  Count("la.solve_flops", flops);
  const Variant& v = VariantFor(isa);
  const auto strip = [&](size_t s) {
    const size_t c0 = s * kStripCols;
    v.lu_solve(d.lu.data(), d.perm.data(), n, b + c0, x + c0, m,
               std::min(kStripCols, m - c0));
  };
  const size_t strips = (m + kStripCols - 1) / kStripCols;
  if (ThreadPool* pool = PoolFor(flops)) {
    pool->ParallelFor(strips, strip);
  } else {
    for (size_t s = 0; s < strips; ++s) strip(s);
  }
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
  ThreadPool* pool = PoolFor(flops);
  if (pool == nullptr) {
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
  if (!LuFactor(isa, d.lu.data(), n, d.perm.data(), &d.sign, &zero_col)) {
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
