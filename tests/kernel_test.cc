// Dense kernel layer (la/kernel.h, DESIGN.md §18): every instruction-set
// variant, called directly, at 1 and 4 pool threads, both at top level
// and from inside a pool body (where the kernels' regions nest),
// against naive reference loops that encode the kernels' order and
// zero rule. The comparison is bit-exact except that any two NaNs
// match (the layer leaves a NaN's sign and payload open). Shapes cover
// every remainder modulo the tile sizes and sizes either side of an LU
// panel and a solve strip; cells mix ±0, ±inf, NaN and subnormals.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "binder/bound_expr.h"
#include "catalog/function_registry.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/expr_eval.h"
#include "la/kernel.h"
#include "la/matrix.h"
#include "la/sparse/sparse.h"
#include "la/vector.h"
#include "obs/metrics_registry.h"

namespace radb::la {
namespace {

using kernel::Isa;

constexpr size_t kShapes[] = {0, 1, 3, 4, 5, 7, 8, 9, 17, 65, 130};
constexpr size_t kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);
constexpr double kDensities[] = {0.0, 0.001, 0.1, 0.5, 1.0};
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ----------------------------------------------------------------------
// Inputs
// ----------------------------------------------------------------------

enum class Mix {
  kFinite,   // ±0, normals and subnormals
  kSpecial,  // plus rare ±inf and NaN
};

/// A cell that is nonzero with probability `density`; zeros are +0.0 or
/// -0.0 at random.
double Cell(Rng* rng, double density, Mix mix) {
  if (rng->NextDouble() >= density) return rng->NextBelow(2) ? 0.0 : -0.0;
  const double u = rng->NextDouble();
  if (mix == Mix::kSpecial) {
    if (u < 0.003) return kInf;
    if (u < 0.006) return -kInf;
    if (u < 0.009) return kNaN;
  }
  const double sign = rng->NextBelow(2) ? 1.0 : -1.0;
  if (u < 0.06) {
    return sign * std::numeric_limits<double>::denorm_min() *
           static_cast<double>(1 + rng->NextBelow(1u << 20));
  }
  return sign * rng->Uniform(0.5, 2.0) *
         std::ldexp(1.0, static_cast<int>(rng->NextBelow(9)) - 4);
}

Matrix RandomMatrix(Rng* rng, size_t rows, size_t cols, double density,
                    Mix mix) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows * cols; ++i) {
    m.data()[i] = Cell(rng, density, mix);
  }
  return m;
}

Vector RandomVector(Rng* rng, size_t n, double density, Mix mix) {
  Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = Cell(rng, density, mix);
  return v;
}

// ----------------------------------------------------------------------
// Reference loops: the kernels' element order and zero rule, written
// the plain way.
// ----------------------------------------------------------------------

Matrix RefMultiply(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      const double aik = a.At(i, k);
      if (aik == 0.0) continue;
      for (size_t j = 0; j < b.cols(); ++j) {
        out.At(i, j) = out.At(i, j) + aik * b.At(k, j);
      }
    }
  }
  return out;
}

Matrix RefTransposeSelfMultiply(const Matrix& a) {
  const size_t n = a.cols();
  Matrix out(n, n);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t i = 0; i < n; ++i) {
      const double v = a.At(r, i);
      if (v == 0.0) continue;
      for (size_t j = i; j < n; ++j) {
        out.At(i, j) = out.At(i, j) + v * a.At(r, j);
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) out.At(i, j) = out.At(j, i);
  }
  return out;
}

Vector RefVectorMatrixMultiply(const Vector& v, const Matrix& a) {
  Vector out(a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    if (v[r] == 0.0) continue;
    for (size_t c = 0; c < a.cols(); ++c) out[c] = out[c] + v[r] * a.At(r, c);
  }
  return out;
}

/// LuDecompose's reference: partial pivoting on the largest |value|,
/// row updates skipping a zero factor. False on a zero pivot, with its
/// column in *zero_col.
bool RefLu(const Matrix& a, LuDecomposition* d, size_t* zero_col) {
  const size_t n = a.rows();
  d->lu = a;
  d->perm.resize(n);
  d->sign = 1;
  for (size_t i = 0; i < n; ++i) d->perm[i] = i;
  for (size_t k = 0; k < n; ++k) {
    size_t pivot = k;
    double best = std::fabs(d->lu.At(k, k));
    for (size_t r = k + 1; r < n; ++r) {
      const double v = std::fabs(d->lu.At(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best == 0.0) {
      *zero_col = k;
      return false;
    }
    if (pivot != k) {
      for (size_t c = 0; c < n; ++c) {
        std::swap(d->lu.At(k, c), d->lu.At(pivot, c));
      }
      std::swap(d->perm[k], d->perm[pivot]);
      d->sign = -d->sign;
    }
    for (size_t r = k + 1; r < n; ++r) {
      const double factor = d->lu.At(r, k) / d->lu.At(k, k);
      d->lu.At(r, k) = factor;
      if (factor == 0.0) continue;
      for (size_t c = k + 1; c < n; ++c) {
        d->lu.At(r, c) = d->lu.At(r, c) - factor * d->lu.At(k, c);
      }
    }
  }
  return true;
}

/// One right-hand side: forward then back substitution, no zero skip.
std::vector<double> RefLuSolveOne(const LuDecomposition& d,
                                  const std::vector<double>& b) {
  const size_t n = d.perm.size();
  std::vector<double> y(n), x(n);
  for (size_t i = 0; i < n; ++i) {
    double s = b[d.perm[i]];
    for (size_t j = 0; j < i; ++j) s = s - d.lu.At(i, j) * y[j];
    y[i] = s;
  }
  for (size_t i = n; i-- > 0;) {
    double s = y[i];
    for (size_t j = i + 1; j < n; ++j) s = s - d.lu.At(i, j) * x[j];
    x[i] = s / d.lu.At(i, i);
  }
  return x;
}

/// Column by column, one right-hand side at a time.
Matrix RefSolveMatrix(const LuDecomposition& d, const Matrix& b) {
  Matrix out(b.rows(), b.cols());
  for (size_t c = 0; c < b.cols(); ++c) {
    std::vector<double> col(b.rows());
    for (size_t r = 0; r < b.rows(); ++r) col[r] = b.At(r, c);
    const std::vector<double> x = RefLuSolveOne(d, col);
    for (size_t r = 0; r < b.rows(); ++r) out.At(r, c) = x[r];
  }
  return out;
}

// ----------------------------------------------------------------------
// Comparison and the variant x thread-count sweep
// ----------------------------------------------------------------------

bool SameBits(double x, double y) {
  if (std::isnan(x) && std::isnan(y)) return true;
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

::testing::AssertionResult BitEqual(const double* got, const double* want,
                                    size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!SameBits(got[i], want[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": got " << std::hexfloat << got[i]
             << ", want " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult BitEqual(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << ", want "
           << want.rows() << "x" << want.cols();
  }
  return BitEqual(got.data(), want.data(), got.rows() * got.cols());
}

::testing::AssertionResult BitEqual(const Vector& got, const Vector& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << ", want " << want.size();
  }
  return BitEqual(got.data(), want.data(), got.size());
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kBaseline, Isa::kAvx2}) {
    if (kernel::IsaSupported(isa)) out.push_back(isa);
  }
  return out;
}

/// Runs check(isa) for every supported variant with a 1-thread and
/// then a 4-thread pool installed for the kernels' bands and strips,
/// first at top level and then from inside a body of that pool, where
/// the kernels' regions are nested.
void ForEachVariant(const std::function<void(Isa)>& check) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    ThreadPool pool(threads);
    InstallGlobalPool(&pool);
    for (bool nested : {false, true}) {
      for (Isa isa : SupportedIsas()) {
        const std::string trace =
            std::string(isa == Isa::kAvx2 ? "avx2" : "baseline") + " at " +
            std::to_string(threads) + " threads" +
            (nested ? " inside a pool body" : "");
        if (!nested) {
          SCOPED_TRACE(trace);
          check(isa);
          continue;
        }
        // Two indices make a real region at 4 threads; index 0 runs the
        // check on whichever thread claims it.
        pool.ParallelFor(2, [&](size_t i) {
          if (i != 0) return;
          SCOPED_TRACE(trace);
          check(isa);
        });
      }
    }
    UninstallGlobalPool(&pool);
  }
}

std::string Label(const char* what, size_t m, size_t k, size_t n,
                  double density, Mix mix) {
  return std::string(what) + " " + std::to_string(m) + "x" +
         std::to_string(k) + "x" + std::to_string(n) + " density " +
         std::to_string(density) +
         (mix == Mix::kSpecial ? " with inf/NaN" : " finite");
}

// ----------------------------------------------------------------------
// Products
// ----------------------------------------------------------------------

TEST(KernelTest, ActiveIsaIsTheBestSupported) {
  EXPECT_TRUE(kernel::IsaSupported(Isa::kBaseline));
  EXPECT_TRUE(kernel::IsaSupported(kernel::ActiveIsa()));
  if (kernel::IsaSupported(Isa::kAvx2)) {
    EXPECT_EQ(kernel::ActiveIsa(), Isa::kAvx2);
  }
}

TEST(KernelTest, MultiplyMatchesReference) {
  Rng rng(14);
  for (Mix mix : {Mix::kFinite, Mix::kSpecial}) {
    for (double density : kDensities) {
      for (size_t mi = 0; mi < kNumShapes; ++mi) {
        for (size_t ni = 0; ni < kNumShapes; ++ni) {
          const size_t m = kShapes[mi], n = kShapes[ni];
          const size_t k = kShapes[(mi + 2 * ni) % kNumShapes];
          const Matrix a = RandomMatrix(&rng, m, k, density, mix);
          const Matrix b = RandomMatrix(&rng, k, n, density, mix);
          const Matrix want = RefMultiply(a, b);
          SCOPED_TRACE(Label("multiply", m, k, n, density, mix));
          ForEachVariant([&](Isa isa) {
            auto got = kernel::Multiply(isa, a, b);
            ASSERT_TRUE(got.ok());
            ASSERT_TRUE(BitEqual(*got, want));
          });
        }
      }
    }
  }
}

TEST(KernelTest, TransposeSelfMultiplyMatchesReference) {
  Rng rng(15);
  for (Mix mix : {Mix::kFinite, Mix::kSpecial}) {
    for (double density : kDensities) {
      for (size_t rows : kShapes) {
        for (size_t cols : kShapes) {
          const Matrix a = RandomMatrix(&rng, rows, cols, density, mix);
          const Matrix want = RefTransposeSelfMultiply(a);
          SCOPED_TRACE(Label("tsmm", rows, cols, cols, density, mix));
          ForEachVariant([&](Isa isa) {
            ASSERT_TRUE(BitEqual(kernel::TransposeSelfMultiply(isa, a), want));
          });
        }
      }
    }
  }
}

TEST(KernelTest, TsmmEqualsTransposeAndMultiplyOnFiniteData) {
  // On finite cells (±0 and subnormals included) TSMM gives the bits of
  // the transpose copy and a GEMM: the upper triangle takes the same
  // products in the same order, a·b == b·a exactly for the mirrored
  // lower one, and the two skip zero factors differently only by ±0
  // terms, which leave a sum that starts at +0.0 unchanged.
  Rng rng(17);
  for (bool pooled : {false, true}) {
    ThreadPool pool(4);
    if (pooled) InstallGlobalPool(&pool);
    for (double density : kDensities) {
      for (size_t rows : kShapes) {
        for (size_t cols : kShapes) {
          const Matrix a =
              RandomMatrix(&rng, rows, cols, density, Mix::kFinite);
          SCOPED_TRACE(Label("tsmm vs gemm", rows, cols, cols, density,
                             Mix::kFinite) +
                       (pooled ? " with a 4-thread pool" : " with no pool"));
          for (Isa isa : SupportedIsas()) {
            // EXPECT, not ASSERT: a return here would leave the pool
            // installed after it is destroyed.
            auto gemm = kernel::Multiply(isa, Transpose(a), a);
            const Matrix tsmm = kernel::TransposeSelfMultiply(isa, a);
            EXPECT_TRUE(gemm.ok() && gemm->rows() == cols &&
                        tsmm.rows() == cols &&
                        std::memcmp(tsmm.data(), gemm->data(),
                                    cols * cols * sizeof(double)) == 0);
          }
        }
      }
    }
    if (pooled) UninstallGlobalPool(&pool);
  }
}

TEST(KernelTest, VectorMatrixMultiplyMatchesReference) {
  Rng rng(16);
  for (Mix mix : {Mix::kFinite, Mix::kSpecial}) {
    for (double density : kDensities) {
      for (size_t k : kShapes) {
        for (size_t n : kShapes) {
          const Vector v = RandomVector(&rng, k, density, mix);
          const Matrix a = RandomMatrix(&rng, k, n, density, mix);
          const Vector want = RefVectorMatrixMultiply(v, a);
          SCOPED_TRACE(Label("vecmat", 1, k, n, density, mix));
          ForEachVariant([&](Isa isa) {
            auto got = kernel::VectorMatrixMultiply(isa, v, a);
            ASSERT_TRUE(got.ok());
            ASSERT_TRUE(BitEqual(*got, want));
          });
        }
      }
    }
  }
}

TEST(KernelTest, ZeroLeftFactorContributesNothing) {
  // 0·inf and 0·NaN terms vanish; a -0.0 factor is a zero factor too.
  const Matrix a(1, 3, std::vector<double>{0.0, -0.0, 2.0});
  const Matrix b(3, 2, std::vector<double>{kInf, kNaN, kNaN, -kInf, 1.5, 3.0});
  const Vector v(std::vector<double>{0.0, -0.0, 2.0});
  // TSMM's left factor is a_ri for output (i, j >= i), mirrored below.
  const Matrix t(1, 2, std::vector<double>{0.0, kInf});
  ForEachVariant([&](Isa isa) {
    auto prod = kernel::Multiply(isa, a, b);
    ASSERT_TRUE(prod.ok());
    EXPECT_EQ(prod->At(0, 0), 3.0);
    EXPECT_EQ(prod->At(0, 1), 6.0);
    auto vm = kernel::VectorMatrixMultiply(isa, v, b);
    ASSERT_TRUE(vm.ok());
    EXPECT_TRUE(BitEqual(*vm, Vector(std::vector<double>{3.0, 6.0})));
    const Matrix g = kernel::TransposeSelfMultiply(isa, t);
    EXPECT_TRUE(BitEqual(g, Matrix(2, 2, std::vector<double>{0.0, 0.0, 0.0,
                                                              kInf})));
  });
  // Without a nonzero term an output element stays +0.0, even when
  // every product would have been -0.0.
  const Matrix neg(1, 1, std::vector<double>{-1.0});
  const Matrix zero(1, 1, std::vector<double>{0.0});
  ForEachVariant([&](Isa isa) {
    auto p = kernel::Multiply(isa, neg, zero);
    ASSERT_TRUE(p.ok());
    // -1 * +0 = -0, and +0 + -0 = +0.
    EXPECT_FALSE(std::signbit(p->At(0, 0)));
  });
}

// ----------------------------------------------------------------------
// LU and solves
// ----------------------------------------------------------------------

/// `a` with a large diagonal, so most draws are nonsingular.
Matrix Boosted(Matrix a) {
  for (size_t i = 0; i < a.rows(); ++i) a.At(i, i) = a.At(i, i) + 64.0;
  return a;
}

/// LuDecompose, Solve(b), SolveMatrix(bm) for each of `bms`, and
/// Inverse of `a` on every variant against the reference loops. A
/// singular `a` must fail each of them with the reference's zero-pivot
/// column in LuDecompose's message.
void CheckSolves(const Matrix& a, const Vector& b,
                 const std::vector<Matrix>& bms) {
  LuDecomposition want_lu;
  size_t zero_col = 0;
  const bool nonsingular = RefLu(a, &want_lu, &zero_col);
  const size_t n = a.rows();
  Vector want_x;
  Matrix want_inv;
  std::vector<Matrix> want_xms;
  if (nonsingular) {
    want_x = Vector(RefLuSolveOne(want_lu, std::vector<double>(
                                               b.data(), b.data() + n)));
    want_inv = RefSolveMatrix(want_lu, Matrix::Identity(n));
    for (const Matrix& bm : bms) want_xms.push_back(RefSolveMatrix(want_lu, bm));
  }
  const Status singular = Status::NumericError(
      "matrix is singular (zero pivot at column " + std::to_string(zero_col) +
      ")");
  ForEachVariant([&](Isa isa) {
    auto lu = kernel::LuDecompose(isa, a);
    ASSERT_EQ(lu.ok(), nonsingular) << lu.status().ToString();
    auto x = kernel::Solve(isa, a, b);
    auto inv = kernel::Inverse(isa, a);
    ASSERT_EQ(x.ok(), nonsingular);
    ASSERT_EQ(inv.ok(), nonsingular);
    if (!nonsingular) {
      EXPECT_EQ(lu.status(), singular) << lu.status().ToString();
      EXPECT_EQ(x.status(), singular);
      EXPECT_EQ(inv.status(), singular);
      for (const Matrix& bm : bms) {
        EXPECT_EQ(kernel::SolveMatrix(isa, a, bm).status(), singular);
      }
      return;
    }
    EXPECT_TRUE(BitEqual(lu->lu, want_lu.lu));
    EXPECT_EQ(lu->perm, want_lu.perm);
    EXPECT_EQ(lu->sign, want_lu.sign);
    EXPECT_TRUE(BitEqual(*x, want_x));
    EXPECT_TRUE(BitEqual(*inv, want_inv));
    for (size_t i = 0; i < bms.size(); ++i) {
      SCOPED_TRACE(std::to_string(bms[i].cols()) + " right-hand sides");
      auto xm = kernel::SolveMatrix(isa, a, bms[i]);
      ASSERT_TRUE(xm.ok());
      EXPECT_TRUE(BitEqual(*xm, want_xms[i]));
    }
  });
}

void CheckSolves(const Matrix& a, Rng* rng, Mix mix) {
  const size_t n = a.rows();
  const Vector b = RandomVector(rng, n, 1.0, mix);
  const size_t m = kShapes[rng->NextBelow(kNumShapes)];
  CheckSolves(a, b, {RandomMatrix(rng, n, m, 0.5, mix)});
}

TEST(KernelTest, LuAndSolvesMatchReference) {
  Rng rng(17);
  for (Mix mix : {Mix::kFinite, Mix::kSpecial}) {
    for (double density : kDensities) {
      for (size_t n : kShapes) {
        const Matrix a = RandomMatrix(&rng, n, n, density, mix);
        SCOPED_TRACE(Label("solve", n, n, n, density, mix));
        CheckSolves(a, &rng, mix);
        CheckSolves(Boosted(a), &rng, mix);
      }
    }
  }
}

TEST(KernelTest, SolvesAcrossPanelsAndStripsMatchReference) {
  // Orders either side of one 32-column LU panel and one that spans
  // eight; right-hand-side counts either side of one 64-column solve
  // strip and one that spans five.
  constexpr size_t kOrders[] = {31, 32, 33, 65, 257};
  constexpr size_t kRhsCounts[] = {1, 63, 64, 65, 257};
  Rng rng(19);
  for (Mix mix : {Mix::kFinite, Mix::kSpecial}) {
    for (double density : {0.1, 1.0}) {
      for (size_t n : kOrders) {
        // Dense draws are boosted to stay nonsingular; sparse ones are
        // often singular, which checks the zero-pivot column.
        Matrix a = RandomMatrix(&rng, n, n, density, mix);
        if (density == 1.0) a = Boosted(std::move(a));
        const Vector b = RandomVector(&rng, n, 1.0, mix);
        std::vector<Matrix> bms;
        for (size_t m : kRhsCounts) {
          bms.push_back(RandomMatrix(&rng, n, m, 0.5, mix));
        }
        SCOPED_TRACE(Label("solve", n, n, n, density, mix));
        CheckSolves(a, b, bms);
      }
    }
  }
}

TEST(KernelTest, ZeroPivotInALaterPanelKeepsItsColumn) {
  // A zero column stays zero through every earlier step, so its pivot
  // is the first zero one: in the first, second and a later panel.
  Rng rng(20);
  for (const auto& [n, col] : std::vector<std::pair<size_t, size_t>>{
           {65, 7}, {65, 40}, {257, 200}}) {
    Matrix a = Boosted(RandomMatrix(&rng, n, n, 1.0, Mix::kFinite));
    for (size_t r = 0; r < n; ++r) a.At(r, col) = 0.0;
    const Vector b = RandomVector(&rng, n, 1.0, Mix::kFinite);
    SCOPED_TRACE("zero column " + std::to_string(col) + " of " +
                 std::to_string(n));
    CheckSolves(a, b, {RandomMatrix(&rng, n, 65, 0.5, Mix::kFinite)});
    EXPECT_EQ(kernel::LuDecompose(kernel::ActiveIsa(), a).status().message(),
              "matrix is singular (zero pivot at column " +
                  std::to_string(col) + ")");
  }
}

TEST(KernelTest, ShapeErrorsAreUnchanged) {
  const Matrix a(2, 3), b(2, 2);
  for (Isa isa : SupportedIsas()) {
    EXPECT_EQ(kernel::Multiply(isa, a, b).status().code(),
              StatusCode::kDimensionMismatch);
    EXPECT_EQ(kernel::VectorMatrixMultiply(isa, Vector(3), b).status().code(),
              StatusCode::kDimensionMismatch);
    EXPECT_EQ(kernel::LuDecompose(isa, a).status().code(),
              StatusCode::kDimensionMismatch);
    EXPECT_EQ(kernel::Solve(isa, a, Vector(3)).status().code(),
              StatusCode::kDimensionMismatch);
    EXPECT_EQ(kernel::SolveMatrix(isa, b, Matrix(3, 1)).status().code(),
              StatusCode::kDimensionMismatch);
    EXPECT_EQ(kernel::Inverse(isa, a).status().code(),
              StatusCode::kDimensionMismatch);
  }
}

// ----------------------------------------------------------------------
// Plus-times sparse twins (finite cells: the twins skip a structural
// zero right factor, so they agree with the dense zero rule exactly
// when no 0·inf or 0·NaN term exists)
// ----------------------------------------------------------------------

TEST(KernelTest, DenseMatchesSparseTwins) {
  namespace sp = la::sparse;
  const sp::Semiring& pt = sp::PlusTimes();
  Rng rng(18);
  for (double density : kDensities) {
    for (size_t mi = 0; mi < kNumShapes; ++mi) {
      for (size_t ni = 0; ni < kNumShapes; ni += 2) {
        const size_t m = kShapes[mi], n = kShapes[ni];
        const size_t k = kShapes[(3 * mi + ni) % kNumShapes];
        const Matrix a = RandomMatrix(&rng, m, k, density, Mix::kFinite);
        const Matrix b = RandomMatrix(&rng, k, n, density, Mix::kFinite);
        const Vector v = RandomVector(&rng, m, density, Mix::kFinite);
        const sp::CsrMatrix sa = sp::CsrMatrix::FromDense(a);
        const sp::CsrMatrix sb = sp::CsrMatrix::FromDense(b);
        auto gemm = sp::SpGemm(sa, sb, pt);
        auto spmm = sp::SpMm(sa, b, pt);
        auto spvm = sp::SpVM(v, sa, pt);
        ASSERT_TRUE(gemm.ok() && spmm.ok() && spvm.ok());
        const Matrix gram = sp::SpTransposeSelfMultiply(sa, pt);
        SCOPED_TRACE(Label("twins", m, k, n, density, Mix::kFinite));
        ForEachVariant([&](Isa isa) {
          auto dense = kernel::Multiply(isa, a, b);
          ASSERT_TRUE(dense.ok());
          EXPECT_TRUE(BitEqual(*dense, gemm->ToDense()));
          EXPECT_TRUE(BitEqual(*dense, *spmm));
          EXPECT_TRUE(BitEqual(kernel::TransposeSelfMultiply(isa, a), gram));
          auto vm = kernel::VectorMatrixMultiply(isa, v, a);
          ASSERT_TRUE(vm.ok());
          EXPECT_TRUE(BitEqual(*vm, *spvm));
        });
      }
    }
  }
}

// ----------------------------------------------------------------------
// The fused Gram call: matrix_multiply(trans_matrix(x), x) as evaluated
// ----------------------------------------------------------------------

/// matrix_multiply(trans_matrix(r[0]), r[1]), with a trailing semiring
/// name when `semiring` is non-empty.
BoundExprPtr GramCall(size_t right_column, const std::string& semiring = "") {
  const auto call = [](const char* fn, std::vector<BoundExprPtr> args) {
    auto e = std::make_unique<BoundExpr>();
    e->kind = BoundExpr::Kind::kCall;
    e->type = DataType::MakeMatrix();
    e->fn = *FunctionRegistry::Global().Lookup(fn);
    e->children = std::move(args);
    return e;
  };
  const auto column = [](size_t at) {
    return MakeBoundColumnRef(at, DataType::MakeMatrix(), "m");
  };
  std::vector<BoundExprPtr> transpose;
  transpose.push_back(column(0));
  std::vector<BoundExprPtr> args;
  args.push_back(call("trans_matrix", std::move(transpose)));
  args.push_back(column(right_column));
  if (!semiring.empty()) {
    args.push_back(MakeBoundLiteral(Value::String(semiring)));
  }
  return call("matrix_multiply", std::move(args));
}

/// Whether two MATRIX values have one representation and the same
/// bits, NaNs included.
::testing::AssertionResult SameValueBits(const Value& got, const Value& want) {
  if (got.is_sparse_matrix() != want.is_sparse_matrix()) {
    return ::testing::AssertionFailure() << "representations differ";
  }
  if (got.is_sparse_matrix()) {
    const sparse::CsrMatrix& a = got.sparse_matrix();
    const sparse::CsrMatrix& b = want.sparse_matrix();
    if (a.rows() != b.rows() || a.cols() != b.cols() ||
        a.row_ptr() != b.row_ptr() || a.col_idx() != b.col_idx() ||
        a.values().size() != b.values().size() ||
        std::memcmp(a.values().data(), b.values().data(),
                    a.values().size() * sizeof(double)) != 0) {
      return ::testing::AssertionFailure() << "sparse values differ";
    }
    return ::testing::AssertionSuccess();
  }
  const Matrix& a = got.matrix();
  const Matrix& b = want.matrix();
  if (a.rows() != b.rows() || a.cols() != b.cols() ||
      std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(double)) !=
          0) {
    return ::testing::AssertionFailure() << "dense values differ";
  }
  return ::testing::AssertionSuccess();
}

/// Evaluates `e` over `row` fused (EvalExpr) and as written, and checks
/// the two results' bits; returns how many TSMM and GEMM calls the
/// fused evaluation made.
std::pair<uint64_t, uint64_t> ExpectFusedKeepsTheBits(const BoundExpr& e,
                                                      const Row& row) {
  obs::MetricsRegistry plain_reg, fused_reg;
  InstallGlobalMetrics(&plain_reg);
  auto want = EvalExprAsWritten(e, row);
  UninstallGlobalMetrics(&plain_reg);
  InstallGlobalMetrics(&fused_reg);
  auto got = EvalExpr(e, row);
  UninstallGlobalMetrics(&fused_reg);
  EXPECT_TRUE(want.ok() && got.ok());
  if (want.ok() && got.ok()) {
    EXPECT_TRUE(SameValueBits(*got, *want));
  }
  return {fused_reg.counter("la.tsmm_calls")->value(),
          fused_reg.counter("la.matmul_calls")->value()};
}

TEST(KernelTest, FusedGramKeepsTheTransposeAndMultiplyBits) {
  Rng rng(18);
  const std::pair<uint64_t, uint64_t> tsmm{1, 0}, gemm{0, 1}, neither{0, 0};
  for (size_t rows : {size_t{1}, size_t{9}, size_t{65}}) {
    for (size_t cols : {size_t{1}, size_t{8}, size_t{17}}) {
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
      const Matrix finite = RandomMatrix(&rng, rows, cols, 0.5, Mix::kFinite);
      const Value x = Value::FromMatrix(finite);
      // A dense, finite block is the one case that runs TSMM.
      EXPECT_EQ(ExpectFusedKeepsTheBits(*GramCall(0), {x}), tsmm);
      // ±inf and NaN keep the transpose and GEMM.
      for (double special : {kInf, -kInf, kNaN}) {
        Matrix m = finite;
        m.At(rows / 2, cols - 1) = special;
        EXPECT_EQ(
            ExpectFusedKeepsTheBits(*GramCall(0), {Value::FromMatrix(m)}),
            gemm);
      }
      // A sparse operand keeps the sparse kernels and a sparse result.
      const Value sparse = Value::FromSparseMatrix(sparse::CsrMatrix::FromDense(
          RandomMatrix(&rng, rows, cols, 0.1, Mix::kFinite)));
      EXPECT_EQ(ExpectFusedKeepsTheBits(*GramCall(0), {sparse}), neither);
      // A semiring argument, or a second operand that is another
      // column, is not the fused shape.
      EXPECT_EQ(ExpectFusedKeepsTheBits(*GramCall(0, "plus_times"), {x}),
                gemm);
      EXPECT_EQ(ExpectFusedKeepsTheBits(*GramCall(1), {x, x}), gemm);
    }
  }
  // NULL in, NULL out, without a kernel call.
  obs::MetricsRegistry reg;
  InstallGlobalMetrics(&reg);
  auto null = EvalExpr(*GramCall(0), {Value::Null()});
  UninstallGlobalMetrics(&reg);
  ASSERT_TRUE(null.ok());
  EXPECT_TRUE(null->is_null());
  EXPECT_EQ(reg.counter("la.tsmm_calls")->value(), 0u);
}

}  // namespace
}  // namespace radb::la
