#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "la/matrix.h"
#include "la/random.h"
#include "la/vector.h"

namespace radb::la {
namespace {

constexpr double kTol = 1e-9;

TEST(VectorTest, BasicOps) {
  Vector a(std::vector<double>{1, 2, 3});
  Vector b(std::vector<double>{4, 5, 6});
  auto sum = Add(a, b);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->values(), (std::vector<double>{5, 7, 9}));
  auto diff = Sub(b, a);
  ASSERT_TRUE(diff.ok());
  EXPECT_EQ(diff->values(), (std::vector<double>{3, 3, 3}));
  auto had = Mul(a, b);
  ASSERT_TRUE(had.ok());
  EXPECT_EQ(had->values(), (std::vector<double>{4, 10, 18}));
  auto dot = InnerProduct(a, b);
  ASSERT_TRUE(dot.ok());
  EXPECT_DOUBLE_EQ(*dot, 32.0);
}

TEST(VectorTest, SizeMismatchIsError) {
  Vector a(2), b(3);
  EXPECT_FALSE(Add(a, b).ok());
  EXPECT_FALSE(Sub(a, b).ok());
  EXPECT_FALSE(Mul(a, b).ok());
  EXPECT_FALSE(Div(a, b).ok());
  EXPECT_FALSE(InnerProduct(a, b).ok());
  EXPECT_EQ(Add(a, b).status().code(), StatusCode::kDimensionMismatch);
}

TEST(VectorTest, ScalarBroadcast) {
  Vector a(std::vector<double>{1, 2});
  EXPECT_EQ(AddScalar(a, 1).values(), (std::vector<double>{2, 3}));
  EXPECT_EQ(MulScalar(a, 3).values(), (std::vector<double>{3, 6}));
  EXPECT_EQ(RsubScalar(10, a).values(), (std::vector<double>{9, 8}));
  EXPECT_EQ(DivScalar(a, 2).values(), (std::vector<double>{0.5, 1}));
  EXPECT_EQ(RdivScalar(2, a).values(), (std::vector<double>{2, 1}));
}

TEST(VectorTest, Reductions) {
  Vector v(std::vector<double>{3, -1, 4, -1, 5});
  EXPECT_DOUBLE_EQ(v.Sum(), 10);
  EXPECT_DOUBLE_EQ(v.Min(), -1);
  EXPECT_DOUBLE_EQ(v.Max(), 5);
  EXPECT_EQ(v.ArgMin(), 1u);  // first of the ties
  EXPECT_EQ(v.ArgMax(), 4u);
  EXPECT_NEAR(v.Norm2(), std::sqrt(9 + 1 + 16 + 1 + 25), kTol);
}

TEST(VectorTest, MaxAbsDiffSeesNaN) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // A NaN against a number is as far apart as it gets, on either side.
  EXPECT_EQ(Vector(std::vector<double>{nan}).MaxAbsDiff(Vector(1)), inf);
  EXPECT_EQ(Vector(1).MaxAbsDiff(Vector(std::vector<double>{nan})), inf);
  EXPECT_EQ(Vector(std::vector<double>{1, nan, 2})
                .MaxAbsDiff(Vector(std::vector<double>{1, 0, 2})),
            inf);
  // NaN against NaN and equal infinities match.
  EXPECT_EQ(Vector(std::vector<double>{nan, inf, -inf, 1})
                .MaxAbsDiff(Vector(std::vector<double>{nan, inf, -inf, 1.5})),
            0.5);
  EXPECT_EQ(Vector(std::vector<double>{inf}).MaxAbsDiff(
                Vector(std::vector<double>{-inf})),
            inf);
  const Matrix m(1, 2, std::vector<double>{nan, 0.0});
  EXPECT_EQ(m.MaxAbsDiff(Matrix(1, 2)), inf);
  EXPECT_EQ(Matrix(1, 2).MaxAbsDiff(m), inf);
  EXPECT_EQ(m.MaxAbsDiff(m), 0.0);
  EXPECT_EQ(m.MaxAbsDiff(Matrix(2, 1)), inf);
}

TEST(MatrixTest, MultiplyMatchesManual) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  auto c = Multiply(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_DOUBLE_EQ(c->At(0, 0), 58);
  EXPECT_DOUBLE_EQ(c->At(0, 1), 64);
  EXPECT_DOUBLE_EQ(c->At(1, 0), 139);
  EXPECT_DOUBLE_EQ(c->At(1, 1), 154);
}

TEST(MatrixTest, MultiplyShapeMismatch) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_EQ(Multiply(a, b).status().code(), StatusCode::kDimensionMismatch);
}

TEST(MatrixTest, IdentityIsMultiplicativeUnit) {
  Rng rng(7);
  Matrix a = RandomMatrix(rng, 13, 13);
  auto left = Multiply(Matrix::Identity(13), a);
  auto right = Multiply(a, Matrix::Identity(13));
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  EXPECT_LT(left->MaxAbsDiff(a), kTol);
  EXPECT_LT(right->MaxAbsDiff(a), kTol);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(11);
  Matrix a = RandomMatrix(rng, 7, 19);
  EXPECT_LT(Transpose(Transpose(a)).MaxAbsDiff(a), kTol);
}

TEST(MatrixTest, TransposeSelfMultiplyMatchesExplicit) {
  Rng rng(13);
  Matrix a = RandomMatrix(rng, 23, 9);
  auto explicit_gram = Multiply(Transpose(a), a);
  ASSERT_TRUE(explicit_gram.ok());
  EXPECT_LT(TransposeSelfMultiply(a).MaxAbsDiff(*explicit_gram), 1e-9);
}

TEST(MatrixTest, MatrixVectorMultiply) {
  Matrix a(2, 3, {1, 0, 2, 0, 3, 0});
  Vector v(std::vector<double>{1, 2, 3});
  auto out = MatrixVectorMultiply(a, v);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->values(), (std::vector<double>{7, 6}));
  // Row-vector form.
  Vector u(std::vector<double>{1, 1});
  auto out2 = VectorMatrixMultiply(u, a);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2->values(), (std::vector<double>{1, 3, 2}));
}

TEST(MatrixTest, OuterProduct) {
  Vector a(std::vector<double>{1, 2});
  Vector b(std::vector<double>{3, 4, 5});
  Matrix out = OuterProduct(a, b);
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.cols(), 3u);
  EXPECT_DOUBLE_EQ(out.At(1, 2), 10);
}

TEST(MatrixTest, DiagRequiresSquare) {
  EXPECT_FALSE(Diagonal(Matrix(2, 3)).ok());
  Matrix m(3, 3);
  m.At(0, 0) = 1;
  m.At(1, 1) = 2;
  m.At(2, 2) = 3;
  auto d = Diagonal(m);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->values(), (std::vector<double>{1, 2, 3}));
  Matrix back = DiagonalMatrix(*d);
  EXPECT_LT(back.MaxAbsDiff(m), kTol);
}

TEST(MatrixTest, InverseRoundTrip) {
  Rng rng(17);
  Matrix a = RandomSpdMatrix(rng, 20);
  auto inv = Inverse(a);
  ASSERT_TRUE(inv.ok());
  auto prod = Multiply(a, *inv);
  ASSERT_TRUE(prod.ok());
  EXPECT_LT(prod->MaxAbsDiff(Matrix::Identity(20)), 1e-8);
}

TEST(MatrixTest, SingularInverseFails) {
  Matrix a(2, 2, {1, 2, 2, 4});
  EXPECT_EQ(Inverse(a).status().code(), StatusCode::kNumericError);
}

TEST(MatrixTest, SolveMatchesMultiply) {
  Rng rng(19);
  Matrix a = RandomSpdMatrix(rng, 15);
  Vector x_true = RandomVector(rng, 15);
  auto b = MatrixVectorMultiply(a, x_true);
  ASSERT_TRUE(b.ok());
  auto x = Solve(a, *b);
  ASSERT_TRUE(x.ok());
  EXPECT_LT(x->MaxAbsDiff(x_true), 1e-8);
}

TEST(MatrixTest, DeterminantProperties) {
  Rng rng(23);
  Matrix a = RandomSpdMatrix(rng, 6);
  auto det = Determinant(a);
  ASSERT_TRUE(det.ok());
  EXPECT_GT(*det, 0.0);  // SPD => positive determinant
  // Singular matrix has zero determinant.
  Matrix s(2, 2, {1, 2, 2, 4});
  auto det_s = Determinant(s);
  ASSERT_TRUE(det_s.ok());
  EXPECT_DOUBLE_EQ(*det_s, 0.0);
  // Identity determinant is 1.
  auto det_i = Determinant(Matrix::Identity(5));
  ASSERT_TRUE(det_i.ok());
  EXPECT_NEAR(*det_i, 1.0, kTol);
}

TEST(MatrixTest, TraceAndNorms) {
  Matrix m(2, 2, {1, 2, 3, 4});
  auto t = Trace(m);
  ASSERT_TRUE(t.ok());
  EXPECT_DOUBLE_EQ(*t, 5);
  EXPECT_NEAR(m.NormF(), std::sqrt(30.0), kTol);
  EXPECT_EQ(m.RowMins().values(), (std::vector<double>{1, 3}));
  EXPECT_EQ(m.RowMaxs().values(), (std::vector<double>{2, 4}));
}

// Property-style sweep: algebraic identities across shapes.
class MatrixPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatrixPropertyTest, AssociativityAndTransposeRules) {
  const auto [m, k, n] = GetParam();
  Rng rng(100 + m * 31 + k * 7 + n);
  Matrix a = RandomMatrix(rng, m, k);
  Matrix b = RandomMatrix(rng, k, n);
  Matrix c = RandomMatrix(rng, n, m);
  // (AB)C == A(BC)
  auto ab = Multiply(a, b);
  auto bc = Multiply(b, c);
  ASSERT_TRUE(ab.ok() && bc.ok());
  auto lhs = Multiply(*ab, c);
  auto rhs = Multiply(a, *bc);
  ASSERT_TRUE(lhs.ok() && rhs.ok());
  EXPECT_LT(lhs->MaxAbsDiff(*rhs), 1e-8);
  // (AB)ᵀ == Bᵀ Aᵀ
  auto t1 = Transpose(*ab);
  auto t2 = Multiply(Transpose(b), Transpose(a));
  ASSERT_TRUE(t2.ok());
  EXPECT_LT(t1.MaxAbsDiff(*t2), 1e-9);
  // Distributivity: A(B + B) == AB + AB
  auto b2 = Add(b, b);
  ASSERT_TRUE(b2.ok());
  auto lhs2 = Multiply(a, *b2);
  auto rhs2 = Add(*ab, *ab);
  ASSERT_TRUE(lhs2.ok() && rhs2.ok());
  EXPECT_LT(lhs2->MaxAbsDiff(*rhs2), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatrixPropertyTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 5, 5), std::make_tuple(1, 7, 2),
                      std::make_tuple(16, 1, 16), std::make_tuple(33, 17, 9),
                      std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 129, 3)));

TEST(MatrixTest, CholeskyFactorizes) {
  Rng rng(29);
  Matrix a = RandomSpdMatrix(rng, 12);
  auto l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  // L is lower triangular and L Lᵀ == A.
  for (size_t i = 0; i < 12; ++i) {
    for (size_t j = i + 1; j < 12; ++j) {
      EXPECT_DOUBLE_EQ(l->At(i, j), 0.0);
    }
  }
  auto llt = Multiply(*l, Transpose(*l));
  ASSERT_TRUE(llt.ok());
  EXPECT_LT(llt->MaxAbsDiff(a), 1e-9);
}

TEST(MatrixTest, CholeskyRejectsIndefinite) {
  Matrix indef(2, 2, {1, 2, 2, 1});  // eigenvalues 3, -1
  EXPECT_EQ(Cholesky(indef).status().code(), StatusCode::kNumericError);
  EXPECT_FALSE(Cholesky(Matrix(2, 3)).ok());
}

TEST(MatrixTest, DeterminantIsMultiplicative) {
  Rng rng(31);
  for (int n : {2, 3, 5, 8}) {
    Matrix a = RandomSpdMatrix(rng, n);
    Matrix b = RandomSpdMatrix(rng, n);
    auto ab = Multiply(a, b);
    ASSERT_TRUE(ab.ok());
    auto da = Determinant(a);
    auto db = Determinant(b);
    auto dab = Determinant(*ab);
    ASSERT_TRUE(da.ok() && db.ok() && dab.ok());
    EXPECT_NEAR(*dab, *da * *db, std::abs(*dab) * 1e-9 + 1e-12) << n;
  }
}

TEST(MatrixTest, VectorMatrixMultiplyEqualsTransposedMvm) {
  Rng rng(37);
  Matrix a = RandomMatrix(rng, 9, 14);
  Vector v = RandomVector(rng, 9);
  auto direct = VectorMatrixMultiply(v, a);
  auto via_transpose = MatrixVectorMultiply(Transpose(a), v);
  ASSERT_TRUE(direct.ok() && via_transpose.ok());
  EXPECT_LT(direct->MaxAbsDiff(*via_transpose), 1e-10);
}

class SolvePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SolvePropertyTest, InverseAndSolveAgree) {
  const int n = GetParam();
  Rng rng(300 + n);
  Matrix a = RandomSpdMatrix(rng, n);
  Vector b = RandomVector(rng, n);
  auto x1 = Solve(a, b);
  auto inv = Inverse(a);
  ASSERT_TRUE(x1.ok() && inv.ok());
  auto x2 = MatrixVectorMultiply(*inv, b);
  ASSERT_TRUE(x2.ok());
  EXPECT_LT(x1->MaxAbsDiff(*x2), 1e-7);
  // SPD path agrees with LU.
  auto x3 = SolveSpd(a, b);
  ASSERT_TRUE(x3.ok());
  EXPECT_LT(x1->MaxAbsDiff(*x3), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolvePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace radb::la
