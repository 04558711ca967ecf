// Sparse tile subsystem battery (ctest label `sparse`): CSR/COO
// representation round-trips, semiring algebra laws, bit-identity of
// the sparse kernels against the dense oracles, the density-adaptive
// dispatch boundary, Value serialization through spill / result cache
// / reopen, and the graph-analytics workload (min-plus SSSP + or-and
// k-hop) against brute-force references.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/rng.h"
#include "la/sparse/sparse.h"
#include "obs/metrics_registry.h"
#include "storage/serialize.h"
#include "test_util.h"
#include "workloads/graph.h"

namespace radb {
namespace {

namespace fs = std::filesystem;
using la::sparse::CooEntry;
using la::sparse::CooMatrix;
using la::sparse::CsrMatrix;
using la::sparse::PlusTimes;
using la::sparse::Semiring;
using la::sparse::SemiringByName;
using workloads::GraphEdge;

/// Random dense matrix on the 0.5 grid with roughly `density` nonzero
/// cells — the same exactness discipline as the fuzzer.
la::Matrix RandomGrid(size_t rows, size_t cols, double density, Rng* rng) {
  la::Matrix m(rows, cols);
  const uint64_t one_in =
      density >= 1.0 ? 1 : static_cast<uint64_t>(1.0 / density);
  for (size_t i = 0; i < rows * cols; ++i) {
    if (rng->NextBelow(one_in) == 0) {
      const size_t v = rng->NextBelow(8);
      m.data()[i] = v < 4 ? (static_cast<double>(v) - 4.0) * 0.5
                          : (static_cast<double>(v) - 3.0) * 0.5;
    }
  }
  return m;
}

void ExpectSameMatrix(const la::Matrix& a, const la::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows() * a.cols(); ++i) {
    // Exact: the whole point of the grid values.
    EXPECT_EQ(a.data()[i], b.data()[i]) << "flat index " << i;
  }
}

/// Byte-exact row fingerprint (FP bit patterns and row order).
std::string Fingerprint(const ResultSet& rs) {
  std::ostringstream os(std::ios::binary);
  for (const Row& row : rs.rows) WriteRowBinary(os, row);
  return os.str();
}

class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "/radb_sparse_XXXXXX";
    path_ = ::mkdtemp(tmpl.data());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---- Representations -------------------------------------------------

TEST(CsrTest, DenseRoundTripAndLookup) {
  Rng rng(1);
  for (double density : {0.0, 0.05, 0.3, 1.0}) {
    const la::Matrix m = RandomGrid(7, 5, density, &rng);
    const CsrMatrix csr = CsrMatrix::FromDense(m);
    EXPECT_EQ(csr.nnz(), la::sparse::DenseNnz(m));
    ExpectSameMatrix(csr.ToDense(), m);
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t c = 0; c < m.cols(); ++c) {
        EXPECT_EQ(csr.At(r, c), m.At(r, c));
      }
    }
  }
}

TEST(CsrTest, CooRoundTripSortsAndValidates) {
  // Deliberately unsorted COO input, including an explicit 0.0 entry
  // that must be dropped (stored zero means "no entry").
  CooMatrix coo;
  coo.rows = 3;
  coo.cols = 4;
  coo.entries = {{2, 1, 4.0}, {0, 3, -1.5}, {0, 0, 2.0}, {1, 2, 0.0}};
  auto csr = CsrMatrix::FromCoo(coo);
  ASSERT_TRUE(csr.ok());
  EXPECT_EQ(csr->nnz(), 3u);
  EXPECT_EQ(csr->At(0, 0), 2.0);
  EXPECT_EQ(csr->At(0, 3), -1.5);
  EXPECT_EQ(csr->At(2, 1), 4.0);
  EXPECT_EQ(csr->At(1, 2), 0.0);

  // ToCoo -> FromCoo is the identity on canonical matrices.
  auto again = CsrMatrix::FromCoo(csr->ToCoo());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again == *csr);

  // Duplicates and out-of-range coordinates are rejected.
  coo.entries = {{0, 0, 1.0}, {0, 0, 2.0}};
  EXPECT_FALSE(CsrMatrix::FromCoo(coo).ok());
  coo.entries = {{5, 0, 1.0}};
  EXPECT_FALSE(CsrMatrix::FromCoo(coo).ok());
}

TEST(CsrTest, EmptyAllZeroAndSingleEntryTiles) {
  // All-structural-zero tile.
  const CsrMatrix zero(3, 3);
  EXPECT_EQ(zero.nnz(), 0u);
  EXPECT_EQ(zero.density(), 0.0);
  ExpectSameMatrix(zero.ToDense(), la::Matrix(3, 3));

  // Degenerate 0-cell shapes never look sparse to the dispatcher.
  EXPECT_EQ(CsrMatrix(0, 0).density(), 1.0);

  // Single-entry tile survives a kernel round.
  la::Matrix one_m(3, 3);
  one_m.At(1, 2) = 2.5;
  const CsrMatrix one = CsrMatrix::FromDense(one_m);
  EXPECT_EQ(one.nnz(), 1u);
  auto prod = la::sparse::SpGemm(one, zero, PlusTimes());
  ASSERT_TRUE(prod.ok());
  EXPECT_EQ(prod->nnz(), 0u);
  auto prod2 = la::sparse::SpGemm(one, one, PlusTimes());
  ASSERT_TRUE(prod2.ok());
  EXPECT_EQ(prod2->nnz(), 0u);  // (1,2)*(1,2): inner indexes miss
}

TEST(CsrTest, ThresholdCompressionKeepsStrictlyLarger) {
  la::Matrix m(2, 2);
  m.At(0, 0) = 0.25;
  m.At(0, 1) = -0.25;
  m.At(1, 0) = 0.5;
  const CsrMatrix csr = CsrMatrix::FromDense(m, 0.25);
  EXPECT_EQ(csr.nnz(), 1u);  // only |0.5| > 0.25 survives
  EXPECT_EQ(csr.At(1, 0), 0.5);
}

TEST(CsrTest, ByteSizeIsCapacityAwareAndSerializedSizeExact) {
  Rng rng(2);
  const la::Matrix m = RandomGrid(6, 6, 0.3, &rng);
  const CsrMatrix csr = CsrMatrix::FromDense(m);
  // Tracker charge covers at least the live arrays.
  EXPECT_GE(csr.ByteSize(), (csr.rows() + 1) * 8 + csr.nnz() * 12);
  // Serialized size formula matches WriteValueBinary to the byte.
  std::ostringstream os(std::ios::binary);
  WriteValueBinary(os, Value::FromSparseMatrix(csr));
  EXPECT_EQ(os.str().size(), 1 + csr.SerializedByteSize());
}

// ---- Semiring algebra ------------------------------------------------

TEST(SemiringTest, AlgebraLawsOnGridSamples) {
  const std::vector<double> numeric_samples = {-2.0, -0.5, 0.5, 1.0, 2.0};
  const std::vector<double> boolean_samples = {0.0, 1.0};  // or-and carrier
  for (const std::string& name : la::sparse::SemiringNames()) {
    auto sr = SemiringByName(name);
    ASSERT_TRUE(sr.ok()) << name;
    const Semiring& s = *sr;
    // Identity laws hold on the semiring's carrier: all of R for the
    // numeric semirings, {0, 1} for or-and (whose Add/Mul normalize
    // any nonzero input to 1.0).
    const bool boolean = s.kind == la::sparse::SemiringKind::kOrAnd;
    const auto& samples = boolean ? boolean_samples : numeric_samples;
    for (double a : samples) {
      // ⊕ identity, ⊗ identity, ⊗ annihilator.
      EXPECT_EQ(s.Add(s.zero, a), a) << name;
      EXPECT_EQ(s.Add(a, s.zero), a) << name;
      EXPECT_EQ(s.Mul(s.one, a), a) << name;
      EXPECT_EQ(s.Mul(a, s.one), a) << name;
      EXPECT_EQ(s.Mul(s.zero, a), s.zero) << name;
      for (double b : samples) {
        EXPECT_EQ(s.Add(a, b), s.Add(b, a)) << name;  // ⊕ commutative
        for (double c : samples) {
          EXPECT_EQ(s.Add(s.Add(a, b), c), s.Add(a, s.Add(b, c))) << name;
          // Distributivity a⊗(b⊕c) = (a⊗b)⊕(a⊗c).
          EXPECT_EQ(s.Mul(a, s.Add(b, c)), s.Add(s.Mul(a, b), s.Mul(a, c)))
              << name;
        }
      }
    }
  }
  EXPECT_FALSE(SemiringByName("tropical").ok());
}

// ---- Kernels vs dense oracles ---------------------------------------

TEST(KernelTest, PlusTimesBitIdenticalToDenseKernels) {
  Rng rng(3);
  for (double density : {0.02, 0.1, 0.5, 1.0}) {
    const la::Matrix a = RandomGrid(8, 6, density, &rng);
    const la::Matrix b = RandomGrid(6, 7, density, &rng);
    const CsrMatrix sa = CsrMatrix::FromDense(a);
    const CsrMatrix sb = CsrMatrix::FromDense(b);

    auto dense = la::Multiply(a, b);
    ASSERT_TRUE(dense.ok());
    auto gemm = la::sparse::SpGemm(sa, sb, PlusTimes());
    ASSERT_TRUE(gemm.ok());
    ExpectSameMatrix(gemm->ToDense(), *dense);
    auto spmm = la::sparse::SpMm(sa, b, PlusTimes());
    ASSERT_TRUE(spmm.ok());
    ExpectSameMatrix(*spmm, *dense);

    ExpectSameMatrix(la::sparse::SpTransposeSelfMultiply(sa, PlusTimes()),
                     la::TransposeSelfMultiply(a));

    la::Vector x(a.cols());
    for (size_t i = 0; i < x.size(); ++i) {
      x[i] = (static_cast<double>(rng.NextBelow(9)) - 4.0) * 0.5;
    }
    auto mv = la::MatrixVectorMultiply(a, x);
    ASSERT_TRUE(mv.ok());
    auto smv = la::sparse::SpMV(sa, x, PlusTimes());
    ASSERT_TRUE(smv.ok());
    for (size_t i = 0; i < mv->size(); ++i) EXPECT_EQ((*smv)[i], (*mv)[i]);

    la::Vector y(a.rows());
    for (size_t i = 0; i < y.size(); ++i) {
      y[i] = (static_cast<double>(rng.NextBelow(9)) - 4.0) * 0.5;
    }
    auto vm = la::VectorMatrixMultiply(y, a);
    ASSERT_TRUE(vm.ok());
    auto svm = la::sparse::SpVM(y, sa, PlusTimes());
    ASSERT_TRUE(svm.ok());
    for (size_t i = 0; i < vm->size(); ++i) EXPECT_EQ((*svm)[i], (*vm)[i]);
  }
}

TEST(KernelTest, SemiringKernelsMatchDenseOracles) {
  Rng rng(4);
  for (const std::string& name : la::sparse::SemiringNames()) {
    const Semiring s = *SemiringByName(name);
    for (double density : {0.1, 0.5}) {
      const la::Matrix a = RandomGrid(6, 5, density, &rng);
      const la::Matrix b = RandomGrid(5, 6, density, &rng);
      auto oracle = la::sparse::DenseMultiply(a, b, s);
      ASSERT_TRUE(oracle.ok());
      auto gemm = la::sparse::SpGemm(CsrMatrix::FromDense(a),
                                     CsrMatrix::FromDense(b), s);
      ASSERT_TRUE(gemm.ok()) << name;
      ExpectSameMatrix(gemm->ToDense(), *oracle);
      auto spmm = la::sparse::SpMm(CsrMatrix::FromDense(a), b, s);
      ASSERT_TRUE(spmm.ok());
      ExpectSameMatrix(*spmm, *oracle);
      ExpectSameMatrix(
          la::sparse::SpTransposeSelfMultiply(CsrMatrix::FromDense(a), s),
          la::sparse::DenseTransposeSelfMultiply(a, s));
    }
  }
}

TEST(KernelTest, EWiseAndMaskMatchBruteForce) {
  Rng rng(5);
  const la::Matrix a = RandomGrid(5, 5, 0.4, &rng);
  const la::Matrix b = RandomGrid(5, 5, 0.4, &rng);
  const CsrMatrix sa = CsrMatrix::FromDense(a);
  const CsrMatrix sb = CsrMatrix::FromDense(b);
  const Semiring& s = PlusTimes();

  auto add = la::sparse::EWiseAdd(sa, sb, s);
  ASSERT_TRUE(add.ok());
  auto add_oracle = la::sparse::DenseEWiseAdd(a, b, s);
  ASSERT_TRUE(add_oracle.ok());
  ExpectSameMatrix(add->ToDense(), *add_oracle);

  auto mul = la::sparse::EWiseMul(sa, sb, s);
  ASSERT_TRUE(mul.ok());
  auto mul_oracle = la::sparse::DenseEWiseMul(a, b, s);
  ASSERT_TRUE(mul_oracle.ok());
  ExpectSameMatrix(mul->ToDense(), *mul_oracle);

  for (bool complement : {false, true}) {
    auto masked = la::sparse::Mask(sa, sb, complement);
    ASSERT_TRUE(masked.ok());
    for (size_t r = 0; r < 5; ++r) {
      for (size_t c = 0; c < 5; ++c) {
        const bool mask_present = sb.At(r, c) != 0.0;
        const double want =
            (mask_present != complement) ? sa.At(r, c) : 0.0;
        EXPECT_EQ(masked->At(r, c), want)
            << "complement=" << complement << " at (" << r << "," << c
            << ")";
      }
    }
  }
}

TEST(KernelTest, TransposeTwiceIsIdentity) {
  Rng rng(6);
  const CsrMatrix sa = CsrMatrix::FromDense(RandomGrid(6, 4, 0.3, &rng));
  const CsrMatrix t = la::sparse::SpTranspose(sa);
  EXPECT_EQ(t.rows(), sa.cols());
  EXPECT_EQ(t.cols(), sa.rows());
  EXPECT_TRUE(la::sparse::SpTranspose(t) == sa);
}

// ---- Value payload: serialization, equality, hashing ----------------

TEST(SparseValueTest, BinaryRoundTripIsExactAndByteSized) {
  Rng rng(7);
  for (double density : {0.0, 0.2, 0.8}) {
    const CsrMatrix csr =
        CsrMatrix::FromDense(RandomGrid(5, 8, density, &rng));
    const Value v = Value::FromSparseMatrix(csr);
    std::ostringstream os(std::ios::binary);
    WriteValueBinary(os, v);
    const std::string bytes = os.str();
    EXPECT_EQ(bytes.size(), v.ByteSize());

    std::istringstream is(bytes);
    auto back = ReadValueBinary(is);
    ASSERT_TRUE(back.ok());
    ASSERT_TRUE(back->is_sparse_matrix());
    EXPECT_TRUE(back->sparse_matrix() == csr);
    EXPECT_TRUE(back->Equals(v));
  }
}

TEST(SparseValueTest, MixedRepresentationEqualityAndHash) {
  Rng rng(8);
  const la::Matrix m = RandomGrid(4, 4, 0.3, &rng);
  const Value sparse = Value::FromSparseMatrix(CsrMatrix::FromDense(m));
  const Value dense = Value::FromMatrix(la::Matrix(m));
  EXPECT_TRUE(sparse.Equals(dense));
  EXPECT_TRUE(dense.Equals(sparse));
  EXPECT_EQ(sparse.Hash(), dense.Hash());
  EXPECT_EQ(sparse.kind(), TypeKind::kMatrix);

  la::Matrix other(m);
  other.At(3, 3) = other.At(3, 3) == 0.0 ? 1.0 : 0.0;
  EXPECT_FALSE(sparse.Equals(Value::FromMatrix(std::move(other))));
}

TEST(SparseValueTest, DenseMatrixByteSizeIgnoresCapacitySlack) {
  // la::Matrix::ByteSize() is capacity-aware (the tracker charge);
  // Value::ByteSize() stays serialization-exact for dense matrices.
  const la::Matrix m(4, 3);
  EXPECT_GE(m.ByteSize(), 4 * 3 * sizeof(double));
  const Value v = Value::FromMatrix(la::Matrix(m));
  std::ostringstream os(std::ios::binary);
  WriteValueBinary(os, v);
  EXPECT_EQ(os.str().size(), v.ByteSize());
  EXPECT_EQ(v.ByteSize(), 1 + 8 + 8 + 4 * 3 * sizeof(double));
}

// ---- Density-adaptive dispatch --------------------------------------

TEST(DispatchTest, ThresholdBoundaryIsInclusiveAndCounted) {
  Database::Config cfg;
  cfg.obs.enable_metrics = true;
  Database db(cfg);

  // 20 of 400 cells is density 0.05, exactly the threshold -> sparse;
  // one more nonzero is above it -> dense.
  la::Matrix at(20, 20);
  for (size_t i = 0; i < 20; ++i) at.At(i, i) = 1.5;
  la::Matrix above(at);
  above.At(0, 1) = 0.5;
  ASSERT_EQ(la::sparse::DenseNnz(at), 20u);
  ASSERT_EQ(la::sparse::DenseNnz(above), 21u);
  ASSERT_TRUE(Exec(db, "CREATE TABLE t (k INTEGER, a MATRIX[20][20], "
                       "b MATRIX[20][20])")
                  .ok());
  std::vector<Row> rows;
  rows.push_back({Value::Int(0), Value::FromMatrix(la::Matrix(at)),
                  Value::FromMatrix(la::Matrix(above))});
  ASSERT_TRUE(db.BulkInsert("t", std::move(rows)).ok());

  obs::MetricsRegistry* reg = obs::GlobalMetrics();
  ASSERT_NE(reg, nullptr);
  obs::Counter* auto_ctr = reg->counter("la.sparse.auto_sparsify");
  obs::Counter* dense_ctr = reg->counter("la.sparse.dispatch_dense");

  const uint64_t auto_before = auto_ctr->value();
  auto rs = Exec(db, "SELECT matrix_multiply(a, a) FROM t");
  ASSERT_TRUE(rs.ok());
  EXPECT_GT(auto_ctr->value(), auto_before)
      << "density == threshold must take the sparse kernel";
  // Auto-dispatch is kernel selection only: the result is dense and
  // bit-identical to the dense kernel's answer.
  ASSERT_EQ(rs->rows.size(), 1u);
  ASSERT_FALSE(rs->rows[0][0].is_sparse_matrix());
  auto want = la::Multiply(at, at);
  ASSERT_TRUE(want.ok());
  ExpectSameMatrix(rs->rows[0][0].matrix(), *want);

  const uint64_t auto_after = auto_ctr->value();
  const uint64_t dense_before = dense_ctr->value();
  auto rs2 = Exec(db, "SELECT matrix_multiply(b, b) FROM t");
  ASSERT_TRUE(rs2.ok());
  EXPECT_GT(dense_ctr->value(), dense_before)
      << "density above threshold must stay on the dense kernel";
  EXPECT_EQ(auto_ctr->value(), auto_after);
  auto want2 = la::Multiply(above, above);
  ASSERT_TRUE(want2.ok());
  ExpectSameMatrix(rs2->rows[0][0].matrix(), *want2);
}

// ---- SQL surface -----------------------------------------------------

TEST(SparseSqlTest, BuiltinsEndToEnd) {
  Database db;
  Rng rng(9);
  const la::Matrix m = RandomGrid(4, 4, 0.3, &rng);
  ASSERT_TRUE(Exec(db, "CREATE TABLE t (m MATRIX[4][4])").ok());
  std::vector<Row> rows;
  rows.push_back({Value::FromMatrix(la::Matrix(m))});
  ASSERT_TRUE(db.BulkInsert("t", std::move(rows)).ok());

  auto rs = Exec(db,
                 "SELECT nnz(m), is_sparse(m), is_sparse(sparsify(m)), "
                 "is_sparse(densify(sparsify(m))), densify(sparsify(m)) "
                 "FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 1u);
  const Row& row = rs->rows[0];
  EXPECT_EQ(row[0].int_value(),
            static_cast<int64_t>(la::sparse::DenseNnz(m)));
  EXPECT_FALSE(row[1].bool_value());
  EXPECT_TRUE(row[2].bool_value());
  EXPECT_FALSE(row[3].bool_value());
  ExpectSameMatrix(row[4].matrix(), m);

  // Semiring argument reaches the kernel; bad names are type errors.
  auto mp = Exec(db, "SELECT matrix_multiply(sparsify(m), m, 'min_plus') "
                     "FROM t");
  ASSERT_TRUE(mp.ok()) << mp.status();
  auto oracle = la::sparse::DenseMultiply(m, m, *SemiringByName("min_plus"));
  ASSERT_TRUE(oracle.ok());
  ExpectSameMatrix(mp->rows[0][0].Densified().matrix(), *oracle);
  EXPECT_FALSE(Exec(db, "SELECT matrix_multiply(m, m, 'boolean') FROM t").ok());
  EXPECT_FALSE(Exec(db, "SELECT sparsify(m, -1.0) FROM t").ok());

  // Masking via SQL: mask with itself keeps everything, complement
  // empties it.
  auto mask = Exec(db,
                   "SELECT nnz(matrix_mask(sparsify(m), m)), "
                   "nnz(matrix_mask(sparsify(m), m, 1)) FROM t");
  ASSERT_TRUE(mask.ok()) << mask.status();
  EXPECT_EQ(mask->rows[0][0].int_value(),
            static_cast<int64_t>(la::sparse::DenseNnz(m)));
  EXPECT_EQ(mask->rows[0][1].int_value(), 0);
}

TEST(SparseSqlTest, ResultCacheServesSparseValuesExactly) {
  Database::Config cfg;
  cfg.obs.enable_metrics = true;
  Database db(cfg);
  Rng rng(10);
  ASSERT_TRUE(Exec(db, "CREATE TABLE t (k INTEGER, m MATRIX[4][4])").ok());
  std::vector<Row> rows;
  for (int64_t k = 0; k < 6; ++k) {
    rows.push_back({Value::Int(k),
                    Value::FromSparseMatrix(CsrMatrix::FromDense(
                        RandomGrid(4, 4, 0.2, &rng)))});
  }
  ASSERT_TRUE(db.BulkInsert("t", std::move(rows)).ok());

  const std::string q =
      "SELECT k, m, matrix_multiply(m, m, 'max_plus') FROM t ORDER BY k";
  auto first = Exec(db, q);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = Exec(db, q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Fingerprint(*first), Fingerprint(*second));

  uint64_t result_hits = 0;
  auto cache_rs = Exec(db, "SELECT cache, hits FROM radb_cache");
  ASSERT_TRUE(cache_rs.ok());
  for (const Row& r : cache_rs->rows) {
    if (r[0].string_value() == "result") {
      result_hits = static_cast<uint64_t>(r[1].int_value());
    }
  }
  EXPECT_GE(result_hits, 1u);
}

TEST(SparseSqlTest, SpillRoundTripUnderTinyBudget) {
  Database::Config cfg;
  cfg.cache.enable_result_cache = false;  // rerun must actually execute
  Database db(cfg);
  // ORDER BY keeps an unspillable sort buffer, so the spill path to
  // exercise is the join build + shuffle: joined rows carrying sparse
  // matrix values get serialized into spill files and read back.
  Rng rng(11);
  ASSERT_TRUE(Exec(db, "CREATE TABLE a (k INTEGER, m MATRIX[16][16]); "
                       "CREATE TABLE b (k INTEGER, m MATRIX[16][16])")
                  .ok());
  std::vector<Row> arows, brows;
  for (int64_t k = 0; k < 1024; ++k) {
    arows.push_back({Value::Int(k),
                     Value::FromSparseMatrix(CsrMatrix::FromDense(
                         RandomGrid(16, 16, 0.3, &rng)))});
    brows.push_back({Value::Int(k),
                     Value::FromSparseMatrix(CsrMatrix::FromDense(
                         RandomGrid(16, 16, 0.3, &rng)))});
  }
  ASSERT_TRUE(db.BulkInsert("a", std::move(arows)).ok());
  ASSERT_TRUE(db.BulkInsert("b", std::move(brows)).ok());

  // EMIN over an exact grid is order-independent, so the spilled run
  // must be bit-identical to the in-memory one.
  const std::string q =
      "SELECT COUNT(*), EMIN(elementwise_multiply(a.m, b.m, 'min_plus')) "
      "FROM a, b WHERE a.k = b.k";
  auto unbudgeted = Exec(db, q);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status();
  auto spilled =
      db.Execute(q, QueryOptions{.memory_budget_bytes = 256u << 10});
  ASSERT_TRUE(spilled.ok()) << spilled.status();
  ASSERT_EQ(spilled->statements.size(), 1u);
  EXPECT_GT(spilled->statements[0].spill_bytes, 0u)
      << "budget did not actually force a spill";
  ASSERT_EQ(spilled->last().rows.size(), 1u);
  EXPECT_EQ(spilled->last().rows[0][0].int_value(), 1024);
  EXPECT_EQ(Fingerprint(*unbudgeted), Fingerprint(spilled->last()));
}

TEST(SparseSqlTest, PersistentReopenRoundTrip) {
  TempDir dir;
  Rng rng(12);
  std::vector<Row> rows;
  for (int64_t k = 0; k < 8; ++k) {
    rows.push_back({Value::Int(k),
                    Value::FromSparseMatrix(CsrMatrix::FromDense(
                        RandomGrid(5, 5, 0.25, &rng)))});
  }
  std::string before;
  {
    auto db = Database::Open(dir.path());
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE(
        Exec(**db, "CREATE TABLE t (k INTEGER, m MATRIX[5][5])").ok());
    ASSERT_TRUE((*db)->BulkInsert("t", rows).ok());
    auto rs = Exec(**db, "SELECT k, m FROM t ORDER BY k");
    ASSERT_TRUE(rs.ok());
    before = Fingerprint(*rs);
  }
  {
    auto db = Database::Open(dir.path());
    ASSERT_TRUE(db.ok()) << db.status();
    auto rs = Exec(**db, "SELECT k, m FROM t ORDER BY k");
    ASSERT_TRUE(rs.ok()) << rs.status();
    ASSERT_EQ(rs->rows.size(), 8u);
    EXPECT_EQ(Fingerprint(*rs), before);
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(rs->rows[i][1].Equals(rows[i][1])) << "row " << i;
      EXPECT_TRUE(rs->rows[i][1].is_sparse_matrix());
    }
  }
}

TEST(SparseSqlTest, TiledMinPlusViaEminMatchesWholeMatrixOracle) {
  // 6x6 fully-dense positive matrices tiled 3x3: per-tile min-plus
  // products hold partial minima over their k-range, EMIN folds the
  // tiles. (Full density so every partial product cell has a real
  // contribution — a structural hole would read as "no path".)
  Rng rng(13);
  la::Matrix a(6, 6), b(6, 6);
  for (size_t i = 0; i < 36; ++i) {
    a.data()[i] = 0.5 * static_cast<double>(1 + rng.NextBelow(8));
    b.data()[i] = 0.5 * static_cast<double>(1 + rng.NextBelow(8));
  }

  Database db;
  ASSERT_TRUE(
      Exec(db, "CREATE TABLE l (tr INTEGER, tc INTEGER, mat MATRIX[3][3]); "
               "CREATE TABLE r (tr INTEGER, tc INTEGER, mat MATRIX[3][3])")
          .ok());
  auto tile = [](const la::Matrix& m, size_t tr, size_t tc) {
    la::Matrix t(3, 3);
    for (size_t i = 0; i < 3; ++i) {
      for (size_t j = 0; j < 3; ++j) t.At(i, j) = m.At(tr * 3 + i, tc * 3 + j);
    }
    return t;
  };
  std::vector<Row> lrows, rrows;
  for (size_t tr = 0; tr < 2; ++tr) {
    for (size_t tc = 0; tc < 2; ++tc) {
      lrows.push_back({Value::Int(static_cast<int64_t>(tr)),
                       Value::Int(static_cast<int64_t>(tc)),
                       Value::FromMatrix(tile(a, tr, tc))});
      rrows.push_back({Value::Int(static_cast<int64_t>(tr)),
                       Value::Int(static_cast<int64_t>(tc)),
                       Value::FromMatrix(tile(b, tr, tc))});
    }
  }
  ASSERT_TRUE(db.BulkInsert("l", std::move(lrows)).ok());
  ASSERT_TRUE(db.BulkInsert("r", std::move(rrows)).ok());

  auto rs = Exec(db,
                 "SELECT l.tr, r.tc, EMIN(matrix_multiply(l.mat, r.mat, "
                 "'min_plus')) AS mat FROM l, r WHERE l.tc = r.tr "
                 "GROUP BY l.tr, r.tc ORDER BY l.tr, r.tc");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->rows.size(), 4u);

  auto oracle = la::sparse::DenseMultiply(a, b, *SemiringByName("min_plus"));
  ASSERT_TRUE(oracle.ok());
  for (const Row& row : rs->rows) {
    const size_t tr = static_cast<size_t>(row[0].int_value());
    const size_t tc = static_cast<size_t>(row[1].int_value());
    const la::Matrix& got = row[2].Densified().matrix();
    for (size_t i = 0; i < 3; ++i) {
      for (size_t j = 0; j < 3; ++j) {
        EXPECT_EQ(got.At(i, j), oracle->At(tr * 3 + i, tc * 3 + j))
            << "tile (" << tr << "," << tc << ") cell (" << i << "," << j
            << ")";
      }
    }
  }
}

// ---- Graph workload vs brute force ----------------------------------

std::vector<GraphEdge> RandomGraph(size_t n, size_t avg_degree, Rng* rng) {
  std::vector<GraphEdge> edges;
  for (size_t s = 0; s < n; ++s) {
    const size_t degree = rng->NextBelow(2 * avg_degree + 1);
    for (size_t e = 0; e < degree; ++e) {
      edges.push_back({static_cast<int64_t>(s),
                       static_cast<int64_t>(rng->NextBelow(n)),
                       0.5 * static_cast<double>(1 + rng->NextBelow(8))});
    }
  }
  return edges;
}

/// Classic (asynchronous) Bellman-Ford — an implementation independent
/// of both the SQL path and the synchronous oracle.
std::vector<double> BellmanFord(size_t n, const std::vector<GraphEdge>& edges,
                                size_t source) {
  std::vector<double> dist(n, workloads::kUnreachable);
  dist[source] = 0.0;
  for (size_t round = 0; round + 1 < n; ++round) {
    bool changed = false;
    for (const GraphEdge& e : edges) {
      const double cand = dist[e.src] + e.weight;
      if (cand < dist[e.dst]) {
        dist[e.dst] = cand;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

TEST(GraphTest, SsspMatchesBruteForceOracles) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    Rng rng(seed);
    const size_t n = 10 + rng.NextBelow(6);
    const std::vector<GraphEdge> edges = RandomGraph(n, 2, &rng);

    Database db;
    workloads::GraphAnalytics graph(&db);
    ASSERT_TRUE(graph.LoadEdges(n, edges).ok());
    auto sssp = graph.Sssp(0);
    ASSERT_TRUE(sssp.ok()) << sssp.status();

    const std::vector<double> oracle = workloads::SsspOracle(n, edges, 0);
    const std::vector<double> bf = BellmanFord(n, edges, 0);
    ASSERT_EQ(sssp->values.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(sssp->values[i], oracle[i]) << "seed " << seed << " node "
                                            << i;
      EXPECT_EQ(sssp->values[i], bf[i]) << "seed " << seed << " node " << i;
    }
    // Converged: the final iteration found nothing left to improve.
    ASSERT_FALSE(sssp->frontier_sizes.empty());
    EXPECT_EQ(sssp->frontier_sizes.back(), 0u);
  }
}

TEST(GraphTest, KHopMatchesBfsDepths) {
  Rng rng(31);
  const size_t n = 12;
  const std::vector<GraphEdge> edges = RandomGraph(n, 2, &rng);

  // BFS hop counts (unit hops, weights ignored).
  std::vector<int> depth(n, -1);
  depth[0] = 0;
  std::vector<size_t> frontier{0};
  for (int d = 1; !frontier.empty(); ++d) {
    std::vector<size_t> next;
    for (size_t u : frontier) {
      for (const GraphEdge& e : edges) {
        if (static_cast<size_t>(e.src) == u && depth[e.dst] < 0) {
          depth[e.dst] = d;
          next.push_back(static_cast<size_t>(e.dst));
        }
      }
    }
    frontier = std::move(next);
  }

  Database db;
  workloads::GraphAnalytics graph(&db);
  ASSERT_TRUE(graph.LoadEdges(n, edges).ok());
  for (size_t k : {0u, 1u, 3u}) {
    auto hop = graph.KHop(0, k);
    ASSERT_TRUE(hop.ok()) << hop.status();
    const std::vector<double> oracle = workloads::KHopOracle(n, edges, 0, k);
    for (size_t i = 0; i < n; ++i) {
      const bool want = depth[i] >= 0 && static_cast<size_t>(depth[i]) <= k;
      EXPECT_EQ(hop->values[i], want ? 1.0 : 0.0)
          << "k=" << k << " node " << i;
      EXPECT_EQ(hop->values[i], oracle[i]) << "k=" << k << " node " << i;
    }
  }
}

TEST(GraphTest, RejectsBadEdges) {
  Database db;
  workloads::GraphAnalytics graph(&db);
  EXPECT_FALSE(graph.LoadEdges(3, {{0, 5, 1.0}}).ok());   // out of range
  EXPECT_FALSE(graph.LoadEdges(3, {{0, 1, 0.0}}).ok());   // structural weight
  EXPECT_FALSE(graph.LoadEdges(3, {{0, 1, -2.0}}).ok());  // negative
  EXPECT_FALSE(graph.Sssp(0).ok());                       // not loaded
}

}  // namespace
}  // namespace radb
