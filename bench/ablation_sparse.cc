// Ablation: sparse CSR kernels vs the dense kernels across a density
// sweep. A standalone driver (no Google-benchmark harness, like
// ablation_cache/ablation_storage): for each density in {0.001, 0.01,
// 0.1, 0.5} it draws square matrices with Bernoulli(density) nonzero
// cells on the exact 0.5-grid (so every product and partial sum is
// representable and "bit-identical" is a meaningful assertion), then
// times three kernels dense-vs-CSR:
//
//   spgemm — la::Multiply(A, B)        vs sparse::SpGemm(A, B)
//   gram   — la::TransposeSelfMultiply vs sparse::SpTransposeSelfMultiply
//   spmv   — la::MatrixVectorMultiply  vs sparse::SpMV
//
// EVERY sparse result is densified and compared cell-for-cell,
// EXACTLY (==, no epsilon), against the dense kernel's output — the
// same bit-identity contract the plus-times kernels promise in
// src/la/sparse/sparse.h. A min-plus SpGemm-vs-DenseMultiply
// cross-check rides along at each density so the semiring path is
// exercised too.
//
// Emits BENCH_sparse.json with per-(kernel, density) wall times and
// speedups. In the full configuration the driver FAILS unless every
// comparison matched and, at each density <= 0.01, the CSR spgemm and
// spmv kernels beat their dense counterparts by >= 5x (the PR
// acceptance gate).
//
// Usage:
//   ablation_sparse [--quick] [--dim N]
//
// --quick shrinks the matrices (the ctest `sparse` smoke
// configuration); it keeps the bit-identity assertions but skips the
// 5x throughput gate, which is meaningless at toy sizes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "la/matrix.h"
#include "la/sparse/sparse.h"
#include "la/vector.h"

namespace {

using namespace radb;
namespace sp = radb::la::sparse;

constexpr uint64_t kSeed = 20170419;  // ICDE 2017
constexpr double kDensities[] = {0.001, 0.01, 0.1, 0.5};
constexpr double kGateDensity = 0.01;  // gate applies at densities <= this
constexpr double kGateSpeedup = 5.0;

struct Args {
  size_t dim = 512;
  bool quick = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
      args.dim = 96;
    } else if (std::strcmp(argv[i], "--dim") == 0 && i + 1 < argc) {
      args.dim = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--dim N]\n", argv[0]);
      std::exit(2);
    }
  }
  if (args.dim < 4) args.dim = 4;
  return args;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-call seconds: repeats `fn` until >= min_wall total (or
/// max_reps), so microsecond-scale sparse calls at density 0.001 get a
/// stable average instead of one noisy timer read.
template <typename Fn>
double TimePerCall(Fn&& fn, double min_wall = 0.02, size_t max_reps = 4096) {
  size_t reps = 0;
  const double start = NowSeconds();
  double elapsed = 0.0;
  while (reps < max_reps && (reps == 0 || elapsed < min_wall)) {
    fn();
    ++reps;
    elapsed = NowSeconds() - start;
  }
  return elapsed / static_cast<double>(reps);
}

/// Bernoulli(density) cells on the exact grid 0.5 * {±1..±4}, 0
/// excluded — the same generator family as the fuzzer's sparse
/// columns, so sums/products are exact in double and the min-plus
/// cross-check sees strictly positive magnitudes where it needs them.
la::Matrix RandomSparseDense(Rng* rng, size_t n, double density) {
  la::Matrix m(n, n);
  const uint64_t inv = static_cast<uint64_t>(1.0 / density + 0.5);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      if (rng->NextBelow(inv) != 0) continue;
      const uint64_t i = rng->NextBelow(8);
      m.At(r, c) = i < 4 ? (static_cast<double>(i) - 4.0) * 0.5
                         : (static_cast<double>(i) - 3.0) * 0.5;
    }
  }
  return m;
}

/// Edge-weight variant for the min-plus cross-check: strictly positive
/// grid 0.5 * {1..8} (a 0.0 cell must mean "no entry", never a weight).
la::Matrix RandomPositiveSparseDense(Rng* rng, size_t n, double density) {
  la::Matrix m(n, n);
  const uint64_t inv = static_cast<uint64_t>(1.0 / density + 0.5);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      if (rng->NextBelow(inv) != 0) continue;
      m.At(r, c) = 0.5 * static_cast<double>(rng->NextBelow(8) + 1);
    }
  }
  return m;
}

size_t CountMismatches(const la::Matrix& got, const la::Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) return SIZE_MAX;
  size_t bad = 0;
  for (size_t r = 0; r < got.rows(); ++r) {
    for (size_t c = 0; c < got.cols(); ++c) {
      if (got.At(r, c) != want.At(r, c)) ++bad;  // exact, no epsilon
    }
  }
  return bad;
}

struct CellStats {
  std::string kernel;
  double density = 0.0;
  size_t nnz = 0;
  double dense_seconds = 0.0;
  double sparse_seconds = 0.0;
  double speedup = 0.0;
  size_t mismatches = 0;
};

void PrintCell(const CellStats& c) {
  std::printf("%-7s d=%-6g nnz=%-8zu dense=%10.3gs  sparse=%10.3gs  "
              "speedup=%8.2fx  mismatches=%zu\n",
              c.kernel.c_str(), c.density, c.nnz, c.dense_seconds,
              c.sparse_seconds, c.speedup, c.mismatches);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const size_t n = args.dim;
  std::vector<CellStats> cells;
  size_t total_mismatches = 0;
  std::vector<std::string> gate_failures;
  const sp::Semiring& pt = sp::PlusTimes();

  for (double density : kDensities) {
    Rng rng(kSeed + static_cast<uint64_t>(density * 1e6));
    const la::Matrix a = RandomSparseDense(&rng, n, density);
    const la::Matrix b = RandomSparseDense(&rng, n, density);
    const sp::CsrMatrix sa = sp::CsrMatrix::FromDense(a);
    const sp::CsrMatrix sb = sp::CsrMatrix::FromDense(b);
    std::vector<double> xs(n);
    for (double& v : xs) {
      v = 0.5 * static_cast<double>(rng.NextBelow(8) + 1);
    }
    const la::Vector x(std::move(xs));

    // spgemm: A * B, plus-times.
    {
      CellStats c{"spgemm", density, sa.nnz() + sb.nnz()};
      auto want = la::Multiply(a, b);
      auto got = sp::SpGemm(sa, sb, pt);
      if (!want.ok() || !got.ok()) {
        std::fprintf(stderr, "spgemm failed at d=%g\n", density);
        return 1;
      }
      c.mismatches = CountMismatches(got->ToDense(), *want);
      c.dense_seconds = TimePerCall([&] { (void)la::Multiply(a, b); });
      c.sparse_seconds = TimePerCall([&] { (void)sp::SpGemm(sa, sb, pt); });
      c.speedup = c.sparse_seconds > 0.0 ? c.dense_seconds / c.sparse_seconds
                                         : 0.0;
      cells.push_back(c);
    }

    // gram: Aᵀ * A, plus-times.
    {
      CellStats c{"gram", density, sa.nnz()};
      const la::Matrix want = la::TransposeSelfMultiply(a);
      const la::Matrix got = sp::SpTransposeSelfMultiply(sa, pt);
      c.mismatches = CountMismatches(got, want);
      c.dense_seconds =
          TimePerCall([&] { (void)la::TransposeSelfMultiply(a); });
      c.sparse_seconds =
          TimePerCall([&] { (void)sp::SpTransposeSelfMultiply(sa, pt); });
      c.speedup = c.sparse_seconds > 0.0 ? c.dense_seconds / c.sparse_seconds
                                         : 0.0;
      cells.push_back(c);
    }

    // spmv: A * x, plus-times. Vector compare is exact too.
    {
      CellStats c{"spmv", density, sa.nnz()};
      auto want = la::MatrixVectorMultiply(a, x);
      auto got = sp::SpMV(sa, x, pt);
      if (!want.ok() || !got.ok()) {
        std::fprintf(stderr, "spmv failed at d=%g\n", density);
        return 1;
      }
      for (size_t i = 0; i < n; ++i) {
        if ((*got)[i] != (*want)[i]) ++c.mismatches;
      }
      c.dense_seconds =
          TimePerCall([&] { (void)la::MatrixVectorMultiply(a, x); });
      c.sparse_seconds = TimePerCall([&] { (void)sp::SpMV(sa, x, pt); });
      c.speedup = c.sparse_seconds > 0.0 ? c.dense_seconds / c.sparse_seconds
                                         : 0.0;
      cells.push_back(c);
    }

    // Semiring cross-check (correctness only, not timed for the gate):
    // min-plus SpGemm over strictly positive weights must match the
    // dense semiring oracle exactly.
    {
      Rng wrng(kSeed ^ 0x5eed);
      const la::Matrix pa = RandomPositiveSparseDense(&wrng, n, density);
      const la::Matrix pb = RandomPositiveSparseDense(&wrng, n, density);
      auto sr = sp::SemiringByName("min_plus");
      auto want = sp::DenseMultiply(pa, pb, *sr);
      auto got = sp::SpGemm(sp::CsrMatrix::FromDense(pa),
                            sp::CsrMatrix::FromDense(pb), *sr);
      if (!want.ok() || !got.ok()) {
        std::fprintf(stderr, "min_plus spgemm failed at d=%g\n", density);
        return 1;
      }
      CellStats c{"minplus", density,
                  sp::DenseNnz(pa) + sp::DenseNnz(pb)};
      c.mismatches = CountMismatches(got->ToDense(), *want);
      cells.push_back(c);
    }

    for (size_t i = cells.size() - 4; i < cells.size(); ++i) {
      PrintCell(cells[i]);
      total_mismatches += cells[i].mismatches;
      const CellStats& c = cells[i];
      const bool gated = c.kernel == "spgemm" || c.kernel == "spmv";
      if (!args.quick && gated && density <= kGateDensity &&
          c.speedup < kGateSpeedup) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s at d=%g: %.2fx < %.0fx",
                      c.kernel.c_str(), density, c.speedup, kGateSpeedup);
        gate_failures.push_back(buf);
      }
    }
  }

  std::vector<std::string> json;
  for (const CellStats& c : cells) {
    json.push_back(bench::JsonFields()
                       .Str("kernel", c.kernel)
                       .Num("density", c.density)
                       .Int("nnz", c.nnz)
                       .Num("dense_seconds", c.dense_seconds)
                       .Num("sparse_seconds", c.sparse_seconds)
                       .Num("speedup", c.speedup)
                       .Int("mismatches", c.mismatches)
                       .ToString());
  }
  bench::WriteBenchJson("sparse",
                        bench::JsonFields()
                            .Int("dim", n)
                            .Num("gate_density", kGateDensity)
                            .Num("gate_speedup", kGateSpeedup)
                            .Int("mismatches", total_mismatches),
                        json);

  if (total_mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu cells diverged from the dense kernels — the "
                 "bit-identity contract is broken\n",
                 total_mismatches);
    return 1;
  }
  for (const std::string& g : gate_failures) {
    std::fprintf(stderr, "FAIL: speedup gate: %s\n", g.c_str());
  }
  if (!gate_failures.empty()) return 1;
  std::printf("all sparse results bit-identical to the dense kernels%s\n",
              args.quick ? " (gate skipped in --quick)"
                         : "; >=5x gate held at d<=0.01");
  return 0;
}
