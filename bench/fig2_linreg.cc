// Figure 2: least-squares linear regression β̂ = (XᵀX)⁻¹Xᵀy across
// platforms and dimensionalities {10, 100, 1000}.
#include "bench/bench_util.h"

namespace radb::bench {
namespace {

using workloads::Dataset;
using workloads::GenerateDataset;
using workloads::ReferenceLinReg;
using workloads::RunOutcome;
using workloads::SqlWorkload;

void CheckBeta(benchmark::State& state, const Dataset& data,
               const RunOutcome& out) {
  auto expected = ReferenceLinReg(data);
  if (!expected.ok() || out.beta.MaxAbsDiff(*expected) > 1e-5) {
    state.SkipWithError("beta result mismatch");
  }
}

/// The tuple coding, by default or rule-based (see TupleOptimizer).
void RunLinRegTuple(benchmark::State& state, bool rule_based) {
  const size_t d = static_cast<size_t>(state.range(0));
  if (d >= 1000) {
    // A solvable system needs n > d = 1000; the tuple coding's
    // XᵀX self-join then produces n*d^2 > 10^9 intermediate tuples,
    // far beyond the bench time budget. The paper's measured value
    // for this cell is 05:05:22 (vs 6m35s vector) — same story as
    // our 100-dim ratio, amplified.
    state.SkipWithError(
        "skipped: tuple coding at 1000 dims exceeds the time budget "
        "(paper: 05:05:22)");
    return;
  }
  const Dataset data = GenerateDataset(kSeed, LinRegPointsFor(d), d);
  for (auto _ : state) {
    SqlWorkload wl(kWorkers, TupleOptimizer(rule_based));
    if (!wl.LoadTuple(data).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto out = wl.LinRegTuple();
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckBeta(state, data, *out);
    ReportOutcome(state, *out, "fig2_linreg",
                  (rule_based ? "tuple_rule_based/" : "tuple_simsql/") +
                      std::to_string(d));
  }
}

void BM_LinReg_TupleSimSQL(benchmark::State& state) {
  RunLinRegTuple(state, false);
}

void BM_LinReg_TupleRuleBased(benchmark::State& state) {
  RunLinRegTuple(state, true);
}

void BM_LinReg_VectorSimSQL(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Dataset data = GenerateDataset(kSeed, LinRegPointsFor(d), d);
  for (auto _ : state) {
    SqlWorkload wl(kWorkers);
    if (!wl.LoadVector(data).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto out = wl.LinRegVector();
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckBeta(state, data, *out);
    ReportOutcome(state, *out, "fig2_linreg",
                  "vector_simsql/" + std::to_string(d));
  }
}

void BM_LinReg_BlockSimSQL(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = LinRegPointsFor(d);
  const Dataset data = GenerateDataset(kSeed, n, d);
  for (auto _ : state) {
    SqlWorkload wl(kWorkers);
    if (!wl.LoadVector(data).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto out = wl.LinRegBlock(BlockFor(n));
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckBeta(state, data, *out);
    ReportOutcome(state, *out, "fig2_linreg",
                  "block_simsql/" + std::to_string(d));
  }
}

void BM_LinReg_SystemML(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = LinRegPointsFor(d);
  const Dataset data = GenerateDataset(kSeed, n, d);
  for (auto _ : state) {
    auto out = workloads::LinRegSystemML(data, SystemMlConfigFor(n));
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckBeta(state, data, *out);
    ReportOutcome(state, *out, "fig2_linreg",
                  "system_m_l/" + std::to_string(d));
  }
}

void BM_LinReg_SciDB(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = LinRegPointsFor(d);
  const Dataset data = GenerateDataset(kSeed, n, d);
  for (auto _ : state) {
    auto out = workloads::LinRegSciDB(data, kWorkers, ChunkFor(n));
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckBeta(state, data, *out);
    ReportOutcome(state, *out, "fig2_linreg",
                  "sci_d_b/" + std::to_string(d));
  }
}

void BM_LinReg_SparkMllib(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Dataset data = GenerateDataset(kSeed, LinRegPointsFor(d), d);
  for (auto _ : state) {
    auto out = workloads::LinRegSpark(data, kWorkers);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckBeta(state, data, *out);
    ReportOutcome(state, *out, "fig2_linreg",
                  "spark_mllib/" + std::to_string(d));
  }
}

#define LINREG_BENCH(fn)                                         \
  BENCHMARK(fn)                                                  \
      ->Arg(10)                                                  \
      ->Arg(100)                                                 \
      ->Arg(1000)                                                \
      ->UseManualTime()                                          \
      ->Iterations(1)                                            \
      ->Unit(benchmark::kMillisecond)

LINREG_BENCH(BM_LinReg_TupleSimSQL);
LINREG_BENCH(BM_LinReg_TupleRuleBased);
LINREG_BENCH(BM_LinReg_VectorSimSQL);
LINREG_BENCH(BM_LinReg_BlockSimSQL);
LINREG_BENCH(BM_LinReg_SystemML);
LINREG_BENCH(BM_LinReg_SciDB);
LINREG_BENCH(BM_LinReg_SparkMllib);

}  // namespace
}  // namespace radb::bench

BENCHMARK_MAIN();
