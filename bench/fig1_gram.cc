// Figure 1: Gram matrix computation (G = XᵀX) across platforms and
// dimensionalities {10, 100, 1000}. Reproduces the paper's table
// shape: tuple-based SQL collapses at high dims, vector-based wins at
// low dims (blocking time is charged to the blocked coding), blocked
// SQL and the special-purpose engines converge at 1000 dims.
#include "bench/bench_util.h"

namespace radb::bench {
namespace {

using workloads::Dataset;
using workloads::GenerateDataset;
using workloads::ReferenceGram;
using workloads::RunOutcome;
using workloads::SqlWorkload;

void CheckGram(benchmark::State& state, const Dataset& data,
               const RunOutcome& out) {
  if (out.gram.MaxAbsDiff(ReferenceGram(data)) > 1e-6) {
    state.SkipWithError("gram result mismatch");
  }
}

/// The tuple coding, by default or rule-based (see TupleOptimizer).
void RunGramTuple(benchmark::State& state, bool rule_based) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Dataset data = GenerateDataset(kSeed, GramPointsFor(d), d);
  for (auto _ : state) {
    SqlWorkload wl(kWorkers, TupleOptimizer(rule_based));
    if (!wl.LoadTuple(data).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto out = wl.GramTuple();
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckGram(state, data, *out);
    ReportOutcome(state, *out, "fig1_gram",
                  (rule_based ? "tuple_rule_based/" : "tuple_simsql/") +
                      std::to_string(d));
  }
}

void BM_Gram_TupleSimSQL(benchmark::State& state) {
  RunGramTuple(state, false);
}

void BM_Gram_TupleRuleBased(benchmark::State& state) {
  RunGramTuple(state, true);
}

void BM_Gram_VectorSimSQL(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Dataset data = GenerateDataset(kSeed, GramPointsFor(d), d);
  for (auto _ : state) {
    SqlWorkload wl(kWorkers);
    if (!wl.LoadVector(data).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto out = wl.GramVector();
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckGram(state, data, *out);
    ReportOutcome(state, *out, "fig1_gram",
                  "vector_simsql/" + std::to_string(d));
  }
}

void BM_Gram_BlockSimSQL(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = GramPointsFor(d);
  const Dataset data = GenerateDataset(kSeed, n, d);
  for (auto _ : state) {
    SqlWorkload wl(kWorkers);
    if (!wl.LoadVector(data).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto out = wl.GramBlock(BlockFor(n));
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckGram(state, data, *out);
    ReportOutcome(state, *out, "fig1_gram",
                  "block_simsql/" + std::to_string(d));
  }
}

void BM_Gram_SystemML(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = GramPointsFor(d);
  const Dataset data = GenerateDataset(kSeed, n, d);
  for (auto _ : state) {
    auto out = workloads::GramSystemML(data, SystemMlConfigFor(n));
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckGram(state, data, *out);
    ReportOutcome(state, *out, "fig1_gram",
                  "system_m_l/" + std::to_string(d));
  }
}

void BM_Gram_SciDB(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = GramPointsFor(d);
  const Dataset data = GenerateDataset(kSeed, n, d);
  for (auto _ : state) {
    auto out = workloads::GramSciDB(data, kWorkers, ChunkFor(n));
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckGram(state, data, *out);
    ReportOutcome(state, *out, "fig1_gram",
                  "sci_d_b/" + std::to_string(d));
  }
}

void BM_Gram_SparkMllib(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Dataset data = GenerateDataset(kSeed, GramPointsFor(d), d);
  for (auto _ : state) {
    auto out = workloads::GramSpark(data, kWorkers);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckGram(state, data, *out);
    ReportOutcome(state, *out, "fig1_gram",
                  "spark_mllib/" + std::to_string(d));
  }
}

#define GRAM_BENCH(fn)                                           \
  BENCHMARK(fn)                                                  \
      ->Arg(10)                                                  \
      ->Arg(100)                                                 \
      ->Arg(1000)                                                \
      ->UseManualTime()                                          \
      ->Iterations(1)                                            \
      ->Unit(benchmark::kMillisecond)

GRAM_BENCH(BM_Gram_TupleSimSQL);
GRAM_BENCH(BM_Gram_TupleRuleBased);
GRAM_BENCH(BM_Gram_VectorSimSQL);
GRAM_BENCH(BM_Gram_BlockSimSQL);
GRAM_BENCH(BM_Gram_SystemML);
GRAM_BENCH(BM_Gram_SciDB);
GRAM_BENCH(BM_Gram_SparkMllib);

}  // namespace
}  // namespace radb::bench

BENCHMARK_MAIN();
