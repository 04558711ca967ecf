// Figure 3: the distance computation — for each point x_i, the minimum
// of d²_A(x_i, x') = x_iᵀ A x' over x' ≠ x_i, then the point with the
// maximal minimum. The tuple-based coding "Fails" (paper Figure 3):
// at the paper's production scale its pre-aggregation intermediate is
// ~n²·d ≈ 10^13 tuples, which we model with a tuple budget.
#include "bench/bench_util.h"

namespace radb::bench {
namespace {

using workloads::Dataset;
using workloads::GenerateDataset;
using workloads::ReferenceDistance;
using workloads::RunOutcome;
using workloads::SqlWorkload;

/// Budget chosen so the tuple coding fails at every dimensionality,
/// exactly as in the paper's Figure 3 (see EXPERIMENTS.md; a
/// correctness-scale run of the same SQL lives in workloads_test).
constexpr size_t kTupleBudget = 1'000'000;

void CheckDistance(benchmark::State& state, const Dataset& data,
                   const RunOutcome& out) {
  auto expected = ReferenceDistance(data);
  if (!expected.ok() || out.distance.point_id != expected->point_id ||
      std::abs(out.distance.value - expected->value) > 1e-6) {
    state.SkipWithError("distance result mismatch");
  }
}

/// The tuple coding, by default or rule-based (see TupleOptimizer).
void RunDistanceTuple(benchmark::State& state, bool rule_based) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Dataset data = GenerateDataset(kSeed, DistancePointsFor(d), d);
  for (auto _ : state) {
    SqlWorkload wl(kWorkers, TupleOptimizer(rule_based));
    if (!wl.LoadTuple(data).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto out = wl.DistanceTuple(kTupleBudget);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    if (out->failed) {
      // The paper's "Fail" row: report it as a skipped cell.
      state.SkipWithError(("Fail: " + out->fail_reason).c_str());
      break;
    }
    CheckDistance(state, data, *out);
    ReportOutcome(state, *out, "fig3_distance",
                  (rule_based ? "tuple_rule_based/" : "tuple_simsql/") +
                      std::to_string(d));
  }
}

void BM_Distance_TupleSimSQL(benchmark::State& state) {
  RunDistanceTuple(state, false);
}

void BM_Distance_TupleRuleBased(benchmark::State& state) {
  RunDistanceTuple(state, true);
}

void BM_Distance_VectorSimSQL(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Dataset data = GenerateDataset(kSeed, DistancePointsFor(d), d);
  for (auto _ : state) {
    SqlWorkload wl(kWorkers);
    if (!wl.LoadVector(data).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto out = wl.DistanceVector();
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckDistance(state, data, *out);
    ReportOutcome(state, *out, "fig3_distance",
                  "vector_simsql/" + std::to_string(d));
  }
}

void BM_Distance_BlockSimSQL(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = DistancePointsFor(d);
  const Dataset data = GenerateDataset(kSeed, n, d);
  for (auto _ : state) {
    SqlWorkload wl(kWorkers);
    if (!wl.LoadVector(data).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto out = wl.DistanceBlock(DistanceBlockFor(n));
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckDistance(state, data, *out);
    ReportOutcome(state, *out, "fig3_distance",
                  "block_simsql/" + std::to_string(d));
  }
}

void BM_Distance_SystemML(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = DistancePointsFor(d);
  const Dataset data = GenerateDataset(kSeed, n, d);
  for (auto _ : state) {
    auto out = workloads::DistanceSystemML(data, SystemMlConfigFor(n));
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckDistance(state, data, *out);
    ReportOutcome(state, *out, "fig3_distance",
                  "system_m_l/" + std::to_string(d));
  }
}

void BM_Distance_SciDB(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = DistancePointsFor(d);
  const Dataset data = GenerateDataset(kSeed, n, d);
  for (auto _ : state) {
    auto out = workloads::DistanceSciDB(data, kWorkers, ChunkFor(n));
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckDistance(state, data, *out);
    ReportOutcome(state, *out, "fig3_distance",
                  "sci_d_b/" + std::to_string(d));
  }
}

void BM_Distance_SparkMllib(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = DistancePointsFor(d);
  const Dataset data = GenerateDataset(kSeed, n, d);
  for (auto _ : state) {
    auto out = workloads::DistanceSpark(data, kWorkers, DistanceBlockFor(n));
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    CheckDistance(state, data, *out);
    ReportOutcome(state, *out, "fig3_distance",
                  "spark_mllib/" + std::to_string(d));
  }
}

#define DIST_BENCH(fn)                                           \
  BENCHMARK(fn)                                                  \
      ->Arg(10)                                                  \
      ->Arg(100)                                                 \
      ->Arg(1000)                                                \
      ->UseManualTime()                                          \
      ->Iterations(1)                                            \
      ->Unit(benchmark::kMillisecond)

DIST_BENCH(BM_Distance_TupleSimSQL);
DIST_BENCH(BM_Distance_TupleRuleBased);
DIST_BENCH(BM_Distance_VectorSimSQL);
DIST_BENCH(BM_Distance_BlockSimSQL);
DIST_BENCH(BM_Distance_SystemML);
DIST_BENCH(BM_Distance_SciDB);
DIST_BENCH(BM_Distance_SparkMllib);

}  // namespace
}  // namespace radb::bench

BENCHMARK_MAIN();
