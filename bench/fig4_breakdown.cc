// Figure 4: per-operator breakdown of the Gram computation at 1000
// dims, tuple-based vs vector-based, on a half-size cluster (the paper
// uses 5 of its 10 machines). The paper's headline finding: in the
// tuple-based coding it is the *aggregation*, not the join, that
// dominates — a tiny fixed cost per tuple multiplied by ~n·d² tuples.
// The tuple case runs with early projection off, so the optimizer keeps
// the join and the aggregate this breakdown measures instead of
// rewriting them into a relational multiply (DESIGN.md §19).
#include <cstdio>

#include "bench/bench_util.h"

namespace radb::bench {
namespace {

using workloads::Dataset;
using workloads::GenerateDataset;
using workloads::SqlWorkload;

constexpr size_t kHalfWorkers = kWorkers / 2;
constexpr size_t kDims = 1000;

struct Breakdown {
  double scan = 0, join = 0, aggregate = 0, other = 0, total = 0;
};

Breakdown Decompose(const QueryMetrics& m) {
  Breakdown b;
  for (const OperatorMetrics& op : m.operators) {
    const double t = op.TotalSeconds();
    b.total += t;
    if (op.name.find("Join") != std::string::npos) {
      b.join += t;
    } else if (op.name.find("Aggregate") != std::string::npos) {
      b.aggregate += t;
    } else if (op.name.find("Scan") != std::string::npos) {
      b.scan += t;
    } else {
      b.other += t;
    }
  }
  return b;
}

void PrintBreakdown(const char* label, const Breakdown& b) {
  std::printf("%-18s scan %8.3fs | join %8.3fs | aggregate %8.3fs | "
              "other %8.3fs | total %8.3fs\n",
              label, b.scan, b.join, b.aggregate, b.other, b.total);
}

void BM_Fig4_TupleGramBreakdown(benchmark::State& state) {
  const Dataset data =
      GenerateDataset(kSeed, GramPointsFor(kDims) / 2, kDims);
  for (auto _ : state) {
    SqlWorkload wl(kHalfWorkers, TupleOptimizer(/*rule_based=*/true));
    if (!wl.LoadTuple(data).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto out = wl.GramTuple();
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    const Breakdown b = Decompose(out->metrics);
    PrintBreakdown("tuple-based:", b);
    BenchJsonRegistry::Instance().Record("fig4_breakdown", "tuple_gram",
                                         *out);
    state.SetIterationTime(out->wall_seconds);
    state.counters["join_s"] = b.join;
    state.counters["agg_s"] = b.aggregate;
    state.counters["agg_share"] =
        b.total > 0 ? b.aggregate / b.total : 0.0;
  }
}

void BM_Fig4_VectorGramBreakdown(benchmark::State& state) {
  const Dataset data =
      GenerateDataset(kSeed, GramPointsFor(kDims) / 2, kDims);
  for (auto _ : state) {
    SqlWorkload wl(kHalfWorkers);
    if (!wl.LoadVector(data).ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto out = wl.GramVector();
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    const Breakdown b = Decompose(out->metrics);
    PrintBreakdown("vector-based:", b);
    BenchJsonRegistry::Instance().Record("fig4_breakdown", "vector_gram",
                                         *out);
    state.SetIterationTime(out->wall_seconds);
    state.counters["join_s"] = b.join;
    state.counters["agg_s"] = b.aggregate;
    state.counters["agg_share"] =
        b.total > 0 ? b.aggregate / b.total : 0.0;
  }
}

BENCHMARK(BM_Fig4_TupleGramBreakdown)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig4_VectorGramBreakdown)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace radb::bench

BENCHMARK_MAIN();
