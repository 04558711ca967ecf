// Ablation: vectorized columnar execution (DESIGN.md §13). Sweeps
// {row engine, batch engine at vectorized_batch_rows 256/1024/4096}
// over the Figure 1 Gram computation. The tuple coding is the
// interesting case: its self-join explodes to n·d² rows that feed a
// scalar GROUP BY / SUM(x1.value * x2.value) aggregate — exactly the
// pipeline the batch engine takes over (the join itself stays on the
// row engine as the pipeline boundary). The vector coding's
// SUM(outer_product(...)) is LA-typed, so it must fall back to the
// row engine untouched — swept here as the fallback-parity check.
// Every run is cross-checked bit-for-bit against the row engine's
// result (exact equality, the §13 identity contract, not a
// tolerance). Early projection is off, so the optimizer keeps the
// tuple plan instead of rewriting the Gram into a relational multiply
// (DESIGN.md §19): this bench measures the join and the aggregate.
// Emits BENCH_vectorized.json.
#include "bench/bench_util.h"

#include "la/matrix.h"

namespace radb::bench {
namespace {

using workloads::Dataset;
using workloads::GenerateDataset;
using workloads::SqlWorkload;

Database::Config ConfigFor(bool vectorized, size_t batch_rows) {
  Database::Config config;
  config.num_workers = kWorkers;
  config.num_threads = kWorkers;
  config.enable_vectorized = vectorized;
  config.vectorized_batch_rows = batch_rows;
  config.optimizer.enable_early_projection = false;
  return config;
}

// Row-engine reference Gram per dimensionality, computed once; every
// batch-engine run must match it exactly.
const la::Matrix& ReferenceGramTuple(size_t dims) {
  static std::map<size_t, la::Matrix>* refs = new std::map<size_t, la::Matrix>;
  auto it = refs->find(dims);
  if (it == refs->end()) {
    const Dataset data = GenerateDataset(kSeed, GramPointsFor(dims), dims);
    SqlWorkload wl(ConfigFor(false, 1024));
    la::Matrix gram;
    if (wl.LoadTuple(data).ok()) {
      auto out = wl.GramTuple();
      if (out.ok()) gram = std::move(out->gram);
    }
    it = refs->emplace(dims, std::move(gram)).first;
  }
  return it->second;
}

const la::Matrix& ReferenceGramVector(size_t dims) {
  static std::map<size_t, la::Matrix>* refs = new std::map<size_t, la::Matrix>;
  auto it = refs->find(dims);
  if (it == refs->end()) {
    const Dataset data = GenerateDataset(kSeed, GramPointsFor(dims), dims);
    SqlWorkload wl(ConfigFor(false, 1024));
    la::Matrix gram;
    if (wl.LoadVector(data).ok()) {
      auto out = wl.GramVector();
      if (out.ok()) gram = std::move(out->gram);
    }
    it = refs->emplace(dims, std::move(gram)).first;
  }
  return it->second;
}

std::string Label(const char* coding, size_t dims, bool vectorized,
                  size_t batch_rows) {
  std::string label = std::string(coding) + " d=" + std::to_string(dims);
  if (vectorized) {
    label += " batch=" + std::to_string(batch_rows);
  } else {
    label += " row";
  }
  return label;
}

/// One sweep cell: run the coding under the given engine, cross-check
/// against the row reference, report into BENCH_vectorized.json.
void RunCell(benchmark::State& state, const char* coding, bool vectorized) {
  const size_t dims = static_cast<size_t>(state.range(0));
  const size_t batch_rows = static_cast<size_t>(state.range(1));
  const bool tuple = std::string(coding) == "tuple";
  const Dataset data = GenerateDataset(kSeed, GramPointsFor(dims), dims);
  const la::Matrix& ref =
      tuple ? ReferenceGramTuple(dims) : ReferenceGramVector(dims);
  for (auto _ : state) {
    SqlWorkload wl(ConfigFor(vectorized, batch_rows));
    Status load = tuple ? wl.LoadTuple(data) : wl.LoadVector(data);
    if (!load.ok()) {
      state.SkipWithError("load failed");
      break;
    }
    auto out = tuple ? wl.GramTuple() : wl.GramVector();
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    if (out->gram.MaxAbsDiff(ref) != 0.0) {
      state.SkipWithError("batch result differs from row engine");
      break;
    }
    ReportOutcome(state, *out, "vectorized",
                  Label(coding, dims, vectorized, batch_rows));
    state.counters["batch_rows"] =
        vectorized ? static_cast<double>(batch_rows) : 0.0;
  }
}

void BM_Ablation_GramTupleRow(benchmark::State& state) {
  RunCell(state, "tuple", /*vectorized=*/false);
}

void BM_Ablation_GramTupleBatch(benchmark::State& state) {
  RunCell(state, "tuple", /*vectorized=*/true);
}

void BM_Ablation_GramVectorRow(benchmark::State& state) {
  RunCell(state, "vector", /*vectorized=*/false);
}

// The LA-typed aggregate is not batch-capable: this cell measures the
// fallback overhead (should be none) and proves identity through it.
void BM_Ablation_GramVectorBatchFallback(benchmark::State& state) {
  RunCell(state, "vector", /*vectorized=*/true);
}

BENCHMARK(BM_Ablation_GramTupleRow)
    ->Args({10, 0})
    ->Args({100, 0})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Ablation_GramTupleBatch)
    ->Args({10, 256})
    ->Args({10, 1024})
    ->Args({10, 4096})
    ->Args({100, 256})
    ->Args({100, 1024})
    ->Args({100, 4096})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Ablation_GramVectorRow)
    ->Args({100, 0})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Ablation_GramVectorBatchFallback)
    ->Args({100, 1024})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace radb::bench

BENCHMARK_MAIN();
