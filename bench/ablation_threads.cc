// Ablation: real execution threads. Sweeps Config::num_threads over
// the Figure 1 Gram computation (vector and blocked codings) and the
// Figure 2 blocked regression with the simulated cluster width held
// fixed, so the only variable is how many pool threads the per-worker
// loops and LA kernels fan out onto. The regression's one inverse runs
// inside one worker's body, so it measures the kernels' nested
// regions. Each run is cross-checked against the 1-thread reference
// bit-for-bit: the pool must change wall clock only, never results.
// Emits BENCH_threads.json.
//
// Note: the speedup ceiling is min(num_threads, hardware cores) — on
// a single-core container every setting measures pool overhead only.
#include "bench/bench_util.h"

#include "la/matrix.h"

namespace radb::bench {
namespace {

using workloads::Dataset;
using workloads::GenerateDataset;
using workloads::RunOutcome;
using workloads::SqlWorkload;

// Large enough that the Gram aggregation dominates the fixed
// parse/plan cost and each of the 8 simulated workers carries a
// substantial partition.
constexpr size_t kN = 1600;
constexpr size_t kD = 200;
constexpr size_t kBlock = 200;  // 8 blocked work units for 8 workers

Database::Config ConfigFor(size_t threads) {
  Database::Config config;
  config.num_workers = kWorkers;
  config.num_threads = threads;
  return config;
}

enum class Cell { kGramVector, kGramBlock, kLinRegBlock };

const char* Coding(Cell cell) {
  switch (cell) {
    case Cell::kGramVector:
      return "vector";
    case Cell::kGramBlock:
      return "block";
    case Cell::kLinRegBlock:
      return "linreg block";
  }
  return "";
}

Result<RunOutcome> Run(Cell cell, size_t threads, const Dataset& data) {
  SqlWorkload wl(ConfigFor(threads));
  RADB_RETURN_NOT_OK(wl.LoadVector(data));
  switch (cell) {
    case Cell::kGramVector:
      return wl.GramVector();
    case Cell::kGramBlock:
      return wl.GramBlock(kBlock);
    case Cell::kLinRegBlock:
      return wl.LinRegBlock(kBlock);
  }
  return Status::InvalidArgument("unknown cell");
}

/// Largest difference between the cell's answers in `a` and `b`.
double AnswerDiff(Cell cell, const RunOutcome& a, const RunOutcome& b) {
  return cell == Cell::kLinRegBlock ? a.beta.MaxAbsDiff(b.beta)
                                    : a.gram.MaxAbsDiff(b.gram);
}

void RunSweep(benchmark::State& state, Cell cell) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const Dataset data = GenerateDataset(kSeed, kN, kD);
  // The 1-thread reference, compared against every run (exact
  // equality — the determinism contract, not a tolerance).
  const Result<RunOutcome> ref = Run(cell, 1, data);
  if (!ref.ok()) {
    state.SkipWithError(ref.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto out = Run(cell, threads, data);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      break;
    }
    if (AnswerDiff(cell, *out, *ref) != 0.0) {
      state.SkipWithError("result differs from 1-thread reference");
      break;
    }
    ReportOutcome(state, *out, "threads",
                  std::string(Coding(cell)) + " t=" + std::to_string(threads));
    state.counters["threads"] = static_cast<double>(threads);
  }
}

void BM_Ablation_ThreadsGramVector(benchmark::State& state) {
  RunSweep(state, Cell::kGramVector);
}

void BM_Ablation_ThreadsGramBlock(benchmark::State& state) {
  RunSweep(state, Cell::kGramBlock);
}

void BM_Ablation_ThreadsLinRegBlock(benchmark::State& state) {
  RunSweep(state, Cell::kLinRegBlock);
}

BENCHMARK(BM_Ablation_ThreadsGramVector)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Ablation_ThreadsGramBlock)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Ablation_ThreadsLinRegBlock)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace radb::bench

BENCHMARK_MAIN();
