// paper_la: the paper's Figure 1-3 cells, one client, caches off, at
// the figure benches' sizes (bench/bench_util.h). Every cell runs on a
// fresh in-memory database; loading it is set-up, not cell time.
#include <cmath>
#include <cstdio>
#include <functional>

#include "bench.h"
#include "common/thread_pool.h"
#include "la/matrix.h"
#include "workloads/computations.h"
#include "workloads/datagen.h"

namespace radbench {

using namespace radb;
using workloads::Dataset;
using workloads::RunOutcome;
using workloads::SqlWorkload;

namespace {

enum class CellKind {
  kGramTuple,
  kGramVector,
  kGramBlock,
  kLinRegBlock,
  kDistanceBlock,
  kDistanceVector,
};

struct Cell {
  const char* name;
  CellKind kind;
  /// Under 0.1 s at full size: repeated in every part until its runs in
  /// the part add up to kFastCellTotal, and the median is taken.
  bool fast;
};

constexpr Cell kCells[] = {
    {"gram_tuple", CellKind::kGramTuple, false},
    {"gram_vector", CellKind::kGramVector, true},
    {"gram_block", CellKind::kGramBlock, true},
    {"linreg_block", CellKind::kLinRegBlock, false},
    {"distance_block", CellKind::kDistanceBlock, false},
    {"distance_vector", CellKind::kDistanceVector, false},
};
constexpr size_t kNumCells = sizeof(kCells) / sizeof(kCells[0]);

constexpr double kFastCellTotal = 0.1;

/// Runs of each slow cell in a part, in turn with the other slow cells.
/// One run of a cell varies by about 15% from the next on four threads,
/// so a run needs about twenty of them for a steady metric.
constexpr size_t kSlowRuns = 3;

/// Dimension of every cell but gram_tuple. The figure benches go up to
/// d=1000 (and n=400 for gram_tuple), where one pass over the slow cells
/// takes about 9 s; at d=400 (n=150) it takes under 1 s, so a run times
/// each slow cell kSlowRuns times in every slot.
constexpr size_t kDim = 400;

/// Inputs and oracle answers. The d=kDim cells share one dataset: the
/// Gram cells take its first 40 points, distance its first kDim,
/// regression all 1.1 kDim (bench_util.h's point counts relative to d).
struct Inputs {
  size_t d = kDim;
  Dataset tuple;     // gram_tuple at d=100, n=150
  Dataset gram;      // n=40
  Dataset linreg;    // n=1.1 d
  Dataset distance;  // n=d
  la::Matrix gram_ref, tuple_ref;
  la::Vector beta_ref;
  workloads::DistanceAnswer distance_ref;
};

Dataset Prefix(const Dataset& all, size_t n) {
  Dataset out;
  out.n = n;
  out.d = all.d;
  out.points.assign(all.points.begin(), all.points.begin() + n);
  out.outcomes.assign(all.outcomes.begin(), all.outcomes.begin() + n);
  out.metric = all.metric;
  return out;
}

/// Generates the datasets (set-up); oracles are computed separately.
void GenerateInputs(const RunArgs& args, Inputs* in) {
  const size_t d = args.smoke ? 16 : kDim;
  const size_t d_tuple = args.smoke ? 8 : 100;
  const size_t n_tuple = args.smoke ? 24 : 150;
  const size_t n_gram = args.smoke ? 8 : 40;
  const size_t n_dist = args.smoke ? 24 : kDim;
  const size_t n_linreg = args.smoke ? 40 : kDim + kDim / 10;
  in->d = d;
  const Dataset all = workloads::GenerateDataset(args.seed * 7919 + 1, n_linreg, d);
  in->gram = Prefix(all, n_gram);
  in->distance = Prefix(all, n_dist);
  in->linreg = all;
  in->tuple = workloads::GenerateDataset(args.seed * 7919 + 2, n_tuple, d_tuple);
}

/// Computes the oracle answers with the kernels on a kThreads-wide
/// global pool; no database runs meanwhile.
bool ComputeOracles(Inputs* in) {
  ThreadPool pool(kThreads);
  InstallGlobalPool(&pool);
  in->gram_ref = workloads::ReferenceGram(in->gram);
  in->tuple_ref = workloads::ReferenceGram(in->tuple);
  auto beta = workloads::ReferenceLinReg(in->linreg);
  auto dist = workloads::ReferenceDistance(in->distance);
  UninstallGlobalPool(&pool);
  if (!beta.ok() || !dist.ok()) return false;
  in->beta_ref = *beta;
  in->distance_ref = *dist;
  return true;
}

const Dataset& DataFor(const Inputs& in, CellKind k) {
  switch (k) {
    case CellKind::kGramTuple:
      return in.tuple;
    case CellKind::kGramVector:
    case CellKind::kGramBlock:
      return in.gram;
    case CellKind::kLinRegBlock:
      return in.linreg;
    default:
      return in.distance;
  }
}

/// A loaded database, ready to run one cell.
struct Loaded {
  std::unique_ptr<SqlWorkload> w;
  bool ok = false;
};

Loaded Load(const RunArgs& args, const Inputs& in, CellKind k) {
  Loaded l;
  l.w = std::make_unique<SqlWorkload>(BaseConfig(args, /*caches=*/false));
  const Dataset& data = DataFor(in, k);
  const Status s = k == CellKind::kGramTuple ? l.w->LoadTuple(data)
                                             : l.w->LoadVector(data);
  l.ok = s.ok();
  if (!s.ok()) std::fprintf(stderr, "paper_la load: %s\n", s.ToString().c_str());
  return l;
}

Result<RunOutcome> Compute(SqlWorkload& w, CellKind k, size_t n) {
  switch (k) {
    case CellKind::kGramTuple:
      return w.GramTuple();
    case CellKind::kGramVector:
      return w.GramVector();
    case CellKind::kGramBlock:
      return w.GramBlock(std::max<size_t>(1, n / 4));
    case CellKind::kLinRegBlock:
      return w.LinRegBlock(std::max<size_t>(1, n / 4));
    case CellKind::kDistanceBlock:
      return w.DistanceBlock(n / 2);
    case CellKind::kDistanceVector:
      return w.DistanceVector();
  }
  return Status::InvalidArgument("unknown cell");
}

/// The fig benches' tolerances.
bool Correct(const Inputs& in, CellKind k, const RunOutcome& out) {
  if (out.failed) return false;
  switch (k) {
    case CellKind::kGramTuple:
      return out.gram.MaxAbsDiff(in.tuple_ref) <= 1e-6;
    case CellKind::kGramVector:
    case CellKind::kGramBlock:
      return out.gram.MaxAbsDiff(in.gram_ref) <= 1e-6;
    case CellKind::kLinRegBlock:
      return out.beta.MaxAbsDiff(in.beta_ref) <= 1e-5;
    default:
      return out.distance.point_id == in.distance_ref.point_id &&
             std::abs(out.distance.value - in.distance_ref.value) <= 1e-6;
  }
}

struct CellResult {
  bool ok = false;
  double seconds = 0.0;
  RunOutcome out;
};

/// Times one cell on a loaded database and checks its answer.
CellResult RunCell(Loaded& l, const Inputs& in, CellKind k) {
  CellResult r;
  if (!l.ok) return r;
  const auto t0 = Clock::now();
  Result<RunOutcome> out = Compute(*l.w, k, DataFor(in, k).n);
  r.seconds = SecondsSince(t0);
  if (!out.ok()) {
    std::fprintf(stderr, "paper_la cell: %s\n", out.status().ToString().c_str());
    return r;
  }
  r.ok = Correct(in, k, *out);
  if (!r.ok) std::fprintf(stderr, "paper_la: wrong answer\n");
  r.out = std::move(*out);
  return r;
}

/// Set-up of one paper_la run: datasets, then one load per cell.
double TimedSetup(const RunArgs& args, Inputs* in) {
  const auto t0 = Clock::now();
  GenerateInputs(args, in);
  for (const Cell& c : kCells) (void)Load(args, *in, c.kind);
  return SecondsSince(t0);
}

class PaperLa : public Workload {
 public:
  explicit PaperLa(const RunArgs& args) : args_(args) {}

  bool SetUp() override {
    setups.push_back(TimedSetup(args_, &in_));
    // The oracles depend only on the seed: compute them once, untimed.
    if (setups.size() == 1) {
      const auto t0 = Clock::now();
      oracles_ok_ = ComputeOracles(&in_);
      std::printf("paper_la: set-up %.2f s, oracles %.2f s (untimed)\n",
                  setups.back(), SecondsSince(t0));
    }
    return oracles_ok_;
  }

  /// One part makes kSlowRuns passes over the cells: each slow cell runs
  /// once a pass, each fast cell runs in the first pass only, repeated.
  /// Returns the seconds of each cell's first run in the part, the work a
  /// traced pass times.
  double RunPart() override {
    for (PartSamples& t : times_) t.emplace_back();
    for (size_t pass = 0; pass < kSlowRuns; ++pass) {
      for (size_t i = 0; i < kNumCells; ++i) {
        if (kCells[i].fast && pass > 0) continue;
        std::vector<double>& part = times_[i].back();
        double total = 0.0;
        do {
          Loaded l = Load(args_, in_, kCells[i].kind);
          CellResult r = RunCell(l, in_, kCells[i].kind);
          tally.Record(r.ok);
          part.push_back(r.seconds);
          total += r.seconds;
        } while (kCells[i].fast && total < kFastCellTotal && part.size() < 40);
      }
    }
    double first_runs = 0.0;
    for (const PartSamples& t : times_) first_runs += t.back().front();
    return first_runs;
  }

  void Report(MetricMap* m) const override {
    for (size_t i = 0; i < kNumCells; ++i) {
      PutPartMedian(m, std::string(kCells[i].name) + "_s", times_[i]);
    }
  }

 private:
  const RunArgs args_;
  Inputs in_;
  bool oracles_ok_ = false;
  PartSamples times_[kNumCells];
};

}  // namespace

std::unique_ptr<Workload> MakePaperLa(const RunArgs& args) {
  return std::make_unique<PaperLa>(args);
}

namespace {

/// GFLOP/s of `body` (which performs `flops` flops) on a `threads`-wide
/// pool installed as the kernels' global pool; the best of repeats
/// totalling at least 0.2 s.
double ProbeGflops(size_t threads, double flops,
                   const std::function<void()>& body) {
  ThreadPool pool(threads);
  InstallGlobalPool(&pool);
  double best = 0.0, total = 0.0;
  for (int rep = 0; rep < 200 && (rep < 2 || total < 0.2); ++rep) {
    const auto t0 = Clock::now();
    body();
    const double s = SecondsSince(t0);
    total += s;
    if (s > 0) best = std::max(best, flops / s / 1e9);
  }
  UninstallGlobalPool(&pool);
  return best;
}

la::Matrix Rows(const Dataset& data, size_t begin, size_t count) {
  la::Matrix m(count, data.d);
  for (size_t i = 0; i < count; ++i) m.SetRow(i, data.points[begin + i]);
  return m;
}

void KernelProbes(const Inputs& in, MetricMap* m) {
  const size_t d = in.d;
  // distance_block: mapping (d x d) times a transposed n/2-point block.
  const size_t nb = in.distance.n / 2;
  const la::Matrix block_t = la::Transpose(Rows(in.distance, 0, nb));
  // linreg_block: Gram and Xᵀy of one n/4-row block.
  const size_t lb = std::max<size_t>(1, in.linreg.n / 4);
  const la::Matrix lblock = Rows(in.linreg, 0, lb);
  const la::Vector y(std::vector<double>(in.linreg.outcomes.begin(),
                                         in.linreg.outcomes.begin() + lb));
  const la::Matrix lblock_t = la::Transpose(lblock);
  const double gemm_flops = 2.0 * d * d * nb;
  const double tsmm_flops = static_cast<double>(lb) * d * d;
  const double rank1_flops = 2.0 * d * d * in.gram.n;
  const double gemv_flops = 2.0 * d * lb;
  for (size_t t : {size_t{1}, kThreads}) {
    const std::string suffix = "." + std::to_string(t) + "t";
    PutMetric(m, "la.gemm_gflops" + suffix, ProbeGflops(t, gemm_flops, [&] {
                (void)la::Multiply(in.distance.metric, block_t);
              }), "GFLOP/s");
    PutMetric(m, "la.tsmm_gflops" + suffix, ProbeGflops(t, tsmm_flops, [&] {
                (void)la::TransposeSelfMultiply(lblock);
              }), "GFLOP/s");
    PutMetric(m, "la.rank1_gflops" + suffix, ProbeGflops(t, rank1_flops, [&] {
                la::Matrix acc(d, d);
                for (const la::Vector& x : in.gram.points) {
                  (void)la::AddInPlace(&acc, la::OuterProduct(x, x));
                }
              }), "GFLOP/s");
    PutMetric(m, "la.gemv_gflops" + suffix, ProbeGflops(t, gemv_flops, [&] {
                (void)la::MatrixVectorMultiply(lblock_t, y);
              }), "GFLOP/s");
  }
}

/// The comparator engines on the same inputs, reference only.
void EngineCells(const Inputs& in, Tally* tally, MetricMap* m) {
  ThreadPool pool(kThreads);
  InstallGlobalPool(&pool);
  auto dml = [](size_t n) {
    systemml::DmlConfig c;
    c.num_workers = kWorkers;
    c.block_size = std::max<size_t>(1, n / 4);
    c.local_threshold_bytes = 128u << 10;
    return c;
  };
  auto timed = [&](const std::string& name, CellKind k,
                   const std::function<Result<RunOutcome>()>& run) {
    const auto t0 = Clock::now();
    Result<RunOutcome> out = run();
    const double s = SecondsSince(t0);
    tally->Record(out.ok() && Correct(in, k, *out));
    PutMetric(m, name, s, "s");
  };
  const size_t ng = in.gram.n, nl = in.linreg.n, nd = in.distance.n;
  timed("engines.systemml.gram_s", CellKind::kGramBlock,
        [&] { return workloads::GramSystemML(in.gram, dml(ng)); });
  timed("engines.systemml.linreg_s", CellKind::kLinRegBlock,
        [&] { return workloads::LinRegSystemML(in.linreg, dml(nl)); });
  timed("engines.systemml.distance_s", CellKind::kDistanceBlock,
        [&] { return workloads::DistanceSystemML(in.distance, dml(nd)); });
  timed("engines.scidb.gram_s", CellKind::kGramBlock, [&] {
    return workloads::GramSciDB(in.gram, kWorkers, std::max<size_t>(1, ng / 4));
  });
  timed("engines.scidb.linreg_s", CellKind::kLinRegBlock, [&] {
    return workloads::LinRegSciDB(in.linreg, kWorkers,
                                  std::max<size_t>(1, nl / 4));
  });
  timed("engines.scidb.distance_s", CellKind::kDistanceBlock, [&] {
    return workloads::DistanceSciDB(in.distance, kWorkers,
                                    std::max<size_t>(1, nd / 4));
  });
  UninstallGlobalPool(&pool);
}

const char* const kFlopCounters[] = {"la.matmul_flops", "la.tsmm_flops",
                                     "la.matvec_flops", "la.outer_product_flops"};

}  // namespace

// Every cell runs on a freshly loaded database, so the traced pass needs
// no warm-up of its own: the untraced base parts before it have already
// warmed the process.
WorkloadOutput TracePaperLa(const RunArgs& args, SpanLog* log,
                            LayerTotals* totals) {
  WorkloadOutput out;
  Inputs in;
  GenerateInputs(args, &in);
  if (!ComputeOracles(&in)) {
    out.tally.Record(false);
    return out;
  }
  for (const Cell& c : kCells) {
    Loaded l = Load(args, in, c.kind);
    if (!l.ok) {
      out.tally.Record(false);
      continue;
    }
    Database& db = l.w->db();
    uint64_t before[4];
    for (size_t i = 0; i < 4; ++i) before[i] = CounterValue(db, kFlopCounters[i]);
    const LayerSnapshot layers0 = LayerSnapshot::Of(db);
    CellResult r;
    {
      SpanLog::Scope span(log, std::string("cell.") + c.name, 0,
                          log->NewRequest());
      r = RunCell(l, in, c.kind);
    }
    out.tally.Record(r.ok);
    // The untraced base part times each cell's first run, as here.
    out.work_seconds += r.seconds;
    totals->Add(db, layers0, r.seconds);
    const std::string sfx = std::string(".") + c.name;
    for (size_t i = 0; i < 4; ++i) {
      PutMetric(&out.metrics, kFlopCounters[i] + sfx,
                static_cast<double>(CounterValue(db, kFlopCounters[i]) - before[i]),
                "flop");
    }
    ExecSummary ex;
    ex.Add(r.out.metrics);
    totals->exec.Add(r.out.metrics);
    PutMetric(&out.metrics, "dist.bytes_shuffled" + sfx,
              static_cast<double>(ex.bytes_shuffled), "bytes");
    PutMetric(&out.metrics, "dist.rows_shuffled" + sfx,
              static_cast<double>(ex.rows_shuffled), "rows");
    // The cell's last statement is its SELECT; drive it through the
    // layers directly and check it against Database::Execute.
    const auto records = db.telemetry_store()->SnapshotQueries();
    if (records.empty()) {
      out.tally.Record(false);
      continue;
    }
    DirectRun direct = DriveDirect(db, records.back().sql, log);
    out.tally.Record(direct.ok && direct.matches);
    const std::vector<double> exec_self = log->SelfTimesOf("execute");
    const double self = exec_self.empty() ? 0.0 : exec_self.back();
    PutExecMetrics(ex, self, sfx, &out.metrics);
  }
  KernelProbes(in, &out.metrics);
  EngineCells(in, &out.tally, &out.metrics);
  return out;
}

/// Block-SQL and vector-SQL cells beside the comparator engines at
/// d=kDim: the paper's yardstick.
void PrintComparatorTable(const MetricMap& e2e, const MetricMap& layers) {
  auto get = [](const MetricMap& m, const std::string& k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second.value;
  };
  std::printf(
      "\nComparator cells at d=%zu (seconds). These numbers, not "
      "EXPERIMENTS.md, are the source of truth.\n"
      "%-10s %10s %10s %15s %12s\n",
      kDim, "cell", "block SQL", "vector SQL", "SystemML-style", "SciDB-style");
  for (const char* cell : {"gram", "linreg", "distance"}) {
    const std::string c = cell;
    const double vec = get(e2e, c + "_vector_s");
    char vec_text[32];
    if (vec > 0) {
      std::snprintf(vec_text, sizeof(vec_text), "%10.4f", vec);
    } else {
      std::snprintf(vec_text, sizeof(vec_text), "%10s", "-");
    }
    std::printf("%-10s %10.4f %s %15.4f %12.4f\n", cell,
                get(e2e, c + "_block_s"), vec_text,
                get(layers, "engines.systemml." + c + "_s"),
                get(layers, "engines.scidb." + c + "_s"));
  }
}

}  // namespace radbench
