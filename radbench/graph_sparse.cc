// graph_sparse: a seeded digraph (about 2048 nodes, about 8 out-edges
// per node, weights on a 0.25 grid) loaded once through
// GraphAnalytics::LoadEdges on an in-memory Database, then min-plus SSSP
// from seeded sources and an or-and 3-hop. Each iteration is a CTAS and
// a DROP, so the workload is many tiny dependent statements with DDL.
// Every traversal must equal SsspOracle / KHopOracle exactly.
#include <cstdio>
#include <set>

#include "bench.h"
#include "la/sparse/sparse.h"
#include "workloads/graph.h"

namespace radbench {

using namespace radb;
using workloads::GraphEdge;

namespace {

struct Sizes {
  size_t nodes;
  size_t out_degree;
  size_t sources;  // SSSP runs per part
  size_t hops;     // k of the k-hop run
};

Sizes SizesFor(const RunArgs& args) {
  if (args.smoke) return {64, 4, 2, 3};
  return {2048, 8, 16, 3};
}

std::vector<GraphEdge> MakeEdges(const RunArgs& args, const Sizes& sz) {
  Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 41);
  std::vector<GraphEdge> edges;
  for (size_t s = 0; s < sz.nodes; ++s) {
    std::set<size_t> dsts;
    while (dsts.size() < sz.out_degree) {
      const size_t d = rng.NextBelow(sz.nodes);
      if (d != s) dsts.insert(d);
    }
    for (size_t d : dsts) {
      edges.push_back({static_cast<int64_t>(s), static_cast<int64_t>(d),
                       0.25 * static_cast<double>(1 + rng.NextBelow(16))});
    }
  }
  return edges;
}

struct Graph {
  std::unique_ptr<Database> db;
  std::unique_ptr<workloads::GraphAnalytics> ga;
  std::vector<GraphEdge> edges;
  Rng sources{0};
};

/// One SSSP from a seeded source, timed and checked against the oracle.
double TimedSssp(Graph* g, const Sizes& sz, Tally* tally) {
  const size_t src = g->sources.NextBelow(sz.nodes);
  const auto t0 = Clock::now();
  Result<workloads::TraversalResult> r = g->ga->Sssp(src);
  const double s = SecondsSince(t0);
  const bool ok =
      r.ok() && r->values == workloads::SsspOracle(sz.nodes, g->edges, src);
  tally->Record(ok);
  if (!ok) std::fprintf(stderr, "graph_sparse: SSSP from %zu failed\n", src);
  return s;
}

void CheckedKHop(Graph* g, const Sizes& sz, Tally* tally) {
  const size_t src = g->sources.NextBelow(sz.nodes);
  Result<workloads::TraversalResult> r = g->ga->KHop(src, sz.hops);
  const bool ok = r.ok() && r->values == workloads::KHopOracle(
                                             sz.nodes, g->edges, src, sz.hops);
  tally->Record(ok);
  if (!ok) std::fprintf(stderr, "graph_sparse: k-hop from %zu failed\n", src);
}

/// One part: `sz.sources` SSSP runs and one k-hop.
std::vector<double> Part(Graph* g, const Sizes& sz, Tally* tally) {
  std::vector<double> sssp;
  for (size_t i = 0; i < sz.sources; ++i) sssp.push_back(TimedSssp(g, sz, tally));
  CheckedKHop(g, sz, tally);
  return sssp;
}

class GraphSparse : public Workload {
 public:
  explicit GraphSparse(const RunArgs& args) : args(args), sz(SizesFor(args)) {
    g.sources = Rng(args.seed * 0x9e3779b97f4a7c15ULL + 42);
  }

  bool SetUp() override {
    g.ga.reset();
    g.db.reset();
    const auto t0 = Clock::now();
    g.edges = MakeEdges(args, sz);
    g.db = std::make_unique<Database>(BaseConfig(args, /*caches=*/true));
    g.ga = std::make_unique<workloads::GraphAnalytics>(g.db.get());
    const Status s = g.ga->LoadEdges(sz.nodes, g.edges);
    setups.push_back(SecondsSince(t0));
    if (!s.ok()) {
      std::fprintf(stderr, "graph_sparse setup: %s\n", s.ToString().c_str());
      return false;
    }
    if (setups.size() == 1) {
      std::printf("graph_sparse sizes: %zu nodes, %zu edges, weights on a "
                  "0.25 grid\n",
                  sz.nodes, g.edges.size());
    }
    return true;
  }

  double RunPart() override {
    const auto t0 = Clock::now();
    sssp.push_back(Part(&g, sz, &tally));
    return SecondsSince(t0);
  }

  void Report(MetricMap* m) const override { PutPartMedian(m, "sssp_s", sssp); }

  const RunArgs args;
  const Sizes sz;
  Graph g;
  PartSamples sssp;
};

}  // namespace

std::unique_ptr<Workload> MakeGraphSparse(const RunArgs& args) {
  return std::make_unique<GraphSparse>(args);
}

WorkloadOutput TraceGraphSparse(const RunArgs& args, SpanLog* log,
                                LayerTotals* totals) {
  WorkloadOutput out;
  GraphSparse w(args);
  if (!w.SetUp()) {
    out.tally.Record(false);
    return out;
  }
  const Sizes& sz = w.sz;
  Graph& g = w.g;
  Database& db = *g.db;
  w.RunPart();  // warm-up, as before the untraced base part
  out.tally = w.tally;
  const uint64_t flops0 = CounterValue(db, "la.sparse.flops");
  const uint64_t spvm0 = CounterValue(db, "la.sparse.spvm_calls");
  const LayerSnapshot layers0 = LayerSnapshot::Of(db);
  const auto t0 = Clock::now();
  {
    SpanLog::Scope span(log, "graph_part", 0, log->NewRequest());
    Part(&g, sz, &out.tally);
  }
  out.work_seconds = SecondsSince(t0);
  MetricMap& m = out.metrics;
  totals->Add(db, layers0, out.work_seconds);
  PutMetric(&m, "la.sparse.flops",
            static_cast<double>(CounterValue(db, "la.sparse.flops") - flops0),
            "flop");
  PutMetric(&m, "la.sparse.spvm_calls",
            static_cast<double>(CounterValue(db, "la.sparse.spvm_calls") - spvm0),
            "count");

  // One relaxation step through the layers, on a state table of our own.
  std::vector<double> init(sz.nodes, workloads::kUnreachable);
  init[0] = 0.0;
  const la::Vector state{std::vector<double>(init)};
  Status s = db.Execute("CREATE TABLE probe_state (vec VECTOR[" +
                        std::to_string(sz.nodes) + "])")
                 .status();
  if (s.ok()) s = db.BulkInsert("probe_state", {{Value::FromVector(state)}});
  out.tally.Record(s.ok());
  for (int i = 0; i < 8 && s.ok(); ++i) {
    DirectRun d = DriveDirect(
        db,
        "SELECT vector_elementwise_add(s.vec, vector_matrix_multiply(s.vec, "
        "a.mat, 'min_plus'), 'min_plus') AS vec FROM probe_state AS s, g_adj "
        "AS a",
        log);
    out.tally.Record(d.ok && d.matches);
    totals->exec.Add(d.metrics);
  }

  // Kernel probes on the adjacency itself.
  la::sparse::CooMatrix coo{sz.nodes, sz.nodes, {}};
  for (const GraphEdge& e : g.edges) {
    coo.entries.push_back({static_cast<uint64_t>(e.src),
                           static_cast<uint64_t>(e.dst), e.weight});
  }
  Result<la::sparse::CsrMatrix> adj = la::sparse::CsrMatrix::FromCoo(coo);
  out.tally.Record(adj.ok());
  if (adj.ok()) {
    const la::sparse::Semiring mp = *la::sparse::SemiringByName("min_plus");
    const double spvm_flops = 2.0 * static_cast<double>(adj->nnz());
    std::vector<double> spvm_s;
    for (int i = 0; i < 200; ++i) {
      const auto k0 = Clock::now();
      (void)la::sparse::SpVM(state, *adj, mp);
      spvm_s.push_back(SecondsSince(k0));
    }
    PutMetric(&m, "la.sparse.spvm_gflops", spvm_flops / Median(spvm_s) / 1e9,
              "GFLOP/s");
    // A⊗A performs, per stored a_ik, one multiply-add per entry of row k.
    double spgemm_flops = 0.0;
    for (size_t r = 0; r < adj->rows(); ++r) {
      for (uint64_t j = adj->row_ptr()[r]; j < adj->row_ptr()[r + 1]; ++j) {
        const size_t k = adj->col_idx()[j];
        spgemm_flops +=
            2.0 * static_cast<double>(adj->row_ptr()[k + 1] - adj->row_ptr()[k]);
      }
    }
    std::vector<double> spgemm_s;
    for (int i = 0; i < 5; ++i) {
      const auto k0 = Clock::now();
      (void)la::sparse::SpGemm(*adj, *adj, mp);
      spgemm_s.push_back(SecondsSince(k0));
    }
    PutMetric(&m, "la.sparse.spgemm_gflops",
              spgemm_flops / Median(spgemm_s) / 1e9, "GFLOP/s");
  }
  return out;
}

}  // namespace radbench
