#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <iterator>
#include <set>
#include <string>

#include "api/database.h"

#include "test_util.h"
#include "common/thread_pool.h"
#include "la/matrix.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace radb {
namespace {

// --- tracer -----------------------------------------------------------

TEST(TracerTest, SpansNestLikeStackFrames) {
  obs::Tracer tracer;
  const size_t root = tracer.BeginSpan("query", "pipeline");
  const size_t child = tracer.BeginSpan("parse", "pipeline");
  const size_t grandchild = tracer.BeginSpan("lex", "pipeline");
  tracer.EndSpan(grandchild);
  tracer.EndSpan(child);
  const size_t sibling = tracer.BeginSpan("execute", "pipeline");
  tracer.EndSpan(sibling);
  tracer.EndSpan(root);

  ASSERT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.span(root).parent, obs::Span::kNoParent);
  EXPECT_EQ(tracer.span(child).parent, root);
  EXPECT_EQ(tracer.span(grandchild).parent, child);
  EXPECT_EQ(tracer.span(sibling).parent, root);
  for (const obs::Span& s : tracer.spans()) {
    EXPECT_TRUE(s.closed()) << s.name;
    EXPECT_GE(s.duration_seconds, 0.0) << s.name;
  }
  // A child is contained in its parent's interval.
  const obs::Span& p = tracer.span(root);
  const obs::Span& c = tracer.span(grandchild);
  EXPECT_GE(c.start_seconds, p.start_seconds);
  EXPECT_LE(c.start_seconds + c.duration_seconds,
            p.start_seconds + p.duration_seconds + 1e-9);
}

TEST(TracerTest, ArgsAndRenamesStick) {
  obs::Tracer tracer;
  const size_t id = tracer.BeginSpan("op", "exec");
  tracer.AddArg(id, "rows_out", "42");
  tracer.SetName(id, "HashJoin");
  tracer.EndSpan(id);
  EXPECT_EQ(tracer.span(id).name, "HashJoin");
  ASSERT_EQ(tracer.span(id).args.size(), 1u);
  EXPECT_EQ(tracer.span(id).args[0].first, "rows_out");
  EXPECT_EQ(tracer.span(id).args[0].second, "42");
}

TEST(TracerTest, AddCompleteSpanUsesGivenTiming) {
  obs::Tracer tracer;
  const size_t root = tracer.BeginSpan("execute", "pipeline");
  const size_t w =
      tracer.AddCompleteSpan("Scan w3", "worker", root, 0.5, 0.25, 4);
  tracer.EndSpan(root);
  EXPECT_EQ(tracer.span(w).parent, root);
  EXPECT_DOUBLE_EQ(tracer.span(w).start_seconds, 0.5);
  EXPECT_DOUBLE_EQ(tracer.span(w).duration_seconds, 0.25);
  EXPECT_EQ(tracer.span(w).tid, 4);
}

TEST(TracerTest, ClearDropsEverything) {
  obs::Tracer tracer;
  tracer.EndSpan(tracer.BeginSpan("a"));
  tracer.Clear();
  EXPECT_TRUE(tracer.spans().empty());
  // The tracer is reusable after Clear.
  tracer.EndSpan(tracer.BeginSpan("b"));
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.span(0).name, "b");
}

TEST(ScopedSpanTest, NullTracerIsANoOp) {
  // The disabled fast path: no tracer, no metrics — every obs call
  // must be safe and free of side effects.
  obs::ScopedSpan span(nullptr, "anything", "cat");
  span.AddArg("k", "v");
  span.SetName("renamed");
  span.End();
  EXPECT_EQ(span.tracer(), nullptr);

  obs::ObsContext ctx;
  EXPECT_FALSE(ctx.enabled());
}

TEST(ScopedSpanTest, EndIsIdempotent) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan span(&tracer, "phase");
    span.End();
    span.End();  // second End and the destructor must both no-op
  }
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_TRUE(tracer.span(0).closed());
}

// --- metrics registry -------------------------------------------------

TEST(MetricsRegistryTest, CounterAccumulates) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.counter("exec.rows_shuffled");
  c->Add(10);
  c->Increment();
  EXPECT_EQ(c->value(), 11u);
  // Same name returns the same instrument.
  EXPECT_EQ(reg.counter("exec.rows_shuffled"), c);
  reg.Add("exec.rows_shuffled", 9);
  EXPECT_EQ(c->value(), 20u);
}

TEST(MetricsRegistryTest, GaugeIsLastWriteWins) {
  obs::MetricsRegistry reg;
  reg.Set("exec.workers", 8.0);
  reg.Set("exec.workers", 4.0);
  EXPECT_DOUBLE_EQ(reg.gauge("exec.workers")->value(), 4.0);
}

TEST(MetricsRegistryTest, HistogramSummarizesObservations) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.histogram("la.matmul_seconds");
  h->Observe(1.0);
  h->Observe(3.0);
  h->Observe(8.0);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 12.0);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 8.0);
  EXPECT_DOUBLE_EQ(h->mean(), 4.0);
  // Power-of-two buckets: 1.0 -> le 1, 3.0 -> le 4, 8.0 -> le 8.
  const auto buckets = h->NonEmptyBuckets();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].first, 1.0);
  EXPECT_DOUBLE_EQ(buckets[1].first, 4.0);
  EXPECT_DOUBLE_EQ(buckets[2].first, 8.0);
  for (const auto& [le, n] : buckets) EXPECT_EQ(n, 1u) << "le=" << le;
}

TEST(MetricsRegistryTest, HistogramRejectsNonFiniteSamples) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.histogram("poisoned");
  h->Observe(2.0);
  // NaN is dropped outright: one bad sample must not turn sum/min/max
  // (and every percentile) into NaN in the JSON export forever.
  h->Observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h->count(), 1u);
  EXPECT_DOUBLE_EQ(h->sum(), 2.0);
  // ±inf is clamped to the finite extremes: counted, never in bucket 0
  // (the old behavior filed +inf alongside sub-1.0 samples).
  h->Observe(std::numeric_limits<double>::infinity());
  h->Observe(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h->count(), 3u);
  EXPECT_TRUE(std::isfinite(h->sum()));
  EXPECT_TRUE(std::isfinite(h->min()));
  EXPECT_TRUE(std::isfinite(h->max()));
  EXPECT_DOUBLE_EQ(h->max(), std::numeric_limits<double>::max());
  EXPECT_DOUBLE_EQ(h->min(), std::numeric_limits<double>::lowest());
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_TRUE(std::isfinite(h->Percentile(q))) << "q=" << q;
  }
  // Bucket placement: -inf clamps to the lowest double and lands in
  // the BOTTOM bucket (le 2^-kOffset); 2.0 in le 2; +inf clamps to
  // DBL_MAX and must land in the TOP bucket, not the bottom one.
  const auto buckets = h->NonEmptyBuckets();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].first, std::exp2(-obs::Histogram::kOffset));
  EXPECT_EQ(buckets[0].second, 1u);
  EXPECT_DOUBLE_EQ(buckets[1].first, 2.0);
  EXPECT_EQ(buckets[1].second, 1u);
  EXPECT_EQ(buckets[2].second, 1u);
  EXPECT_DOUBLE_EQ(buckets[2].first,
                   std::exp2(static_cast<double>(obs::Histogram::kBuckets) -
                             1 - obs::Histogram::kOffset));
}

TEST(MetricsRegistryTest, HistogramResolvesSubSecondSamples) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.histogram("service.query_seconds");
  // 1000 latencies spread evenly over [1 ms, 10 ms]: before buckets
  // had bounds below 1, every one of them shared bucket 0 and each
  // percentile read as the max.
  for (int i = 0; i < 1000; ++i) h->Observe(0.001 + 0.009 * i / 999.0);
  const double p50 = h->Percentile(0.50);
  const double p99 = h->Percentile(0.99);
  EXPECT_LT(p50, p99);
  EXPECT_LT(p99, h->max());
  EXPECT_NEAR(p50, 0.0055, 0.001);
  EXPECT_GT(p99, 0.009);
  // Sub-1 bounds: 1-10 ms spans le 2^-9 .. le 2^-6.
  const auto buckets = h->NonEmptyBuckets();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_DOUBLE_EQ(buckets.front().first, std::exp2(-9));
  EXPECT_DOUBLE_EQ(buckets.back().first, std::exp2(-6));
}

TEST(MetricsRegistryTest, EmptyHistogramIsAllZeros) {
  obs::MetricsRegistry reg;
  obs::Histogram* h = reg.histogram("empty");
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->min(), 0.0);
  EXPECT_DOUBLE_EQ(h->max(), 0.0);
  EXPECT_DOUBLE_EQ(h->mean(), 0.0);
  EXPECT_TRUE(h->NonEmptyBuckets().empty());
}

TEST(MetricsRegistryTest, ToJsonParsesBack) {
  obs::MetricsRegistry reg;
  reg.Add("a.count", 7);
  reg.Set("a.gauge", 2.5);
  reg.Observe("a.hist", 3.0);
  auto parsed = obs::ParseJson(reg.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const obs::JsonValue* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::JsonValue* count = counters->Find("a.count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->number, 7.0);
  const obs::JsonValue* hist = parsed->Find("histograms");
  ASSERT_NE(hist, nullptr);
  const obs::JsonValue* ahist = hist->Find("a.hist");
  ASSERT_NE(ahist, nullptr);
  ASSERT_NE(ahist->Find("mean"), nullptr);
  EXPECT_DOUBLE_EQ(ahist->Find("mean")->number, 3.0);
}

TEST(MetricsRegistryTest, GlobalHookInstallsAndRestores) {
  ASSERT_EQ(obs::GlobalMetrics(), nullptr);
  obs::MetricsRegistry reg;
  obs::MetricsRegistry* prev = obs::SetGlobalMetrics(&reg);
  EXPECT_EQ(prev, nullptr);
  EXPECT_EQ(obs::GlobalMetrics(), &reg);
  EXPECT_EQ(obs::SetGlobalMetrics(nullptr), &reg);
  EXPECT_EQ(obs::GlobalMetrics(), nullptr);
}

TEST(MetricsRegistryTest, DenseVecMatAndSolveFlopsAreCounted) {
  obs::MetricsRegistry reg;
  obs::InstallGlobalMetrics(&reg);
  const size_t n = 5;
  la::Matrix a = la::Matrix::Identity(n);
  a.At(0, n - 1) = 2.0;
  const la::Vector v(n, 1.0);
  ASSERT_TRUE(la::VectorMatrixMultiply(v, a).ok());
  ASSERT_TRUE(la::Solve(a, v).ok());
  ASSERT_TRUE(la::Inverse(a).ok());
  obs::UninstallGlobalMetrics(&reg);

  EXPECT_EQ(reg.counter("la.vecmat_calls")->value(), 1u);
  EXPECT_EQ(reg.counter("la.vecmat_flops")->value(), 2 * n * n);
  // Two LU factorizations: n(n-1)/2 divisions and (n-1)n(2n-1)/6
  // multiply-subtract pairs each. Substitution: n(n-1) pairs and n
  // divisions per right-hand side — 1 for Solve, n for Inverse.
  const uint64_t lu = n * (n - 1) / 2 + (n - 1) * n * (2 * n - 1) / 3;
  const uint64_t per_rhs = 2 * n * n - n;
  EXPECT_EQ(reg.counter("la.solve_calls")->value(), 2u);
  EXPECT_EQ(reg.counter("la.solve_flops")->value(),
            2 * lu + per_rhs * (1 + n));
  // The existing names keep their meaning: no matmul or matvec here.
  EXPECT_EQ(reg.counter("la.matmul_flops")->value(), 0u);
  EXPECT_EQ(reg.counter("la.matvec_flops")->value(), 0u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsLoseNothing) {
  obs::MetricsRegistry reg;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerTask = 5'000;
  ThreadPool pool(kThreads);
  // Hammer one pre-created counter, one lazily-created counter (which
  // also races instrument creation), a gauge, and a histogram from
  // every pool thread at once.
  obs::Counter* warm = reg.counter("warm");
  pool.ParallelFor(kThreads, [&](size_t t) {
    for (size_t i = 0; i < kPerTask; ++i) {
      warm->Increment();
      reg.Add("cold", 2);
      reg.Set("gauge", static_cast<double>(t));
      reg.Observe("hist", 1.0);
    }
  });
  EXPECT_EQ(warm->value(), kThreads * kPerTask);
  EXPECT_EQ(reg.counter("cold")->value(), 2 * kThreads * kPerTask);
  EXPECT_EQ(reg.histogram("hist")->count(), kThreads * kPerTask);
  EXPECT_DOUBLE_EQ(reg.histogram("hist")->sum(),
                   static_cast<double>(kThreads * kPerTask));
  EXPECT_LT(reg.gauge("gauge")->value(), static_cast<double>(kThreads));
}

TEST(TracerTest, ConcurrentCompleteSpansAllRecorded) {
  obs::Tracer tracer;
  const size_t root = tracer.BeginSpan("query", "pipeline");
  constexpr size_t kSpans = 2'000;
  ThreadPool pool(8);
  pool.ParallelFor(kSpans, [&](size_t i) {
    tracer.AddCompleteSpan("w" + std::to_string(i), "worker", root,
                           0.0, 1e-6, static_cast<int>(i % 8) + 1);
  });
  tracer.EndSpan(root);
  EXPECT_EQ(tracer.spans().size(), kSpans + 1);
  // Export still renders a parseable JSON array.
  auto parsed = obs::ParseJson(tracer.ToChromeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
}

// --- estimation error -------------------------------------------------

TEST(QueryMetricsTest, MaxEstimationError) {
  QueryMetrics qm;
  OperatorMetrics exact;
  exact.rows_out = 100;
  exact.estimated_rows = 100.0;
  OperatorMetrics off_by_4;
  off_by_4.rows_out = 25;
  off_by_4.estimated_rows = 100.0;
  OperatorMetrics unestimated;  // estimated_rows == 0 -> ignored
  unestimated.rows_out = 1000;
  qm.operators = {exact, off_by_4, unestimated};
  EXPECT_DOUBLE_EQ(qm.operators[0].EstimationError(), 1.0);
  EXPECT_DOUBLE_EQ(qm.operators[1].EstimationError(), 4.0);
  EXPECT_DOUBLE_EQ(qm.operators[2].EstimationError(), 0.0);
  EXPECT_DOUBLE_EQ(qm.MaxEstimationError(), 4.0);
}

// --- end-to-end through a Database ------------------------------------

class ObsDatabaseTest : public ::testing::Test {
 protected:
  ObsDatabaseTest() : db_(MakeConfig()) {}

  static Database::Config MakeConfig() {
    Database::Config cfg;
    cfg.num_workers = 4;
    cfg.obs.enable_tracing = true;
    cfg.obs.enable_metrics = true;
    return cfg;
  }

  void SetUp() override {
    ASSERT_TRUE(Exec(db_, "CREATE TABLE t (a INTEGER, b DOUBLE)").ok());
    ASSERT_TRUE(Exec(db_, "INSERT INTO t VALUES "
                               "(1, 1.5), (2, 2.5), (3, 3.5), (4, 4.5)")
                    .ok());
  }

  Database db_;
};

TEST_F(ObsDatabaseTest, PipelinePhasesAppearAsNestedSpans) {
  auto rs = Exec(db_, "SELECT SUM(b) FROM t WHERE a > 1");
  ASSERT_TRUE(rs.ok()) << rs.status();
  obs::Tracer* tracer = db_.tracer();
  ASSERT_NE(tracer, nullptr);

  size_t query_id = obs::Span::kNoParent;
  std::set<std::string> phases;
  for (size_t i = 0; i < tracer->spans().size(); ++i) {
    const obs::Span& s = tracer->spans()[i];
    EXPECT_TRUE(s.closed()) << s.name;
    if (s.name == "query") query_id = i;
  }
  ASSERT_NE(query_id, obs::Span::kNoParent);
  for (const obs::Span& s : tracer->spans()) {
    if (s.parent == query_id) phases.insert(s.name);
  }
  EXPECT_TRUE(phases.count("parse"));
  EXPECT_TRUE(phases.count("bind"));
  EXPECT_TRUE(phases.count("optimize"));
  EXPECT_TRUE(phases.count("execute"));
  // The text tree renders without blowing up and mentions the phases.
  const std::string tree = tracer->ToTextTree();
  EXPECT_NE(tree.find("query"), std::string::npos);
  EXPECT_NE(tree.find("execute"), std::string::npos);
}

TEST_F(ObsDatabaseTest, ChromeTraceJsonRoundTrips) {
  ASSERT_TRUE(Exec(db_, "SELECT a FROM t WHERE b > 2.0").ok());
  auto parsed = obs::ParseJson(db_.tracer()->ToChromeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_TRUE(parsed->is_array());
  ASSERT_FALSE(parsed->array.empty());
  std::set<std::string> names;
  for (const obs::JsonValue& ev : parsed->array) {
    ASSERT_TRUE(ev.is_object());
    const obs::JsonValue* ph = ev.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->string_value, "X");  // complete events only
    ASSERT_NE(ev.Find("name"), nullptr);
    ASSERT_NE(ev.Find("ts"), nullptr);
    ASSERT_NE(ev.Find("dur"), nullptr);
    EXPECT_GE(ev.Find("dur")->number, 0.0);
    names.insert(ev.Find("name")->string_value);
  }
  for (const char* phase : {"query", "parse", "bind", "optimize", "execute"}) {
    EXPECT_TRUE(names.count(phase)) << phase;
  }
}

TEST_F(ObsDatabaseTest, ExecutorPublishesCounters) {
  ASSERT_TRUE(Exec(db_, "SELECT SUM(b) FROM t").ok());
  obs::MetricsRegistry* reg = db_.metrics_registry();
  ASSERT_NE(reg, nullptr);
  EXPECT_GT(reg->counter("exec.operators")->value(), 0u);
  EXPECT_GT(reg->counter("exec.rows_out")->value(), 0u);
  EXPECT_EQ(reg->counter("optimizer.queries_planned")->value(), 1u);
  EXPECT_DOUBLE_EQ(reg->gauge("exec.workers")->value(), 4.0);
}

TEST_F(ObsDatabaseTest, PlainExplainIsPlannedUnderObservation) {
  // EXPLAIN plans through the same observed step as SELECT: the
  // optimizer reports to the registry and the bind / optimize spans
  // appear in the trace.
  obs::Counter* considered =
      db_.metrics_registry()->counter("optimizer.plans_considered");
  const uint64_t before = considered->value();
  // A two-relation join: the join-order search considers one plan.
  ASSERT_TRUE(Exec(db_, "EXPLAIN SELECT x.b FROM t AS x, t AS y "
                        "WHERE x.a = y.a")
                  .ok());
  EXPECT_GT(considered->value(), before);
  std::set<std::string> names;
  for (const obs::Span& s : db_.tracer()->spans()) names.insert(s.name);
  EXPECT_TRUE(names.count("bind"));
  EXPECT_TRUE(names.count("optimize"));
}

TEST_F(ObsDatabaseTest, TraceCoversOnlyTheLastExecute) {
  ASSERT_TRUE(Exec(db_, "SELECT a FROM t").ok());
  ASSERT_TRUE(Exec(db_, "SELECT b FROM t").ok());
  size_t query_spans = 0;
  for (const obs::Span& s : db_.tracer()->spans()) {
    if (s.name == "query") ++query_spans;
  }
  EXPECT_EQ(query_spans, 1u);
}

TEST_F(ObsDatabaseTest, LastMetricsShowAFailedStatement) {
  ASSERT_TRUE(Exec(db_, "SELECT a, SUM(b) FROM t GROUP BY a").ok());
  auto has_op = [&](const std::string& prefix) {
    for (const OperatorMetrics& op : db_.last_metrics().operators) {
      if (op.name.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_op("Scan(t)"));
  EXPECT_TRUE(has_op("Aggregate"));
  ASSERT_TRUE(Exec(db_, "CREATE TABLE vv (k INTEGER, x VECTOR[3])").ok());
  ASSERT_TRUE(Exec(db_, "INSERT INTO vv VALUES (4, ones_vector(3))").ok());
  auto failed = Exec(db_, "SELECT inner_product(x, ones_vector(k)) FROM vv");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDimensionMismatch);
  // The failing statement's operators, not the earlier query's.
  EXPECT_TRUE(has_op("Scan(vv)")) << db_.last_metrics().ToString();
  EXPECT_FALSE(has_op("Scan(t)")) << db_.last_metrics().ToString();
  EXPECT_FALSE(has_op("Aggregate")) << db_.last_metrics().ToString();
}

TEST(ObsDisabledTest, DefaultDatabaseHasNoObservability) {
  Database db;
  EXPECT_EQ(db.tracer(), nullptr);
  EXPECT_EQ(db.metrics_registry(), nullptr);
  EXPECT_FALSE(db.obs_context().enabled());
  ASSERT_TRUE(Exec(db, "CREATE TABLE t (a INTEGER)").ok());
  ASSERT_TRUE(Exec(db, "INSERT INTO t VALUES (1), (2)").ok());
  auto rs = Exec(db, "SELECT a FROM t");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 2u);
  // Nothing leaked into the process-global hook.
  EXPECT_EQ(obs::GlobalMetrics(), nullptr);
}

TEST(ObsDatabaseFilesTest, TraceAndMetricsFilesAreWritten) {
  const std::string trace_path = ::testing::TempDir() + "/radb_trace.json";
  const std::string metrics_path = ::testing::TempDir() + "/radb_metrics.json";
  Database::Config cfg;
  cfg.obs.trace_path = trace_path;      // implies tracing
  cfg.obs.metrics_path = metrics_path;  // implies metrics
  Database db(cfg);
  ASSERT_NE(db.tracer(), nullptr);
  ASSERT_NE(db.metrics_registry(), nullptr);
  ASSERT_TRUE(Exec(db, "CREATE TABLE t (a INTEGER);"
                            "INSERT INTO t VALUES (1);"
                            "SELECT a FROM t")
                  .ok());
  for (const std::string& path : {trace_path, metrics_path}) {
    std::ifstream is(path);
    ASSERT_TRUE(is.good()) << path;
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    auto parsed = obs::ParseJson(text);
    EXPECT_TRUE(parsed.ok()) << path << ": " << parsed.status();
  }
}

// --- minimal JSON parser ----------------------------------------------

TEST(JsonTest, ParsesScalarsAndStructures) {
  auto v = obs::ParseJson(
      R"({"a": [1, 2.5, -3e2], "b": {"nested": true}, "c": null,
          "s": "q\"uote\nA"})");
  ASSERT_TRUE(v.ok()) << v.status();
  const obs::JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  ASSERT_NE(v->Find("b"), nullptr);
  ASSERT_NE(v->Find("b")->Find("nested"), nullptr);
  EXPECT_TRUE(v->Find("b")->Find("nested")->bool_value);
  EXPECT_EQ(v->Find("c")->kind, obs::JsonValue::Kind::kNull);
  EXPECT_EQ(v->Find("s")->string_value, "q\"uote\nA");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(obs::ParseJson("{").ok());
  EXPECT_FALSE(obs::ParseJson("[1,]").ok());
  EXPECT_FALSE(obs::ParseJson("\"unterminated").ok());
  EXPECT_FALSE(obs::ParseJson("{} trailing").ok());
  EXPECT_FALSE(obs::ParseJson("nul").ok());
}

TEST(JsonTest, NumberFormattingAvoidsInfNan) {
  EXPECT_EQ(obs::JsonNumber(2.0), "2");
  const std::string inf = obs::JsonNumber(INFINITY);
  const std::string nan = obs::JsonNumber(NAN);
  for (const std::string& s : {inf, nan}) {
    EXPECT_EQ(s.find("inf"), std::string::npos) << s;
    EXPECT_EQ(s.find("nan"), std::string::npos) << s;
  }
}

}  // namespace
}  // namespace radb
