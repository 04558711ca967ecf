#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "common/cancellation.h"
#include "obs/exporter.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"
#include "service/session.h"
#include "testing/query_gen.h"

namespace radb {
namespace {

using service::SessionManager;

Database::Config MetricsConfig() {
  Database::Config config;
  config.num_workers = 4;
  config.num_threads = 2;
  config.obs.enable_metrics = true;
  return config;
}

Status LoadTinyTable(Database* db) {
  return db
      ->Execute(
          "CREATE TABLE t (a INTEGER, b DOUBLE);"
          "INSERT INTO t VALUES (1, 2.0);"
          "INSERT INTO t VALUES (2, 4.0);"
          "INSERT INTO t VALUES (3, 6.0)")
      .status();
}

// ----------------------------------------------------------------------
// System tables through ordinary SQL.
// ----------------------------------------------------------------------

TEST(SystemTablesTest, MetricsTableSelects) {
  Database db(MetricsConfig());
  ASSERT_TRUE(LoadTinyTable(&db).ok());
  auto rs = db.Execute("SELECT name, value FROM radb_metrics");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_GT(rs->last().num_rows(), 0u);
  // Known counters appear by name.
  auto named = db.Execute(
      "SELECT value FROM radb_metrics "
      "WHERE name = 'optimizer.queries_planned'");
  ASSERT_TRUE(named.ok()) << named.status();
  ASSERT_EQ(named->last().num_rows(), 1u);
  EXPECT_GT(named->last().at(0, 0).double_value(), 0.0);
}

TEST(SystemTablesTest, QueriesTablePhaseFilter) {
  Database db(MetricsConfig());
  ASSERT_TRUE(LoadTinyTable(&db).ok());
  ASSERT_TRUE(db.Execute("SELECT SUM(b) FROM t").ok());
  // Every completed OK query has execute time and total >= sum of
  // phases it contains.
  auto rs = db.Execute(
      "SELECT query_id, sql, execute_micros, total_micros "
      "FROM radb_queries WHERE status = 'OK' AND execute_micros >= 0");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_GT(rs->last().num_rows(), 0u);
  // The phase long-format view agrees with the wide columns.
  auto phases = db.Execute(
      "SELECT phase, SUM(micros) AS total FROM radb_query_phases "
      "GROUP BY phase");
  ASSERT_TRUE(phases.ok()) << phases.status();
  EXPECT_EQ(phases->last().num_rows(), obs::kNumQueryPhases);
}

TEST(SystemTablesTest, OperatorsJoinQueries) {
  Database db(MetricsConfig());
  ASSERT_TRUE(LoadTinyTable(&db).ok());
  ASSERT_TRUE(db.Execute("SELECT SUM(a), COUNT(*) FROM t WHERE a > 1").ok());
  auto rs = db.Execute(
      "SELECT o.name, o.est_rows, o.actual_rows, q.sql "
      "FROM radb_operators AS o, radb_queries AS q "
      "WHERE o.query_id = q.query_id AND q.status = 'OK'");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_GT(rs->last().num_rows(), 0u);
  // est_error is the symmetric q-error, >= 1 wherever an estimate
  // exists (0 marks "no estimate").
  auto err = db.Execute(
      "SELECT COUNT(*) FROM radb_operators "
      "WHERE est_error < 1.0 AND est_error <> 0.0");
  ASSERT_TRUE(err.ok()) << err.status();
  EXPECT_EQ(err->last().at(0, 0).int_value(), 0);
}

TEST(SystemTablesTest, TablesListsUserTables) {
  Database db(MetricsConfig());
  ASSERT_TRUE(LoadTinyTable(&db).ok());
  auto rs = db.Execute(
      "SELECT name, num_rows, bytes, num_partitions FROM radb_tables");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->last().num_rows(), 1u);
  EXPECT_EQ(rs->last().at(0, 0).string_value(), "t");
  EXPECT_EQ(rs->last().at(0, 1).int_value(), 3);
  EXPECT_GT(rs->last().at(0, 2).int_value(), 0);
  // System tables never list themselves.
  auto self = db.Execute(
      "SELECT COUNT(*) FROM radb_tables WHERE name = 'radb_tables'");
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self->last().at(0, 0).int_value(), 0);
}

TEST(SystemTablesTest, UnknownSystemTableNamesTheProblem) {
  Database db(MetricsConfig());
  auto rs = db.Execute("SELECT * FROM radb_nope");
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kCatalogError);
  EXPECT_NE(rs.status().message().find("unknown system table"),
            std::string::npos);
}

TEST(SystemTablesTest, DisabledProviderKeepsPrefixReserved) {
  Database::Config config = MetricsConfig();
  config.telemetry.enable_system_tables = false;
  Database db(config);
  EXPECT_FALSE(db.Execute("SELECT * FROM radb_metrics").ok());
  EXPECT_FALSE(db.Execute("CREATE TABLE radb_mine (a INTEGER)").ok());
}

// ----------------------------------------------------------------------
// Reserved prefix.
// ----------------------------------------------------------------------

TEST(SystemTablesTest, ReservedPrefixRejectsDdlAndDml) {
  Database db(MetricsConfig());
  auto create = db.Execute("CREATE TABLE radb_mine (a INTEGER)");
  ASSERT_FALSE(create.ok());
  EXPECT_EQ(create.status().code(), StatusCode::kCatalogError);
  EXPECT_NE(create.status().message().find("reserved"), std::string::npos);
  // Case-insensitive: RADB_ is the same prefix.
  EXPECT_FALSE(db.Execute("CREATE TABLE RADB_mine (a INTEGER)").ok());
  EXPECT_FALSE(db.Execute("CREATE VIEW radb_v AS SELECT 1 AS x").ok());
  EXPECT_FALSE(db.Execute("INSERT INTO radb_metrics VALUES (1)").ok());
  EXPECT_FALSE(db.Execute("DROP TABLE radb_metrics").ok());
}

// ----------------------------------------------------------------------
// Query record ring.
// ----------------------------------------------------------------------

TEST(SystemTablesTest, RingEvictsOldestFirst) {
  Database::Config config = MetricsConfig();
  config.telemetry.query_log_capacity = 4;
  Database db(config);
  ASSERT_TRUE(LoadTinyTable(&db).ok());
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(db.Execute("SELECT COUNT(*) FROM t").ok());
  }
  const std::vector<obs::QueryRecord> records =
      db.telemetry_store()->SnapshotQueries();
  ASSERT_EQ(records.size(), 4u);
  // Ordinals are contiguous and ascending: the ring kept the newest 4
  // of the 8 recorded calls (setup script + 7 selects).
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].ordinal, records[i - 1].ordinal + 1);
  }
  EXPECT_EQ(records.back().ordinal,
            db.telemetry_store()->queries_recorded());
}

TEST(SystemTablesTest, FailedQueriesAreRecordedWithStatus) {
  Database db(MetricsConfig());
  ASSERT_TRUE(LoadTinyTable(&db).ok());

  // Cancelled: pre-fired token.
  QueryOptions cancelled_opts;
  cancelled_opts.cancellation = std::make_shared<CancellationToken>();
  cancelled_opts.cancellation->Cancel();
  auto cancelled = db.Execute("SELECT SUM(b) FROM t", cancelled_opts);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  // ResourceExhausted: a 1-byte budget no query fits in.
  auto exhausted = db.Execute("SELECT SUM(b), COUNT(*) FROM t",
                              QueryOptions{.memory_budget_bytes = 1});
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);

  auto rs = db.Execute(
      "SELECT status, COUNT(*) AS n FROM radb_queries "
      "WHERE status = 'Cancelled' OR status = 'ResourceExhausted' "
      "GROUP BY status");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->last().num_rows(), 2u);
}

// ----------------------------------------------------------------------
// Concurrent sessions scanning system tables (the TSan target).
// ----------------------------------------------------------------------

TEST(SystemTablesTest, EightSessionsMixSystemScansWithWorkload) {
  Database db(MetricsConfig());
  ASSERT_TRUE(LoadTinyTable(&db).ok());
  SessionManager manager(&db);

  const std::vector<std::string> mix = {
      "SELECT SUM(b), COUNT(*) FROM t",
      "SELECT name, value FROM radb_metrics",
      "SELECT COUNT(*) FROM radb_queries WHERE status = 'OK'",
      "SELECT session_id, state FROM radb_sessions",
      "SELECT kind, tasks FROM radb_threads",
      "SELECT o.name FROM radb_operators AS o, radb_queries AS q "
      "WHERE o.query_id = q.query_id",
  };
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t s = 0; s < 8; ++s) {
    threads.emplace_back([&, s] {
      auto session = manager.CreateSession();
      for (size_t i = 0; i < 12; ++i) {
        const std::string& sql = mix[(s + i) % mix.size()];
        if (!session->Execute(sql).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);

  // Afterwards every session is deregistered and the histories are
  // visible: 96 session queries all completed OK.
  auto sessions = db.Execute("SELECT COUNT(*) FROM radb_sessions");
  ASSERT_TRUE(sessions.ok());
  EXPECT_EQ(sessions->last().at(0, 0).int_value(), 0);
  auto ok = db.Execute(
      "SELECT COUNT(*) FROM radb_queries "
      "WHERE session_id > 0 AND status = 'OK'");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->last().at(0, 0).int_value(), 96);
}

// ----------------------------------------------------------------------
// Histogram percentile edge cases.
// ----------------------------------------------------------------------

TEST(HistogramEdgeTest, EmptyHistogramReportsZero) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.histogram("edge.empty");
  EXPECT_EQ(h->Percentile(0.0), 0.0);
  EXPECT_EQ(h->Percentile(0.5), 0.0);
  EXPECT_EQ(h->Percentile(1.0), 0.0);
  EXPECT_EQ(h->min(), 0.0);
  EXPECT_EQ(h->max(), 0.0);
}

TEST(HistogramEdgeTest, SingleSampleIsEveryQuantile) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.histogram("edge.single");
  h->Observe(0.125);
  EXPECT_DOUBLE_EQ(h->Percentile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(h->Percentile(0.5), 0.125);
  EXPECT_DOUBLE_EQ(h->Percentile(0.99), 0.125);
  EXPECT_DOUBLE_EQ(h->Percentile(1.0), 0.125);
}

TEST(HistogramEdgeTest, AllEqualSamplesClampToTheValue) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.histogram("edge.equal");
  for (int i = 0; i < 1000; ++i) h->Observe(3.0);
  EXPECT_DOUBLE_EQ(h->Percentile(0.01), 3.0);
  EXPECT_DOUBLE_EQ(h->Percentile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h->Percentile(0.999), 3.0);
}

// ----------------------------------------------------------------------
// Exporter.
// ----------------------------------------------------------------------

TEST(ExporterTest, PrometheusRenderHasTypedFamilies) {
  Database::Config config = MetricsConfig();
  std::string prom;
  config.telemetry.prometheus_callback = [&](const std::string& text) {
    prom = text;
  };
  Database db(config);
  ASSERT_TRUE(LoadTinyTable(&db).ok());
  ASSERT_TRUE(db.Execute("SELECT SUM(b) FROM t").ok());
  ASSERT_NE(db.exporter(), nullptr);
  ASSERT_TRUE(db.exporter()->ExportOnce().ok());

  EXPECT_NE(prom.find("# TYPE radb_exec_rows_out counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE radb_exec_operator_seconds summary"),
            std::string::npos);
  EXPECT_NE(prom.find("radb_exec_operator_seconds_count"),
            std::string::npos);
  EXPECT_NE(prom.find("{quantile=\"0.99\"}"), std::string::npos);
  // Sanitization: no dotted names survive.
  EXPECT_EQ(prom.find("exec.rows_out"), std::string::npos);
}

TEST(ExporterTest, JsonlIsIncrementalAndParses) {
  Database::Config config = MetricsConfig();
  std::vector<std::string> batches;
  config.telemetry.jsonl_callback = [&](const std::string& text) {
    batches.push_back(text);
  };
  Database db(config);
  ASSERT_TRUE(LoadTinyTable(&db).ok());
  ASSERT_TRUE(db.Execute("SELECT COUNT(*) FROM t").ok());
  ASSERT_TRUE(db.exporter()->ExportOnce().ok());
  // Nothing ran since: the second export carries no records.
  ASSERT_TRUE(db.exporter()->ExportOnce().ok());
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_FALSE(batches[0].empty());
  EXPECT_TRUE(batches[1].empty());
  // Each line is one self-contained record with the phase breakdown.
  EXPECT_NE(batches[0].find("\"phases\": {\"queue\": "), std::string::npos);
  EXPECT_NE(batches[0].find("\"status\": \"OK\""), std::string::npos);
  EXPECT_NE(batches[0].find("\"operators\": ["), std::string::npos);
}

TEST(ExporterTest, JsonlOperatorsCarryExecModeAndBatches) {
  Database::Config config = MetricsConfig();
  std::string jsonl;
  config.telemetry.jsonl_callback = [&](const std::string& text) {
    jsonl += text;
  };
  Database db(config);
  ASSERT_TRUE(LoadTinyTable(&db).ok());
  const std::string sql = "SELECT SUM(b) FROM t";
  ASSERT_TRUE(db.Execute(sql).ok());
  // radb_operators shows the aggregate ran on the batch engine ...
  auto batch_ops = db.Execute(
      "SELECT COUNT(*) FROM radb_operators AS o, radb_queries AS q "
      "WHERE o.query_id = q.query_id AND q.sql = '" + sql +
      "' AND o.exec_mode = 'batch' AND o.batches > 0");
  ASSERT_TRUE(batch_ops.ok()) << batch_ops.status();
  ASSERT_GT(batch_ops->last().at(0, 0).int_value(), 0);
  // ... and the exporter's line for the same query says so too.
  ASSERT_TRUE(db.exporter()->ExportOnce().ok());
  std::string line;
  std::istringstream lines(jsonl);
  while (std::getline(lines, line)) {
    if (line.find("\"sql\": \"" + sql + "\"") != std::string::npos) break;
  }
  ASSERT_NE(line.find("\"sql\": \"" + sql + "\""), std::string::npos) << jsonl;
  EXPECT_NE(line.find("\"exec_mode\": \"batch\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"batches\": "), std::string::npos) << line;
}

TEST(ExporterTest, SamplerStartsAndStopsCleanly) {
  Database::Config config = MetricsConfig();
  std::atomic<int> exports{0};
  config.telemetry.prometheus_callback = [&](const std::string&) {
    exports.fetch_add(1);
  };
  config.telemetry.sampler_interval_ms = 1;
  {
    Database db(config);
    ASSERT_NE(db.exporter(), nullptr);
    EXPECT_TRUE(db.exporter()->sampler_running());
    while (exports.load() == 0) {
      std::this_thread::yield();
    }
  }  // ~Database joins the sampler; no further exports after return.
  const int after_shutdown = exports.load();
  EXPECT_GT(after_shutdown, 0);
}

// ----------------------------------------------------------------------
// Slow-query log.
// ----------------------------------------------------------------------

TEST(SlowQueryLogTest, ThresholdEmitsStructuredLine) {
  Database::Config config = MetricsConfig();
  std::vector<std::string> lines;
  config.telemetry.slow_query_micros = 1;  // everything is "slow"
  config.telemetry.slow_query_sink = [&](const std::string& line) {
    lines.push_back(line);
  };
  Database db(config);
  ASSERT_TRUE(LoadTinyTable(&db).ok());
  ASSERT_TRUE(db.Execute("SELECT SUM(b) FROM t").ok());
  ASSERT_GE(lines.size(), 2u);  // setup script + select
  const std::string& line = lines.back();
  EXPECT_NE(line.find("\"sql\": \"SELECT SUM(b) FROM t\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"total_micros\""), std::string::npos);
  EXPECT_NE(line.find("\"execute\""), std::string::npos);
  // The counter tracks emissions.
  auto rs = db.Execute(
      "SELECT value FROM radb_metrics WHERE name = 'obs.slow_queries'");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->last().num_rows(), 1u);
  EXPECT_GE(rs->last().at(0, 0).double_value(), 2.0);
}

TEST(SlowQueryLogTest, FastQueriesStayQuiet) {
  Database::Config config = MetricsConfig();
  std::vector<std::string> lines;
  config.telemetry.slow_query_micros = 60ULL * 1000 * 1000;  // one minute
  config.telemetry.slow_query_sink = [&](const std::string& line) {
    lines.push_back(line);
  };
  Database db(config);
  ASSERT_TRUE(LoadTinyTable(&db).ok());
  ASSERT_TRUE(db.Execute("SELECT COUNT(*) FROM t").ok());
  EXPECT_TRUE(lines.empty());
}

// ----------------------------------------------------------------------
// Fuzz-schema drift guard: every column the fuzzer's curated system
// table schemas promise must bind with the promised type kind.
// ----------------------------------------------------------------------

TEST(SystemTablesTest, FuzzSchemasMatchLiveTables) {
  Database db(MetricsConfig());
  ASSERT_TRUE(LoadTinyTable(&db).ok());
  ASSERT_TRUE(db.Execute("SELECT COUNT(*) FROM t").ok());
  for (const testing::TableSpec& spec : testing::SystemTableFuzzSchemas()) {
    for (const testing::ColumnSpec& col : spec.columns) {
      auto rs =
          db.Execute("SELECT " + col.name + " FROM " + spec.name);
      ASSERT_TRUE(rs.ok()) << spec.name << "." << col.name << ": "
                           << rs.status();
      ASSERT_EQ(rs->last().num_columns(), 1u);
      EXPECT_EQ(rs->last().columns[0].type.kind(), col.type.kind())
          << spec.name << "." << col.name;
    }
  }
}

}  // namespace
}  // namespace radb
