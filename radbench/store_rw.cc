// store_rw: one client on a persistent Database::Open store in the work
// directory, holding a 1M-row tiles(tr, tc, val) table indexed on
// (tr, tc). The buffer pool is far below the table's on-disk size. A
// part is SQL INSERT ingest with wal_fsync on, Zipf-skewed indexed
// probes whose hot set fits the pool, and a full-table GROUP BY under a
// per-query memory budget that makes the aggregate spill. Every answer
// is checked against an all-in-RAM oracle that includes the ingested
// rows.
#include <cstdio>
#include <filesystem>
#include <map>

#include "bench.h"
#include "storage/buffer_pool.h"
#include "storage/table_store.h"

namespace radbench {

using namespace radb;

namespace {

constexpr int64_t kGridCols = 1000;
/// Bytes of one ingested row as the user sees it: two INTEGERs and a
/// DOUBLE.
constexpr double kUserBytesPerRow = 24.0;

struct Sizes {
  size_t rows;             // base table rows
  size_t pool_bytes;       // buffer_pool_bytes
  size_t scan_budget;      // per-query budget of the GROUP BY scan
  size_t probes;           // indexed probes per part
  size_t inserts;          // INSERT statements per part
  size_t rows_per_insert;  // rows per INSERT statement
  size_t scans;            // GROUP BY scans per part
};

Sizes SizesFor(const RunArgs& args) {
  if (args.smoke) return {20'000, 64u << 10, 256u << 10, 200, 2, 16, 1};
  // 1000 probes leave 10 beyond a part's p99.
  return {1'000'000, 4u << 20, 8u << 20, 1000, 64, 64, 2};
}

/// The oracle: every row's value and per-tr COUNT and SUM. Values sit on
/// a 0.25 grid, so every SUM is exact in any order.
struct Oracle {
  std::vector<uint8_t> base;  // row i holds val 0.25 * base[i]
  std::map<int64_t, std::pair<int64_t, double>> groups;
  size_t ingested = 0;
  Rng ingest_rng{0};

  double BaseVal(int64_t tr, int64_t tc) const {
    return 0.25 * base[static_cast<size_t>(tr * kGridCols + tc)];
  }
  void AddRow(int64_t tr, double val) {
    auto& g = groups[tr];
    g.first += 1;
    g.second += val;
  }
};

/// A loaded store and its oracle.
struct Store {
  std::unique_ptr<Database> db;
  std::string dir;
  Oracle oracle;
  uint64_t table_bytes = 0;  // on-disk bytes after the load's checkpoint
};

Database::Config StoreConfig(const RunArgs& args, const Sizes& sz) {
  Database::Config c = BaseConfig(args, /*caches=*/false);
  c.storage.buffer_pool_bytes = sz.pool_bytes;
  c.storage.wal_fsync = true;
  return c;
}

/// Generates the rows, opens a fresh store and bulk loads, indexes and
/// checkpoints it.
Status Setup(const RunArgs& args, const Sizes& sz, Store* st) {
  st->db.reset();
  st->oracle = Oracle{};
  Oracle& o = st->oracle;
  Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 11);
  o.ingest_rng = Rng(args.seed * 0x9e3779b97f4a7c15ULL + 12);
  o.base.resize(sz.rows);
  for (size_t i = 0; i < sz.rows; ++i) {
    o.base[i] = static_cast<uint8_t>(rng.NextBelow(16));
    o.AddRow(static_cast<int64_t>(i) / kGridCols, 0.25 * o.base[i]);
  }
  st->dir = args.work_dir + "/store_rw";
  std::error_code ec;
  std::filesystem::remove_all(st->dir, ec);
  RADB_ASSIGN_OR_RETURN(st->db, Database::Open(st->dir, StoreConfig(args, sz)));
  Database& db = *st->db;
  RADB_RETURN_NOT_OK(
      db.Execute("CREATE TABLE tiles (tr INTEGER, tc INTEGER, val DOUBLE)")
          .status());
  constexpr size_t kChunk = 100'000;
  std::vector<Row> rows;
  for (size_t i = 0; i < sz.rows; ++i) {
    const int64_t id = static_cast<int64_t>(i);
    rows.push_back({Value::Int(id / kGridCols), Value::Int(id % kGridCols),
                    Value::Double(0.25 * o.base[i])});
    if (rows.size() == kChunk || i + 1 == sz.rows) {
      RADB_RETURN_NOT_OK(db.BulkInsert("tiles", std::move(rows)));
      rows.clear();
    }
  }
  RADB_RETURN_NOT_OK(
      db.Execute("CREATE INDEX tile_idx ON tiles (tr, tc)").status());
  RADB_RETURN_NOT_OK(db.Checkpoint());
  st->table_bytes = DirectoryBytes(st->dir);
  return Status::OK();
}

/// Per-operation samples of one part.
struct Samples {
  std::vector<double> insert_s;  // per INSERT statement
  std::vector<double> probe_s;
  std::vector<double> scan_s;
  size_t scan_spill_bytes = 0;
  size_t scan_peak_bytes = 0;
};

const char kScanSql[] =
    "SELECT tr, COUNT(*), SUM(val) FROM tiles GROUP BY tr ORDER BY tr";

std::string ProbeSql(int64_t tr, int64_t tc) {
  return "SELECT val FROM tiles WHERE tr = " + std::to_string(tr) +
         " AND tc = " + std::to_string(tc);
}

bool ScanMatches(const ResultSet& rs, const Oracle& o) {
  if (rs.num_rows() != o.groups.size() || rs.num_columns() != 3) return false;
  size_t i = 0;
  for (const auto& [tr, g] : o.groups) {
    const Row& row = rs.rows[i++];
    if (Numeric(row[0]) != static_cast<double>(tr) ||
        Numeric(row[1]) != static_cast<double>(g.first) ||
        Numeric(row[2]) != g.second) {
      return false;
    }
  }
  return true;
}

/// One part: ingest, probes and sz.scans scans. `log`, when set, wraps
/// each operation in a span.
void Part(Store& st, const Sizes& sz, Rng& rng, const Zipf& zipf,
          Tally* tally, Samples* smp, SpanLog* log) {
  Database& db = *st.db;
  Oracle& o = st.oracle;
  auto span = [&](const char* name) {
    return log == nullptr
               ? std::unique_ptr<SpanLog::Scope>()
               : std::make_unique<SpanLog::Scope>(log, name, 0,
                                                  log->NewRequest());
  };
  const int64_t base_trs = static_cast<int64_t>(sz.rows) / kGridCols;

  for (size_t s = 0; s < sz.inserts; ++s) {
    std::string sql = "INSERT INTO tiles VALUES ";
    std::vector<std::pair<int64_t, double>> added;
    for (size_t r = 0; r < sz.rows_per_insert; ++r) {
      const int64_t k = static_cast<int64_t>(o.ingested + r);
      const int64_t tr = base_trs + k / kGridCols;
      const double val = 0.25 * static_cast<double>(o.ingest_rng.NextBelow(16));
      sql += (r ? ", (" : "(") + std::to_string(tr) + ", " +
             std::to_string(k % kGridCols) + ", " + std::to_string(val) + ")";
      added.emplace_back(tr, val);
    }
    const auto t0 = Clock::now();
    Result<ScriptResult> res = Status::ExecutionError("not run");
    {
      auto sp = span("insert");
      res = db.Execute(sql);
    }
    smp->insert_s.push_back(SecondsSince(t0));
    tally->Record(res.ok());
    if (!res.ok()) {
      std::fprintf(stderr, "store_rw insert: %s\n",
                   res.status().ToString().c_str());
      continue;
    }
    o.ingested += added.size();
    for (const auto& [tr, val] : added) o.AddRow(tr, val);
  }

  for (size_t p = 0; p < sz.probes; ++p) {
    const int64_t tr = static_cast<int64_t>(zipf.Next(rng));
    const int64_t tc = static_cast<int64_t>(rng.NextBelow(kGridCols));
    const std::string sql = ProbeSql(tr, tc);
    const auto t0 = Clock::now();
    Result<ScriptResult> res = Status::ExecutionError("not run");
    {
      auto sp = span("probe");
      res = db.Execute(sql);
    }
    smp->probe_s.push_back(SecondsSince(t0));
    const bool ok = res.ok() && res->has_results() &&
                    res->last().num_rows() == 1 &&
                    Numeric(res->last().at(0, 0)) == o.BaseVal(tr, tc);
    tally->Record(ok);
    if (!ok) std::fprintf(stderr, "store_rw probe failed: %s\n", sql.c_str());
  }

  QueryOptions scan_opts;
  scan_opts.memory_budget_bytes = sz.scan_budget;
  for (size_t s = 0; s < sz.scans; ++s) {
    const auto t0 = Clock::now();
    Result<ScriptResult> res = Status::ExecutionError("not run");
    {
      auto sp = span("scan");
      res = db.Execute(kScanSql, scan_opts);
    }
    smp->scan_s.push_back(SecondsSince(t0));
    const bool ok = res.ok() && res->has_results() && ScanMatches(res->last(), o);
    tally->Record(ok);
    if (!ok) {
      std::fprintf(stderr, "store_rw scan failed: %s\n",
                   res.ok() ? "wrong answer" : res.status().ToString().c_str());
    } else if (!res->statements.empty()) {
      smp->scan_spill_bytes = res->statements.back().spill_bytes;
      smp->scan_peak_bytes = res->statements.back().peak_memory_bytes;
    }
  }
}

void Cleanup(Store* st) {
  if (st->db != nullptr) (void)st->db->Close();
  st->db.reset();
  std::error_code ec;
  std::filesystem::remove_all(st->dir, ec);
}

class StoreRw : public Workload {
 public:
  explicit StoreRw(const RunArgs& args)
      : args(args),
        sz(SizesFor(args)),
        rng(args.seed * 0x9e3779b97f4a7c15ULL + 13),
        zipf(sz.rows / kGridCols, 1.1) {}
  ~StoreRw() override { Cleanup(&st); }

  bool SetUp() override {
    const auto t0 = Clock::now();
    const Status s = Setup(args, sz, &st);
    setups.push_back(SecondsSince(t0));
    if (!s.ok()) {
      std::fprintf(stderr, "store_rw setup: %s\n", s.ToString().c_str());
      return false;
    }
    if (setups.size() == 1) {
      std::printf(
          "store_rw sizes: %zu rows, %llu bytes on disk, buffer pool %zu "
          "bytes, scan budget %zu bytes; set-up %.2f s\n",
          sz.rows, static_cast<unsigned long long>(st.table_bytes),
          sz.pool_bytes, sz.scan_budget, setups.back());
    }
    return true;
  }

  double RunPart() override {
    const auto t0 = Clock::now();
    Part(st, sz, rng, zipf, &tally, &parts.emplace_back(), nullptr);
    return SecondsSince(t0);
  }

  void Report(MetricMap* m) const override {
    std::vector<double> ingest;
    PartSamples probe, scan;
    for (const Samples& p : parts) {
      ingest.push_back(static_cast<double>(sz.rows_per_insert) /
                       Median(p.insert_s));
      probe.push_back(p.probe_s);
      scan.push_back(p.scan_s);
    }
    PutPartRate(m, "ingest_rows_per_s", ingest, "rows/s");
    PutPartMedian(m, "probe_p50_s", probe);
    PutPartTail(m, "probe_p99_s", probe, 99.0);
    PutPartMedian(m, "scan_s", scan);
  }

  const RunArgs args;
  const Sizes sz;
  Rng rng;  // the probe stream
  const Zipf zipf;
  Store st;
  std::vector<Samples> parts;
};

}  // namespace

std::unique_ptr<Workload> MakeStoreRw(const RunArgs& args) {
  return std::make_unique<StoreRw>(args);
}

WorkloadOutput TraceStoreRw(const RunArgs& args, SpanLog* log,
                            LayerTotals* totals) {
  WorkloadOutput out;
  StoreRw w(args);
  if (!w.SetUp()) {
    out.tally.Record(false);
    return out;
  }
  const Sizes& sz = w.sz;
  Store& st = w.st;
  w.RunPart();  // warm-up, as before the untraced base part
  out.tally.Add(w.tally);
  Samples smp;
  const storage::BufferPool::Stats pool0 = st.db->table_store()->pool()->GetStats();
  const uint64_t wal0 = st.db->table_store()->GetStats().wal_bytes;
  const LayerSnapshot layers0 = LayerSnapshot::Of(*st.db);
  const auto t0 = Clock::now();
  Part(st, sz, w.rng, w.zipf, &out.tally, &smp, log);
  out.work_seconds = SecondsSince(t0);
  const storage::BufferPool::Stats pool1 = st.db->table_store()->pool()->GetStats();
  const uint64_t wal1 = st.db->table_store()->GetStats().wal_bytes;
  MetricMap& m = out.metrics;

  totals->Add(*st.db, layers0, out.work_seconds);
  const Ratio hits{pool1.hits - pool0.hits,
                   (pool1.hits - pool0.hits) + (pool1.misses - pool0.misses)};
  PutMetric(&m, "bufferpool.hit_ratio", hits.value(), "ratio");
  PutMetric(&m, "bufferpool.lookups", static_cast<double>(hits.base), "count");
  PutMetric(&m, "bufferpool.evictions",
            static_cast<double>(pool1.evictions - pool0.evictions), "count");
  const double ingested_user_bytes =
      kUserBytesPerRow * static_cast<double>(sz.inserts * sz.rows_per_insert);
  PutMetric(&m, "storage.wal_bytes_per_user_byte",
            wal1 > wal0 ? static_cast<double>(wal1 - wal0) / ingested_user_bytes
                        : 0.0,
            "ratio");
  PutMetric(&m, "mem.spill_bytes", static_cast<double>(smp.scan_spill_bytes),
            "bytes");
  PutMetric(&m, "mem.peak_bytes", static_cast<double>(smp.scan_peak_bytes),
            "bytes");

  // The scan's operators, then the scan and one probe driven through the
  // layers directly.
  totals->exec.Add(st.db->last_metrics());
  DirectRun scan = DriveDirect(*st.db, kScanSql, log);
  DirectRun probe = DriveDirect(*st.db, ProbeSql(0, 0), log);
  out.tally.Record(scan.ok && scan.matches);
  out.tally.Record(probe.ok && probe.matches);

  // Checkpoint, then close and reopen from the page files.
  auto c0 = Clock::now();
  const Status cp = st.db->Checkpoint();
  PutMetric(&m, "storage.checkpoint_s", SecondsSince(c0), "s");
  out.tally.Record(cp.ok());
  const double all_rows = static_cast<double>(sz.rows + st.oracle.ingested);
  PutMetric(&m, "storage.disk_bytes_per_user_byte",
            static_cast<double>(DirectoryBytes(st.dir)) /
                (kUserBytesPerRow * all_rows),
            "ratio");
  c0 = Clock::now();
  const Status closed = st.db->Close();
  st.db.reset();
  auto reopened = Database::Open(st.dir, StoreConfig(args, sz));
  PutMetric(&m, "storage.reopen_s", SecondsSince(c0), "s");
  out.tally.Record(closed.ok() && reopened.ok());
  if (reopened.ok()) {
    st.db = std::move(*reopened);
    Tally after;
    Samples again;
    Part(st, sz, w.rng, w.zipf, &after, &again, nullptr);
    out.tally.Add(after);
  }
  return out;
}

}  // namespace radbench
