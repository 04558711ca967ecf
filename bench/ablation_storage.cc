// Ablation: the persistent store (pager + buffer pool + B+ tree
// indexes) behind Database::Open. A standalone driver (no
// Google-benchmark harness, like ablation_cache). One tiles table of
// >= 1M rows is loaded into a persistent database (bulk inserts, then
// a checkpoint, each timed) and an in-memory oracle, then four phases:
//
//   full_scan — K point/slice lookups on the persistent database
//               with NO index: every probe is a full scan.
//   indexed   — CREATE INDEX tile_idx ON tiles (tr, tc) (timed on its
//               own), replay the same probes. Every result is
//               fingerprint-checked bit-for-bit against the oracle;
//               the full run FAILS unless the indexed phase is >= 5x
//               faster (the acceptance gate).
//   reopen    — Close() then Open() the same directory. The store
//               must come back from checkpointed page files with
//               ZERO replayed WAL statements (no re-ingest), index
//               intact and still chosen by the optimizer.
//   small_pool— the reopened database gets a buffer pool far smaller
//               than the table, so scans stream segments through it
//               (evictions must be > 0). Aggregate scans and indexed
//               probes are fingerprint-checked against the all-in-RAM
//               oracle: larger-than-memory must be bit-identical.
//
// Emits BENCH_storage.json with per-phase wall/qps, the lookup
// speedup, the load's insert, checkpoint and index-build seconds,
// reopen cost, and buffer-pool counters.
//
// Usage:
//   ablation_storage [--quick] [--rows N] [--lookups K]
//
// --quick shrinks the table and probe counts (the ctest `storage`
// smoke configuration); it keeps every correctness assertion but
// skips the 5x speedup gate, which is meaningless at toy sizes.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "storage/serialize.h"

namespace {

using namespace radb;

constexpr uint64_t kSeed = 20170419;  // ICDE 2017

struct Args {
  size_t rows = 1'000'000;
  size_t lookups = 32;  // probes per lookup phase
  bool quick = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
      args.rows = 20'000;
      args.lookups = 8;
    } else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      args.rows = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--lookups") == 0 && i + 1 < argc) {
      args.lookups = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--rows N] [--lookups K]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (args.rows == 0) args.rows = 1;
  if (args.lookups == 0) args.lookups = 1;
  return args;
}

/// Tile grid: row i lands at (tr, tc) = (i / kGridCols, i % kGridCols).
/// Values live on a 0.25 grid so parallel SUMs are exact in binary
/// floating point — aggregation order cannot matter, which is what
/// lets "bit-identical" hold across partitioned scans.
constexpr int64_t kGridCols = 1000;

double TileValue(size_t i) { return 0.25 * static_cast<double>(i % 16); }

Status LoadTiles(Database* db, size_t n) {
  RADB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE tiles (tr INTEGER, tc INTEGER, val DOUBLE)")
          .status());
  // Chunked bulk loads keep the staging vector small at 1M+ rows.
  constexpr size_t kChunk = 100'000;
  std::vector<Row> rows;
  rows.reserve(std::min(n, kChunk));
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i) / kGridCols),
                    Value::Int(static_cast<int64_t>(i) % kGridCols),
                    Value::Double(TileValue(i))});
    if (rows.size() == kChunk) {
      RADB_RETURN_NOT_OK(db->BulkInsert("tiles", std::move(rows)));
      rows.clear();
    }
  }
  if (!rows.empty()) RADB_RETURN_NOT_OK(db->BulkInsert("tiles", std::move(rows)));
  return Status::OK();
}

/// The probe pool: point lookups and row slices on (tr, tc), plus a
/// banded aggregate. Every query either returns one row or carries an
/// ORDER BY, so fingerprints are order-stable across engines.
std::vector<std::string> LookupQueries(const Args& args) {
  const int64_t max_tr =
      static_cast<int64_t>(args.rows - 1) / kGridCols;
  std::vector<std::string> queries;
  Rng rng(kSeed ^ 0xa5a5a5a5ULL);
  for (size_t i = 0; i < args.lookups; ++i) {
    const int64_t tr = static_cast<int64_t>(rng.NextBelow(
        static_cast<uint64_t>(max_tr + 1)));
    const int64_t tc = static_cast<int64_t>(rng.NextBelow(kGridCols));
    switch (i % 3) {
      case 0:  // point lookup
        queries.push_back("SELECT tr, tc, val FROM tiles WHERE tr = " +
                          std::to_string(tr) + " AND tc = " +
                          std::to_string(tc));
        break;
      case 1:  // row slice, bounded
        queries.push_back("SELECT tc, val FROM tiles WHERE tr = " +
                          std::to_string(tr) + " AND tc >= " +
                          std::to_string(tc / 2) + " AND tc <= " +
                          std::to_string(tc / 2 + 16) + " ORDER BY tc");
        break;
      default:  // banded aggregate over one tile row
        queries.push_back("SELECT COUNT(*), SUM(val) FROM tiles WHERE tr = " +
                          std::to_string(tr));
        break;
    }
  }
  return queries;
}

/// Whole-table aggregates for the small-pool streaming phase: each
/// one walks every segment, so a 1M-row table grinds through the
/// tiny buffer pool end to end.
std::vector<std::string> ScanQueries(const Args& args) {
  const int64_t max_tr =
      static_cast<int64_t>(args.rows - 1) / kGridCols;
  return {
      "SELECT COUNT(*), SUM(val) FROM tiles",
      "SELECT COUNT(*), SUM(val) FROM tiles WHERE tc < " +
          std::to_string(kGridCols / 2),
      "SELECT COUNT(*) FROM tiles WHERE val > 1.0",
      "SELECT COUNT(*), SUM(val) FROM tiles WHERE tr >= " +
          std::to_string(max_tr / 2),
  };
}

/// Column metadata + row bytes (same contract as ablation_cache):
/// "bit-identical" covers schema as well as cell payloads.
std::string Fingerprint(const ResultSet& rs) {
  std::ostringstream os(std::ios::binary);
  for (const SlotInfo& c : rs.columns) {
    os << c.name << '\0' << c.type.ToString() << '\0';
  }
  for (const Row& row : rs.rows) WriteRowBinary(os, row);
  return os.str();
}

Database::Config MakeConfig() {
  Database::Config config;
  config.num_workers = 8;
  config.num_threads = 0;
  config.obs.enable_metrics = true;
  return config;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PhaseStats {
  std::string phase;
  size_t queries = 0;
  size_t mismatches = 0;
  size_t errors = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
};

void PrintPhase(const PhaseStats& p) {
  std::printf("%-10s queries=%-4zu wall=%8.3fs  qps=%10.1f  mismatches=%zu "
              "errors=%zu\n",
              p.phase.c_str(), p.queries, p.wall_seconds, p.qps, p.mismatches,
              p.errors);
}

/// Replays `queries`, fingerprint-checking each against `want`.
PhaseStats RunPhase(const std::string& name, Database* db,
                    const std::vector<std::string>& queries,
                    const std::vector<std::string>& want) {
  PhaseStats p;
  p.phase = name;
  const double start = NowSeconds();
  for (size_t i = 0; i < queries.size(); ++i) {
    auto rs = db->Execute(queries[i]);
    ++p.queries;
    if (!rs.ok() || !rs->has_results()) {
      ++p.errors;
      if (!rs.ok()) {
        std::fprintf(stderr, "[%s] %s\n", name.c_str(),
                     rs.status().ToString().c_str());
      }
    } else if (Fingerprint(rs->last()) != want[i]) {
      ++p.mismatches;
      std::fprintf(stderr, "[%s] result diverged from oracle: %s\n",
                   name.c_str(), queries[i].c_str());
    }
  }
  p.wall_seconds = NowSeconds() - start;
  p.qps = p.wall_seconds > 0.0
              ? static_cast<double>(p.queries) / p.wall_seconds
              : 0.0;
  PrintPhase(p);
  return p;
}

/// Oracle answers from the all-in-RAM database.
std::vector<std::string> OracleFingerprints(
    Database* db, const std::vector<std::string>& queries, size_t* errors) {
  std::vector<std::string> want;
  for (const std::string& q : queries) {
    auto rs = db->Execute(q);
    if (!rs.ok() || !rs->has_results()) {
      ++*errors;
      want.push_back("");
      std::fprintf(stderr, "oracle query failed: %s\n", q.c_str());
    } else {
      want.push_back(Fingerprint(rs->last()));
    }
  }
  return want;
}

/// EXPLAIN must name the index — a silent fallback to full scans
/// would still pass the fingerprint checks, so plan shape is asserted
/// separately.
bool PlanUsesIndex(Database* db, const std::string& query) {
  auto rs = db->Execute("EXPLAIN " + query);
  if (!rs.ok() || !rs->has_results()) return false;
  for (const Row& row : rs->last().rows) {
    for (const Value& v : row) {
      if (v.ToString().find("tile_idx") != std::string::npos) return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::vector<std::string> lookups = LookupQueries(args);
  const std::vector<std::string> scans = ScanQueries(args);

  namespace fs = std::filesystem;
  char tmpl[] = "/tmp/radb_bench_storage_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const std::string dir = tmpl;

  size_t mismatches = 0, errors = 0;
  std::vector<PhaseStats> entries;

  // The all-in-RAM oracle: same data, no index, no store.
  auto oracle = Database::InMemory(MakeConfig());
  if (!oracle.ok()) {
    std::fprintf(stderr, "oracle open failed: %s\n",
                 oracle.status().ToString().c_str());
    return 1;
  }
  if (Status s = LoadTiles(oracle->get(), args.rows); !s.ok()) {
    std::fprintf(stderr, "oracle load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::vector<std::string> want_lookups =
      OracleFingerprints(oracle->get(), lookups, &errors);
  const std::vector<std::string> want_scans =
      OracleFingerprints(oracle->get(), scans, &errors);

  // Persistent database, comfortable buffer pool: load + checkpoint.
  auto db = Database::Open(dir, MakeConfig());
  if (!db.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    return 1;
  }
  const double load_start = NowSeconds();
  if (Status s = LoadTiles(db->get(), args.rows); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const double checkpoint_start = NowSeconds();
  const double insert_seconds = checkpoint_start - load_start;
  if (Status s = (*db)->Checkpoint(); !s.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const double checkpoint_seconds = NowSeconds() - checkpoint_start;
  const double load_seconds = insert_seconds + checkpoint_seconds;
  std::printf("loaded %zu rows into %s in %.3fs (bulk insert %.3fs, "
              "checkpoint %.3fs)\n",
              args.rows, dir.c_str(), load_seconds, insert_seconds,
              checkpoint_seconds);

  // full_scan: every probe walks the whole table.
  entries.push_back(RunPhase("full_scan", db->get(), lookups, want_lookups));

  // indexed: same probes through the B+ tree.
  const double index_start = NowSeconds();
  if (auto rs = (*db)->Execute("CREATE INDEX tile_idx ON tiles (tr, tc)");
      !rs.ok()) {
    std::fprintf(stderr, "CREATE INDEX failed: %s\n",
                 rs.status().ToString().c_str());
    return 1;
  }
  const double index_seconds = NowSeconds() - index_start;
  std::printf("CREATE INDEX tile_idx in %.3fs\n", index_seconds);
  if (!PlanUsesIndex(db->get(), lookups[0])) {
    std::fprintf(stderr, "FAIL: EXPLAIN does not mention tile_idx after "
                         "CREATE INDEX — optimizer never picked the index\n");
    return 1;
  }
  entries.push_back(RunPhase("indexed", db->get(), lookups, want_lookups));
  const double speedup =
      entries[1].wall_seconds > 0.0
          ? entries[0].wall_seconds / entries[1].wall_seconds
          : 0.0;

  // reopen: close, then come back from page files alone — zero WAL
  // replay means zero re-ingest.
  if (Status s = (*db)->Close(); !s.ok()) {
    std::fprintf(stderr, "close failed: %s\n", s.ToString().c_str());
    return 1;
  }
  db->reset();
  Database::Config small = MakeConfig();
  // A pool a fraction of the table's footprint: scans must stream.
  small.storage.buffer_pool_bytes = args.quick ? (64u << 10) : (1u << 20);
  small.storage.segment_bytes = 16u << 10;
  const double reopen_start = NowSeconds();
  auto reopened = Database::Open(dir, small);
  const double reopen_seconds = NowSeconds() - reopen_start;
  if (!reopened.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  const storage::TableStore::Stats recovery =
      (*reopened)->table_store()->GetStats();
  PhaseStats reopen;
  reopen.phase = "reopen";
  reopen.queries = 0;
  reopen.wall_seconds = reopen_seconds;
  PrintPhase(reopen);
  std::printf("reopen: replayed_statements=%llu recovered=%s pool=%zuB\n",
              static_cast<unsigned long long>(recovery.replayed_statements),
              recovery.recovered ? "true" : "false",
              small.storage.buffer_pool_bytes);
  entries.push_back(reopen);
  if (!PlanUsesIndex(reopened->get(), lookups[0])) {
    std::fprintf(stderr,
                 "FAIL: tile_idx not chosen by the optimizer after reopen\n");
    return 1;
  }

  // small_pool: whole-table aggregates + indexed probes streaming
  // through a pool far smaller than the table.
  PhaseStats pool_scans =
      RunPhase("small_pool", reopened->get(), scans, want_scans);
  PhaseStats pool_lookups =
      RunPhase("pool_probe", reopened->get(), lookups, want_lookups);
  const storage::BufferPool::Stats pool =
      (*reopened)->table_store()->pool()->GetStats();
  std::printf("buffer pool: budget=%zuB cached=%zuB entries=%zu hits=%llu "
              "misses=%llu evictions=%llu\n",
              pool.budget_bytes, pool.cached_bytes, pool.entries,
              static_cast<unsigned long long>(pool.hits),
              static_cast<unsigned long long>(pool.misses),
              static_cast<unsigned long long>(pool.evictions));
  entries.push_back(pool_scans);
  entries.push_back(pool_lookups);

  (void)(*reopened)->Close();
  reopened->reset();
  std::error_code ec;
  fs::remove_all(dir, ec);

  for (const PhaseStats& p : entries) {
    mismatches += p.mismatches;
    errors += p.errors;
  }

  std::vector<std::string> json;
  for (const PhaseStats& p : entries) {
    json.push_back(bench::JsonFields()
                       .Str("phase", p.phase)
                       .Int("queries", p.queries)
                       .Num("wall_seconds", p.wall_seconds)
                       .Num("qps", p.qps)
                       .Int("mismatches", p.mismatches)
                       .Int("errors", p.errors)
                       .ToString());
  }
  bench::WriteBenchJson(
      "storage",
      bench::JsonFields()
          .Int("rows", args.rows)
          .Int("lookups", args.lookups)
          .Num("load_seconds", load_seconds)
          .Num("insert_seconds", insert_seconds)
          .Num("checkpoint_seconds", checkpoint_seconds)
          .Num("index_seconds", index_seconds)
          .Num("lookup_speedup", speedup)
          .Num("reopen_seconds", reopen_seconds)
          .Int("replayed_statements", recovery.replayed_statements)
          .Int("pool_budget_bytes", small.storage.buffer_pool_bytes)
          .Int("pool_evictions", pool.evictions)
          .Int("mismatches", mismatches)
          .Int("errors", errors),
      json);

  std::printf("indexed lookup speedup over full scan: %.2fx\n", speedup);
  if (mismatches + errors > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu mismatched / %zu errored results — persistent "
                 "execution diverged from the in-RAM oracle\n",
                 mismatches, errors);
    return 1;
  }
  if (recovery.replayed_statements != 0) {
    std::fprintf(stderr,
                 "FAIL: reopen replayed %llu WAL statements — a clean close "
                 "must come back from page files with zero re-ingest\n",
                 static_cast<unsigned long long>(
                     recovery.replayed_statements));
    return 1;
  }
  if (pool.evictions == 0) {
    std::fprintf(stderr, "FAIL: zero buffer-pool evictions — the workload "
                         "never outgrew the pool, so the larger-than-RAM "
                         "claim was not exercised\n");
    return 1;
  }
  if (!args.quick && speedup < 5.0) {
    std::fprintf(stderr, "FAIL: indexed speedup %.2fx < 5x acceptance "
                         "threshold\n",
                 speedup);
    return 1;
  }
  std::printf("all results bit-identical across full scans, index scans, "
              "restart, and larger-than-pool streaming\n");
  return 0;
}
