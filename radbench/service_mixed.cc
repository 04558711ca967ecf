// service_mixed: four closed-loop sessions share one in-memory Database
// with caches on. About 10% of operations are LA aggregates (Gram and
// linear regression over x_vm, VECTOR[64]), about 85% are short range
// reads on y whose ranges are Zipf-skewed, and about 5% INSERT fresh
// ids above every read range. The writes invalidate cached results
// without changing any read's answer, so every read and aggregate is
// checked bit for bit against a single-session oracle, and the final
// COUNT(*) of y against the seed rows plus the inserted rows.
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>

#include "bench.h"
#include "obs/telemetry.h"
#include "service/session.h"

namespace radbench {

using namespace radb;

namespace {

constexpr size_t kSessions = 4;

struct Sizes {
  size_t y_rows;       // seed rows of y; reads cover ids below this
  size_t x_rows;       // rows of x_vm
  size_t dim;          // VECTOR width of x_vm
  size_t ranges;       // distinct read ranges
  size_t range_width;  // ids per read range
  size_t ops;          // operations per session in a part
};

Sizes SizesFor(const RunArgs& args) {
  if (args.smoke) return {1024, 64, 8, 32, 16, 60};
  // 4 x 600 operations give about 2040 reads, 20 beyond a part's p99,
  // and about 120 writes.
  return {16384, 512, 64, 256, 64, 600};
}

/// Row counts the LA aggregates run over.
constexpr size_t kLaRowFractions[] = {1, 2, 3, 4};  // quarters of x_vm

enum class OpKind { kRead, kLa, kWrite };

/// The statements a session can issue, with their oracle fingerprints.
struct Statements {
  std::vector<std::string> reads;  // by Zipf rank
  std::vector<std::string> las;
  std::map<std::string, std::string> want;  // statement -> fingerprint
};

std::string ReadSql(size_t lo, size_t hi) {
  return "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM y WHERE id >= " +
         std::to_string(lo) + " AND id < " + std::to_string(hi);
}

Statements MakeStatements(const RunArgs& args, const Sizes& sz) {
  Statements c;
  // Zipf rank r reads a range at a seeded position, so the hot ranges
  // are spread over the table.
  std::vector<size_t> slots(sz.ranges);
  for (size_t i = 0; i < slots.size(); ++i) slots[i] = i;
  Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 21);
  for (size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.NextBelow(i)]);
  }
  const size_t stride = sz.y_rows / sz.ranges;
  for (size_t slot : slots) {
    c.reads.push_back(ReadSql(slot * stride, slot * stride + sz.range_width));
  }
  for (size_t q : kLaRowFractions) {
    const std::string where =
        " FROM x_vm WHERE id < " + std::to_string(sz.x_rows * q / 4);
    c.las.push_back("SELECT SUM(outer_product(x, x))" + where);
    c.las.push_back(
        "SELECT matrix_vector_multiply(matrix_inverse(SUM(outer_product(x, "
        "x))), SUM(x * t))" +
        where);
  }
  return c;
}

/// Creates and loads y and x_vm.
Status Load(const RunArgs& args, const Sizes& sz, Database* db) {
  RADB_RETURN_NOT_OK(
      db->Execute("CREATE TABLE y (id INTEGER, v DOUBLE); CREATE TABLE x_vm "
                  "(id INTEGER, x VECTOR[" +
                  std::to_string(sz.dim) + "], t DOUBLE)")
          .status());
  Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 22);
  std::vector<Row> y;
  for (size_t i = 0; i < sz.y_rows; ++i) {
    y.push_back({Value::Int(static_cast<int64_t>(i)),
                 Value::Double(0.25 * static_cast<double>(rng.NextBelow(64)))});
  }
  RADB_RETURN_NOT_OK(db->BulkInsert("y", std::move(y)));
  std::vector<Row> x;
  for (size_t i = 0; i < sz.x_rows; ++i) {
    std::vector<double> v(sz.dim);
    for (double& e : v) e = rng.Uniform(-1.0, 1.0);
    x.push_back({Value::Int(static_cast<int64_t>(i)),
                 Value::FromVector(la::Vector(std::move(v))),
                 Value::Double(rng.Uniform(-1.0, 1.0))});
  }
  return db->BulkInsert("x_vm", std::move(x));
}

/// Oracle fingerprints from a single session on its own database.
Status ComputeOracle(const RunArgs& args, const Sizes& sz, Statements* c) {
  Database oracle(BaseConfig(args, /*caches=*/false));
  RADB_RETURN_NOT_OK(Load(args, sz, &oracle));
  std::vector<std::string> all = c->reads;
  all.insert(all.end(), c->las.begin(), c->las.end());
  for (const std::string& sql : all) {
    RADB_ASSIGN_OR_RETURN(ScriptResult r, oracle.Execute(sql));
    if (!r.has_results()) return Status::ExecutionError("oracle: no result");
    c->want[sql] = ResultFingerprint(r.last());
  }
  return Status::OK();
}

/// Samples of one session, or of several added up.
struct SessionSamples {
  std::vector<double> read_s, la_s, write_s;
  Tally tally;

  void Add(const SessionSamples& o) {
    read_s.insert(read_s.end(), o.read_s.begin(), o.read_s.end());
    la_s.insert(la_s.end(), o.la_s.begin(), o.la_s.end());
    write_s.insert(write_s.end(), o.write_s.begin(), o.write_s.end());
    tally.Add(o.tally);
  }
};

struct Shared {
  const Statements* statements;
  const Zipf* zipf;
  std::atomic<int64_t> next_id;  // fresh ids, above every read range
  std::atomic<uint64_t> inserted;
};

/// One closed-loop client issuing `ops` operations.
void Client(service::Session* session, Shared* sh, uint64_t seed, size_t ops,
            SessionSamples* out) {
  Rng rng(seed);
  for (size_t i = 0; i < ops; ++i) {
    const double u = rng.NextDouble();
    const OpKind kind = u < 0.10   ? OpKind::kLa
                        : u < 0.95 ? OpKind::kRead
                                   : OpKind::kWrite;
    std::string sql;
    switch (kind) {
      case OpKind::kRead:
        sql = sh->statements->reads[sh->zipf->Next(rng)];
        break;
      case OpKind::kLa:
        sql = sh->statements->las[rng.NextBelow(sh->statements->las.size())];
        break;
      case OpKind::kWrite: {
        const int64_t id = sh->next_id.fetch_add(1);
        sql = "INSERT INTO y VALUES (" + std::to_string(id) + ", " +
              std::to_string(0.25 * static_cast<double>(id % 64)) + ")";
        break;
      }
    }
    const auto t0 = Clock::now();
    Result<ScriptResult> r = session->Execute(sql);
    const double s = SecondsSince(t0);
    bool ok = r.ok();
    if (kind == OpKind::kWrite) {
      out->write_s.push_back(s);
      if (ok) sh->inserted.fetch_add(1);
    } else {
      (kind == OpKind::kRead ? out->read_s : out->la_s).push_back(s);
      ok = ok && r->has_results() &&
           ResultFingerprint(r->last()) == sh->statements->want.at(sql);
    }
    out->tally.Record(ok);
    if (!ok) {
      std::fprintf(stderr, "service_mixed failed: %s: %s\n", sql.c_str(),
                   r.ok() ? "result differs from the oracle"
                          : r.status().ToString().c_str());
    }
  }
}

/// The loaded database, its statements and the write cursor.
struct State {
  std::unique_ptr<Database> db;
  Statements statements;
  Rng seeds{0};           // one seed per client per part, across set-ups
  int64_t next_id = 0;    // next fresh id for an INSERT
  uint64_t inserted = 0;  // rows inserted so far
};

struct PartResult {
  SessionSamples all;
  double wall_s = 0.0;
};

/// One part: four sessions of `ops` operations each on a fresh manager,
/// then the COUNT(*) of y against the seed rows plus every insert.
PartResult RunSessions(const Sizes& sz, State* p) {
  service::SessionManager manager(p->db.get());
  const Zipf zipf(sz.ranges, 1.1);
  Shared sh{&p->statements, &zipf, {p->next_id}, {0}};
  std::vector<std::unique_ptr<service::Session>> sessions;
  for (size_t i = 0; i < kSessions; ++i) sessions.push_back(manager.CreateSession());
  std::vector<SessionSamples> samples(kSessions);
  PartResult u;
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kSessions; ++i) {
    threads.emplace_back(Client, sessions[i].get(), &sh, p->seeds.NextUint64(),
                         sz.ops, &samples[i]);
  }
  for (std::thread& t : threads) t.join();
  u.wall_s = SecondsSince(t0);
  for (const SessionSamples& s : samples) u.all.Add(s);
  p->next_id = sh.next_id.load();
  p->inserted += sh.inserted.load();
  Result<ScriptResult> count = p->db->Execute("SELECT COUNT(*) FROM y");
  const bool ok = count.ok() && count->has_results() &&
                  count->last().num_rows() == 1 &&
                  Numeric(count->last().at(0, 0)) ==
                      static_cast<double>(sz.y_rows + p->inserted);
  u.all.tally.Record(ok);
  if (!ok) std::fprintf(stderr, "service_mixed: final COUNT(*) of y is wrong\n");
  return u;
}


class ServiceMixed : public Workload {
 public:
  explicit ServiceMixed(const RunArgs& args) : args(args), sz(SizesFor(args)) {
    p.seeds = Rng(args.seed * 0x9e3779b97f4a7c15ULL + 23);
  }

  bool SetUp() override {
    p.db.reset();
    const auto t0 = Clock::now();
    if (p.statements.reads.empty()) p.statements = MakeStatements(args, sz);
    p.db = std::make_unique<Database>(BaseConfig(args, /*caches=*/true));
    Status s = Load(args, sz, p.db.get());
    setups.push_back(SecondsSince(t0));
    // The oracle depends only on the seed: compute it once, untimed.
    if (s.ok() && p.statements.want.empty()) s = ComputeOracle(args, sz, &p.statements);
    if (!s.ok()) {
      std::fprintf(stderr, "service_mixed setup: %s\n", s.ToString().c_str());
      return false;
    }
    p.next_id = static_cast<int64_t>(sz.y_rows);
    p.inserted = 0;
    if (setups.size() == 1) {
      std::printf("service_mixed sizes: y %zu rows, x_vm %zu x VECTOR[%zu], "
                  "%zu read ranges of %zu ids, %zu sessions\n",
                  sz.y_rows, sz.x_rows, sz.dim, sz.ranges, sz.range_width,
                  kSessions);
    }
    return true;
  }

  double RunPart() override {
    const PartResult& u = parts.emplace_back(RunSessions(sz, &p));
    tally.Add(u.all.tally);
    return u.wall_s;
  }

  void Report(MetricMap* m) const override {
    std::vector<double> qps;
    PartSamples reads, writes;
    for (const PartResult& u : parts) {
      const double ops = static_cast<double>(
          u.all.read_s.size() + u.all.la_s.size() + u.all.write_s.size());
      qps.push_back(ops / u.wall_s);
      reads.push_back(u.all.read_s);
      writes.push_back(u.all.write_s);
    }
    PutPartRate(m, "qps", qps, "1/s");
    PutPartMedian(m, "read_p50_s", reads);
    PutPartTail(m, "read_p99_s", reads, 99.0);
    PutPartMedian(m, "write_p50_s", writes);
  }

  const RunArgs args;
  const Sizes sz;
  State p;
  std::vector<PartResult> parts;
};

}  // namespace

std::unique_ptr<Workload> MakeServiceMixed(const RunArgs& args) {
  return std::make_unique<ServiceMixed>(args);
}

WorkloadOutput TraceServiceMixed(const RunArgs& args, SpanLog* log,
                                 LayerTotals* totals) {
  WorkloadOutput out;
  ServiceMixed w(args);
  if (!w.SetUp()) {
    out.tally.Record(false);
    return out;
  }
  const Sizes& sz = w.sz;
  State& p = w.p;
  Database& db = *p.db;
  w.RunPart();  // warm-up, as before the untraced base part
  out.tally = w.tally;
  const auto warm = db.telemetry_store()->SnapshotQueries();
  const uint64_t warm_ordinal = warm.empty() ? 0 : warm.back().ordinal;
  const LayerSnapshot layers0 = LayerSnapshot::Of(db);
  PartResult u;
  {
    SpanLog::Scope span(log, "sessions", 0, log->NewRequest());
    u = RunSessions(sz, &p);
  }
  out.tally.Add(u.all.tally);
  out.work_seconds = u.wall_s;
  MetricMap& m = out.metrics;
  totals->Add(db, layers0, u.wall_s);

  // Service phases from the per-query records of the traced part's
  // sessions.
  std::vector<double> queue_us, latch_us;
  double execute_us = 0.0, total_us = 0.0;
  for (const obs::QueryRecord& r :
       db.telemetry_store()->SnapshotQueriesSince(warm_ordinal)) {
    if (r.session_id == 0) continue;
    queue_us.push_back(static_cast<double>(r.phases[obs::QueryPhase::kQueue]));
    latch_us.push_back(static_cast<double>(r.phases[obs::QueryPhase::kLatch]));
    execute_us += static_cast<double>(r.phases[obs::QueryPhase::kExecute]);
    total_us += static_cast<double>(r.total_micros);
  }
  PutMetric(&m, "service.queue_wait_us_p99",
            TailPercentile(queue_us, 99.0).value, "us");
  PutMetric(&m, "service.latch_wait_us_p99",
            TailPercentile(latch_us, 99.0).value, "us");
  PutMetric(&m, "service.execute_share",
            total_us > 0 ? execute_us / total_us : 0.0, "ratio");

  // Every LA statement and the hottest reads through the layers.
  std::vector<std::string> driven(p.statements.las);
  for (size_t i = 0; i < 32 && i < p.statements.reads.size(); ++i) {
    driven.push_back(p.statements.reads[i]);
  }
  for (const std::string& sql : driven) {
    DirectRun d = DriveDirect(db, sql, log);
    out.tally.Record(d.ok && d.matches);
    totals->exec.Add(d.metrics);
  }
  return out;
}

}  // namespace radbench
