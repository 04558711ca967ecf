#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utime.h>

#include "common/string_util.h"
#include "mem/spill_file.h"
#include "la/matrix.h"
#include "la/sparse/sparse.h"
#include "la/vector.h"
#include "mem/memory_tracker.h"
#include "storage/serialize.h"
#include "storage/spill.h"
#include "types/value.h"

namespace radb {
namespace {

// ----------------------------------------------------------------------
// Byte sizing: the tracker's accounting is only as good as
// Value::ByteSize(), which must be EXACTLY the radb binary
// serialization size — including MATRIX/VECTOR element payloads.
// ----------------------------------------------------------------------

size_t SerializedSize(const Value& v) {
  std::ostringstream os(std::ios::binary);
  WriteValueBinary(os, v);
  return os.str().size();
}

TEST(ByteSizeTest, PinnedScalarSizes) {
  EXPECT_EQ(Value::Null().ByteSize(), 1u);
  EXPECT_EQ(Value::Bool(true).ByteSize(), 2u);
  EXPECT_EQ(Value::Int(42).ByteSize(), 9u);
  EXPECT_EQ(Value::Double(3.5).ByteSize(), 9u);
  EXPECT_EQ(Value::String("").ByteSize(), 9u);
  EXPECT_EQ(Value::String("hello").ByteSize(), 14u);
  EXPECT_EQ(Value::Labeled(1.0, 7).ByteSize(), 17u);
}

TEST(ByteSizeTest, PinnedLaSizes) {
  // tag + label + size + 8 bytes per element.
  EXPECT_EQ(Value::FromVector(la::Vector(100)).ByteSize(), 17u + 800u);
  // tag + rows + cols + 8 bytes per element — element data, not
  // sizeof(Value).
  EXPECT_EQ(Value::FromMatrix(la::Matrix(20, 30)).ByteSize(),
            17u + 8u * 20 * 30);
}

TEST(ByteSizeTest, MatchesSerializer) {
  const std::vector<Value> values = {
      Value::Null(),
      Value::Bool(false),
      Value::Int(-1),
      Value::Double(2.75),
      Value::String("abcdefg"),
      Value::Labeled(0.5, 3),
      Value::FromVector(la::Vector(17)),
      Value::FromMatrix(la::Matrix(5, 9)),
  };
  for (const Value& v : values) {
    EXPECT_EQ(v.ByteSize(), SerializedSize(v)) << v.ToString();
  }
  Row row = {Value::Int(1), Value::FromVector(la::Vector(8))};
  // Row charge excludes the arity prefix on purpose: it counts the
  // payload the engine keeps in memory.
  EXPECT_EQ(RowByteSize(row), row[0].ByteSize() + row[1].ByteSize());
}

TEST(ByteSizeTest, ParseByteSizeUnits) {
  EXPECT_EQ(ParseByteSize("1024"), 1024u);
  EXPECT_EQ(ParseByteSize("16MB"), size_t{16} << 20);
  EXPECT_EQ(ParseByteSize("16MiB"), size_t{16} << 20);
  EXPECT_EQ(ParseByteSize(" 64 kb "), size_t{64} << 10);
  EXPECT_EQ(ParseByteSize("2g"), size_t{2} << 30);
  EXPECT_EQ(ParseByteSize("1.5k"), 1536u);
  EXPECT_EQ(ParseByteSize("garbage"), 0u);
  EXPECT_EQ(ParseByteSize("12parsecs"), 0u);
}

// ----------------------------------------------------------------------
// MemoryTracker: budget enforcement and hierarchical accounting.
// ----------------------------------------------------------------------

TEST(MemoryTrackerTest, UnlimitedIsPureBookkeeping) {
  mem::MemoryTracker t("query", size_t{0});
  EXPECT_FALSE(t.has_budget());
  EXPECT_TRUE(t.TryReserve(size_t{1} << 40));
  EXPECT_EQ(t.bytes_in_use(), size_t{1} << 40);
  EXPECT_EQ(t.peak_bytes(), size_t{1} << 40);
  t.Release(size_t{1} << 40);
  EXPECT_EQ(t.bytes_in_use(), 0u);
  EXPECT_EQ(t.peak_bytes(), size_t{1} << 40);  // peak survives
}

TEST(MemoryTrackerTest, BudgetEnforced) {
  mem::MemoryTracker t("query", 1000);
  EXPECT_TRUE(t.TryReserve(600));
  EXPECT_EQ(t.remaining(), 400u);
  EXPECT_FALSE(t.TryReserve(500));  // refused, nothing charged
  EXPECT_EQ(t.bytes_in_use(), 600u);
  Status s = t.Reserve(500);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // ForceReserve overshoots without failing.
  t.ForceReserve(500);
  EXPECT_EQ(t.bytes_in_use(), 1100u);
  EXPECT_EQ(t.remaining(), 0u);
  t.Release(1100);
  EXPECT_TRUE(t.TryReserve(1000));
}

TEST(MemoryTrackerTest, ChildChargesRootAndAutoReleases) {
  mem::MemoryTracker root("query", 1000);
  {
    mem::MemoryTracker child("operator", &root);
    EXPECT_TRUE(child.TryReserve(700));
    EXPECT_EQ(child.bytes_in_use(), 700u);
    EXPECT_EQ(root.bytes_in_use(), 700u);
    EXPECT_EQ(child.budget(), 1000u);
    // The root's budget gates the child's reservations.
    EXPECT_FALSE(child.TryReserve(400));
    // The child destructor releases whatever it still holds — an
    // aborted operator cannot poison later queries.
  }
  EXPECT_EQ(root.bytes_in_use(), 0u);
}

TEST(MemoryTrackerTest, UnspillableClassIgnoresSpillableResidency) {
  mem::MemoryTracker root("query", 1000);
  // Spillable charges (buffers) nearly fill the total pool...
  ASSERT_TRUE(root.TryReserve(900));
  // ...but an operator-state child is gated only against other
  // unspillable state, so its reservation is deterministic.
  mem::MemoryTracker state("operator", &root);
  EXPECT_TRUE(state.Reserve(700).ok());
  EXPECT_EQ(root.unspillable_bytes(), 700u);
  EXPECT_EQ(root.bytes_in_use(), 1600u);  // total is honest
  // Spillable reservations now see a full total pool: spill signal.
  EXPECT_FALSE(root.TryReserve(1));
  // The unspillable pool still enforces the budget among state.
  EXPECT_FALSE(state.TryReserve(400));
  EXPECT_EQ(state.Reserve(400).code(), StatusCode::kResourceExhausted);
  state.Release(700);
  EXPECT_EQ(root.unspillable_bytes(), 0u);
  EXPECT_EQ(root.bytes_in_use(), 900u);
  root.Release(900);
}

/// The "only X remains" figure of a refusal message, in bytes (the
/// tests keep it under 1 KiB, where FormatBytes prints plain bytes).
double RemainsInMessage(const std::string& msg) {
  const size_t at = msg.find("only ");
  return at == std::string::npos ? -1.0 : std::stod(msg.substr(at + 5));
}

TEST(MemoryTrackerTest, RefusalReportsTheLevelItCheckedAgainst) {
  {
    mem::MemoryTracker root("query", 1000);
    mem::MemoryTracker held("held", &root);
    ASSERT_TRUE(held.Reserve(900).ok());
    mem::MemoryTracker op("operator", &root);
    const Status s = op.Reserve(200);
    EXPECT_NE(s.message().find("needs 200.00 B"), std::string::npos);
    EXPECT_NE(s.message().find("only 100.00 B of the 1000.00 B"),
              std::string::npos);
  }
  // Workers reserve and release around the cap at once, so the pool
  // often moves between a refused check and the message. The message
  // must still show less room than the request. With 600 B held, a
  // request over 400 B is refused even when a worker runs alone.
  mem::MemoryTracker root("query", 1000);
  mem::MemoryTracker held("held", &root);
  ASSERT_TRUE(held.Reserve(600).ok());
  std::atomic<size_t> refusals{0}, contradictions{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      mem::MemoryTracker op("worker " + std::to_string(t), &root);
      for (size_t i = 0; i < 20000; ++i) {
        const size_t request = 200 + (i * 37 + t * 101) % 300;
        const Status s = op.Reserve(request);
        if (s.ok()) {
          op.Release(request);
          continue;
        }
        ++refusals;
        const double remains = RemainsInMessage(s.message());
        if (remains < 0.0 || remains >= static_cast<double>(request)) {
          ++contradictions;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_GT(refusals.load(), 0u);
  EXPECT_EQ(contradictions.load(), 0u);
}

TEST(MemoryTrackerTest, SpillCountersRollUp) {
  mem::MemoryTracker root("query", 1000);
  mem::MemoryTracker child("operator", &root);
  child.RecordSpill(256, 2);
  EXPECT_EQ(child.spill_bytes(), 256u);
  EXPECT_EQ(child.spill_runs(), 2u);
  EXPECT_EQ(root.spill_bytes(), 256u);
  EXPECT_EQ(root.spill_runs(), 2u);
}

// ----------------------------------------------------------------------
// SpillableRowBuffer: spill under pressure, replay in exact order.
// ----------------------------------------------------------------------

Row MakeRow(int64_t i) {
  return {Value::Int(i), Value::String("row-" + std::to_string(i))};
}

TEST(SpillableRowBufferTest, NoContextDegeneratesToVector) {
  SpillableRowBuffer buf;
  for (int64_t i = 0; i < 10; ++i) ASSERT_TRUE(buf.Append(MakeRow(i)).ok());
  EXPECT_FALSE(buf.has_spilled_rows());
  EXPECT_EQ(buf.num_rows(), 10u);
  auto rows = buf.Drain();
  ASSERT_TRUE(rows.ok());
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ((*rows)[i][0].int_value(), i);
  }
}

TEST(SpillableRowBufferTest, SpillsUnderPressureAndReplaysInOrder) {
  mem::MemoryTracker tracker("query", 2048);  // a few rows' worth
  MemoryContext ctx{&tracker, ""};
  SpillableRowBuffer buf(ctx);
  constexpr int64_t kRows = 200;
  for (int64_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(buf.Append(MakeRow(i)).ok());
  }
  EXPECT_TRUE(buf.has_spilled_rows());
  EXPECT_GT(buf.spill_bytes(), 0u);
  EXPECT_GT(buf.spill_runs(), 0u);
  EXPECT_EQ(buf.num_rows(), static_cast<size_t>(kRows));
  // The resident charge never exceeded the budget.
  EXPECT_LE(tracker.peak_bytes(), 2048u + RowByteSize(MakeRow(0)));
  // Replay: spilled runs first, then the tail — exactly append order.
  SpillableRowBuffer::Reader reader(&buf);
  for (int64_t i = 0; i < kRows; ++i) {
    auto row = reader.Next();
    ASSERT_TRUE(row.ok());
    ASSERT_TRUE(row->has_value());
    EXPECT_EQ((**row)[0].int_value(), i);
    EXPECT_EQ((**row)[1].string_value(), "row-" + std::to_string(i));
  }
  auto end = reader.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(SpillableRowBufferTest, SpillTotalsSurviveClear) {
  mem::MemoryTracker tracker("query", 1024);
  SpillableRowBuffer buf(MemoryContext{&tracker, ""});
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(buf.Append(MakeRow(i)).ok());
  }
  ASSERT_TRUE(buf.has_spilled_rows());
  const size_t spilled = buf.spill_bytes();
  const size_t runs = buf.spill_runs();
  buf.Clear();
  EXPECT_EQ(buf.num_rows(), 0u);
  EXPECT_EQ(buf.spill_bytes(), spilled);  // cumulative, for operators
  EXPECT_EQ(buf.spill_runs(), runs);
  EXPECT_EQ(tracker.bytes_in_use(), 0u);
}

TEST(SpillableRowBufferTest, SpillToDiskFreesTheBudget) {
  mem::MemoryTracker tracker("query", 1u << 20);
  SpillableRowBuffer buf(MemoryContext{&tracker, ""});
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(buf.Append(MakeRow(i)).ok());
  }
  EXPECT_FALSE(buf.has_spilled_rows());  // fits comfortably
  EXPECT_GT(tracker.bytes_in_use(), 0u);
  ASSERT_TRUE(buf.SpillToDisk().ok());
  EXPECT_TRUE(buf.has_spilled_rows());
  EXPECT_EQ(tracker.bytes_in_use(), 0u);  // charge moved to disk
  auto rows = buf.Drain();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 50u);
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ((*rows)[i][0].int_value(), i);
  }
}

TEST(SpillableRowBufferTest, OneFlushSplitsIntoCappedRunsBitForBit) {
  // Over 3 MiB of every value kind flushed at once: the flush splits
  // into runs at the 1 MiB cap, and the runs replay every bit (signed
  // zeros and NaN payloads included). The runs hold exactly the rows'
  // codec bytes: each row's RowByteSize plus its 8-byte arity.
  la::Matrix holes(12, 12, 0.0);
  for (size_t i = 0; i < 12; ++i) holes.At(i, (5 * i) % 12) = 0.25 * i - 1.0;
  const Value sparse =
      Value::FromSparseMatrix(la::sparse::CsrMatrix::FromDense(holes));
  std::vector<Row> rows;
  size_t bytes = 0;
  for (int64_t i = 0; i < 700; ++i) {
    la::Vector v(200);
    for (size_t c = 0; c < 200; ++c) v[c] = 0.001 * double(i * 200 + c);
    la::Matrix m(20, 20, -0.5 * double(i));
    Row row = {Value::Int(i),
               Value::Double(0.0),
               Value::Double(-0.0),
               Value::Double(std::bit_cast<double>(0x7ff8000000000001ULL + i)),
               Value::Null(),
               Value::Bool(i % 2 == 0),
               Value::String("row-" + std::to_string(i)),
               Value::Labeled(1.5, i),
               Value::FromVector(std::move(v), i),
               Value::FromMatrix(std::move(m)),
               sparse};
    bytes += RowByteSize(row);
    rows.push_back(std::move(row));
  }
  ASSERT_GT(bytes, 3u << 20);
  mem::MemoryTracker tracker("query", 64u << 20);
  SpillableRowBuffer buf(MemoryContext{&tracker, ""});
  for (const Row& row : rows) ASSERT_TRUE(buf.Append(row).ok());
  ASSERT_FALSE(buf.has_spilled_rows());
  ASSERT_TRUE(buf.SpillToDisk().ok());
  EXPECT_GE(buf.spill_runs(), 3u);
  EXPECT_EQ(buf.spill_bytes(), bytes + 8 * rows.size());
  const auto bits = [](const Row& row) {
    std::string out;
    AppendRowBinary(out, row);
    return out;
  };
  SpillableRowBuffer::Reader reader(&buf);
  for (const Row& want : rows) {
    auto got = reader.Next();
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(got->has_value());
    ASSERT_EQ(bits(**got), bits(want));
  }
  auto end = reader.Next();
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(end->has_value());
}

TEST(SpillFileTest, NameEmbedsTagAndOwnerPid) {
  char tmpl[] = "/tmp/radb-spill-testXXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  mem::SpillFile f;
  ASSERT_TRUE(f.Create(dir, "q7").ok());
  // service_test pins the "radb-spill-<tag>-" prefix in attribution
  // messages; the pid rides AFTER the tag so those substrings survive.
  EXPECT_NE(f.path().find("radb-spill-q7-p" + std::to_string(::getpid()) +
                          "-"),
            std::string::npos)
      << f.path();
  f = mem::SpillFile();  // close
  ::rmdir(dir.c_str());
}

TEST(SpillFileTest, SweepRemovesOrphansKeepsLiveAndYoung) {
  char tmpl[] = "/tmp/radb-spill-sweepXXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  auto touch = [&](const std::string& name) {
    const std::string path = dir + "/" + name;
    std::ofstream(path) << "x";
    return path;
  };
  // A pid that is guaranteed dead: fork a child that exits
  // immediately, reap it, and use its (not-yet-recycled) pid.
  const pid_t dead = ::fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(dead, &status, 0), dead);

  const std::string orphan =
      touch("radb-spill-q3-p" + std::to_string(dead) + "-0-AbCdEf");
  const std::string live =
      touch("radb-spill-q4-p" + std::to_string(::getpid()) + "-1-GhIjKl");
  const std::string young_pidless = touch("radb-spill-q5-2-MnOpQr");
  const std::string old_pidless = touch("radb-spill-q6-3-StUvWx");
  const std::string unrelated = touch("other-file.tmp");
  // Age the pid-less candidate past the sweep horizon.
  struct utimbuf old_times;
  old_times.actime = old_times.modtime = ::time(nullptr) - 7200;
  ASSERT_EQ(::utime(old_pidless.c_str(), &old_times), 0);

  EXPECT_EQ(mem::SweepOrphanedSpillFiles(dir, 3600), 2u);
  struct stat st;
  EXPECT_NE(::stat(orphan.c_str(), &st), 0) << "dead-owner file kept";
  EXPECT_NE(::stat(old_pidless.c_str(), &st), 0) << "stale pid-less kept";
  EXPECT_EQ(::stat(live.c_str(), &st), 0) << "live owner's file removed";
  EXPECT_EQ(::stat(young_pidless.c_str(), &st), 0) << "young file removed";
  EXPECT_EQ(::stat(unrelated.c_str(), &st), 0) << "non-spill file removed";

  for (const auto& p : {live, young_pidless, unrelated}) {
    ::unlink(p.c_str());
  }
  ::rmdir(dir.c_str());
}

TEST(SpillableRowBufferTest, MoveTransfersCharges) {
  mem::MemoryTracker tracker("query", 1u << 20);
  SpillableRowBuffer a(MemoryContext{&tracker, ""});
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.Append(MakeRow(i)).ok());
  }
  const size_t in_use = tracker.bytes_in_use();
  SpillableRowBuffer b(std::move(a));
  // The move must not double-release: dropping the moved-from buffer
  // leaves b's charge intact.
  a.Clear();
  EXPECT_EQ(tracker.bytes_in_use(), in_use);
  b.Clear();
  EXPECT_EQ(tracker.bytes_in_use(), 0u);
}

}  // namespace
}  // namespace radb
