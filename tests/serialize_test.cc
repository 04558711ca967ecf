#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "api/database.h"

#include "test_util.h"
#include "common/rng.h"
#include "la/random.h"
#include "storage/csv.h"
#include "storage/serialize.h"

namespace radb {
namespace {

/// Temp file that cleans up after itself.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(SerializeTest, RoundTripAllValueKinds) {
  Schema schema({Column{"", "i", DataType::Integer()},
                 Column{"", "d", DataType::Double()},
                 Column{"", "s", DataType::String()},
                 Column{"", "b", DataType::Boolean()},
                 Column{"", "ls", DataType::LabeledScalar()},
                 Column{"", "v", DataType::MakeVector(3)},
                 Column{"", "m", DataType::MakeMatrix(2, 2)}});
  Table table("mixed", schema, 3);
  Rng rng(4);
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(table
                    .Insert(Row{Value::Int(i), Value::Double(i * 1.5),
                                Value::String("row" + std::to_string(i)),
                                Value::Bool(i % 2 == 0),
                                Value::Labeled(i * 0.5, i),
                                Value::FromVector(la::RandomVector(rng, 3),
                                                  i),
                                Value::FromMatrix(
                                    la::RandomMatrix(rng, 2, 2))})
                    .ok());
  }
  ASSERT_TRUE(table.Insert(Row{Value::Null(), Value::Null(), Value::Null(),
                               Value::Null(), Value::Null(), Value::Null(),
                               Value::Null()})
                  .ok());

  TempFile file("roundtrip.radb");
  ASSERT_TRUE(WriteTableFile(table, file.path()).ok());
  auto loaded = ReadTableFile(file.path(), 5);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->name(), "mixed");
  EXPECT_EQ((*loaded)->num_rows(), 18u);
  EXPECT_EQ((*loaded)->num_partitions(), 5u);
  EXPECT_EQ((*loaded)->schema().size(), 7u);
  EXPECT_EQ((*loaded)->schema().at(6).type.ToString(), "MATRIX[2][2]");

  // Row-level deep equality (gather both, compare as multisets keyed
  // by the integer column; NULL row checked separately).
  RowSet original = *table.Gather();
  RowSet restored = *(*loaded)->Gather();
  ASSERT_EQ(original.size(), restored.size());
  auto find_by_key = [&](const RowSet& rows, const Value& key) -> const Row* {
    for (const Row& r : rows) {
      if (r[0].Equals(key)) return &r;
    }
    return nullptr;
  };
  for (const Row& row : original) {
    const Row* match = find_by_key(restored, row[0]);
    ASSERT_NE(match, nullptr);
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_TRUE(row[c].Equals((*match)[c])) << "col " << c;
    }
    // Vector labels survive the round trip.
    if (row[5].kind() == TypeKind::kVector) {
      EXPECT_EQ(row[5].vector_value().label,
                (*match)[5].vector_value().label);
    }
  }
}

TEST(SerializeTest, RejectsGarbageAndTruncation) {
  TempFile garbage("garbage.radb");
  {
    std::ofstream os(garbage.path(), std::ios::binary);
    os << "definitely not a table";
  }
  EXPECT_EQ(ReadTableFile(garbage.path(), 2).status().code(),
            StatusCode::kInvalidArgument);

  // Truncate a valid file and check we fail cleanly.
  Schema schema({Column{"", "v", DataType::MakeVector(100)}});
  Table table("t", schema, 1);
  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        table.Insert(Row{Value::FromVector(la::RandomVector(rng, 100))})
            .ok());
  }
  TempFile full("full.radb");
  ASSERT_TRUE(WriteTableFile(table, full.path()).ok());
  std::ifstream is(full.path(), std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(is)),
                       std::istreambuf_iterator<char>());
  TempFile cut("cut.radb");
  {
    std::ofstream os(cut.path(), std::ios::binary);
    os.write(contents.data(),
             static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_EQ(ReadTableFile(cut.path(), 2).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_FALSE(ReadTableFile("/no/such/dir/x.radb", 2).ok());
}

TEST(SerializeTest, DatabaseSaveLoadQueryable) {
  TempFile file("db_table.radb");
  {
    Database db;
    ASSERT_TRUE(Exec(db, "CREATE TABLE pts (id INTEGER, "
                              "vec VECTOR[4])")
                    .ok());
    Rng rng(6);
    std::vector<Row> rows;
    for (int i = 0; i < 32; ++i) {
      rows.push_back({Value::Int(i),
                      Value::FromVector(la::RandomVector(rng, 4))});
    }
    ASSERT_TRUE(db.BulkInsert("pts", std::move(rows)).ok());
    ASSERT_TRUE(db.SaveTable("pts", file.path()).ok());
    EXPECT_FALSE(db.SaveTable("missing", file.path()).ok());
  }
  {
    Database db;
    ASSERT_TRUE(db.LoadTable("pts2", file.path()).ok());
    // Name collision refused.
    EXPECT_FALSE(db.LoadTable("pts2", file.path()).ok());
    auto rs = Exec(db, 
        "SELECT COUNT(*), SUM(inner_product(vec, vec)) FROM pts2");
    ASSERT_TRUE(rs.ok()) << rs.status();
    EXPECT_EQ(rs->at(0, 0).AsInt().value(), 32);
    EXPECT_GT(rs->at(0, 1).AsDouble().value(), 0.0);
  }
}

// ---- Segment codec -------------------------------------------------

/// The value's bytes in the stream codec: equal bytes mean equal kind,
/// payload bits (NaN payloads, -0.0), labels and representation.
std::string StreamBytes(const Value& v) {
  std::ostringstream os;
  WriteValueBinary(os, v);
  return os.str();
}

/// A segment record written by the stream codec, the reference the
/// stream-free encoder must match byte for byte.
std::string StreamSegment(const RowSet& rows) {
  std::ostringstream os;
  WriteU64(os, rows.size());
  for (const Row& row : rows) WriteRowBinary(os, row);
  return os.str();
}

/// The record of `rows` as a table's open tail builds it: each row
/// appended to a segment batch whose columns are declared with the
/// kind of their first non-NULL cell, then encoded from the lanes.
std::string EncodeSegment(const RowSet& rows) {
  Schema schema;
  const size_t width = rows.empty() ? 0 : rows[0].size();
  for (size_t c = 0; c < width; ++c) {
    DataType type;
    for (const Row& row : rows) {
      if (!row[c].is_null()) {
        type = DataType(row[c].kind());
        break;
      }
    }
    schema.Add(Column{"", "c" + std::to_string(c), type});
  }
  ColumnBatch batch;
  ResetSegment(schema, 0, &batch);
  for (const Row& row : rows) AppendSegmentRow(row, &batch);
  return radb::EncodeSegment(batch);
}

double DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Decodes `record` and checks every cell against the stream decoder's
/// value, bit for bit.
void ExpectDecodesLikeTheStream(const std::string& record,
                                const Schema& schema) {
  auto batch = DecodeSegment(record, schema);
  ASSERT_TRUE(batch.ok()) << batch.status();
  std::istringstream is(record);
  auto n = ReadU64(is);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ((*batch)->num_rows, *n);
  ASSERT_EQ((*batch)->columns.size(), schema.size());
  for (uint64_t r = 0; r < *n; ++r) {
    auto row = ReadRowBinary(is);
    ASSERT_TRUE(row.ok()) << row.status();
    for (size_t c = 0; c < schema.size(); ++c) {
      EXPECT_EQ(StreamBytes((*batch)->columns[c].GetValue(r)),
                StreamBytes((*row)[c]))
          << "row " << r << " col " << c;
    }
  }
}

Schema EveryKindSchema() {
  return Schema({Column{"", "b", DataType::Boolean()},
                 Column{"", "i", DataType::Integer()},
                 Column{"", "d", DataType::Double()},
                 Column{"", "s", DataType::String()},
                 Column{"", "ls", DataType::LabeledScalar()},
                 Column{"", "v", DataType::MakeVector(Dim())},
                 Column{"", "m", DataType::MakeMatrix(Dim(), Dim())}});
}

RowSet EveryKindRows() {
  la::Matrix dense(2, 3);
  for (size_t i = 0; i < 6; ++i) dense.data()[i] = 0.25 * double(i) - 0.5;
  la::Matrix holes(3, 3);
  holes.At(0, 2) = 4.0;
  holes.At(2, 0) = -1.5;
  const double nan = DoubleFromBits(0x7ff8dead00000001ull);
  const double inf = std::numeric_limits<double>::infinity();
  return {
      {Value::Bool(true), Value::Int(std::numeric_limits<int64_t>::min()),
       Value::Double(-0.0), Value::String(""), Value::Labeled(2.5, 7),
       Value::FromVector(la::Vector(std::vector<double>{1.0, -2.0, nan}),
                         42),
       Value::FromMatrix(dense)},
      {Value::Bool(false), Value::Int(std::numeric_limits<int64_t>::max()),
       Value::Double(inf), Value::String("tile"),
       Value::Labeled(-0.0, kNoLabel),
       Value::FromVector(la::Vector(std::vector<double>{})),
       Value::FromSparseMatrix(la::sparse::CsrMatrix::FromDense(holes))},
      {Value::Null(), Value::Null(), Value::Double(-inf),
       Value::String(std::string("a\0b", 3)), Value::Null(), Value::Null(),
       Value::Null()},
      {Value::Bool(true), Value::Int(0), Value::Double(nan), Value::Null(),
       Value::Labeled(1e300, -3),
       Value::FromVector(la::Vector(std::vector<double>{inf}), -1),
       Value::FromSparseMatrix(la::sparse::CsrMatrix(2, 2))},
      {Value::Null(), Value::Int(-1), Value::Null(), Value::String("end"),
       Value::Labeled(0.5, 0), Value::FromVector(la::Vector(2, 0.5)),
       Value::FromMatrix(la::Matrix(0, 0))},
  };
}

TEST(SegmentCodecTest, RoundTripsEveryKindLikeTheStreamCodec) {
  const Schema schema = EveryKindSchema();
  const RowSet rows = EveryKindRows();
  const std::string record = EncodeSegment(rows);
  EXPECT_EQ(record, StreamSegment(rows));
  ExpectDecodesLikeTheStream(record, schema);

  auto batch = DecodeSegment(record, schema);
  ASSERT_TRUE(batch.ok()) << batch.status();
  // The scalar kinds decode into typed lanes, the rest into Value lanes.
  const TypeKind typed[] = {TypeKind::kBoolean, TypeKind::kInteger,
                            TypeKind::kDouble, TypeKind::kString};
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_FALSE((*batch)->columns[c].values) << "col " << c;
    EXPECT_EQ((*batch)->columns[c].kind, typed[c]) << "col " << c;
  }
  for (size_t c = 4; c < schema.size(); ++c) {
    EXPECT_TRUE((*batch)->columns[c].values) << "col " << c;
  }
  // And each cell equals the value encoded, bits included.
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < schema.size(); ++c) {
      EXPECT_EQ(StreamBytes((*batch)->columns[c].GetValue(r)),
                StreamBytes(rows[r][c]))
          << "row " << r << " col " << c;
      EXPECT_EQ((*batch)->columns[c].LaneBytes(r), rows[r][c].ByteSize());
    }
  }
  EXPECT_TRUE((*batch)->columns[6].GetValue(1).is_sparse_matrix());
}

TEST(SegmentCodecTest, KindImpureColumnBecomesAValueLane) {
  // Numeric interchange lets an INTEGER into a DOUBLE column and an
  // integral DOUBLE into an INTEGER one; each keeps its runtime kind
  // and bits, so the column switches to a Value lane at that cell.
  const Schema schema({Column{"", "d", DataType::Double()},
                       Column{"", "i", DataType::Integer()},
                       Column{"", "first", DataType::Double()}});
  const double nan = DoubleFromBits(0x7ff0000000000badull);
  const RowSet rows = {
      {Value::Double(1.5), Value::Int(1), Value::Int(-9)},
      {Value::Int(7), Value::Int(2), Value::Double(-0.0)},
      {Value::Double(nan), Value::Double(3.0), Value::Null()},
      {Value::Null(), Value::Null(), Value::Double(2.0)},
  };
  const std::string record = EncodeSegment(rows);
  EXPECT_EQ(record, StreamSegment(rows));
  ExpectDecodesLikeTheStream(record, schema);
  auto batch = DecodeSegment(record, schema);
  ASSERT_TRUE(batch.ok()) << batch.status();
  for (const ColumnVector& col : (*batch)->columns) EXPECT_TRUE(col.values);
  const ColumnVector& d = (*batch)->columns[0];
  EXPECT_EQ(d.GetValue(0).kind(), TypeKind::kDouble);
  EXPECT_EQ(d.GetValue(1).kind(), TypeKind::kInteger);
  EXPECT_EQ(d.GetValue(1).int_value(), 7);
  EXPECT_EQ(StreamBytes(d.GetValue(2)), StreamBytes(Value::Double(nan)));
  EXPECT_TRUE(d.GetValue(3).is_null());
  const ColumnVector& i = (*batch)->columns[1];
  EXPECT_EQ(i.GetValue(0).kind(), TypeKind::kInteger);
  EXPECT_EQ(i.GetValue(1).kind(), TypeKind::kInteger);
  EXPECT_EQ(i.GetValue(2).kind(), TypeKind::kDouble);
  EXPECT_EQ((*batch)->columns[2].GetValue(0).kind(), TypeKind::kInteger);
}

TEST(SegmentCodecTest, GoldenBytesPinTheFormat) {
  const RowSet rows = {
      {Value::Int(1), Value::Double(0.5), Value::String("ab")},
      {Value::Null(), Value::Double(-2.0), Value::String("")},
      {Value::Int(-1), Value::Null(), Value::String("x")},
  };
  const char* golden =
      "0300000000000000"                    // 3 rows
      "0300000000000000"                    // row 0: arity 3
      "02" "0100000000000000"               //   INTEGER 1
      "03" "000000000000e03f"               //   DOUBLE 0.5
      "04" "0200000000000000" "6162"        //   STRING "ab"
      "0300000000000000"                    // row 1: arity 3
      "00"                                  //   NULL
      "03" "00000000000000c0"               //   DOUBLE -2.0
      "04" "0000000000000000"               //   STRING ""
      "0300000000000000"                    // row 2: arity 3
      "02" "ffffffffffffffff"               //   INTEGER -1
      "00"                                  //   NULL
      "04" "0100000000000000" "78";         //   STRING "x"
  std::string expected;
  for (size_t i = 0; golden[i] != '\0'; i += 2) {
    expected.push_back(static_cast<char>(
        std::stoi(std::string(golden + i, 2), nullptr, 16)));
  }
  const std::string record = EncodeSegment(rows);
  EXPECT_EQ(record, expected);
  EXPECT_EQ(record, StreamSegment(rows));
  const Schema schema({Column{"", "i", DataType::Integer()},
                       Column{"", "d", DataType::Double()},
                       Column{"", "s", DataType::String()}});
  ExpectDecodesLikeTheStream(expected, schema);
}

TEST(SegmentCodecTest, CorruptRecordsReturnAStatus) {
  const Schema schema = EveryKindSchema();
  const RowSet rows = EveryKindRows();
  const std::string record = EncodeSegment(rows);
  ASSERT_TRUE(DecodeSegment(record, schema).ok());
  auto expect_invalid = [&](const std::string& bytes, const std::string& what) {
    auto decoded = DecodeSegment(bytes, schema);
    ASSERT_FALSE(decoded.ok()) << what;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << what;
  };
  // Cut at every byte offset.
  for (size_t cut = 0; cut < record.size(); ++cut) {
    expect_invalid(record.substr(0, cut), "cut at " + std::to_string(cut));
  }
  auto with_count = [&](uint64_t n) {
    std::string bytes = record;
    std::memcpy(bytes.data(), &n, sizeof(n));
    return bytes;
  };
  expect_invalid(with_count(1ull << 60), "count 2^60");
  expect_invalid(with_count(rows.size() - 1), "count below");
  expect_invalid(with_count(rows.size() + 1), "count above");
  expect_invalid(with_count(0), "count zero");
  // The first row's arity, one short and one over the width.
  for (uint64_t arity : {schema.size() - 1, schema.size() + 1}) {
    std::string bytes = record;
    std::memcpy(bytes.data() + 8, &arity, sizeof(arity));
    expect_invalid(bytes, "arity " + std::to_string(arity));
  }
  // An unknown tag in the first cell.
  std::string bytes = record;
  bytes[16] = static_cast<char>(0x63);
  expect_invalid(bytes, "unknown tag");
  // The same record decodes under no other width.
  const Schema narrow({Column{"", "b", DataType::Boolean()}});
  EXPECT_FALSE(DecodeSegment(record, narrow).ok());
}

/// A segment of `schema` holding `rows`, appended one by one.
ColumnBatch SegmentOf(const Schema& schema, const RowSet& rows) {
  ColumnBatch batch;
  ResetSegment(schema, 0, &batch);
  for (const Row& row : rows) AppendSegmentRow(row, &batch);
  return batch;
}

/// The row codec's record of `rows`: a u64 count, then each row.
std::string RowCodecSegment(const RowSet& rows) {
  std::string out;
  AppendU64(out, rows.size());
  for (const Row& row : rows) AppendRowBinary(out, row);
  return out;
}

TEST(SegmentBatchTest, EncodesEveryKindLikeTheRowCodec) {
  const Schema schema = EveryKindSchema();
  const RowSet rows = EveryKindRows();
  const ColumnBatch batch = SegmentOf(schema, rows);
  ASSERT_EQ(batch.num_rows, rows.size());
  // The tail's lanes are the decoder's: typed for the scalar kinds,
  // Value lanes for the rest.
  auto decoded = DecodeSegment(RowCodecSegment(rows), schema);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  for (size_t c = 0; c < schema.size(); ++c) {
    EXPECT_EQ(batch.columns[c].values, (*decoded)->columns[c].values)
        << "col " << c;
    EXPECT_EQ(batch.columns[c].values, c >= 4) << "col " << c;
    EXPECT_EQ(batch.columns[c].kind, (*decoded)->columns[c].kind)
        << "col " << c;
  }
  EXPECT_EQ(EncodeSegment(batch), RowCodecSegment(rows));
  // A lone cell of each kind, NULL included, encodes the same way.
  for (const Row& row : rows) {
    EXPECT_EQ(EncodeSegment(SegmentOf(schema, {row})),
              RowCodecSegment({row}));
  }
  EXPECT_EQ(EncodeSegment(SegmentOf(schema, {})), RowCodecSegment({}));
}

TEST(SegmentBatchTest, KindImpureCellTurnsTheTailColumnIntoAValueLane) {
  const Schema schema({Column{"", "d", DataType::Double()},
                       Column{"", "i", DataType::Integer()}});
  const double nan = DoubleFromBits(0x7ff4000000000123ull);
  const RowSet rows = {
      {Value::Double(-0.0), Value::Int(std::numeric_limits<int64_t>::min())},
      {Value::Double(nan), Value::Null()},
      {Value::Int(7), Value::Int(std::numeric_limits<int64_t>::max())},
      {Value::Double(std::numeric_limits<double>::infinity()),
       Value::Double(2.0)},
      {Value::Null(), Value::Int(3)},
  };
  ColumnBatch batch;
  ResetSegment(schema, 0, &batch);
  for (size_t r = 0; r < rows.size(); ++r) {
    AppendSegmentRow(rows[r], &batch);
    // Typed until the row that brings another kind, a Value lane after.
    EXPECT_EQ(batch.columns[0].values, r >= 2) << "row " << r;
    EXPECT_EQ(batch.columns[1].values, r >= 3) << "row " << r;
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < schema.size(); ++c) {
      EXPECT_EQ(StreamBytes(batch.columns[c].GetValue(r)),
                StreamBytes(rows[r][c]))
          << "row " << r << " col " << c;
    }
  }
  EXPECT_EQ(EncodeSegment(batch), RowCodecSegment(rows));
  ExpectDecodesLikeTheStream(EncodeSegment(batch), schema);
}

TEST(CsvTest, RoundTripAllKinds) {
  Schema schema({Column{"", "i", DataType::Integer()},
                 Column{"", "d", DataType::Double()},
                 Column{"", "s", DataType::String()},
                 Column{"", "ls", DataType::LabeledScalar()},
                 Column{"", "v", DataType::MakeVector(3)},
                 Column{"", "m", DataType::MakeMatrix(2, 2)}});
  Table table("csvt", schema, 2);
  Rng rng(14);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(
        table
            .Insert(Row{Value::Int(i), Value::Double(i / 3.0),
                        Value::String("quote\"and,comma" +
                                      std::to_string(i)),
                        Value::Labeled(i * 1.5, i),
                        Value::FromVector(la::RandomVector(rng, 3)),
                        Value::FromMatrix(la::RandomMatrix(rng, 2, 2))})
            .ok());
  }
  ASSERT_TRUE(table.Insert(Row{Value::Null(), Value::Null(), Value::Null(),
                               Value::Null(), Value::Null(), Value::Null()})
                  .ok());
  TempFile file("roundtrip.csv");
  ASSERT_TRUE(WriteCsvFile(table, file.path()).ok());
  auto loaded = ReadCsvFile(file.path(), "csvt2", schema, 3);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ((*loaded)->num_rows(), 10u);
  RowSet original = *table.Gather();
  RowSet restored = *(*loaded)->Gather();
  auto find_by_key = [&](const RowSet& rows, const Value& key) -> const Row* {
    for (const Row& r : rows) {
      if (r[0].Equals(key)) return &r;
    }
    return nullptr;
  };
  for (const Row& row : original) {
    const Row* match = find_by_key(restored, row[0]);
    ASSERT_NE(match, nullptr);
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_TRUE(row[c].Equals((*match)[c]))
          << "col " << c << ": " << row[c].ToString() << " vs "
          << (*match)[c].ToString();
    }
  }
}

TEST(CsvTest, RejectsMalformedInput) {
  Schema schema({Column{"", "a", DataType::Integer()},
                 Column{"", "v", DataType::MakeVector(2)}});
  auto write = [](const std::string& path, const std::string& body) {
    std::ofstream os(path);
    os << body;
  };
  TempFile wrong_cols("wrong_cols.csv");
  write(wrong_cols.path(), "a,v\n1,\"[1;2]\",extra\n");
  EXPECT_FALSE(ReadCsvFile(wrong_cols.path(), "t", schema, 2).ok());

  TempFile bad_vec("bad_vec.csv");
  write(bad_vec.path(), "a,v\n1,\"1;2\"\n");  // missing brackets
  EXPECT_FALSE(ReadCsvFile(bad_vec.path(), "t", schema, 2).ok());

  TempFile unterminated("unterminated.csv");
  write(unterminated.path(), "a,v\n1,\"[1;2]\n");
  EXPECT_FALSE(ReadCsvFile(unterminated.path(), "t", schema, 2).ok());

  TempFile empty("empty.csv");
  write(empty.path(), "");
  EXPECT_FALSE(ReadCsvFile(empty.path(), "t", schema, 2).ok());

  // Vector length must match the declared VECTOR[2].
  TempFile wrong_len("wrong_len.csv");
  write(wrong_len.path(), "a,v\n1,\"[1;2;3]\"\n");
  EXPECT_FALSE(ReadCsvFile(wrong_len.path(), "t", schema, 2).ok());
}

}  // namespace
}  // namespace radb
