#include "storage/serialize.h"

#include "obs/metrics_registry.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

namespace radb {

namespace {

constexpr char kMagic[8] = {'R', 'A', 'D', 'B', 'T', 'B', 'L', '1'};

// On-disk kind tags (stable across versions; do not reorder).
enum class Tag : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt = 2,
  kDouble = 3,
  kString = 4,
  kLabeled = 5,
  kVector = 6,
  kMatrix = 7,
  kSparse = 8,  // sparsely-represented MATRIX (CSR payload)
};

constexpr const char* kTruncatedU64 = "truncated table file (u64)";
constexpr const char* kTruncatedI64 = "truncated table file (i64)";
constexpr const char* kTruncatedF64 = "truncated table file (f64)";

// Every codec below is written once, over a byte source (ByteReader or
// StreamReader) and a byte sink (StringWriter or StreamWriter).

/// An istream with ByteReader's interface.
class StreamReader {
 public:
  explicit StreamReader(std::istream& is) : is_(is) {}
  bool Read(void* dst, size_t n) {
    return static_cast<bool>(
        is_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n)));
  }
  int Get() {
    const int c = is_.get();
    return c == std::char_traits<char>::eof() ? -1 : c;
  }
  /// A stream's length is unknown: its reads report truncation.
  bool Has(size_t) const { return true; }
  bool ReadString(std::string* s, size_t n) {
    s->assign(n, '\0');
    return Read(s->data(), n);
  }

 private:
  std::istream& is_;
};

class StreamWriter {
 public:
  explicit StreamWriter(std::ostream& os) : os_(os) {}
  void Put(char c) { os_.put(c); }
  void Write(const void* p, size_t n) {
    os_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  }

 private:
  std::ostream& os_;
};

class StringWriter {
 public:
  explicit StringWriter(std::string& out) : out_(out) {}
  void Put(char c) { out_.push_back(c); }
  void Write(const void* p, size_t n) {
    if (n > 0) out_.append(static_cast<const char*>(p), n);
  }

 private:
  std::string& out_;
};

/// Writes into a buffer already sized for everything written.
class RawWriter {
 public:
  explicit RawWriter(char* p) : p_(p) {}
  void Put(char c) { *p_++ = c; }
  void Write(const void* p, size_t n) {
    if (n > 0) std::memcpy(p_, p, n);
    p_ += n;
  }

 private:
  char* p_;
};

/// A fixed-width integer or double, little-endian as in memory.
template <class T, class Out>
void PutFixed(Out& out, T v) {
  out.Write(&v, sizeof(v));
}
template <class Out>
void PutString(Out& out, const std::string& s) {
  PutFixed<uint64_t>(out, s.size());
  out.Write(s.data(), s.size());
}

// The scalar kinds' tag and payload, shared by Values and typed lanes.
template <class Out>
void PutBool(Out& out, bool b) {
  out.Put(static_cast<char>(Tag::kBool));
  out.Put(b ? 1 : 0);
}
template <class Out>
void PutInt(Out& out, int64_t v) {
  out.Put(static_cast<char>(Tag::kInt));
  PutFixed<int64_t>(out, v);
}
template <class Out>
void PutDouble(Out& out, double v) {
  out.Put(static_cast<char>(Tag::kDouble));
  PutFixed<double>(out, v);
}
template <class Out>
void PutStringValue(Out& out, const std::string& s) {
  out.Put(static_cast<char>(Tag::kString));
  PutString(out, s);
}

template <class Out>
void PutValue(Out& out, const Value& v) {
  switch (v.kind()) {
    case TypeKind::kNull:
      out.Put(static_cast<char>(Tag::kNull));
      return;
    case TypeKind::kBoolean:
      PutBool(out, v.bool_value());
      return;
    case TypeKind::kInteger:
      PutInt(out, v.int_value());
      return;
    case TypeKind::kDouble:
      PutDouble(out, v.double_value());
      return;
    case TypeKind::kString:
      PutStringValue(out, v.string_value());
      return;
    case TypeKind::kLabeledScalar:
      out.Put(static_cast<char>(Tag::kLabeled));
      PutFixed<double>(out, v.labeled().value);
      PutFixed<int64_t>(out, v.labeled().label);
      return;
    case TypeKind::kVector: {
      out.Put(static_cast<char>(Tag::kVector));
      PutFixed<int64_t>(out, v.vector_value().label);
      const la::Vector& vec = v.vector();
      PutFixed<uint64_t>(out, vec.size());
      out.Write(vec.data(), vec.size() * sizeof(double));
      return;
    }
    case TypeKind::kMatrix: {
      if (v.is_sparse_matrix()) {
        // tag + rows + cols + nnz + row_ptr[(rows+1) u64] + cols-as-u64
        // + values. Value::ByteSize() for a sparse value is pinned to
        // exactly these bytes (1 + SerializedByteSize()).
        out.Put(static_cast<char>(Tag::kSparse));
        const la::sparse::CsrMatrix& m = v.sparse_matrix();
        PutFixed<uint64_t>(out, m.rows());
        PutFixed<uint64_t>(out, m.cols());
        PutFixed<uint64_t>(out, m.nnz());
        out.Write(m.row_ptr().data(), (m.rows() + 1) * sizeof(uint64_t));
        for (uint32_t c : m.col_idx()) PutFixed<uint64_t>(out, c);
        out.Write(m.values().data(), m.nnz() * sizeof(double));
        return;
      }
      out.Put(static_cast<char>(Tag::kMatrix));
      const la::Matrix& m = v.matrix();
      PutFixed<uint64_t>(out, m.rows());
      PutFixed<uint64_t>(out, m.cols());
      out.Write(m.data(), m.rows() * m.cols() * sizeof(double));
      return;
    }
  }
}

template <class Out>
void PutRow(Out& out, const Row& row) {
  PutFixed<uint64_t>(out, row.size());
  for (const Value& v : row) PutValue(out, v);
}

/// Lane `r` of a segment column, as PutValue writes the Value it holds.
template <class Out>
void PutLane(Out& out, const ColumnVector& col, size_t r) {
  if (col.values) {
    PutValue(out, col.val[r]);
    return;
  }
  if (col.null[r] != 0) {
    out.Put(static_cast<char>(Tag::kNull));
    return;
  }
  switch (col.kind) {
    case TypeKind::kBoolean:
      PutBool(out, col.i64[r] != 0);
      return;
    case TypeKind::kInteger:
      PutInt(out, col.i64[r]);
      return;
    case TypeKind::kDouble:
      PutDouble(out, col.f64[r]);
      return;
    case TypeKind::kString:
      PutStringValue(out, col.str[r]);
      return;
    default:
      out.Put(static_cast<char>(Tag::kNull));  // a NULL-typed lane
      return;
  }
}

template <class T, class In>
Result<T> GetFixed(In& in, const char* truncated) {
  T v = 0;
  if (!in.Read(&v, sizeof(v))) return Status::InvalidArgument(truncated);
  return v;
}
template <class In>
Result<uint64_t> GetU64(In& in) {
  return GetFixed<uint64_t>(in, kTruncatedU64);
}

/// Reads a length-prefixed string into `*s`; null, or the corruption.
template <class In>
const char* DecodeString(In& in, std::string* s) {
  uint64_t len = 0;
  if (!in.Read(&len, sizeof(len))) return kTruncatedU64;
  if (len > (1ULL << 32)) return "corrupt table file (string length)";
  if (!in.ReadString(s, len)) return "truncated table file (string)";
  return nullptr;
}

template <class In>
Result<std::string> GetString(In& in) {
  std::string s;
  if (const char* err = DecodeString(in, &s)) {
    return Status::InvalidArgument(err);
  }
  return s;
}

template <class In>
Result<DataType> GetType(In& in) {
  RADB_ASSIGN_OR_RETURN(uint64_t kind, GetU64(in));
  RADB_ASSIGN_OR_RETURN(int64_t rows, GetFixed<int64_t>(in, kTruncatedI64));
  RADB_ASSIGN_OR_RETURN(int64_t cols, GetFixed<int64_t>(in, kTruncatedI64));
  const Dim r = rows < 0 ? Dim() : Dim(rows);
  const Dim c = cols < 0 ? Dim() : Dim(cols);
  switch (static_cast<TypeKind>(kind)) {
    case TypeKind::kVector:
      return DataType::MakeVector(r);
    case TypeKind::kMatrix:
      return DataType::MakeMatrix(r, c);
    case TypeKind::kNull:
    case TypeKind::kBoolean:
    case TypeKind::kInteger:
    case TypeKind::kDouble:
    case TypeKind::kString:
    case TypeKind::kLabeledScalar:
      return DataType(static_cast<TypeKind>(kind));
  }
  return Status::InvalidArgument("corrupt table file (type kind)");
}

/// Reads one value (tag byte, then payload) and hands it to `sink`:
/// the scalar kinds through Null/Bool/Int/Double/String, every other
/// kind as a built Value through Other. Returns null, or the static
/// message of the first corruption found. Lengths are checked against
/// the source (In::Has) before anything is allocated for them.
template <class In, class Sink>
const char* DecodeValue(In& in, Sink& sink) {
  const int tag = in.Get();
  if (tag < 0) return "truncated table file (value tag)";
  switch (static_cast<Tag>(tag)) {
    case Tag::kNull:
      sink.Null();
      return nullptr;
    case Tag::kBool: {
      const int b = in.Get();
      if (b < 0) return "truncated table file (bool)";
      sink.Bool(b != 0);
      return nullptr;
    }
    case Tag::kInt: {
      int64_t v = 0;
      if (!in.Read(&v, sizeof(v))) return kTruncatedI64;
      sink.Int(v);
      return nullptr;
    }
    case Tag::kDouble: {
      double v = 0;
      if (!in.Read(&v, sizeof(v))) return kTruncatedF64;
      sink.Double(v);
      return nullptr;
    }
    case Tag::kString: {
      std::string s;
      if (const char* err = DecodeString(in, &s)) return err;
      sink.String(std::move(s));
      return nullptr;
    }
    case Tag::kLabeled: {
      double v = 0;
      int64_t label = 0;
      if (!in.Read(&v, sizeof(v))) return kTruncatedF64;
      if (!in.Read(&label, sizeof(label))) return kTruncatedI64;
      sink.Other(Value::Labeled(v, label));
      return nullptr;
    }
    case Tag::kVector: {
      int64_t label = 0;
      uint64_t n = 0;
      if (!in.Read(&label, sizeof(label))) return kTruncatedI64;
      if (!in.Read(&n, sizeof(n))) return kTruncatedU64;
      if (n > (1ULL << 32)) return "corrupt table file (vector size)";
      if (!in.Has(n * sizeof(double))) return "truncated table file (vector)";
      la::Vector vec(n);
      if (n > 0 && !in.Read(vec.data(), n * sizeof(double))) {
        return "truncated table file (vector)";
      }
      sink.Other(Value::FromVector(std::move(vec), label));
      return nullptr;
    }
    case Tag::kMatrix: {
      uint64_t r = 0, c = 0;
      if (!in.Read(&r, sizeof(r)) || !in.Read(&c, sizeof(c))) {
        return kTruncatedU64;
      }
      if (r > (1ULL << 24) || c > (1ULL << 24)) {
        return "corrupt table file (matrix dims)";
      }
      if (!in.Has(r * c * sizeof(double))) {
        return "truncated table file (matrix)";
      }
      la::Matrix m(r, c);
      if (r * c > 0 && !in.Read(m.data(), r * c * sizeof(double))) {
        return "truncated table file (matrix)";
      }
      sink.Other(Value::FromMatrix(std::move(m)));
      return nullptr;
    }
    case Tag::kSparse: {
      uint64_t r = 0, c = 0, nnz = 0;
      if (!in.Read(&r, sizeof(r)) || !in.Read(&c, sizeof(c)) ||
          !in.Read(&nnz, sizeof(nnz))) {
        return kTruncatedU64;
      }
      if (r > (1ULL << 24) || c > (1ULL << 24) || nnz > r * c) {
        return "corrupt table file (sparse dims)";
      }
      if (!in.Has((r + 1) * sizeof(uint64_t))) {
        return "truncated table file (sparse rows)";
      }
      std::vector<uint64_t> row_ptr(r + 1);
      if (!in.Read(row_ptr.data(), (r + 1) * sizeof(uint64_t))) {
        return "truncated table file (sparse rows)";
      }
      if (row_ptr[0] != 0 || row_ptr[r] != nnz) {
        return "corrupt table file (sparse row_ptr)";
      }
      if (!in.Has(nnz * (sizeof(uint64_t) + sizeof(double)))) {
        return "truncated table file (sparse cols)";
      }
      la::sparse::CsrMatrix m(r, c);
      std::vector<uint64_t> cols(nnz);
      for (uint64_t i = 0; i < nnz; ++i) {
        if (!in.Read(&cols[i], sizeof(uint64_t))) return kTruncatedU64;
        if (cols[i] >= c) return "corrupt table file (sparse col)";
      }
      std::vector<double> vals(nnz);
      if (nnz > 0 && !in.Read(vals.data(), nnz * sizeof(double))) {
        return "truncated table file (sparse vals)";
      }
      for (uint64_t row = 0; row < r; ++row) {
        if (row_ptr[row + 1] < row_ptr[row] || row_ptr[row + 1] > nnz) {
          return "corrupt table file (sparse row_ptr)";
        }
        for (uint64_t i = row_ptr[row]; i < row_ptr[row + 1]; ++i) {
          m.PushEntry(row, cols[i], vals[i]);
        }
        m.SealRowsThrough(row);
      }
      sink.Other(Value::FromSparseMatrix(std::move(m)));
      return nullptr;
    }
  }
  return "corrupt table file (unknown value tag)";
}

/// DecodeValue sink that keeps the value.
struct ValueSink {
  Value v;
  void Null() { v = Value::Null(); }
  void Bool(bool b) { v = Value::Bool(b); }
  void Int(int64_t i) { v = Value::Int(i); }
  void Double(double d) { v = Value::Double(d); }
  void String(std::string s) { v = Value::String(std::move(s)); }
  void Other(Value o) { v = std::move(o); }
};

template <class In>
Result<Value> GetValue(In& in) {
  ValueSink sink;
  if (const char* err = DecodeValue(in, sink)) {
    return Status::InvalidArgument(err);
  }
  return std::move(sink.v);
}

template <class In>
Result<Row> GetRow(In& in) {
  RADB_ASSIGN_OR_RETURN(uint64_t arity, GetU64(in));
  if (arity > 65536) {
    return Status::InvalidArgument("corrupt spill run (row arity)");
  }
  Row row;
  row.reserve(arity);
  for (uint64_t i = 0; i < arity; ++i) {
    RADB_ASSIGN_OR_RETURN(Value v, GetValue(in));
    row.push_back(std::move(v));
  }
  return row;
}

/// Adds `n` lanes to a segment column, as DecodeValue's LaneSink
/// expects them: non-NULL with a zero payload on a typed lane (a NULL
/// cell sets its byte), NULL on a Value lane.
void AddLanes(ColumnVector* col, size_t n) {
  if (col->values) {
    col->val.resize(col->val.size() + n);
    return;
  }
  const size_t size = col->null.size() + n;
  col->null.resize(size);
  switch (col->kind) {
    case TypeKind::kBoolean:
    case TypeKind::kInteger:
      col->i64.resize(size);
      break;
    case TypeKind::kDouble:
      col->f64.resize(size);
      break;
    case TypeKind::kString:
      col->str.resize(size);
      break;
    default:
      break;
  }
}

/// Stores cells in lane `row` of one segment column (see AddLanes)
/// under the segment lane rule (see ResetSegment): DecodeValue's sink
/// for segment records, and the writer of a table's open tail.
class LaneSink {
 public:
  explicit LaneSink(ColumnVector* col) : col_(col) {}
  void set_row(size_t row) { row_ = row; }

  void Null() {
    if (!col_->values) col_->null[row_] = 1;  // Value lanes start NULL
  }
  void Bool(bool b) {
    if (Typed(TypeKind::kBoolean)) {
      col_->i64[row_] = b ? 1 : 0;
    } else {
      Other(Value::Bool(b));
    }
  }
  void Int(int64_t v) {
    if (Typed(TypeKind::kInteger)) {
      col_->i64[row_] = v;
    } else {
      Other(Value::Int(v));
    }
  }
  void Double(double v) {
    if (Typed(TypeKind::kDouble)) {
      col_->f64[row_] = v;
    } else {
      Other(Value::Double(v));
    }
  }
  void String(std::string s) {
    if (Typed(TypeKind::kString)) {
      col_->str[row_] = std::move(s);
    } else {
      Other(Value::String(std::move(s)));
    }
  }
  void Other(Value v) {
    if (!col_->values) {
      // The column's first cell of another kind: it becomes a Value
      // lane, keeping the cells stored so far.
      std::vector<Value> vals(col_->size());
      for (size_t i = 0; i < row_; ++i) vals[i] = col_->GetValue(i);
      col_->ResetValues(0);
      col_->val = std::move(vals);
    }
    col_->val[row_] = std::move(v);
  }

  /// One Value, by its runtime kind.
  void Set(const Value& v) {
    switch (v.kind()) {
      case TypeKind::kNull:
        return Null();
      case TypeKind::kBoolean:
        return Bool(v.bool_value());
      case TypeKind::kInteger:
        return Int(v.int_value());
      case TypeKind::kDouble:
        return Double(v.double_value());
      case TypeKind::kString:
        return String(v.string_value());
      default:
        return Other(v);
    }
  }

 private:
  bool Typed(TypeKind k) const { return !col_->values && col_->kind == k; }

  ColumnVector* col_;
  size_t row_ = 0;
};

}  // namespace

void WriteU64(std::ostream& os, uint64_t v) {
  StreamWriter out(os);
  PutFixed<uint64_t>(out, v);
}
void WriteI64(std::ostream& os, int64_t v) {
  StreamWriter out(os);
  PutFixed<int64_t>(out, v);
}
void WriteF64(std::ostream& os, double v) {
  StreamWriter out(os);
  PutFixed<double>(out, v);
}
void WriteString(std::ostream& os, const std::string& s) {
  StreamWriter out(os);
  PutString(out, s);
}
void AppendU64(std::string& out, uint64_t v) {
  StringWriter w(out);
  PutFixed<uint64_t>(w, v);
}
void AppendString(std::string& out, const std::string& s) {
  StringWriter w(out);
  PutString(w, s);
}

Result<uint64_t> ReadU64(std::istream& is) {
  StreamReader in(is);
  return GetU64(in);
}
Result<int64_t> ReadI64(std::istream& is) {
  StreamReader in(is);
  return GetFixed<int64_t>(in, kTruncatedI64);
}
Result<double> ReadF64(std::istream& is) {
  StreamReader in(is);
  return GetFixed<double>(in, kTruncatedF64);
}
Result<std::string> ReadString(std::istream& is) {
  StreamReader in(is);
  return GetString(in);
}
Result<uint64_t> ReadU64(ByteReader& in) { return GetU64(in); }
Result<std::string> ReadString(ByteReader& in) { return GetString(in); }

void WriteType(std::ostream& os, const DataType& t) {
  WriteU64(os, static_cast<uint64_t>(t.kind()));
  WriteI64(os, t.rows() ? *t.rows() : -1);
  WriteI64(os, t.cols() ? *t.cols() : -1);
}

Result<DataType> ReadType(std::istream& is) {
  StreamReader in(is);
  return GetType(in);
}
Result<DataType> ReadType(ByteReader& in) { return GetType(in); }

void WriteValueBinary(std::ostream& os, const Value& v) {
  StreamWriter out(os);
  PutValue(out, v);
}

Result<Value> ReadValueBinary(std::istream& is) {
  StreamReader in(is);
  return GetValue(in);
}

void WriteRowBinary(std::ostream& os, const Row& row) {
  StreamWriter out(os);
  PutRow(out, row);
}

void AppendRowBinary(std::string& out, const Row& row) {
  StringWriter w(out);
  PutRow(w, row);
}

Result<Row> ReadRowBinary(std::istream& is) {
  StreamReader in(is);
  return GetRow(in);
}
Result<Row> ReadRowBinary(ByteReader& in) { return GetRow(in); }

void ResetSegment(const Schema& schema, size_t capacity, ColumnBatch* batch) {
  batch->num_rows = 0;
  batch->columns.resize(schema.size());
  for (size_t c = 0; c < schema.size(); ++c) {
    ColumnVector& col = batch->columns[c];
    const TypeKind k = schema.at(c).type.kind();
    if (k != TypeKind::kBoolean && k != TypeKind::kInteger &&
        k != TypeKind::kDouble && k != TypeKind::kString) {
      col.ResetValues(0);
      col.val.reserve(capacity);
      continue;
    }
    col.Reset(k, 0);
    col.null.reserve(capacity);
    if (k == TypeKind::kDouble) {
      col.f64.reserve(capacity);
    } else if (k == TypeKind::kString) {
      col.str.reserve(capacity);
    } else {
      col.i64.reserve(capacity);
    }
  }
}

void AppendSegmentRow(const Row& row, ColumnBatch* batch) {
  for (size_t c = 0; c < batch->columns.size(); ++c) {
    LaneSink lane(&batch->columns[c]);
    AddLanes(&batch->columns[c], 1);
    lane.set_row(batch->num_rows);
    lane.Set(row[c]);
  }
  ++batch->num_rows;
}

std::string EncodeSegment(const ColumnBatch& segment) {
  const size_t n = segment.num_rows;
  size_t bytes = sizeof(uint64_t) * (1 + n);
  for (const ColumnVector& col : segment.columns) {
    for (size_t r = 0; r < n; ++r) bytes += col.LaneBytes(r);
  }
  // LaneBytes is the bytes PutLane writes, so the record is sized once.
  std::string record(bytes, '\0');
  RawWriter out(record.data());
  PutFixed<uint64_t>(out, n);
  const uint64_t width = segment.columns.size();
  for (size_t r = 0; r < n; ++r) {
    PutFixed<uint64_t>(out, width);
    for (const ColumnVector& col : segment.columns) PutLane(out, col, r);
  }
  return record;
}

Result<std::shared_ptr<const ColumnBatch>> DecodeSegment(
    std::string_view record, const Schema& schema) {
  ByteReader in(record);
  uint64_t n = 0;
  if (!in.Read(&n, sizeof(n))) {
    return Status::InvalidArgument("corrupt segment (truncated header)");
  }
  const size_t width = schema.size();
  // A row takes its arity and at least a tag byte per column, so a
  // count the record cannot hold is refused before anything is
  // allocated for it.
  if (n > in.remaining() / (sizeof(uint64_t) + width)) {
    return Status::InvalidArgument(
        "corrupt segment (" + std::to_string(n) + " rows in a record of " +
        std::to_string(record.size()) + " bytes)");
  }
  auto batch = std::make_shared<ColumnBatch>();
  ResetSegment(schema, n, batch.get());
  std::vector<LaneSink> sinks;
  sinks.reserve(width);
  for (ColumnVector& col : batch->columns) {
    AddLanes(&col, n);
    sinks.emplace_back(&col);
  }
  for (size_t r = 0; r < n; ++r) {
    uint64_t arity = 0;
    if (!in.Read(&arity, sizeof(arity))) {
      return Status::InvalidArgument(kTruncatedU64);
    }
    if (arity != width) {
      return Status::InvalidArgument(
          "corrupt segment (row " + std::to_string(r) + " has " +
          std::to_string(arity) + " values for " + std::to_string(width) +
          " columns)");
    }
    for (LaneSink& sink : sinks) {
      sink.set_row(r);
      if (const char* err = DecodeValue(in, sink)) {
        return Status::InvalidArgument(err);
      }
    }
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument(
        "corrupt segment (" + std::to_string(in.remaining()) +
        " bytes left after its " + std::to_string(n) + " rows)");
  }
  batch->num_rows = n;
  return std::shared_ptr<const ColumnBatch>(std::move(batch));
}

Status WriteTableFile(const Table& table, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  os.write(kMagic, sizeof(kMagic));
  WriteString(os, table.name());
  WriteU64(os, table.schema().size());
  for (const Column& c : table.schema().columns()) {
    WriteString(os, c.name);
    WriteType(os, c.type);
  }
  WriteU64(os, table.num_rows());
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    RADB_ASSIGN_OR_RETURN(RowSet rows, table.GatherPartition(p));
    for (const Row& row : rows) {
      for (const Value& v : row) WriteValueBinary(os, v);
    }
  }
  os.flush();
  if (!os) {
    return Status::ExecutionError("write failed for " + path);
  }
  if (obs::MetricsRegistry* reg = obs::GlobalMetrics()) {
    reg->Add("storage.tables_written", 1);
    const auto pos = os.tellp();
    if (pos > 0) reg->Add("storage.bytes_written", static_cast<uint64_t>(pos));
  }
  return Status::OK();
}

Result<std::shared_ptr<Table>> ReadTableFile(const std::string& path,
                                             size_t num_partitions) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return Status::InvalidArgument("cannot open " + path + " for reading");
  }
  char magic[sizeof(kMagic)];
  if (!is.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not a radb table file");
  }
  RADB_ASSIGN_OR_RETURN(std::string name, ReadString(is));
  RADB_ASSIGN_OR_RETURN(uint64_t num_cols, ReadU64(is));
  if (num_cols > 4096) {
    return Status::InvalidArgument("corrupt table file (column count)");
  }
  Schema schema;
  for (uint64_t i = 0; i < num_cols; ++i) {
    RADB_ASSIGN_OR_RETURN(std::string col_name, ReadString(is));
    RADB_ASSIGN_OR_RETURN(DataType type, ReadType(is));
    schema.Add(Column{"", std::move(col_name), type});
  }
  RADB_ASSIGN_OR_RETURN(uint64_t num_rows, ReadU64(is));
  auto table = std::make_shared<Table>(name, std::move(schema),
                                       num_partitions);
  for (uint64_t r = 0; r < num_rows; ++r) {
    Row row;
    row.reserve(num_cols);
    for (uint64_t c = 0; c < num_cols; ++c) {
      RADB_ASSIGN_OR_RETURN(Value v, ReadValueBinary(is));
      row.push_back(std::move(v));
    }
    RADB_RETURN_NOT_OK(table->Insert(std::move(row)));
  }
  if (obs::MetricsRegistry* reg = obs::GlobalMetrics()) {
    reg->Add("storage.tables_read", 1);
    const auto pos = is.tellg();
    if (pos > 0) reg->Add("storage.bytes_read", static_cast<uint64_t>(pos));
  }
  return table;
}

}  // namespace radb
