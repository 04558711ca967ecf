#ifndef RADB_STORAGE_SERIALIZE_H_
#define RADB_STORAGE_SERIALIZE_H_

#include <cstring>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "storage/table.h"
#include "types/column.h"

namespace radb {

/// A read cursor over bytes already in memory (a page-file record, a
/// WAL payload). The ByteReader overloads below decode from it with no
/// stream; they share every check and message with the stream forms.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : p_(data), end_(data + size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  // Read and Get are forced inline: the segment decoder reads every
  // cell through them, and as calls they halve its speed.
  /// Copies the next `n` bytes into `dst`; false (nothing consumed) when
  /// fewer remain.
  [[gnu::always_inline]] bool Read(void* dst, size_t n) {
    if (n > remaining()) return false;
    std::memcpy(dst, p_, n);
    p_ += n;
    return true;
  }
  /// Next byte, or -1 at the end.
  [[gnu::always_inline]] int Get() {
    return p_ == end_ ? -1 : static_cast<uint8_t>(*p_++);
  }
  /// Whether `n` more bytes remain: lets a decoder refuse a corrupt
  /// length before it allocates for it.
  bool Has(size_t n) const { return n <= remaining(); }
  /// Assigns the next `n` bytes to `*s`; false when fewer remain.
  bool ReadString(std::string* s, size_t n) {
    if (n > remaining()) return false;
    s->assign(p_, n);
    p_ += n;
    return true;
  }

 private:
  const char* p_;
  const char* end_;
};

/// Primitive codecs shared by the table-file format, the persistent
/// store's catalog snapshot, and its write-ahead log. Fixed-width
/// little-endian integers/doubles and length-prefixed strings; every
/// Read* reports truncation as InvalidArgument. The Append* forms write
/// the same bytes to the end of a string.
void WriteU64(std::ostream& os, uint64_t v);
void WriteI64(std::ostream& os, int64_t v);
void WriteF64(std::ostream& os, double v);
void WriteString(std::ostream& os, const std::string& s);
void AppendU64(std::string& out, uint64_t v);
void AppendString(std::string& out, const std::string& s);
Result<uint64_t> ReadU64(std::istream& is);
Result<int64_t> ReadI64(std::istream& is);
Result<double> ReadF64(std::istream& is);
Result<std::string> ReadString(std::istream& is);
Result<uint64_t> ReadU64(ByteReader& in);
Result<std::string> ReadString(ByteReader& in);

/// Column-type codec (kind + known dims).
void WriteType(std::ostream& os, const DataType& t);
Result<DataType> ReadType(std::istream& is);
Result<DataType> ReadType(ByteReader& in);

/// Value-level binary codec (the format table files and spill runs
/// share): one tag byte then the payload; LA payloads as raw
/// little-endian doubles. The bytes written for a value are exactly
/// Value::ByteSize().
void WriteValueBinary(std::ostream& os, const Value& v);
Result<Value> ReadValueBinary(std::istream& is);

/// Row codec: arity-prefixed sequence of values.
void WriteRowBinary(std::ostream& os, const Row& row);
void AppendRowBinary(std::string& out, const Row& row);
Result<Row> ReadRowBinary(std::istream& is);
Result<Row> ReadRowBinary(ByteReader& in);

/// A table segment in memory is a ColumnBatch with one column per
/// schema column, filled under one lane rule: a column whose declared
/// kind is BOOLEAN, INTEGER, DOUBLE or STRING is a typed lane while
/// every non-NULL cell has that kind; at its first cell of another
/// kind (an INTEGER stored in a DOUBLE column, say) the whole column
/// becomes a Value lane, so every value keeps its runtime kind and
/// bits. Other columns are Value lanes. A table's open tail fills its
/// segment row by row (AppendSegmentRow) and DecodeSegment fills one
/// from a record, both by this rule, so a segment has the same lanes
/// whether it was inserted or read back.
///
/// Makes `batch` an empty segment of a table with `schema`, with room
/// for `capacity` rows.
void ResetSegment(const Schema& schema, size_t capacity, ColumnBatch* batch);
/// Appends `row`, one value per schema column, to a segment.
void AppendSegmentRow(const Row& row, ColumnBatch* batch);

/// Table segment record: a u64 row count, then each row in the row
/// codec, written from the segment's lanes. The record of a segment is
/// 8 + 8 per row + its lanes' bytes (ColumnVector::LaneBytes).
std::string EncodeSegment(const ColumnBatch& segment);

/// Decodes a segment record of a table with `schema` into a segment,
/// in a single pass over the bytes. A row count the record cannot
/// hold, a row whose arity is not the schema's width, a corrupt value,
/// or bytes left over after the last row are InvalidArgument.
Result<std::shared_ptr<const ColumnBatch>> DecodeSegment(
    std::string_view record, const Schema& schema);

/// Writes a table (schema + all rows) to `path` in the radb binary
/// table format. The format is self-describing: a magic header, the
/// column names and types (dimensions included), then length-prefixed
/// values. LA payloads are stored as raw little-endian doubles.
Status WriteTableFile(const Table& table, const std::string& path);

/// Reads a table written by WriteTableFile. Rows are redistributed
/// round-robin over `num_partitions`. Corrupt or truncated files
/// produce InvalidArgument, never partial tables.
Result<std::shared_ptr<Table>> ReadTableFile(const std::string& path,
                                             size_t num_partitions);

}  // namespace radb

#endif  // RADB_STORAGE_SERIALIZE_H_
