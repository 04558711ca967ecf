#ifndef RADB_TYPES_COLUMN_H_
#define RADB_TYPES_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "types/data_type.h"
#include "types/value.h"

namespace radb {

/// One column vector of a batch. A typed lane stores contiguous
/// primitive payloads plus a null byte per lane (branch-light to test
/// and trivially vectorizable); a Value lane stores each lane's Value
/// as is, for the columns the typed storage cannot hold (VECTOR,
/// MATRIX, LABELED_SCALAR, sparse values, and scalar columns whose
/// runtime kinds may differ from their static kind). Copying a Value
/// is O(1), so a Value lane never copies an LA payload.
///
/// Storage by kind (typed lanes):
///   kBoolean / kInteger -> i64 (booleans stored as 0/1)
///   kDouble             -> f64
///   kString             -> str
///   kNull               -> null bytes only (every lane NULL)
/// Lanes whose null byte is set hold an unspecified payload; kernels
/// must not read them except to copy them around. A Value lane keeps
/// only `val` (NULL lanes hold a NULL Value).
struct ColumnVector {
  TypeKind kind = TypeKind::kNull;
  bool values = false;  // a Value lane
  std::vector<uint8_t> null;  // 1 = SQL NULL in that lane
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<std::string> str;
  std::vector<Value> val;

  size_t size() const { return values ? val.size() : null.size(); }

  /// Re-types the column as a typed lane of kind `k` and resizes it to
  /// `n` lanes (payloads unspecified, all lanes non-null). Keeps
  /// capacity across batches.
  void Reset(TypeKind k, size_t n);
  /// Re-types the column as a Value lane of `n` NULL lanes.
  void ResetValues(size_t n);

  /// Appends one Value (accessor: row -> column). On a typed lane the
  /// value's kind must match `kind` or be NULL.
  void AppendValue(const Value& v);
  /// Appends lanes [begin, begin + count) of `src`, a column of the
  /// same lane type (both Value lanes, or typed lanes of one kind):
  /// null bytes plus payload, copied by range.
  void AppendRange(const ColumnVector& src, size_t begin, size_t count);
  /// Overwrites lane `i` with `v` (same kind rule as AppendValue).
  void SetValue(size_t i, Value v);

  /// Materializes lane `i` back into a Value (column -> row).
  Value GetValue(size_t i) const;

  /// Serialized payload size of lane `i`; equals GetValue(i).ByteSize()
  /// so columnar byte accounting matches the row buffers'.
  size_t LaneBytes(size_t i) const;
};

/// A batch of rows in columnar layout: `num_rows` lanes per column.
/// Filters narrow a selection vector held by the pipeline instead of
/// compacting payloads, so passing operators stay zero-copy.
struct ColumnBatch {
  size_t num_rows = 0;
  std::vector<ColumnVector> columns;
};

}  // namespace radb

#endif  // RADB_TYPES_COLUMN_H_
