#include "types/value.h"

#include <cmath>
#include <functional>
#include <sstream>

namespace radb {

namespace {

size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

TypeKind Value::kind() const {
  switch (v_.index()) {
    case 0:
      return TypeKind::kNull;
    case 1:
      return TypeKind::kBoolean;
    case 2:
      return TypeKind::kInteger;
    case 3:
      return TypeKind::kDouble;
    case 4:
      return TypeKind::kString;
    case 5:
      return TypeKind::kLabeledScalar;
    case 6:
      return TypeKind::kVector;
    case 7:
    case 8:  // sparse representation of the same SQL type
      return TypeKind::kMatrix;
  }
  return TypeKind::kNull;
}

Value Value::Densified() const {
  if (!is_sparse_matrix()) return *this;
  return FromMatrix(sparse_matrix().ToDense());
}

DataType Value::RuntimeType() const {
  switch (kind()) {
    case TypeKind::kVector:
      return DataType::MakeVector(static_cast<int64_t>(vector().size()));
    case TypeKind::kMatrix:
      if (is_sparse_matrix()) {
        return DataType::MakeMatrix(
            static_cast<int64_t>(sparse_matrix().rows()),
            static_cast<int64_t>(sparse_matrix().cols()));
      }
      return DataType::MakeMatrix(static_cast<int64_t>(matrix().rows()),
                                  static_cast<int64_t>(matrix().cols()));
    default:
      return DataType(kind());
  }
}

Result<double> Value::AsDouble() const {
  switch (kind()) {
    case TypeKind::kBoolean:
      return bool_value() ? 1.0 : 0.0;
    case TypeKind::kInteger:
      return static_cast<double>(int_value());
    case TypeKind::kDouble:
      return double_value();
    case TypeKind::kLabeledScalar:
      return labeled().value;
    default:
      return Status::TypeError("cannot read " +
                               std::string(TypeKindName(kind())) +
                               " as DOUBLE");
  }
}

Result<int64_t> Value::AsInt() const {
  switch (kind()) {
    case TypeKind::kBoolean:
      return static_cast<int64_t>(bool_value());
    case TypeKind::kInteger:
      return int_value();
    case TypeKind::kDouble: {
      const double d = double_value();
      if (d == std::floor(d)) return static_cast<int64_t>(d);
      return Status::TypeError("non-integral DOUBLE used as INTEGER");
    }
    case TypeKind::kLabeledScalar:
      return labeled().label;
    default:
      return Status::TypeError("cannot read " +
                               std::string(TypeKindName(kind())) +
                               " as INTEGER");
  }
}

size_t Value::ByteSize() const {
  // Exactly the radb binary serialization size (1 tag byte + payload;
  // LA payloads count element data plus their dimension/label header).
  // Spill files, shuffle accounting, and the memory tracker all agree
  // on this number; tests/mem_test.cc pins it against the serializer.
  switch (kind()) {
    case TypeKind::kNull:
      return 1;
    case TypeKind::kBoolean:
      return 2;
    case TypeKind::kInteger:
    case TypeKind::kDouble:
      return 1 + 8;
    case TypeKind::kString:
      return 1 + 8 + string_value().size();
    case TypeKind::kLabeledScalar:
      return 1 + 8 + 8;
    case TypeKind::kVector:
      // tag + label + size + elements.
      return 1 + 8 + 8 + vector().ByteSize();
    case TypeKind::kMatrix:
      if (is_sparse_matrix()) {
        // tag + (rows + cols + nnz + row_ptr + cols + values).
        return 1 + sparse_matrix().SerializedByteSize();
      }
      // tag + rows + cols + elements. Computed from the shape, not
      // Matrix::ByteSize(), which is capacity-aware for the tracker.
      return 1 + 8 + 8 + matrix().rows() * matrix().cols() * sizeof(double);
  }
  return 1 + 8;
}

bool Value::Equals(const Value& other) const {
  const bool a_sparse = is_sparse_matrix();
  const bool b_sparse = other.is_sparse_matrix();
  if (a_sparse == b_sparse) return v_ == other.v_;
  // Mixed representations: equal iff the cells agree. Canonical CSR
  // (sorted columns, no stored 0.0) means stored entries must match
  // dense cells exactly and every other dense cell must be 0.0.
  const la::sparse::CsrMatrix& s =
      a_sparse ? sparse_matrix() : other.sparse_matrix();
  const Value& dv = a_sparse ? other : *this;
  if (dv.kind() != TypeKind::kMatrix) return false;
  const la::Matrix& d = dv.matrix();
  if (s.rows() != d.rows() || s.cols() != d.cols()) return false;
  for (size_t r = 0; r < s.rows(); ++r) {
    uint64_t i = s.row_ptr()[r];
    const uint64_t ie = s.row_ptr()[r + 1];
    const double* row = d.RowPtr(r);
    for (size_t c = 0; c < s.cols(); ++c) {
      if (i < ie && s.col_idx()[i] == c) {
        if (!(row[c] == s.values()[i])) return false;
        ++i;
      } else if (!(row[c] == 0.0)) {
        return false;
      }
    }
  }
  return true;
}

Result<int> Value::Compare(const Value& other) const {
  // Two INTEGERs compare exactly, as a B+ tree compares its keys; other
  // numeric kinds compare through double; strings lexicographically.
  const TypeKind a = kind(), b = other.kind();
  if (a == TypeKind::kInteger && b == TypeKind::kInteger) {
    const int64_t x = int_value(), y = other.int_value();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  const bool a_num = (a == TypeKind::kInteger || a == TypeKind::kDouble ||
                      a == TypeKind::kBoolean || a == TypeKind::kLabeledScalar);
  const bool b_num = (b == TypeKind::kInteger || b == TypeKind::kDouble ||
                      b == TypeKind::kBoolean || b == TypeKind::kLabeledScalar);
  if (a_num && b_num) {
    RADB_ASSIGN_OR_RETURN(double x, AsDouble());
    RADB_ASSIGN_OR_RETURN(double y, other.AsDouble());
    if (x < y) return -1;
    if (x > y) return 1;
    return 0;
  }
  if (a == TypeKind::kString && b == TypeKind::kString) {
    const int c = string_value().compare(other.string_value());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  return Status::TypeError(std::string("cannot compare ") + TypeKindName(a) +
                           " with " + TypeKindName(b));
}

size_t Value::Hash() const {
  std::hash<double> hd;
  std::hash<int64_t> hi;
  switch (kind()) {
    case TypeKind::kNull:
      return 0x517cc1b727220a95ULL;
    case TypeKind::kBoolean:
      return bool_value() ? 0x9ae16a3b2f90404fULL : 0xc949d7c7509e6557ULL;
    case TypeKind::kInteger:
      // Integers hash like the equal double so 1 and 1.0 join/group
      // together, matching numeric comparison semantics.
      return hd(static_cast<double>(int_value()));
    case TypeKind::kDouble:
      return hd(double_value());
    case TypeKind::kString:
      return std::hash<std::string>()(string_value());
    case TypeKind::kLabeledScalar:
      return HashCombine(hd(labeled().value), hi(labeled().label));
    case TypeKind::kVector: {
      size_t h = hi(static_cast<int64_t>(vector().size()));
      for (double d : vector().values()) h = HashCombine(h, hd(d));
      return h;
    }
    case TypeKind::kMatrix: {
      if (is_sparse_matrix()) {
        // Hash must match the dense value with the same cells so
        // mixed-representation group-by keys collide correctly.
        // std::hash<double> hashes -0.0 and +0.0 identically, so
        // expanding structural zeros as 0.0 is exact.
        const la::sparse::CsrMatrix& m = sparse_matrix();
        size_t h = HashCombine(hi(static_cast<int64_t>(m.rows())),
                               hi(static_cast<int64_t>(m.cols())));
        const size_t zero_hash = hd(0.0);
        for (size_t r = 0; r < m.rows(); ++r) {
          uint64_t i = m.row_ptr()[r];
          const uint64_t ie = m.row_ptr()[r + 1];
          for (size_t c = 0; c < m.cols(); ++c) {
            if (i < ie && m.col_idx()[i] == c) {
              h = HashCombine(h, hd(m.values()[i++]));
            } else {
              h = HashCombine(h, zero_hash);
            }
          }
        }
        return h;
      }
      const la::Matrix& m = matrix();
      size_t h = HashCombine(hi(static_cast<int64_t>(m.rows())),
                             hi(static_cast<int64_t>(m.cols())));
      const double* p = m.data();
      for (size_t i = 0; i < m.rows() * m.cols(); ++i) {
        h = HashCombine(h, hd(p[i]));
      }
      return h;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  std::ostringstream os;
  switch (kind()) {
    case TypeKind::kNull:
      return "NULL";
    case TypeKind::kBoolean:
      return bool_value() ? "true" : "false";
    case TypeKind::kInteger:
      os << int_value();
      return os.str();
    case TypeKind::kDouble:
      os << double_value();
      return os.str();
    case TypeKind::kString:
      return "'" + string_value() + "'";
    case TypeKind::kLabeledScalar:
      os << labeled().value << "@";
      if (labeled().label == kNoLabel) {
        os << "?";
      } else {
        os << labeled().label;
      }
      return os.str();
    case TypeKind::kVector:
      return vector().ToString();
    case TypeKind::kMatrix:
      if (is_sparse_matrix()) return sparse_matrix().ToString();
      return matrix().ToString();
  }
  return "?";
}

size_t RowByteSize(const Row& row) {
  size_t s = 0;
  for (const Value& v : row) s += v.ByteSize();
  return s;
}

}  // namespace radb
