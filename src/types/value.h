#ifndef RADB_TYPES_VALUE_H_
#define RADB_TYPES_VALUE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <variant>

#include "common/result.h"
#include "la/matrix.h"
#include "la/sparse/sparse.h"
#include "la/vector.h"
#include "types/data_type.h"

namespace radb {

/// Sentinel meaning "no label has been assigned". Distinct from every
/// value a user can plausibly compute (labels like `id - 1000` can be
/// genuinely negative, so -1 is NOT a safe sentinel — see VECTORIZE /
/// ROWMATRIX error reporting).
inline constexpr int64_t kNoLabel = std::numeric_limits<int64_t>::min();

/// A DOUBLE carrying an integer label; produced by label_scalar and
/// consumed by the VECTORIZE aggregate (paper §3.3).
struct LabeledScalarValue {
  double value = 0.0;
  int64_t label = kNoLabel;
  bool operator==(const LabeledScalarValue&) const = default;
};

/// Runtime VECTOR payload. Vectors carry an implicit label (unset by
/// default) that label_vector can set and ROWMATRIX/COLMATRIX consume
/// (paper §3.3). Payload is shared so copying a Value is O(1).
struct VectorValue {
  std::shared_ptr<const la::Vector> vec;
  int64_t label = kNoLabel;
  bool operator==(const VectorValue& o) const {
    return label == o.label && (vec == o.vec || (vec && o.vec && *vec == *o.vec));
  }
};

/// Runtime MATRIX payload, shared for O(1) Value copies.
struct MatrixValue {
  std::shared_ptr<const la::Matrix> mat;
  bool operator==(const MatrixValue& o) const {
    return mat == o.mat || (mat && o.mat && *mat == *o.mat);
  }
};

/// Runtime payload of a sparsely-represented MATRIX. Sparsity is a
/// physical property, not a SQL type: kind() is still kMatrix, and a
/// sparse value is Equals()-equal to the dense value with the same
/// cells. Produced by SPARSIFY and by sparse-in → sparse-out kernels.
struct SparseMatrixValue {
  std::shared_ptr<const la::sparse::CsrMatrix> mat;
  bool operator==(const SparseMatrixValue& o) const {
    return mat == o.mat || (mat && o.mat && *mat == *o.mat);
  }
};

/// A single SQL runtime value: the classical scalar types plus the
/// paper's LABELED_SCALAR / VECTOR / MATRIX extension types.
class Value {
 public:
  Value() : v_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(std::in_place_type<bool>, b); }
  static Value Int(int64_t i) { return Value(std::in_place_type<int64_t>, i); }
  static Value Double(double d) {
    return Value(std::in_place_type<double>, d);
  }
  static Value String(std::string s) {
    return Value(std::in_place_type<std::string>, std::move(s));
  }
  static Value Labeled(double value, int64_t label) {
    return Value(std::in_place_type<LabeledScalarValue>,
                 LabeledScalarValue{value, label});
  }
  static Value FromVector(la::Vector v, int64_t label = kNoLabel) {
    return FromSharedVector(std::make_shared<la::Vector>(std::move(v)), label);
  }
  static Value FromSharedVector(std::shared_ptr<const la::Vector> v,
                                int64_t label = kNoLabel) {
    return Value(std::in_place_type<VectorValue>,
                 VectorValue{std::move(v), label});
  }
  static Value FromMatrix(la::Matrix m) {
    return FromSharedMatrix(std::make_shared<la::Matrix>(std::move(m)));
  }
  static Value FromSharedMatrix(std::shared_ptr<const la::Matrix> m) {
    return Value(std::in_place_type<MatrixValue>, MatrixValue{std::move(m)});
  }
  static Value FromSparseMatrix(la::sparse::CsrMatrix m) {
    return FromSharedSparseMatrix(
        std::make_shared<la::sparse::CsrMatrix>(std::move(m)));
  }
  static Value FromSharedSparseMatrix(
      std::shared_ptr<const la::sparse::CsrMatrix> m) {
    return Value(std::in_place_type<SparseMatrixValue>,
                 SparseMatrixValue{std::move(m)});
  }

  TypeKind kind() const;
  bool is_null() const { return kind() == TypeKind::kNull; }

  /// The precise runtime type, dimensions included.
  DataType RuntimeType() const;

  bool bool_value() const { return std::get<bool>(v_); }
  int64_t int_value() const { return std::get<int64_t>(v_); }
  double double_value() const { return std::get<double>(v_); }
  const std::string& string_value() const {
    return std::get<std::string>(v_);
  }
  const LabeledScalarValue& labeled() const {
    return std::get<LabeledScalarValue>(v_);
  }
  const VectorValue& vector_value() const {
    return std::get<VectorValue>(v_);
  }
  const MatrixValue& matrix_value() const {
    return std::get<MatrixValue>(v_);
  }
  const la::Vector& vector() const { return *vector_value().vec; }
  /// Dense matrix payload; throws bad_variant_access on a sparse
  /// value — check is_sparse_matrix() or go through Densified().
  const la::Matrix& matrix() const { return *matrix_value().mat; }

  /// True iff this kMatrix value is sparsely represented.
  bool is_sparse_matrix() const {
    return std::holds_alternative<SparseMatrixValue>(v_);
  }
  const SparseMatrixValue& sparse_matrix_value() const {
    return std::get<SparseMatrixValue>(v_);
  }
  const la::sparse::CsrMatrix& sparse_matrix() const {
    return *sparse_matrix_value().mat;
  }
  /// This value with any sparse matrix expanded to dense; identity
  /// (no copy) for everything else.
  Value Densified() const;

  /// Numeric coercion: INTEGER, DOUBLE, BOOLEAN and LABELED_SCALAR all
  /// read as double; anything else is a TypeError.
  Result<double> AsDouble() const;
  /// INTEGER or BOOLEAN as int64; DOUBLE only if integral.
  Result<int64_t> AsInt() const;

  /// Exact serialized payload size (the radb binary value format:
  /// tag byte + payload, element data and dims for MATRIX/VECTOR).
  /// Drives shuffle byte accounting and the memory tracker's charges,
  /// and equals the bytes a spill file writes for this value.
  size_t ByteSize() const;

  /// Deep equality (vectors/matrices compared element-wise). SQL
  /// NULLs compare equal here — this is used by tests and group-by
  /// keys, not three-valued logic. Representation-blind: a sparse
  /// matrix equals the dense matrix with the same cells.
  bool Equals(const Value& other) const;

  /// Total order over comparable scalar kinds for MIN/MAX/ORDER BY.
  /// TypeError on vectors/matrices or mismatched kinds.
  Result<int> Compare(const Value& other) const;

  /// Stable content hash (group-by / hash-join keys).
  size_t Hash() const;

  std::string ToString() const;

 private:
  using Repr = std::variant<std::monostate, bool, int64_t, double,
                            std::string, LabeledScalarValue, VectorValue,
                            MatrixValue, SparseMatrixValue>;
  /// Constructs alternative T of the variant in place: a temporary
  /// Repr moved in draws GCC's -Wmaybe-uninitialized on its inactive
  /// members under the sanitizers.
  template <typename T, typename... Args>
  explicit Value(std::in_place_type_t<T> t, Args&&... args)
      : v_(t, std::forward<Args>(args)...) {}
  Repr v_;
};

/// Row of values. Tuples flowing through the engine are plain Rows.
using Row = std::vector<Value>;

/// Approximate payload size of a whole row.
size_t RowByteSize(const Row& row);

}  // namespace radb

#endif  // RADB_TYPES_VALUE_H_
