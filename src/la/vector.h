#ifndef RADB_LA_VECTOR_H_
#define RADB_LA_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace radb::la {

/// Dense vector of doubles. This is the runtime payload of the SQL
/// VECTOR type. There is no row/column distinction; orientation is up
/// to the interpretation of each operation (paper §3.1).
class Vector {
 public:
  Vector() = default;
  explicit Vector(size_t n, double fill = 0.0) : data_(n, fill) {}
  explicit Vector(std::vector<double> data) : data_(std::move(data)) {}

  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](size_t i) { return data_[i]; }
  double operator[](size_t i) const { return data_[i]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  const std::vector<double>& values() const { return data_; }

  /// Number of bytes of payload (used by the optimizer's cost model).
  size_t ByteSize() const { return data_.size() * sizeof(double); }

  bool operator==(const Vector& other) const { return data_ == other.data_; }

  /// Max |a_i - b_i| under la::MaxAbsDiff's NaN rule; infinity on size
  /// mismatch.
  double MaxAbsDiff(const Vector& other) const;

  /// Sum of entries.
  double Sum() const;
  /// Euclidean norm.
  double Norm2() const;
  double Min() const;
  double Max() const;
  /// Index of the smallest / largest entry (first on ties).
  size_t ArgMin() const;
  size_t ArgMax() const;

  std::string ToString(size_t max_elems = 8) const;

 private:
  std::vector<double> data_;
};

/// Max over i < n of |a_i - b_i|. A NaN against a non-NaN counts as
/// +infinity; NaN against NaN, and equal infinities, count as 0.
double MaxAbsDiff(const double* a, const double* b, size_t n);

/// dst += src, shape-checked, allocation-free (see matrix.h).
Status AddInPlace(Vector* dst, const Vector& src);

/// a + b, element-wise. Shape-checked.
Result<Vector> Add(const Vector& a, const Vector& b);
/// a - b, element-wise. Shape-checked.
Result<Vector> Sub(const Vector& a, const Vector& b);
/// a ∘ b (Hadamard), element-wise. Shape-checked.
Result<Vector> Mul(const Vector& a, const Vector& b);
/// a / b element-wise. Shape-checked; division by zero yields inf/nan
/// per IEEE-754 (matches SQL double semantics).
Result<Vector> Div(const Vector& a, const Vector& b);

/// Broadcast ops with a scalar on either side.
Vector AddScalar(const Vector& a, double s);
Vector SubScalar(const Vector& a, double s);   // a - s
Vector RsubScalar(double s, const Vector& a);  // s - a
Vector MulScalar(const Vector& a, double s);
Vector DivScalar(const Vector& a, double s);   // a / s
Vector RdivScalar(double s, const Vector& a);  // s / a

/// Dot product <a, b>. Shape-checked.
Result<double> InnerProduct(const Vector& a, const Vector& b);

}  // namespace radb::la

#endif  // RADB_LA_VECTOR_H_
