#include "la/vector.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace radb::la {

namespace {

Status SizeMismatch(const char* op, size_t a, size_t b) {
  return Status::DimensionMismatch(
      std::string(op) + ": vector sizes " + std::to_string(a) + " and " +
      std::to_string(b) + " do not match");
}

}  // namespace

double MaxAbsDiff(const double* a, const double* b, size_t n) {
  double m = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) {
      if (std::isnan(a[i]) != std::isnan(b[i])) {
        return std::numeric_limits<double>::infinity();
      }
    } else if (a[i] != b[i]) {
      m = std::max(m, std::fabs(a[i] - b[i]));
    }
  }
  return m;
}

double Vector::MaxAbsDiff(const Vector& other) const {
  if (size() != other.size()) {
    return std::numeric_limits<double>::infinity();
  }
  return la::MaxAbsDiff(data(), other.data(), size());
}

double Vector::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Vector::Norm2() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

double Vector::Min() const {
  double m = std::numeric_limits<double>::infinity();
  for (double v : data_) m = std::min(m, v);
  return m;
}

double Vector::Max() const {
  double m = -std::numeric_limits<double>::infinity();
  for (double v : data_) m = std::max(m, v);
  return m;
}

size_t Vector::ArgMin() const {
  size_t best = 0;
  for (size_t i = 1; i < data_.size(); ++i) {
    if (data_[i] < data_[best]) best = i;
  }
  return best;
}

size_t Vector::ArgMax() const {
  size_t best = 0;
  for (size_t i = 1; i < data_.size(); ++i) {
    if (data_[i] > data_[best]) best = i;
  }
  return best;
}

std::string Vector::ToString(size_t max_elems) const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < size() && i < max_elems; ++i) {
    if (i > 0) os << ", ";
    os << data_[i];
  }
  if (size() > max_elems) os << ", ... (" << size() << " entries)";
  os << "]";
  return os.str();
}

Status AddInPlace(Vector* dst, const Vector& src) {
  if (dst->size() != src.size()) {
    return SizeMismatch("add", dst->size(), src.size());
  }
  for (size_t i = 0; i < src.size(); ++i) (*dst)[i] += src[i];
  return Status::OK();
}

Result<Vector> Add(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return SizeMismatch("add", a.size(), b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Result<Vector> Sub(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return SizeMismatch("sub", a.size(), b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Result<Vector> Mul(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return SizeMismatch("mul", a.size(), b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}

Result<Vector> Div(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return SizeMismatch("div", a.size(), b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] / b[i];
  return out;
}

Vector AddScalar(const Vector& a, double s) {
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + s;
  return out;
}

Vector SubScalar(const Vector& a, double s) {
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - s;
  return out;
}

Vector RsubScalar(double s, const Vector& a) {
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = s - a[i];
  return out;
}

Vector MulScalar(const Vector& a, double s) {
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

Vector DivScalar(const Vector& a, double s) {
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] / s;
  return out;
}

Vector RdivScalar(double s, const Vector& a) {
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = s / a[i];
  return out;
}

Result<double> InnerProduct(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) {
    return SizeMismatch("inner_product", a.size(), b.size());
  }
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace radb::la
