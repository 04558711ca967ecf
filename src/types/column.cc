#include "types/column.h"

#include <utility>

namespace radb {

void ColumnVector::Reset(TypeKind k, size_t n) {
  kind = k;
  values = false;
  null.assign(n, 0);
  i64.clear();
  f64.clear();
  str.clear();
  val.clear();
  switch (k) {
    case TypeKind::kBoolean:
    case TypeKind::kInteger:
      i64.resize(n);
      break;
    case TypeKind::kDouble:
      f64.resize(n);
      break;
    case TypeKind::kString:
      str.resize(n);
      break;
    default:
      break;  // kNull: null bytes only
  }
}

void ColumnVector::ResetValues(size_t n) {
  Reset(TypeKind::kNull, 0);
  values = true;
  val.assign(n, Value::Null());
}

void ColumnVector::AppendValue(const Value& v) {
  if (values) {
    val.push_back(v);
    return;
  }
  const bool is_null = v.is_null();
  null.push_back(is_null ? 1 : 0);
  switch (kind) {
    case TypeKind::kBoolean:
      i64.push_back(is_null ? 0 : (v.bool_value() ? 1 : 0));
      break;
    case TypeKind::kInteger:
      i64.push_back(is_null ? 0 : v.int_value());
      break;
    case TypeKind::kDouble:
      f64.push_back(is_null ? 0.0 : v.double_value());
      break;
    case TypeKind::kString:
      str.emplace_back(is_null ? std::string() : v.string_value());
      break;
    default:
      break;
  }
}

void ColumnVector::AppendRange(const ColumnVector& src, size_t begin,
                               size_t count) {
  const auto append = [begin, count](auto& dst, const auto& from) {
    dst.insert(dst.end(), from.begin() + begin, from.begin() + begin + count);
  };
  if (values) {
    append(val, src.val);
    return;
  }
  append(null, src.null);
  switch (kind) {
    case TypeKind::kBoolean:
    case TypeKind::kInteger:
      append(i64, src.i64);
      break;
    case TypeKind::kDouble:
      append(f64, src.f64);
      break;
    case TypeKind::kString:
      append(str, src.str);
      break;
    default:
      break;
  }
}

void ColumnVector::SetValue(size_t i, Value v) {
  if (values) {
    val[i] = std::move(v);
    return;
  }
  null[i] = v.is_null() ? 1 : 0;
  if (null[i]) return;
  switch (kind) {
    case TypeKind::kBoolean:
      i64[i] = v.bool_value() ? 1 : 0;
      break;
    case TypeKind::kInteger:
      i64[i] = v.int_value();
      break;
    case TypeKind::kDouble:
      f64[i] = v.double_value();
      break;
    case TypeKind::kString:
      str[i] = v.string_value();
      break;
    default:
      break;
  }
}

Value ColumnVector::GetValue(size_t i) const {
  if (values) return val[i];
  if (null[i]) return Value::Null();
  switch (kind) {
    case TypeKind::kBoolean:
      return Value::Bool(i64[i] != 0);
    case TypeKind::kInteger:
      return Value::Int(i64[i]);
    case TypeKind::kDouble:
      return Value::Double(f64[i]);
    case TypeKind::kString:
      return Value::String(str[i]);
    default:
      return Value::Null();
  }
}

size_t ColumnVector::LaneBytes(size_t i) const {
  if (values) return val[i].ByteSize();
  // Mirrors Value::ByteSize(): tag byte + payload.
  if (null[i]) return 1;
  switch (kind) {
    case TypeKind::kBoolean:
      return 2;
    case TypeKind::kInteger:
    case TypeKind::kDouble:
      return 9;
    case TypeKind::kString:
      return 9 + str[i].size();
    default:
      return 1;
  }
}

}  // namespace radb
