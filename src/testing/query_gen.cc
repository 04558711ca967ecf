#include "testing/query_gen.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

namespace radb::testing {

namespace {

/// A column visible in the generated query's scope.
struct ColRef {
  std::string text;  // "r0.c1"
  DataType type;
};

/// Columns bucketed by kind for quick "give me an X" picks.
struct Scope {
  std::vector<ColRef> ints, doubles, bools, strings, vectors, matrices;

  bool HasNumeric() const { return !ints.empty() || !doubles.empty(); }
};

const ColRef* Pick(const std::vector<ColRef>& v, Rng* rng) {
  return v.empty() ? nullptr : &v[rng->NextBelow(v.size())];
}

/// Generates total, exact expressions only: no division, no partial
/// builtins (sqrt/ln/inverse/...), every index a literal in range.
/// Divergence-by-construction hazards this sidesteps are documented
/// in DESIGN.md §9.
class ExprGen {
 public:
  ExprGen(const Scope& scope, Rng* rng) : s_(scope), rng_(rng) {}

  /// INTEGER-kind expression (never promotes to double).
  std::string IntExpr(int depth) {
    const uint64_t roll = rng_->NextBelow(10);
    if (depth <= 0 || roll < 3) {
      if (const ColRef* c = Pick(s_.ints, rng_); c != nullptr && roll != 0) {
        return c->text;
      }
      return std::to_string(static_cast<int64_t>(rng_->NextBelow(7)) - 3);
    }
    if (roll < 8 || (s_.vectors.empty() && s_.matrices.empty())) {
      static const char* kOps[] = {" + ", " - ", " * "};
      return "(" + IntExpr(depth - 1) + kOps[rng_->NextBelow(3)] +
             IntExpr(depth - 1) + ")";
    }
    if (const ColRef* v = Pick(s_.vectors, rng_); v != nullptr && roll == 8) {
      return rng_->NextBelow(2) == 0 ? "vector_size(" + v->text + ")"
                                     : "argmax_vector(" + v->text + ")";
    }
    if (const ColRef* m = Pick(s_.matrices, rng_)) {
      switch (rng_->NextBelow(3)) {
        case 0:
          return "matrix_rows(" + m->text + ")";
        case 1:
          return "matrix_cols(" + m->text + ")";
        default:
          // Stored-entry count; representation-invariant by design.
          return "nnz(" + m->text + ")";
      }
    }
    return IntExpr(0);
  }

  /// Numeric expression; *is_double reports the statically known kind
  /// (the engine never produces a mixed-kind column: int arithmetic
  /// stays int, anything touching a double is double).
  std::string NumExpr(int depth, bool* is_double) {
    const uint64_t roll = rng_->NextBelow(12);
    if (roll < 4) {
      *is_double = false;
      return IntExpr(depth);
    }
    if (roll < 6 || depth <= 0) {
      *is_double = true;
      if (const ColRef* c = Pick(s_.doubles, rng_); c != nullptr) {
        return c->text;
      }
      // Doubles on the 0.25 grid keep every downstream sum exact.
      const double v = (static_cast<double>(rng_->NextBelow(25)) - 12.0) * 0.25;
      std::ostringstream os;
      os << v;
      std::string text = os.str();
      if (text.find('.') == std::string::npos) text += ".0";
      return text;
    }
    if (roll < 9) {
      bool ld = false, rd = false;
      static const char* kOps[] = {" + ", " - ", " * "};
      const std::string e = "(" + NumExpr(depth - 1, &ld) +
                            kOps[rng_->NextBelow(3)] +
                            NumExpr(depth - 1, &rd) + ")";
      *is_double = ld || rd;
      return e;
    }
    // LA-flavored scalar reductions (all exact on the generated grid).
    *is_double = true;
    if (const ColRef* v = Pick(s_.vectors, rng_); v != nullptr && roll == 9) {
      static const char* kFns[] = {"sum_vector", "min_vector", "max_vector"};
      return std::string(kFns[rng_->NextBelow(3)]) + "(" + v->text + ")";
    }
    if (const ColRef* m = Pick(s_.matrices, rng_); m != nullptr && roll == 10) {
      if (m->type.rows() == m->type.cols() && rng_->NextBelow(2) == 0) {
        return "trace(" + m->text + ")";
      }
      static const char* kFns[] = {"sum_matrix", "min_matrix", "max_matrix"};
      return std::string(kFns[rng_->NextBelow(3)]) + "(" + m->text + ")";
    }
    if (const ColRef* m = Pick(s_.matrices, rng_); m != nullptr && roll == 11) {
      const int64_t r = static_cast<int64_t>(rng_->NextBelow(
          static_cast<uint64_t>(*m->type.rows())));
      const int64_t c = static_cast<int64_t>(rng_->NextBelow(
          static_cast<uint64_t>(*m->type.cols())));
      return "get_entry(" + m->text + ", " + std::to_string(r) + ", " +
             std::to_string(c) + ")";
    }
    if (const ColRef* v = Pick(s_.vectors, rng_); v != nullptr) {
      const int64_t i = static_cast<int64_t>(
          rng_->NextBelow(static_cast<uint64_t>(*v->type.rows())));
      return "get_scalar(" + v->text + ", " + std::to_string(i) + ")";
    }
    bool d = false;
    const std::string e = "abs_val(" + NumExpr(0, &d) + " + 0.0)";
    return e;
  }

  /// Boolean predicate. Equality comparisons are restricted to
  /// same-kind sides of hashable kinds (int/bool/string): `=` between
  /// relations becomes a hash-join key, and the engine's hash/Equals
  /// key semantics must coincide with EvalCompare for the comparison
  /// the reference evaluator performs.
  std::string BoolExpr(int depth) {
    const uint64_t roll = rng_->NextBelow(10);
    if (roll == 0 && !s_.bools.empty()) {
      return Pick(s_.bools, rng_)->text;
    }
    if (depth > 0 && roll < 3) {
      const char* op = rng_->NextBelow(2) == 0 ? " AND " : " OR ";
      return "(" + BoolExpr(depth - 1) + op + BoolExpr(depth - 1) + ")";
    }
    if (depth > 0 && roll == 3) {
      return "(NOT " + BoolExpr(depth - 1) + ")";
    }
    if (roll == 4 && s_.strings.size() >= 1) {
      const ColRef* a = Pick(s_.strings, rng_);
      const ColRef* b = Pick(s_.strings, rng_);
      static const char* kOps[] = {" = ", " < ", " <= ", " <> "};
      return "(" + a->text + kOps[rng_->NextBelow(4)] + b->text + ")";
    }
    static const char* kCmp[] = {" < ", " <= ", " > ", " >= ", " <> "};
    const uint64_t cmp = rng_->NextBelow(6);
    if (cmp == 5) {
      // Equality: int-only on both sides.
      return "(" + IntExpr(1) + " = " + IntExpr(1) + ")";
    }
    bool ld = false, rd = false;
    return "(" + NumExpr(1, &ld) + kCmp[cmp] + NumExpr(1, &rd) + ")";
  }

  /// LA-valued (VECTOR/MATRIX) expression, or empty when the scope has
  /// no LA columns to build from.
  std::string LaExpr() {
    const uint64_t roll = rng_->NextBelow(10);
    const ColRef* v = Pick(s_.vectors, rng_);
    const ColRef* m = Pick(s_.matrices, rng_);
    if (v != nullptr && (roll < 2 || m == nullptr)) {
      switch (rng_->NextBelow(4)) {
        case 0: {
          // Same-length pair for elementwise +/-.
          for (const ColRef& o : s_.vectors) {
            if (o.type.rows() == v->type.rows()) {
              return "(" + v->text + (rng_->NextBelow(2) == 0 ? " + " : " - ") +
                     o.text + ")";
            }
          }
          return v->text;
        }
        case 1:
          return "outer_product(" + v->text + ", " +
                 Pick(s_.vectors, rng_)->text + ")";
        case 2:
          return "diag_matrix(" + v->text + ")";
        default:
          return v->text;
      }
    }
    if (m != nullptr) {
      switch (roll) {
        case 2:
          return "trans_matrix(" + m->text + ")";
        case 3: {
          // matrix_multiply with compatible inner dimensions.
          for (const ColRef& o : s_.matrices) {
            if (m->type.cols() == o.type.rows()) {
              return "matrix_multiply(" + m->text + ", " + o.text + ")";
            }
          }
          return "trans_matrix(" + m->text + ")";
        }
        case 4: {
          const int64_t r = static_cast<int64_t>(rng_->NextBelow(
              static_cast<uint64_t>(*m->type.rows())));
          return "get_row(" + m->text + ", " + std::to_string(r) + ")";
        }
        case 5: {
          // Same-shape pair for elementwise +.
          for (const ColRef& o : s_.matrices) {
            if (o.type.rows() == m->type.rows() &&
                o.type.cols() == m->type.cols()) {
              return "(" + m->text + " + " + o.text + ")";
            }
          }
          return m->text;
        }
        case 6:
          return "row_mins(" + m->text + ")";
        case 7:
          // Representation round-trips: the differ densifies before
          // comparing, so these must be value-preserving no-ops.
          return rng_->NextBelow(2) == 0
                     ? "sparsify(" + m->text + ")"
                     : "densify(sparsify(" + m->text + "))";
        case 8: {
          // Semiring-generalized multiply; grid entries keep min/max
          // and sum folds exact, so every config agrees bitwise.
          static const char* kSemirings[] = {"plus_times", "min_plus",
                                             "max_plus", "or_and"};
          const char* sr = kSemirings[rng_->NextBelow(4)];
          for (const ColRef& o : s_.matrices) {
            if (m->type.cols() == o.type.rows()) {
              const std::string a = rng_->NextBelow(2) == 0
                                        ? "sparsify(" + m->text + ")"
                                        : m->text;
              return "matrix_multiply(" + a + ", " + o.text + ", '" +
                     std::string(sr) + "')";
            }
          }
          return "sparsify(" + m->text + ")";
        }
        default:
          return m->text;
      }
    }
    return "";
  }

  /// One aggregate call, e.g. "SUM((r0.k * r1.c0))".
  QuerySpec::SelectItem AggItem() {
    const Scope& s = s_;
    for (int attempt = 0; attempt < 4; ++attempt) {
      switch (rng_->NextBelow(10)) {
        case 0:
          return {"COUNT(*)", true};
        case 1: {
          bool d = false;
          return {"COUNT(" + NumExpr(1, &d) + ")", true};
        }
        case 2: {
          bool d = false;
          return {"SUM(" + NumExpr(1, &d) + ")", true};
        }
        case 3: {
          bool d = false;
          return {"AVG(" + NumExpr(1, &d) + ")", true};
        }
        case 4: {
          bool d = false;
          const char* fn = rng_->NextBelow(2) == 0 ? "MIN(" : "MAX(";
          if (!s.strings.empty() && rng_->NextBelow(3) == 0) {
            return {fn + Pick(s.strings, rng_)->text + ")", true};
          }
          return {fn + NumExpr(1, &d) + ")", true};
        }
        case 5: {
          // SUM over VECTOR/MATRIX — the §3.2 elementwise overloads.
          const std::string la = LaExpr();
          if (la.empty()) continue;
          return {"SUM(" + la + ")", false};
        }
        case 6: {
          const std::string la = LaExpr();
          if (la.empty()) continue;
          const char* fn = rng_->NextBelow(2) == 0 ? "EMIN(" : "EMAX(";
          return {fn + la + ")", false};
        }
        case 7: {
          // VECTORIZE over labeled scalars (§3.3). Labels may collide
          // or go negative — both are deterministic execution errors.
          if (!s.HasNumeric()) continue;
          bool d = false;
          const std::string val = NumExpr(0, &d);
          const std::string lbl =
              rng_->NextBelow(2) == 0 ? IntExpr(1)
                                      : "(" + IntExpr(0) + " + 3)";
          return {"VECTORIZE(label_scalar(" + val + " + 0.0, " + lbl + "))",
                  false};
        }
        case 8: {
          if (s.vectors.empty()) continue;
          const char* fn =
              rng_->NextBelow(2) == 0 ? "ROWMATRIX(" : "COLMATRIX(";
          return {std::string(fn) + "label_vector(" +
                      Pick(s.vectors, rng_)->text + ", " + IntExpr(1) + "))",
                  false};
        }
        default: {
          bool d = false;
          return {"AVG((" + NumExpr(0, &d) + " + 0.0))", true};
        }
      }
    }
    return {"COUNT(*)", true};
  }

  /// One plain (non-aggregate) select item.
  QuerySpec::SelectItem PlainItem() {
    switch (rng_->NextBelow(8)) {
      case 0:
        if (!s_.strings.empty()) return {Pick(s_.strings, rng_)->text, true};
        [[fallthrough]];
      case 1:
        if (!s_.bools.empty()) return {BoolExpr(1), true};
        [[fallthrough]];
      case 2:
      case 3: {
        const std::string la = LaExpr();
        if (!la.empty() && rng_->NextBelow(2) == 0) return {la, false};
        bool d = false;
        return {NumExpr(2, &d), true};
      }
      case 4: {
        // LABELED_SCALAR output value.
        if (s_.HasNumeric()) {
          bool d = false;
          return {"label_scalar(" + NumExpr(0, &d) + " + 0.0, " + IntExpr(1) +
                      ")",
                  false};
        }
        [[fallthrough]];
      }
      default: {
        bool d = false;
        return {NumExpr(2, &d), true};
      }
    }
  }

  /// Group key: int/bool/string valued only. Doubles are excluded so
  /// the hash-based grouping key semantics stay trivially aligned
  /// between engine and reference; labeled values are excluded because
  /// Compare ignores labels while Equals does not.
  std::string GroupKey() {
    const uint64_t roll = rng_->NextBelow(6);
    if (roll == 0 && !s_.bools.empty()) return Pick(s_.bools, rng_)->text;
    if (roll == 1 && !s_.strings.empty()) return Pick(s_.strings, rng_)->text;
    if (roll < 4 && !s_.ints.empty()) return Pick(s_.ints, rng_)->text;
    return IntExpr(1);
  }

 private:
  const Scope& s_;
  Rng* rng_;
};

/// "SELECT d.k AS k, COUNT(*) AS n, ... FROM t AS d GROUP BY d.k":
/// one group per key with up to three exact aggregates over t's other
/// columns. Fills `columns` with the derived table's schema.
std::string SharedAggregate(const TableSpec& t,
                            std::vector<ColumnSpec>* columns) {
  std::string select = "SELECT d.k AS k, COUNT(*) AS n";
  columns->assign({{"k", DataType::Integer()}, {"n", DataType::Integer()}});
  for (const ColumnSpec& c : t.columns) {
    if (c.name == "k" || columns->size() >= 5) continue;
    const std::string name = "a" + std::to_string(columns->size() - 2);
    switch (c.type.kind()) {
      case TypeKind::kInteger:
      case TypeKind::kDouble:
      case TypeKind::kVector:
      case TypeKind::kMatrix:
        // Sums over the generators' grids stay exact in any order.
        select += ", SUM(d." + c.name + ") AS " + name;
        break;
      case TypeKind::kString:
        select += ", MAX(d." + c.name + ") AS " + name;
        break;
      default:
        continue;
    }
    columns->push_back({name, c.type});
  }
  return select + " FROM " + t.name + " AS d GROUP BY d.k";
}

/// One side of a generated matrix product: the relation and its join
/// key, group index and DOUBLE value columns.
struct ProductSide {
  QuerySpec::FromItem from;
  std::string key = "k", index = "i", value = "v";
};

/// The table's columns of `kind`, by name.
std::vector<std::string> ColumnsOfKind(const TableSpec& t, TypeKind kind) {
  std::vector<std::string> out;
  for (const ColumnSpec& c : t.columns) {
    if (c.type.kind() == kind) out.push_back(c.name);
  }
  return out;
}

/// A raw table as a product side; nullopt when it has no DOUBLE column.
std::optional<ProductSide> RawSide(const TableSpec& t,
                                   const std::string& alias, Rng* rng) {
  const std::vector<std::string> ints = ColumnsOfKind(t, TypeKind::kInteger);
  const std::vector<std::string> doubles = ColumnsOfKind(t, TypeKind::kDouble);
  if (doubles.empty()) return std::nullopt;
  ProductSide s;
  s.from = {t.name, alias, ""};
  s.index = ints[rng->NextBelow(ints.size())];
  s.value = doubles[rng->NextBelow(doubles.size())];
  return s;
}

/// A derived table with one row per (k, i): grouped by t's key and
/// another INTEGER column of t, or by the keys of t and u (a cross
/// product, so every (k, i) cell is there). The value sums a numeric
/// column on the generators' grids, so it stays exact; about one side
/// in six also adds NULL, making a DOUBLE column of NULLs.
ProductSide DerivedSide(const TableSpec& t, const TableSpec& u,
                        const std::string& alias, Rng* rng) {
  std::vector<std::string> ints = ColumnsOfKind(t, TypeKind::kInteger);
  ints.erase(ints.begin());  // every table leads with its key k
  std::vector<std::string> nums = ints;
  for (const std::string& d : ColumnsOfKind(t, TypeKind::kDouble)) {
    nums.push_back(d);
  }
  const std::string num =
      nums.empty() ? "k" : nums[rng->NextBelow(nums.size())];
  std::string select, from, group;
  if (!ints.empty() && rng->NextBelow(2) == 0) {
    const std::string& i = ints[rng->NextBelow(ints.size())];
    select = "d.k AS k, d." + i + " AS i";
    from = t.name + " AS d";
    group = "d.k, d." + i;
  } else {
    select = "d.k AS k, e.k AS i";
    from = t.name + " AS d, " + u.name + " AS e";
    group = "d.k, e.k";
  }
  const char* nulls = rng->NextBelow(6) == 0 ? " + NULL" : "";
  ProductSide s;
  s.from = {t.name, alias,
            "SELECT " + select + ", SUM(d." + num + " + 0.0" + nulls +
                ") AS v FROM " + from + " GROUP BY " + group};
  return s;
}

/// A mask term: `a` and `b` compared by anything but =, in either
/// order.
std::string MaskTerm(const std::string& a, const std::string& b, Rng* rng) {
  static const char* const kOps[] = {"<>", "<", "<=", ">", ">="};
  const std::string op = kOps[rng->NextBelow(5)];
  return rng->NextBelow(2) == 0 ? "(" + a + " " + op + " " + b + ")"
                                : "(" + b + " " + op + " " + a + ")";
}

/// ORDER BY every select item, then LIMIT, one query in three.
void MaybeOrderAndLimit(QuerySpec* q, Rng* rng) {
  if (rng->NextBelow(3) != 0) return;
  for (size_t i = 0; i < q->select_items.size(); ++i) {
    q->order_by.push_back({i, rng->NextBelow(2) == 0});
  }
  q->limit = 1 + static_cast<int64_t>(rng->NextBelow(6));
}

/// The vector coding of a product (GenerateMultiplyQuery's kVector);
/// nullopt when the catalog has no VECTOR column.
std::optional<QuerySpec> VectorProductQuery(const CatalogSpec& catalog,
                                            Rng* rng) {
  struct VectorColumn {
    const TableSpec* table;
    std::string name;
    int64_t length;
  };
  std::vector<VectorColumn> columns;
  for (const TableSpec& t : catalog.tables) {
    for (const ColumnSpec& c : t.columns) {
      if (c.type.kind() == TypeKind::kVector) {
        columns.push_back({&t, c.name, *c.type.rows()});
      }
    }
  }
  if (columns.empty()) return std::nullopt;
  const VectorColumn& first = columns[rng->NextBelow(columns.size())];
  std::vector<const VectorColumn*> alike;
  for (const VectorColumn& c : columns) {
    if (c.length == first.length) alike.push_back(&c);
  }
  const VectorColumn* picked[2] = {&first,
                                   alike[rng->NextBelow(alike.size())]};
  struct Side {
    QuerySpec::FromItem from;
    std::string value;
    std::vector<std::string> ints;
  };
  Side sides[2];
  for (size_t i = 0; i < 2; ++i) {
    const VectorColumn& c = *picked[i];
    const std::string alias = "r" + std::to_string(i);
    if (rng->NextBelow(6) == 0) {
      sides[i] = {{c.table->name, alias,
                   "SELECT d.k AS k, d." + c.name + " + NULL AS v FROM " +
                       c.table->name + " AS d"},
                  "v",
                  {"k"}};
    } else {
      sides[i] = {{c.table->name, alias, ""},
                  c.name,
                  ColumnsOfKind(*c.table, TypeKind::kInteger)};
    }
  }
  const auto col = [&](size_t side, const std::string& name) {
    return "r" + std::to_string(side) + "." + name;
  };
  const auto int_col = [&](size_t side) {
    return col(side, sides[side].ints[rng->NextBelow(sides[side].ints.size())]);
  };

  QuerySpec q;
  q.from = {sides[0].from, sides[1].from};
  for (size_t terms = rng->NextBelow(3); terms > 0; --terms) {
    const std::string l = int_col(0);
    q.where.push_back(MaskTerm(l, int_col(1), rng));
  }
  switch (rng->NextBelow(4)) {
    case 0:
      q.group_by = {int_col(0)};
      break;
    case 1:
      q.group_by = {int_col(1)};
      break;
    case 2: {
      const std::string l = int_col(0);
      q.group_by = {l, int_col(1)};
      break;
    }
    default: {
      const std::string r = int_col(1);
      q.group_by = {r, int_col(0)};
      break;
    }
  }
  for (const std::string& key : q.group_by) {
    if (rng->NextBelow(4) < 3) q.select_items.push_back({key, true});
  }
  static const char* const kAggs[] = {"SUM", "MIN", "MAX"};
  const std::string agg = kAggs[rng->NextBelow(3)];
  const size_t a = rng->NextBelow(2);
  q.select_items.push_back({agg + "(inner_product(" +
                                col(a, sides[a].value) + ", " +
                                col(1 - a, sides[1 - a].value) + "))",
                            true});
  MaybeOrderAndLimit(&q, rng);
  return q;
}

/// The block coding of a Gram product (GenerateMultiplyQuery's kGram);
/// nullopt when the catalog has no MATRIX column.
std::optional<QuerySpec> GramQuery(const CatalogSpec& catalog, Rng* rng) {
  std::vector<std::pair<const TableSpec*, std::string>> columns;
  for (const TableSpec& t : catalog.tables) {
    for (const std::string& m : ColumnsOfKind(t, TypeKind::kMatrix)) {
      columns.emplace_back(&t, m);
    }
  }
  if (columns.empty()) return std::nullopt;
  const auto& [table, name] = columns[rng->NextBelow(columns.size())];
  std::string m = "r0." + name;
  if (rng->NextBelow(4) == 0) m = "sparsify(" + m + ")";
  const std::string gram =
      "matrix_multiply(trans_matrix(" + m + "), " + m + ")";
  QuerySpec q;
  q.from = {{table->name, "r0", ""}};
  switch (rng->NextBelow(3)) {
    case 0:  // per row
      q.select_items = {{"r0.k", true}, {gram, false}};
      break;
    case 1:  // summed over the table
      q.select_items = {{"SUM(" + gram + ")", false}};
      break;
    default:  // summed per key
      q.group_by = {"r0.k"};
      q.select_items = {{"r0.k", true}, {"SUM(" + gram + ")", false}};
      break;
  }
  return q;
}

}  // namespace

std::string QuerySpec::ToSql() const {
  std::ostringstream os;
  os << "SELECT ";
  if (distinct) os << "DISTINCT ";
  for (size_t i = 0; i < select_items.size(); ++i) {
    if (i > 0) os << ", ";
    os << select_items[i].text << " AS o" << i;
  }
  os << " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) os << ", ";
    if (from[i].derived.empty()) {
      os << from[i].table;
    } else {
      os << "(" << from[i].derived << ")";
    }
    os << " AS " << from[i].alias;
  }
  if (!where.empty()) {
    os << " WHERE ";
    for (size_t i = 0; i < where.size(); ++i) {
      if (i > 0) os << " AND ";
      os << where[i];
    }
  }
  if (!group_by.empty()) {
    os << " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << group_by[i];
    }
  }
  if (!order_by.empty()) {
    os << " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << "o" << order_by[i].item;
      if (order_by[i].desc) os << " DESC";
    }
  }
  if (limit.has_value()) os << " LIMIT " << *limit;
  return os.str();
}

std::vector<TableSpec> SystemTableFuzzSchemas() {
  // Keep this list boring on purpose: stable identity columns plus a
  // few counters, no timing columns (those exist, they're just not
  // interesting to a shape oracle). Types must match the live schemas
  // in src/api/system_tables.cc — systab_test enforces that.
  std::vector<TableSpec> out;
  out.push_back({"radb_tables",
                 {{"name", DataType::String()},
                  {"columns", DataType::Integer()},
                  {"num_rows", DataType::Integer()},
                  {"bytes", DataType::Integer()},
                  {"num_partitions", DataType::Integer()}},
                 {}});
  out.push_back({"radb_metrics",
                 {{"name", DataType::String()},
                  {"kind", DataType::String()},
                  {"value", DataType::Double()},
                  {"count", DataType::Integer()}},
                 {}});
  out.push_back({"radb_queries",
                 {{"query_id", DataType::Integer()},
                  {"session_id", DataType::Integer()},
                  {"sql", DataType::String()},
                  {"status", DataType::String()},
                  {"rows", DataType::Integer()},
                  {"total_micros", DataType::Integer()}},
                 {}});
  out.push_back({"radb_threads",
                 {{"kind", DataType::String()},
                  {"id", DataType::Integer()},
                  {"tasks", DataType::Integer()}},
                 {}});
  return out;
}

QuerySpec GenerateSystemTableQuery(const CatalogSpec& catalog, Rng* rng) {
  const std::vector<TableSpec> sys = SystemTableFuzzSchemas();
  const TableSpec& st = sys[rng->NextBelow(sys.size())];

  QuerySpec q;
  q.from.push_back({st.name, "r0"});

  // Column buckets of the system table.
  std::vector<std::string> ints, strings;
  for (const ColumnSpec& c : st.columns) {
    if (c.type.kind() == TypeKind::kInteger) {
      ints.push_back("r0." + c.name);
    } else if (c.type.kind() == TypeKind::kString) {
      strings.push_back("r0." + c.name);
    }
  }

  // Optionally join a user table on its INTEGER key `k` (every
  // generated table has one). Equality drives the hash-join path;
  // inequality drives the nested-loop path. Either way row contents
  // are volatile, so only the status + schema must agree.
  if (!catalog.tables.empty() && rng->NextBelow(2) == 0) {
    const TableSpec& ut =
        catalog.tables[rng->NextBelow(catalog.tables.size())];
    q.from.push_back({ut.name, "r1"});
    if (!ints.empty()) {
      const std::string& lhs = ints[rng->NextBelow(ints.size())];
      const char* op = rng->NextBelow(2) == 0 ? " = " : " >= ";
      q.where.push_back("(" + lhs + op + "r1.k)");
    }
  }

  const bool agg = rng->NextBelow(3) == 0;
  if (agg) {
    q.select_items.push_back({"COUNT(*)", true});
    if (!ints.empty() && rng->NextBelow(2) == 0) {
      const char* fn = rng->NextBelow(2) == 0 ? "MIN(" : "MAX(";
      q.select_items.push_back(
          {fn + ints[rng->NextBelow(ints.size())] + ")", true});
    }
  } else {
    const size_t nitems = 1 + rng->NextBelow(3);
    for (size_t i = 0; i < nitems; ++i) {
      const uint64_t roll = rng->NextBelow(3);
      if (roll == 0 && !strings.empty()) {
        q.select_items.push_back({strings[rng->NextBelow(strings.size())],
                                  true});
      } else if (!ints.empty()) {
        q.select_items.push_back({ints[rng->NextBelow(ints.size())], true});
      } else {
        q.select_items.push_back({"COUNT(*)", true});
      }
    }
    // A volatile-free filter every config evaluates identically is
    // impossible in general; any predicate is fine under shape mode.
    if (!ints.empty() && rng->NextBelow(3) == 0) {
      q.where.push_back(
          "(" + ints[rng->NextBelow(ints.size())] + " >= 0)");
    }
  }
  return q;
}

QuerySpec GenerateMultiplyQuery(const CatalogSpec& catalog, Rng* rng,
                                ProductShape shape) {
  if (shape == ProductShape::kVector) {
    if (std::optional<QuerySpec> q = VectorProductQuery(catalog, rng)) {
      return *q;
    }
    shape = ProductShape::kMaskedTuple;
  }
  if (shape == ProductShape::kGram) {
    if (std::optional<QuerySpec> q = GramQuery(catalog, rng)) return *q;
    shape = ProductShape::kSelf;
  }
  // kSelf and kCrossed read one relation as both sides.
  const bool one_input =
      shape == ProductShape::kSelf || shape == ProductShape::kCrossed;
  const bool masked = shape == ProductShape::kMaskedTuple ||
                      (shape == ProductShape::kSelf && rng->NextBelow(3) == 0);
  auto table = [&]() -> const TableSpec& {
    return catalog.tables[rng->NextBelow(catalog.tables.size())];
  };
  ProductSide sides[2];
  for (size_t i = 0; i < (one_input ? 1 : 2); ++i) {
    const std::string alias = "r" + std::to_string(i);
    const TableSpec& t = table();
    std::optional<ProductSide> raw;
    if (rng->NextBelow(2) == 0) raw = RawSide(t, alias, rng);
    // One relation's roles must differ to cross: a raw side indexed by
    // its key is left for a derived table.
    if (one_input && raw.has_value() && raw->index == raw->key) raw.reset();
    sides[i] = raw.has_value() ? *raw : DerivedSide(t, table(), alias, rng);
  }
  if (one_input) {
    sides[1] = sides[0];
    sides[1].from.alias = "r1";
    if (shape == ProductShape::kCrossed) {
      std::swap(sides[1].key, sides[1].index);
    }
  }
  const auto col = [&](size_t side, const std::string& name) {
    return "r" + std::to_string(side) + "." + name;
  };

  QuerySpec q;
  q.from = {sides[0].from, sides[1].from};
  q.where.push_back(col(0, sides[0].key) + " = " + col(1, sides[1].key));
  if (rng->NextBelow(4) == 0) {
    // A filter pushed below the join: on one side, or on both alike
    // when they read one relation, which keeps it one subtree.
    const size_t side = rng->NextBelow(2);
    const int64_t key = static_cast<int64_t>(rng->NextBelow(7)) - 3;
    for (size_t s = 0; s < 2; ++s) {
      if (s != side && !one_input) continue;
      q.where.push_back("(" + col(s, sides[s].key) + " <> " +
                        std::to_string(key) + ")");
    }
  }
  // Group keys: one index of each side in either order, or one side's;
  // a masked product compares the two, and a product of one relation
  // groups by both.
  switch (masked || one_input ? 3 * rng->NextBelow(2) : rng->NextBelow(4)) {
    case 0:
      q.group_by = {col(1, sides[1].index), col(0, sides[0].index)};
      break;
    case 1:
      q.group_by = {col(0, sides[0].index)};
      break;
    case 2:
      q.group_by = {col(1, sides[1].index)};
      break;
    default:
      q.group_by = {col(0, sides[0].index), col(1, sides[1].index)};
      break;
  }
  if (masked) {
    for (size_t terms = 1 + rng->NextBelow(2); terms > 0; --terms) {
      q.where.push_back(MaskTerm(col(0, sides[0].index),
                                 col(1, sides[1].index), rng));
    }
  }
  for (const std::string& key : q.group_by) {
    if (rng->NextBelow(4) < 3) q.select_items.push_back({key, true});
  }
  const size_t first = rng->NextBelow(2);
  q.select_items.push_back({"SUM(" + col(first, sides[first].value) + " * " +
                                col(1 - first, sides[1 - first].value) + ")",
                            true});
  // Every item is orderable.
  MaybeOrderAndLimit(&q, rng);
  return q;
}

QuerySpec GenerateQuery(const CatalogSpec& catalog, Rng* rng) {
  QuerySpec q;

  // ---- FROM: 1-5 relations, repeats allowed, always aliased. ----
  size_t nrel = 1 + rng->NextBelow(5);
  std::vector<ColumnSpec> derived_columns;
  if (rng->NextBelow(8) == 0) {
    const TableSpec& t = catalog.tables[rng->NextBelow(catalog.tables.size())];
    const std::string derived = SharedAggregate(t, &derived_columns);
    q.from.push_back({t.name, "r0", derived});
    q.from.push_back({t.name, "r1", derived});
    nrel = std::max<size_t>(nrel, 2);
  }
  for (size_t i = q.from.size(); i < nrel; ++i) {
    const TableSpec& t = catalog.tables[rng->NextBelow(catalog.tables.size())];
    q.from.push_back({t.name, "r" + std::to_string(i), ""});
  }

  // ---- Scope. ----
  Scope scope;
  for (const QuerySpec::FromItem& f : q.from) {
    const TableSpec* t = nullptr;
    for (const TableSpec& cand : catalog.tables) {
      if (cand.name == f.table) t = &cand;
    }
    for (const ColumnSpec& c : f.derived.empty() ? t->columns
                                                 : derived_columns) {
      ColRef ref{f.alias + "." + c.name, c.type};
      switch (c.type.kind()) {
        case TypeKind::kInteger:
          scope.ints.push_back(ref);
          break;
        case TypeKind::kDouble:
          scope.doubles.push_back(ref);
          break;
        case TypeKind::kBoolean:
          scope.bools.push_back(ref);
          break;
        case TypeKind::kString:
          scope.strings.push_back(ref);
          break;
        case TypeKind::kVector:
          scope.vectors.push_back(ref);
          break;
        case TypeKind::kMatrix:
          scope.matrices.push_back(ref);
          break;
        default:
          break;
      }
    }
  }
  ExprGen gen(scope, rng);

  // ---- Join conjuncts: chain consecutive relations on INTEGER
  // columns (every generated table has one); a shared derived table
  // always joins its twin on the key. ----
  for (size_t i = 1; i < nrel; ++i) {
    if (i == 1 && !q.from[1].derived.empty()) {
      q.where.push_back("r0.k = r1.k");
    } else if (rng->NextBelow(10) < 8) {
      const size_t j = rng->NextBelow(i);
      q.where.push_back(q.from[j].alias + ".k = " + q.from[i].alias + ".k");
    }
  }
  // ---- Extra filters. ----
  const size_t nfilters = rng->NextBelow(3);
  for (size_t i = 0; i < nfilters; ++i) {
    q.where.push_back(gen.BoolExpr(2));
  }

  // ---- SELECT list (aggregate or plain). ----
  const bool agg = rng->NextBelow(2) == 0;
  if (agg) {
    const size_t ngroups = rng->NextBelow(3);
    std::set<std::string> seen;
    for (size_t i = 0; i < ngroups; ++i) {
      std::string key = gen.GroupKey();
      if (seen.insert(key).second) q.group_by.push_back(std::move(key));
    }
    // Selected group keys must textually match the GROUP BY entry
    // (the binder matches them by rendered expression text).
    for (const std::string& key : q.group_by) {
      if (rng->NextBelow(4) < 3) q.select_items.push_back({key, true});
    }
    const size_t naggs = 1 + rng->NextBelow(3);
    for (size_t i = 0; i < naggs; ++i) {
      q.select_items.push_back(gen.AggItem());
    }
  } else {
    const size_t nitems = 1 + rng->NextBelow(4);
    for (size_t i = 0; i < nitems; ++i) {
      q.select_items.push_back(gen.PlainItem());
    }
  }

  q.distinct = rng->NextBelow(5) == 0;

  // ---- ORDER BY / LIMIT. LIMIT requires a total order: every select
  // item must be an ORDER BY key (ties are then whole-row duplicates
  // and any stable sort yields the same multiset prefix). ----
  bool all_orderable = true;
  for (const QuerySpec::SelectItem& item : q.select_items) {
    all_orderable = all_orderable && item.orderable;
  }
  const uint64_t order_roll = rng->NextBelow(10);
  if (order_roll < 3 && all_orderable) {
    std::vector<size_t> perm(q.select_items.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng->NextBelow(i)]);
    }
    for (size_t i : perm) {
      q.order_by.push_back({i, rng->NextBelow(2) == 0});
    }
    q.limit = 1 + static_cast<int64_t>(rng->NextBelow(6));
  } else if (order_roll < 6) {
    // Partial ORDER BY without LIMIT: the comparison normalizes row
    // order anyway, this just exercises the Sort operator.
    for (size_t i = 0; i < q.select_items.size(); ++i) {
      if (q.select_items[i].orderable && rng->NextBelow(2) == 0) {
        q.order_by.push_back({i, rng->NextBelow(2) == 0});
      }
    }
  }
  return q;
}

}  // namespace radb::testing
