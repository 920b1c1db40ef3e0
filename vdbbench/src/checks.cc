// Output checks. Each compares the program's answer with a computation made
// apart from it (plain C++ over the generated columns, or the exact answer
// of the same engine on the base tables) or with a property the method must
// have; none compares with a stored copy of an earlier run's output.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <map>

#include "bench.h"

namespace vdbbench {

namespace {

using vdb::TypeId;
using vdb::Value;
using vdb::engine::ResultSet;

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// Group-key text that treats an integral double and the equal integer as
// one key, so the check does not depend on which numeric type a rewrite
// happens to produce for a grouping column.
std::string CellKey(const Value& v) {
  if (v.is_null()) return "\x01N";
  if (v.type() == TypeId::kString) return "s" + v.AsString();
  char buf[40];
  std::snprintf(buf, sizeof(buf), "n%.17g", v.AsDouble());
  return buf;
}

std::string RowKey(const ResultSet& rs, size_t row,
                   const std::vector<size_t>& cols) {
  std::string k;
  for (size_t c : cols) {
    k += CellKey(rs.Get(row, c));
    k.push_back('\x1f');
  }
  return k;
}

bool Close(double a, double b, double rel_tol) {
  const double d = std::fabs(a - b);
  return d <= rel_tol * std::fabs(b) || d <= 1e-12;
}

// The approximate answer's user-visible columns are the exact answer's,
// in order; its remaining columns are half-widths. Fills the grouping
// (non-aggregate) columns.
bool SplitColumns(const vdb::core::ApproxAnswer& a, const ResultSet& exact,
                  std::vector<size_t>* key_cols, std::string* why) {
  if (a.result.NumCols() < exact.NumCols()) {
    *why = "approximate answer has fewer columns than the exact one";
    return false;
  }
  for (size_t c = 0; c < exact.NumCols(); ++c) {
    if (Lower(a.result.names[c]) != Lower(exact.names[c])) {
      *why = "column " + std::to_string(c) + " is '" + a.result.names[c] +
             "', exact answer has '" + exact.names[c] + "'";
      return false;
    }
    bool is_agg = false;
    for (const auto& agg : a.aggregates) {
      if (agg.point_column == static_cast<int>(c)) is_agg = true;
    }
    if (!is_agg) key_cols->push_back(c);
  }
  return true;
}

}  // namespace

bool SameResult(const ResultSet& a, const ResultSet& b, std::string* why) {
  if (a.names != b.names) {
    *why = "column names differ";
    return false;
  }
  if (a.NumRows() != b.NumRows()) {
    *why = "row counts differ: " + std::to_string(a.NumRows()) + " vs " +
           std::to_string(b.NumRows());
    return false;
  }
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumCols(); ++c) {
      const Value x = a.Get(r, c), y = b.Get(r, c);
      bool same = x.type() == y.type();
      if (same && x.type() == TypeId::kDouble) {
        const double dx = x.AsDouble(), dy = y.AsDouble();
        same = std::memcmp(&dx, &dy, sizeof(double)) == 0;
      } else if (same && x.type() == TypeId::kString) {
        same = x.AsString() == y.AsString();
      } else if (same && !x.is_null()) {
        same = x.AsInt() == y.AsInt();
      }
      if (!same) {
        *why = "cell (" + std::to_string(r) + ", " + b.names[c] +
               ") differs: " + x.ToString() + " vs " + y.ToString();
        return false;
      }
    }
  }
  return true;
}

ApproxCheck CheckApprox(const vdb::core::ApproxAnswer& a,
                        const ResultSet& exact) {
  ApproxCheck out;
  std::vector<size_t> key_cols;
  if (!SplitColumns(a, exact, &key_cols, &out.why)) {
    out.ok = false;
    return out;
  }
  std::map<std::string, size_t> exact_rows;
  for (size_t r = 0; r < exact.NumRows(); ++r) {
    exact_rows[RowKey(exact, r, key_cols)] = r;
  }
  for (size_t r = 0; r < a.result.NumRows(); ++r) {
    auto it = exact_rows.find(RowKey(a.result, r, key_cols));
    if (it == exact_rows.end()) {
      out.ok = false;
      out.why = "group of row " + std::to_string(r) +
                " is not in the exact answer";
      return out;
    }
    for (const auto& agg : a.aggregates) {
      const size_t pc = static_cast<size_t>(agg.point_column);
      const Value est = a.result.Get(r, pc);
      const Value truth = exact.Get(it->second, pc);
      if (agg.error_column >= 0) {
        const Value hw =
            a.result.Get(r, static_cast<size_t>(agg.error_column));
        if (!hw.is_null()) {
          const double h = hw.AsDouble();
          if (!std::isfinite(h) || h < 0.0) {
            out.ok = false;
            out.why = agg.name + "_err of row " + std::to_string(r) +
                      " is " + hw.ToString();
            return out;
          }
          if (!est.is_null() && !truth.is_null()) {
            ++out.cells;
            if (std::fabs(est.AsDouble() - truth.AsDouble()) <= h) {
              ++out.covered;
            }
          }
        }
      }
      if (est.is_null() || truth.is_null()) continue;
      const double t = truth.AsDouble();
      if (std::fabs(t) < 1e-9) continue;
      out.max_rel_err =
          std::max(out.max_rel_err, std::fabs(est.AsDouble() - t) / std::fabs(t));
    }
  }
  return out;
}

bool PointsEqual(const vdb::core::ApproxAnswer& a, const ResultSet& exact,
                 double rel_tol, std::string* why) {
  std::vector<size_t> key_cols;
  if (!SplitColumns(a, exact, &key_cols, why)) return false;
  if (a.result.NumRows() != exact.NumRows()) {
    *why = std::to_string(a.result.NumRows()) + " groups, exact answer has " +
           std::to_string(exact.NumRows());
    return false;
  }
  std::map<std::string, size_t> approx_rows;
  for (size_t r = 0; r < a.result.NumRows(); ++r) {
    approx_rows[RowKey(a.result, r, key_cols)] = r;
  }
  for (size_t r = 0; r < exact.NumRows(); ++r) {
    auto it = approx_rows.find(RowKey(exact, r, key_cols));
    if (it == approx_rows.end()) {
      *why = "exact group of row " + std::to_string(r) + " is missing";
      return false;
    }
    for (const auto& agg : a.aggregates) {
      const size_t pc = static_cast<size_t>(agg.point_column);
      const Value est = a.result.Get(it->second, pc);
      const Value truth = exact.Get(r, pc);
      if (est.is_null() != truth.is_null() ||
          (!est.is_null() &&
           !Close(est.AsDouble(), truth.AsDouble(), rel_tol))) {
        *why = agg.name + " = " + est.ToString() + ", exact " +
               truth.ToString();
        return false;
      }
    }
  }
  return true;
}

namespace {

// One group of a plain-C++ recomputation: the aggregates in select order.
using Groups = std::map<std::string, std::vector<double>>;

bool CompareGroups(const Groups& want, const ResultSet& exact,
                   size_t key_count, std::string* why) {
  if (exact.NumRows() != want.size()) {
    *why = std::to_string(exact.NumRows()) + " rows, recomputation has " +
           std::to_string(want.size());
    return false;
  }
  std::vector<size_t> key_cols;
  for (size_t c = 0; c < key_count; ++c) key_cols.push_back(c);
  for (size_t r = 0; r < exact.NumRows(); ++r) {
    auto it = want.find(RowKey(exact, r, key_cols));
    if (it == want.end()) {
      *why = "row " + std::to_string(r) + " has a group the data lacks";
      return false;
    }
    for (size_t i = 0; i < it->second.size(); ++i) {
      const double got = exact.GetDouble(r, key_count + i);
      if (!Close(got, it->second[i], 1e-9)) {
        *why = exact.names[key_count + i] + " of row " + std::to_string(r) +
               " is " + std::to_string(got) + ", recomputed " +
               std::to_string(it->second[i]);
        return false;
      }
    }
  }
  return true;
}

}  // namespace

bool CheckIndependently(const std::string& id,
                        const vdb::engine::Database& db,
                        const ResultSet& exact, std::string* why) {
  auto table = [&](const char* name) { return db.catalog().GetTable(name); };
  auto lineitem = table("lineitem");
  auto col = [&](const char* c) {
    return &lineitem->column(static_cast<size_t>(lineitem->ColumnIndex(c)));
  };
  Groups want;
  size_t keys = 0;
  if (id == "tq-1") {
    const auto& t = lineitem;
    const auto *flag = col("l_returnflag"), *status = col("l_linestatus"),
               *qty = col("l_quantity"), *price = col("l_extendedprice"),
               *disc = col("l_discount"), *ship = col("l_shipdate");
    struct Acc { long double qty = 0, price = 0, disc_price = 0, disc = 0; long n = 0; };
    std::map<std::pair<std::string, std::string>, Acc> acc;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      if (ship->GetInt(r) > 19980902) continue;
      Acc& a = acc[{flag->GetString(r), status->GetString(r)}];
      const double p = price->GetDouble(r), d = disc->GetDouble(r);
      a.qty += static_cast<long double>(qty->GetInt(r));
      a.price += p;
      a.disc_price += p * (1 - d);
      a.disc += d;
      ++a.n;
    }
    for (const auto& [k, a] : acc) {
      const long double n = static_cast<long double>(a.n);
      want["s" + k.first + "\x1fs" + k.second + "\x1f"] = {
          static_cast<double>(a.qty), static_cast<double>(a.price),
          static_cast<double>(a.disc_price), static_cast<double>(a.qty / n),
          static_cast<double>(a.price / n), static_cast<double>(a.disc / n),
          static_cast<double>(a.n)};
    }
    keys = 2;
  } else if (id == "tq-6") {
    const auto& t = lineitem;
    const auto *qty = col("l_quantity"), *price = col("l_extendedprice"),
               *disc = col("l_discount"), *ship = col("l_shipdate");
    long double revenue = 0;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      const int64_t s = ship->GetInt(r);
      const double d = disc->GetDouble(r);
      if (s >= 19940101 && s < 19950101 && d >= 0.05 && d <= 0.07 &&
          qty->GetInt(r) < 24) {
        revenue += price->GetDouble(r) * d;
      }
    }
    want[""] = {static_cast<double>(revenue)};
  } else if (id == "iq-1") {
    want[""] = {static_cast<double>(table("order_products")->num_rows())};
  } else if (id == "iq-3") {
    auto t = table("order_products");
    const auto& price = t->column(static_cast<size_t>(t->ColumnIndex("price")));
    long double s = 0;
    for (size_t r = 0; r < t->num_rows(); ++r) s += price.GetDouble(r);
    want[""] = {static_cast<double>(s / static_cast<long double>(t->num_rows()))};
  } else if (id == "iq-4" || id == "iq-5") {
    auto t = table("orders_insta");
    const bool dow = id == "iq-4";
    const auto& key = t->column(static_cast<size_t>(
        t->ColumnIndex(dow ? "order_dow" : "order_hour")));
    const auto& gap =
        t->column(static_cast<size_t>(t->ColumnIndex("days_since_prior")));
    std::map<int64_t, std::pair<long double, long>> acc;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      auto& a = acc[key.GetInt(r)];
      a.first += static_cast<long double>(gap.GetInt(r));
      ++a.second;
    }
    for (const auto& [k, a] : acc) {
      want[CellKey(Value::Int(k)) + "\x1f"] = {
          dow ? static_cast<double>(a.second)
              : static_cast<double>(a.first / static_cast<long double>(a.second))};
    }
    keys = 1;
  } else {
    return true;
  }
  return CompareGroups(want, exact, keys, why);
}

}  // namespace vdbbench
