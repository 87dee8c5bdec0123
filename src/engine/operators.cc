#include "engine/operators.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <unordered_map>

namespace rdftx::engine {
namespace {

using sparqlt::CompareOp;
using sparqlt::Expr;

bool CompareScalar(int64_t a, CompareOp op, int64_t b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

bool CompareDouble(double a, CompareOp op, double b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

// Scalar value lattice for FILTER evaluation.
struct Value {
  enum class Kind { kNull, kBool, kInt, kChronon, kString, kTime };
  Kind kind = Kind::kNull;
  bool boolean = false;
  int64_t num = 0;
  Chronon chronon = 0;
  // A term's Dictionary copy or a string literal of the query.
  std::string_view str;
  const TemporalSet* time = nullptr;
};

// True iff some value v in [lo, hi] satisfies v `op` c. Decides whether
// a comparison against a point classifier bounded to that value range
// is satisfiable at all.
bool RangeSatisfiable(int64_t lo, int64_t hi, CompareOp op, int64_t c) {
  switch (op) {
    case CompareOp::kEq:
      return lo <= c && c <= hi;
    case CompareOp::kNe:
      return lo < hi || lo != c;
    case CompareOp::kLt:
      return lo < c;
    case CompareOp::kLe:
      return lo <= c;
    case CompareOp::kGt:
      return hi > c;
    case CompareOp::kGe:
      return hi >= c;
  }
  return false;
}

// ∃ point x in `set` with point-classifier `fn`(x) `op` c, where fn
// only produces values in [lo, hi] (MONTH: 1..12, DAY: 1..31). When no
// value in that range can satisfy the comparison (MONTH(?t) = 13,
// DAY(?t) < 1, ...), no point anywhere can, so the answer is false
// regardless of run length. Otherwise runs of a year or longer contain
// every classifier value — any 366-day span covers a whole January,
// hence all days 1..31 and all months 1..12 — so only short runs need
// a point scan.
template <typename Fn>
bool ExistsPoint(const TemporalSet& set, Fn fn, CompareOp op, int64_t c,
                 Chronon now, int64_t lo, int64_t hi) {
  if (!RangeSatisfiable(lo, hi, op, c)) return false;
  for (const Interval& run : set.runs()) {
    Chronon end = std::min(run.end, now);
    if (end <= run.start) continue;
    if (end - run.start >= 366) return true;
    for (Chronon x = run.start; x < end; ++x) {
      if (CompareScalar(fn(x), op, c)) return true;
    }
  }
  return false;
}

// ∃ point x in `set` with x `op` c (identity classifier; exact).
bool ExistsIdentity(const TemporalSet& set, CompareOp op, Chronon c) {
  if (set.empty()) return false;
  switch (op) {
    case CompareOp::kEq:
      return set.Contains(c);
    case CompareOp::kLt:
      return set.Start() < c;
    case CompareOp::kLe:
      return set.Start() <= c;
    case CompareOp::kGt:
      return set.End() > c + 1 || (set.End() == kChrononNow);
    case CompareOp::kGe:
      return set.End() > c;
    case CompareOp::kNe:
      // Some point differs from c: false only if set == {c}.
      return !(set.runs().size() == 1 &&
               set.runs()[0] == Interval(c, c + 1));
  }
  return false;
}

// ∃ point x with YEAR(x) `op` c (exact via year boundaries).
bool ExistsYear(const TemporalSet& set, CompareOp op, int64_t c,
                Chronon now) {
  if (set.empty()) return false;
  const int year = static_cast<int>(c);
  const Chronon lo = YearStart(year);
  const Chronon hi = YearEnd(year) + 1;
  Chronon last = set.End() == kChrononNow ? now : set.End() - 1;
  switch (op) {
    case CompareOp::kEq:
      // YearStart(y) < YearEnd(y) + 1 for every representable year.
      // rdftx-analyzer: allow(interval-soundness)
      return !set.Intersect(TemporalSet(Interval(lo, hi))).empty();
    case CompareOp::kLt:
      return set.Start() < lo;
    case CompareOp::kLe:
      return set.Start() < hi;
    case CompareOp::kGt:
      return last >= hi;
    case CompareOp::kGe:
      return last >= lo;
    case CompareOp::kNe:
      return set.Start() < lo || last >= hi;
  }
  return false;
}

class Evaluator {
 public:
  Evaluator(const Row& row, const EvalContext& ctx) : row_(row), ctx_(ctx) {}

  bool Truthy(const Expr& e) {
    Value v = Eval(e);
    switch (v.kind) {
      case Value::Kind::kBool:
        return v.boolean;
      case Value::Kind::kInt:
        return v.num != 0;
      case Value::Kind::kChronon:
        return true;
      case Value::Kind::kString:
        return !v.str.empty();
      case Value::Kind::kTime:
        return v.time != nullptr && !v.time->empty();
      case Value::Kind::kNull:
        return false;
    }
    return false;
  }

 private:
  Value Eval(const Expr& e) {
    Value v;
    switch (e.kind) {
      case Expr::Kind::kAnd:
        v.kind = Value::Kind::kBool;
        v.boolean = Truthy(*e.children[0]) && Truthy(*e.children[1]);
        return v;
      case Expr::Kind::kOr:
        v.kind = Value::Kind::kBool;
        v.boolean = Truthy(*e.children[0]) || Truthy(*e.children[1]);
        return v;
      case Expr::Kind::kNot:
        v.kind = Value::Kind::kBool;
        v.boolean = !Truthy(*e.children[0]);
        return v;
      case Expr::Kind::kCompare:
        v.kind = Value::Kind::kBool;
        v.boolean = EvalCompare(e);
        return v;
      case Expr::Kind::kVariable: {
        int slot = SlotOf(e.text);
        if (slot < 0) return v;  // unbound name -> null
        const VarInfo& info = (*ctx_.vars)[static_cast<size_t>(slot)];
        if (info.is_time) {
          const TemporalSet& set = row_.times[static_cast<size_t>(slot)];
          if (set.empty()) return v;
          v.kind = Value::Kind::kTime;
          v.time = &set;
          return v;
        }
        TermId id = row_.terms[static_cast<size_t>(slot)];
        if (id == kInvalidTerm) return v;
        v.kind = Value::Kind::kString;
        v.str = ctx_.dict->Decode(id);
        return v;
      }
      case Expr::Kind::kIntLit:
        v.kind = Value::Kind::kInt;
        v.num = e.int_value;
        return v;
      case Expr::Kind::kDateLit:
        v.kind = Value::Kind::kChronon;
        v.chronon = e.date_value;
        return v;
      case Expr::Kind::kStringLit:
        v.kind = Value::Kind::kString;
        v.str = e.text;
        return v;
      case Expr::Kind::kTStart:
      case Expr::Kind::kTEnd:
      case Expr::Kind::kLength:
      case Expr::Kind::kTotalLength: {
        Value arg = Eval(*e.children[0]);
        if (arg.kind != Value::Kind::kTime) return v;  // null
        const TemporalSet& set = *arg.time;
        switch (e.kind) {
          case Expr::Kind::kTStart:
            v.kind = Value::Kind::kChronon;
            v.chronon = set.Start();
            return v;
          case Expr::Kind::kTEnd:
            // Exclusive end: the first chronon after the element, so
            // TEND(?t1) = TSTART(?t2) expresses MEETS (paper Example 5).
            v.kind = Value::Kind::kChronon;
            v.chronon = set.End();
            return v;
          case Expr::Kind::kLength:
            v.kind = Value::Kind::kInt;
            v.num = static_cast<int64_t>(set.MaxRunLength(ctx_.now));
            return v;
          default:
            v.kind = Value::Kind::kInt;
            v.num = static_cast<int64_t>(set.TotalLength(ctx_.now));
            return v;
        }
      }
      case Expr::Kind::kYear:
      case Expr::Kind::kMonth:
      case Expr::Kind::kDay: {
        // Outside a comparison these classify a single chronon; over a
        // temporal element they are handled existentially in
        // EvalCompare. Here, reduce a one-point element to its point.
        Value arg = Eval(*e.children[0]);
        Chronon point;
        if (arg.kind == Value::Kind::kChronon) {
          point = arg.chronon;
        } else if (arg.kind == Value::Kind::kTime &&
                   arg.time->TotalLength(ctx_.now) == 1) {
          point = arg.time->Start();
        } else {
          return v;  // null: not scalarizable
        }
        v.kind = Value::Kind::kInt;
        if (e.kind == Expr::Kind::kYear) {
          v.num = ChrononYear(point);
        } else if (e.kind == Expr::Kind::kMonth) {
          v.num = ChrononMonth(point);
        } else {
          v.num = ChrononDay(point);
        }
        return v;
      }
    }
    return v;
  }

  // True when `e` is <classifier>(?timevar) or a bare time variable;
  // fills the set and classifier kind.
  bool AsTimeClassifier(const Expr& e, const TemporalSet** set,
                        Expr::Kind* classifier) {
    const Expr* var = &e;
    Expr::Kind kind = Expr::Kind::kVariable;  // identity
    if (e.kind == Expr::Kind::kYear || e.kind == Expr::Kind::kMonth ||
        e.kind == Expr::Kind::kDay) {
      var = e.children[0].get();
      kind = e.kind;
    }
    if (var->kind != Expr::Kind::kVariable) return false;
    int slot = SlotOf(var->text);
    if (slot < 0 || !(*ctx_.vars)[static_cast<size_t>(slot)].is_time) {
      return false;
    }
    const TemporalSet& s = row_.times[static_cast<size_t>(slot)];
    if (s.empty()) return false;
    *set = &s;
    *classifier = kind;
    return true;
  }

  bool EvalCompare(const Expr& e) {
    const Expr* lhs = e.children[0].get();
    const Expr* rhs = e.children[1].get();
    CompareOp op = e.op;

    // Existential comparisons of a temporal element against a scalar.
    const TemporalSet* set = nullptr;
    Expr::Kind classifier;
    if (AsTimeClassifier(*lhs, &set, &classifier)) {
      Value r = Eval(*rhs);
      return EvalExistential(*set, classifier, op, r);
    }
    if (AsTimeClassifier(*rhs, &set, &classifier)) {
      Value l = Eval(*lhs);
      return EvalExistential(*set, classifier, Flip(op), l);
    }

    Value l = Eval(*lhs);
    Value r = Eval(*rhs);
    if (l.kind == Value::Kind::kNull || r.kind == Value::Kind::kNull) {
      return false;
    }
    if (l.kind == Value::Kind::kChronon && r.kind == Value::Kind::kChronon) {
      return CompareScalar(static_cast<int64_t>(l.chronon), op,
                           static_cast<int64_t>(r.chronon));
    }
    if (l.kind == Value::Kind::kInt && r.kind == Value::Kind::kInt) {
      return CompareScalar(l.num, op, r.num);
    }
    // Mixed numeric/string comparisons go through doubles when both
    // sides parse as numbers, else lexicographic. Only numbers and
    // dates are rendered; strings are compared in place.
    auto as_string = [](const Value& v, std::string* buf) {
      if (v.kind == Value::Kind::kInt) {
        *buf = std::to_string(v.num);
      } else if (v.kind == Value::Kind::kChronon) {
        *buf = FormatChronon(v.chronon);
      } else {
        return v.str;
      }
      return std::string_view(*buf);
    };
    std::string lbuf, rbuf;
    const std::string_view ls = as_string(l, &lbuf);
    const std::string_view rs = as_string(r, &rbuf);
    double ln, rn;
    if (ParseNumeric(ls, &ln) && ParseNumeric(rs, &rn)) {
      return CompareDouble(ln, op, rn);
    }
    int cmp = ls.compare(rs);
    return CompareScalar(cmp, op, 0);
  }

  bool EvalExistential(const TemporalSet& set, Expr::Kind classifier,
                       CompareOp op, const Value& scalar) {
    if (classifier == Expr::Kind::kVariable) {
      // Bare ?t against a date (or another element).
      if (scalar.kind == Value::Kind::kChronon) {
        if (scalar.chronon == kChrononNow) {
          // ... op now: only = / >= / <= are meaningful: live elements.
          bool live = set.End() == kChrononNow;
          switch (op) {
            case CompareOp::kEq:
            case CompareOp::kGe:
              return live;
            case CompareOp::kLe:
            case CompareOp::kLt:
              return true;
            case CompareOp::kGt:
              return false;
            case CompareOp::kNe:
              return !live;
          }
        }
        return ExistsIdentity(set, op, scalar.chronon);
      }
      if (scalar.kind == Value::Kind::kTime) {
        // ?t1 = ?t2 : element equality; != : inequality; ordering by
        // start point.
        switch (op) {
          case CompareOp::kEq:
            return set == *scalar.time;
          case CompareOp::kNe:
            return !(set == *scalar.time);
          default:
            return CompareScalar(static_cast<int64_t>(set.Start()), op,
                                 static_cast<int64_t>(scalar.time->Start()));
        }
      }
      return false;
    }
    if (scalar.kind != Value::Kind::kInt) return false;
    if (classifier == Expr::Kind::kYear) {
      return ExistsYear(set, op, scalar.num, ctx_.now);
    }
    if (classifier == Expr::Kind::kMonth) {
      return ExistsPoint(
          set,
          [](Chronon x) { return static_cast<int64_t>(ChrononMonth(x)); },
          op, scalar.num, ctx_.now, /*lo=*/1, /*hi=*/12);
    }
    return ExistsPoint(
        set, [](Chronon x) { return static_cast<int64_t>(ChrononDay(x)); },
        op, scalar.num, ctx_.now, /*lo=*/1, /*hi=*/31);
  }

  static CompareOp Flip(CompareOp op) {
    switch (op) {
      case CompareOp::kLt:
        return CompareOp::kGt;
      case CompareOp::kLe:
        return CompareOp::kGe;
      case CompareOp::kGt:
        return CompareOp::kLt;
      case CompareOp::kGe:
        return CompareOp::kLe;
      default:
        return op;
    }
  }

  int SlotOf(const std::string& name) const {
    for (size_t i = 0; i < ctx_.vars->size(); ++i) {
      if ((*ctx_.vars)[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

  const Row& row_;
  const EvalContext& ctx_;
};

}  // namespace

bool ParseNumeric(std::string_view s, double* out) {
  if (s.empty()) return false;
  // strtod needs a terminated string; a view is copied to one, on the
  // stack when it is short.
  char small[64];
  std::string large;
  const char* text = small;
  if (s.size() < sizeof(small)) {
    s.copy(small, s.size());
    small[s.size()] = '\0';
  } else {
    large.assign(s);
    text = large.c_str();
  }
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end != text + s.size()) return false;
  *out = v;
  return true;
}

bool EvalPredicate(const Expr& expr, const Row& row,
                   const EvalContext& ctx) {
  Evaluator ev(row, ctx);
  return ev.Truthy(expr);
}

bool RepeatedSlotsAgree(const CompiledPattern& cp, const Triple& t) {
  return !(cp.var_s >= 0 && cp.var_s == cp.var_p && t.s != t.p) &&
         !(cp.var_s >= 0 && cp.var_s == cp.var_o && t.s != t.o) &&
         !(cp.var_p >= 0 && cp.var_p == cp.var_o && t.p != t.o);
}

PatternSpec ScanSpec(const CompiledPattern& cp,
                     const std::vector<VarInfo>& vars) {
  PatternSpec spec = cp.spec;
  if (cp.var_t >= 0 && vars[static_cast<size_t>(cp.var_t)].needs_full) {
    spec.time = Interval::All();
  }
  return spec;
}

bool MeetsWindow(const CompiledPattern& cp, Chronon start, Chronon end) {
  return std::max(start, cp.spec.time.start) <
         std::min(end, cp.spec.time.end);
}

void ScanToRows(const TemporalStore& store, const CompiledPattern& cp,
                size_t num_vars, const std::vector<VarInfo>& vars,
                std::vector<Row>* out, ExecStats* stats) {
  if (stats != nullptr) ++stats->patterns_scanned;
  const size_t before = out->size();
  if (cp.never_matches || cp.spec.time.empty()) return;
  const PatternSpec spec = ScanSpec(cp, vars);
  std::unordered_map<Triple, std::vector<Interval>, TripleHash> groups;
  ScanStats scan;
  store.ScanPattern(
      spec,
      [&](const Triple& t, const Interval& iv) {
        groups[t].push_back(iv.Intersect(spec.time));
      },
      &scan);
  out->reserve(out->size() + groups.size());
  for (auto& [triple, runs] : groups) {
    if (!RepeatedSlotsAgree(cp, triple) ||
        std::none_of(runs.begin(), runs.end(), [&](const Interval& iv) {
          return MeetsWindow(cp, iv.start, iv.end);
        })) {
      continue;
    }
    Row row(num_vars);
    if (cp.var_s >= 0) row.terms[static_cast<size_t>(cp.var_s)] = triple.s;
    if (cp.var_p >= 0) row.terms[static_cast<size_t>(cp.var_p)] = triple.p;
    if (cp.var_o >= 0) row.terms[static_cast<size_t>(cp.var_o)] = triple.o;
    if (cp.var_t >= 0) {
      row.times[static_cast<size_t>(cp.var_t)] =
          TemporalSet::FromIntervals(std::move(runs));
    }
    out->push_back(std::move(row));
  }
  if (stats != nullptr) {
    stats->rows_scanned += out->size() - before;
    stats->scan.MergeFrom(scan);
  }
}

namespace {

uint64_t RowHash(const Row& r, const std::vector<int>& slots) {
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (int slot : slots) {
    h ^= r.terms[static_cast<size_t>(slot)] + 0x9E3779B97F4A7C15ull +
         (h << 6) + (h >> 2);
  }
  return h;
}

bool KeysMatch(const Row& a, const Row& b, const std::vector<int>& slots) {
  for (int slot : slots) {
    if (a.terms[static_cast<size_t>(slot)] !=
        b.terms[static_cast<size_t>(slot)]) {
      return false;
    }
  }
  return true;
}

// Merges b into a copy of a; false if a shared temporal slot has an
// empty intersection.
bool MergeRows(const Row& a, const Row& b, Row* out) {
  const size_t num_vars = a.terms.size();
  *out = Row(num_vars);
  for (size_t i = 0; i < num_vars; ++i) {
    out->terms[i] = a.terms[i] != kInvalidTerm ? a.terms[i] : b.terms[i];
    const bool a_has = !a.times[i].empty();
    const bool b_has = !b.times[i].empty();
    if (a_has && b_has) {
      out->times[i] = a.times[i].Intersect(b.times[i]);
      if (out->times[i].empty()) return false;
    } else if (a_has) {
      out->times[i] = a.times[i];
    } else if (b_has) {
      out->times[i] = b.times[i];
    }
  }
  return true;
}

}  // namespace

std::vector<Row> LeftHashJoinRows(const std::vector<Row>& left,
                                  const std::vector<Row>& right,
                                  const std::vector<int>& shared_key_slots) {
  std::vector<Row> out;
  if (left.empty()) return out;
  std::unordered_multimap<uint64_t, const Row*> table;
  table.reserve(right.size());
  for (const Row& r : right) table.emplace(RowHash(r, shared_key_slots), &r);
  for (const Row& lr : left) {
    bool matched = false;
    auto [lo, hi] = table.equal_range(RowHash(lr, shared_key_slots));
    for (auto it = lo; it != hi; ++it) {
      if (!KeysMatch(lr, *it->second, shared_key_slots)) continue;
      Row merged;
      if (!MergeRows(lr, *it->second, &merged)) continue;
      out.push_back(std::move(merged));
      matched = true;
    }
    if (!matched) out.push_back(lr);
  }
  return out;
}

std::vector<Row> HashJoinRows(const std::vector<Row>& left,
                              const std::vector<Row>& right,
                              const std::vector<int>& shared_key_slots) {
  std::vector<Row> out;
  if (left.empty() || right.empty()) return out;

  const std::vector<Row>& build = left.size() <= right.size() ? left : right;
  const std::vector<Row>& probe = left.size() <= right.size() ? right : left;

  std::unordered_multimap<uint64_t, const Row*> table;
  table.reserve(build.size());
  for (const Row& r : build) table.emplace(RowHash(r, shared_key_slots), &r);
  for (const Row& pr : probe) {
    auto [lo, hi] = table.equal_range(RowHash(pr, shared_key_slots));
    for (auto it = lo; it != hi; ++it) {
      if (!KeysMatch(*it->second, pr, shared_key_slots)) continue;
      Row merged;
      if (!MergeRows(*it->second, pr, &merged)) continue;
      out.push_back(std::move(merged));
    }
  }
  return out;
}

}  // namespace rdftx::engine
