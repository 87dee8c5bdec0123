#include "engine/translate.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

namespace rdftx::engine {
namespace {

using sparqlt::CompareOp;
using sparqlt::Expr;
using sparqlt::GraphPattern;
using sparqlt::Term;

CompareOp Flip(CompareOp op) {
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
      return op;  // = and != are symmetric
  }
}

Interval Hull(const Interval& a, const Interval& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  // min(starts) <= a.start < a.end <= max(ends): sound because both
  // inputs are non-empty here, one step beyond what the analyzer's
  // pairwise guard matching can derive.
  // rdftx-analyzer: allow(interval-soundness)
  return Interval(std::min(a.start, b.start), std::max(a.end, b.end));
}

// Window for "f(x) op c" where the monotone classifier f maps the point
// interval [lo, hi) onto the constant c (identity: [d, d+1); YEAR:
// [Jan 1, Dec 31]).
Interval CompareWindow(CompareOp op, Chronon lo, Chronon hi) {
  switch (op) {
    case CompareOp::kEq:
      // Callers map a classifier's preimage with lo <= hi by
      // construction (identity: [d, d+1); YEAR: [Jan 1, Dec 31 + 1)).
      // rdftx-analyzer: allow(interval-soundness)
      return Interval(lo, hi);
    case CompareOp::kLt:
      return Interval(0, lo);
    case CompareOp::kLe:
      return Interval(0, hi);
    case CompareOp::kGt:
      return Interval(std::min<Chronon>(hi, kChrononMax), kChrononNow);
    case CompareOp::kGe:
      return Interval(lo, kChrononNow);
    case CompareOp::kNe:
      return Interval::All();
  }
  return Interval::All();
}

// If `e` is <fn>(?time_var) or bare ?time_var, reports which function.
enum class TimeFn { kNone, kIdentity, kYear };

TimeFn ClassifyTimeSide(const Expr& e, const std::string& time_var) {
  if (e.kind == Expr::Kind::kVariable && e.text == time_var) {
    return TimeFn::kIdentity;
  }
  if (e.kind == Expr::Kind::kYear && e.children.size() == 1 &&
      e.children[0]->kind == Expr::Kind::kVariable &&
      e.children[0]->text == time_var) {
    return TimeFn::kYear;
  }
  return TimeFn::kNone;
}

}  // namespace

std::vector<int> CompiledPattern::KeySlots() const {
  std::vector<int> slots;
  for (int s : {var_s, var_p, var_o}) {
    if (s >= 0) slots.push_back(s);
  }
  return slots;
}

bool CompiledPattern::SharesVariable(const CompiledPattern& other) const {
  for (int x : {var_s, var_p, var_o, var_t}) {
    if (x < 0) continue;
    for (int y : {other.var_s, other.var_p, other.var_o, other.var_t}) {
      if (x == y) return true;
    }
  }
  return false;
}

Interval FilterWindow(const Expr& expr, const std::string& time_var) {
  switch (expr.kind) {
    case Expr::Kind::kAnd:
      return FilterWindow(*expr.children[0], time_var)
          .Intersect(FilterWindow(*expr.children[1], time_var));
    case Expr::Kind::kOr:
      return Hull(FilterWindow(*expr.children[0], time_var),
                  FilterWindow(*expr.children[1], time_var));
    case Expr::Kind::kCompare: {
      const Expr* lhs = expr.children[0].get();
      const Expr* rhs = expr.children[1].get();
      CompareOp op = expr.op;
      TimeFn fn = ClassifyTimeSide(*lhs, time_var);
      if (fn == TimeFn::kNone) {
        fn = ClassifyTimeSide(*rhs, time_var);
        if (fn == TimeFn::kNone) return Interval::All();
        std::swap(lhs, rhs);
        op = Flip(op);
      }
      if (fn == TimeFn::kIdentity && rhs->kind == Expr::Kind::kDateLit) {
        Chronon d = rhs->date_value;
        if (d == kChrononNow) return Interval::All();
        return CompareWindow(op, d, d + 1);
      }
      if (fn == TimeFn::kYear && rhs->kind == Expr::Kind::kIntLit) {
        int year = static_cast<int>(rhs->int_value);
        return CompareWindow(op, YearStart(year), YearEnd(year) + 1);
      }
      return Interval::All();
    }
    default:
      // NOT, bare operands, endpoint/duration conditions: no pruning.
      return Interval::All();
  }
}

Result<CompiledQuery> Compile(const sparqlt::Query& query,
                              const Dictionary& dict) {
  CompiledQuery out;
  if (!query.union_branches.empty()) {
    return Status::InvalidArgument(
        "UNION queries are executed branch-by-branch; compile a branch");
  }
  std::map<std::string, int> slots;

  auto slot_for = [&](const std::string& name, bool is_time) -> Result<int> {
    auto it = slots.find(name);
    if (it != slots.end()) {
      if (out.vars[static_cast<size_t>(it->second)].is_time != is_time) {
        return Status::InvalidArgument(
            "variable ?" + name + " used in both key and time positions");
      }
      return it->second;
    }
    int slot = static_cast<int>(out.vars.size());
    out.vars.push_back(VarInfo{name, is_time, false});
    slots.emplace(name, slot);
    return slot;
  };

  auto compile_pattern = [&](const GraphPattern& gp) -> Result<CompiledPattern> {
    CompiledPattern cp;
    auto key_pos = [&](const Term& term, TermId* constant,
                       int* var) -> Status {
      switch (term.kind) {
        case Term::Kind::kConstant: {
          TermId id = dict.Lookup(term.text);
          if (id == kInvalidTerm) cp.never_matches = true;
          *constant = id;
          return Status::OK();
        }
        case Term::Kind::kVariable: {
          auto slot = slot_for(term.text, /*is_time=*/false);
          if (!slot.ok()) return slot.status();
          *var = *slot;
          return Status::OK();
        }
        default:
          return Status::InvalidArgument(
              "s/p/o positions must be constants or variables");
      }
    };
    RDFTX_RETURN_IF_ERROR(key_pos(gp.s, &cp.spec.s, &cp.var_s));
    RDFTX_RETURN_IF_ERROR(key_pos(gp.p, &cp.spec.p, &cp.var_p));
    RDFTX_RETURN_IF_ERROR(key_pos(gp.o, &cp.spec.o, &cp.var_o));
    switch (gp.t.kind) {
      case Term::Kind::kVariable: {
        auto slot = slot_for(gp.t.text, /*is_time=*/true);
        if (!slot.ok()) return slot.status();
        cp.var_t = *slot;
        break;
      }
      case Term::Kind::kDate:
        // Split the branches so each Interval construction is provably
        // ordered on its own: [now, now) is the empty live point and
        // [d, d+1) the one-day window.
        cp.spec.time = gp.t.date == kChrononNow
                           ? Interval(kChrononNow, kChrononNow)
                           : Interval(gp.t.date, gp.t.date + 1);
        break;
      case Term::Kind::kWildcard:
        break;
      default:
        return Status::InvalidArgument(
            "temporal position must be a variable or a date");
    }
    return cp;
  };

  for (const GraphPattern& gp : query.patterns) {
    auto cp = compile_pattern(gp);
    if (!cp.ok()) return cp.status();
    out.patterns.push_back(*cp);
  }
  for (const auto& opt : query.optionals) {
    CompiledOptional block;
    for (const GraphPattern& gp : opt.patterns) {
      auto cp = compile_pattern(gp);
      if (!cp.ok()) return cp.status();
      block.patterns.push_back(*cp);
    }
    for (const auto& f : opt.filters) block.filters.push_back(f.get());
    out.optionals.push_back(std::move(block));
  }

  // EXISTS groups compile last so that any variable first seen inside a
  // group is marked local: it shares the slot space (shared names join
  // against the outer block) but is invisible to SELECT *.
  for (const auto& ex : query.exists) {
    CompiledExists ce;
    ce.negated = ex.negated;
    const size_t first_local = out.vars.size();
    for (const GraphPattern& gp : ex.patterns) {
      auto cp = compile_pattern(gp);
      if (!cp.ok()) return cp.status();
      ce.group.patterns.push_back(*cp);
    }
    for (const auto& f : ex.filters) ce.group.filters.push_back(f.get());
    for (size_t i = first_local; i < out.vars.size(); ++i) {
      out.vars[i].local = true;
    }
    out.exists.push_back(std::move(ce));
  }
  // EXISTS groups evaluate independently (outer bindings are joined in,
  // not substituted), so a group filter may only reference variables the
  // group's own patterns bind — anything else would silently compare
  // against an unbound slot. Correlation happens through shared pattern
  // variables instead.
  for (const CompiledExists& ce : out.exists) {
    std::set<int> group_bound;
    for (const CompiledPattern& cp : ce.group.patterns) {
      for (int s : {cp.var_s, cp.var_p, cp.var_o, cp.var_t}) {
        if (s >= 0) group_bound.insert(s);
      }
    }
    std::function<Status(const Expr&)> check = [&](const Expr& e) -> Status {
      if (e.kind == Expr::Kind::kVariable) {
        auto it = slots.find(e.text);
        if (it != slots.end() && !group_bound.contains(it->second)) {
          return Status::InvalidArgument(
              "EXISTS filter references ?" + e.text +
              ", which the group's patterns do not bind; correlate "
              "through shared pattern variables");
        }
      }
      for (const auto& child : e.children) {
        RDFTX_RETURN_IF_ERROR(check(*child));
      }
      return Status::OK();
    };
    for (const Expr* f : ce.group.filters) {
      RDFTX_RETURN_IF_ERROR(check(*f));
    }
  }

  for (const auto& f : query.filters) out.filters.push_back(f.get());

  // Mark time variables whose full temporal element is needed: any use
  // under a duration or endpoint built-in.
  std::function<void(const Expr&)> mark = [&](const Expr& e) {
    switch (e.kind) {
      case Expr::Kind::kTStart:
      case Expr::Kind::kTEnd:
      case Expr::Kind::kLength:
      case Expr::Kind::kTotalLength:
        if (e.children[0]->kind == Expr::Kind::kVariable) {
          auto it = slots.find(e.children[0]->text);
          if (it != slots.end()) {
            out.vars[static_cast<size_t>(it->second)].needs_full = true;
          }
        }
        break;
      default:
        break;
    }
    for (const auto& child : e.children) mark(*child);
  };
  for (const Expr* f : out.filters) mark(*f);
  for (const CompiledOptional& opt : out.optionals) {
    for (const Expr* f : opt.filters) mark(*f);
  }
  for (const CompiledExists& ex : out.exists) {
    for (const Expr* f : ex.group.filters) mark(*f);
  }

  // Scan windows: intersect the windows implied by every FILTER clause
  // (the clauses are conjunctive). Optional patterns additionally take
  // their own group's filters into account.
  auto window_for = [&](int slot,
                        const std::vector<const Expr*>* extra) {
    const std::string& name = out.vars[static_cast<size_t>(slot)].name;
    Interval window = Interval::All();
    for (const Expr* f : out.filters) {
      window = window.Intersect(FilterWindow(*f, name));
    }
    if (extra != nullptr) {
      for (const Expr* f : *extra) {
        window = window.Intersect(FilterWindow(*f, name));
      }
    }
    return window;
  };
  for (CompiledPattern& cp : out.patterns) {
    if (cp.var_t >= 0) cp.spec.time = window_for(cp.var_t, nullptr);
  }
  for (CompiledOptional& opt : out.optionals) {
    for (CompiledPattern& cp : opt.patterns) {
      if (cp.var_t >= 0) cp.spec.time = window_for(cp.var_t, &opt.filters);
    }
  }
  // EXISTS scan windows come from the group's own filters only: the main
  // block's filters do not clip the temporal sets of outer rows, so the
  // semi-join may legitimately match group rows outside any main-filter
  // window.
  for (CompiledExists& ex : out.exists) {
    for (CompiledPattern& cp : ex.group.patterns) {
      if (cp.var_t < 0) continue;
      const std::string& name = out.vars[static_cast<size_t>(cp.var_t)].name;
      Interval window = Interval::All();
      for (const Expr* f : ex.group.filters) {
        window = window.Intersect(FilterWindow(*f, name));
      }
      cp.spec.time = window;
    }
  }

  auto lookup = [&](const std::string& name) -> int {
    auto it = slots.find(name);
    return it == slots.end() ? -1 : it->second;
  };

  // Semantic analysis of the aggregate projection (when present):
  // non-aggregate SELECT variables must be grouped, argument slots must
  // exist with the right kind, aliases must be unique.
  if (!query.aggregates.empty() || !query.group_by.empty()) {
    if (query.aggregates.empty()) {
      return Status::InvalidArgument(
          "GROUP BY requires aggregates in the SELECT list");
    }
    for (const std::string& name : query.group_by) {
      int slot = lookup(name);
      if (slot < 0) {
        return Status::InvalidArgument("GROUP BY variable ?" + name +
                                       " does not occur in any pattern");
      }
      auto& info = out.vars[static_cast<size_t>(slot)];
      if (info.local) {
        return Status::InvalidArgument("GROUP BY variable ?" + name +
                                       " is scoped to a FILTER EXISTS group");
      }
      // Grouping by a time variable groups by the full validity set.
      if (info.is_time) info.needs_full = true;
      out.group_by.push_back(slot);
    }
    for (const std::string& name : query.select) {
      int slot = lookup(name);
      if (slot < 0) {
        return Status::InvalidArgument("projected variable ?" + name +
                                       " does not occur in any pattern");
      }
      if (std::find(query.group_by.begin(), query.group_by.end(), name) ==
          query.group_by.end()) {
        return Status::InvalidArgument(
            "variable ?" + name +
            " in SELECT is neither grouped nor aggregated");
      }
      out.projection.push_back(slot);
    }
    std::set<std::string> out_names(query.select.begin(), query.select.end());
    for (const sparqlt::Aggregate& agg : query.aggregates) {
      if (!out_names.insert(agg.alias).second) {
        return Status::InvalidArgument("duplicate output column ?" +
                                       agg.alias);
      }
      CompiledAggregate ca;
      ca.fn = agg.fn;
      ca.star = agg.star;
      ca.alias = agg.alias;
      if (!agg.star) {
        ca.var = lookup(agg.var);
        if (ca.var < 0) {
          return Status::InvalidArgument("aggregate argument ?" + agg.var +
                                         " does not occur in any pattern");
        }
        auto& info = out.vars[static_cast<size_t>(ca.var)];
        if (info.local) {
          return Status::InvalidArgument(
              "aggregate argument ?" + agg.var +
              " is scoped to a FILTER EXISTS group");
        }
        switch (agg.fn) {
          case sparqlt::AggregateFn::kSum:
            if (info.is_time) {
              return Status::InvalidArgument(
                  "SUM argument must be a key variable (use DCOUNT/DSUM "
                  "for durations)");
            }
            break;
          case sparqlt::AggregateFn::kDurCount:
            if (!info.is_time) {
              return Status::InvalidArgument(
                  "DCOUNT argument must be a time variable");
            }
            info.needs_full = true;
            break;
          case sparqlt::AggregateFn::kDurSum: {
            if (info.is_time) {
              return Status::InvalidArgument(
                  "DSUM value argument must be a key variable");
            }
            ca.time_var = lookup(agg.time_var);
            if (ca.time_var < 0) {
              return Status::InvalidArgument(
                  "DSUM time argument ?" + agg.time_var +
                  " does not occur in any pattern");
            }
            auto& tinfo = out.vars[static_cast<size_t>(ca.time_var)];
            if (!tinfo.is_time || tinfo.local) {
              return Status::InvalidArgument(
                  "DSUM time argument ?" + agg.time_var +
                  " must be an outer time variable");
            }
            tinfo.needs_full = true;
            break;
          }
          case sparqlt::AggregateFn::kMin:
          case sparqlt::AggregateFn::kMax:
            // MIN/MAX over a time variable reduce to the earliest start /
            // latest end of the full validity set.
            if (info.is_time) info.needs_full = true;
            break;
          case sparqlt::AggregateFn::kCount:
            break;
        }
      }
      out.aggregates.push_back(std::move(ca));
    }
  } else {
    // Projection: SELECT * projects every non-local variable in
    // appearance order.
    if (query.select.empty()) {
      for (size_t i = 0; i < out.vars.size(); ++i) {
        if (!out.vars[i].local) out.projection.push_back(static_cast<int>(i));
      }
    } else {
      for (const std::string& name : query.select) {
        int slot = lookup(name);
        if (slot < 0) {
          return Status::InvalidArgument("projected variable ?" + name +
                                         " does not occur in any pattern");
        }
        if (out.vars[static_cast<size_t>(slot)].local) {
          return Status::InvalidArgument(
              "projected variable ?" + name +
              " is scoped to a FILTER EXISTS group");
        }
        out.projection.push_back(slot);
      }
    }
  }

  // ORDER BY over a time column compares full validity sets, so the
  // scans must not clip them. Name resolution of the sort keys happens
  // against the output columns at execution time.
  for (const sparqlt::OrderKey& key : query.order_by) {
    int slot = lookup(key.var);
    if (slot >= 0 && out.vars[static_cast<size_t>(slot)].is_time) {
      out.vars[static_cast<size_t>(slot)].needs_full = true;
    }
  }
  return out;
}

}  // namespace rdftx::engine
