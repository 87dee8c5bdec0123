#include "sparqlt/ast.h"

#include <initializer_list>
#include <string_view>

namespace rdftx::sparqlt {
namespace {

/// Concatenates `parts` by appending. The text builders below use it
/// instead of `"literal" + std::string&&`, which GCC 12 rejects under
/// -Werror=restrict in optimized builds.
std::string Cat(std::initializer_list<std::string_view> parts) {
  std::string out;
  for (std::string_view part : parts) out.append(part);
  return out;
}

const char* OpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* FuncName(Expr::Kind kind) {
  switch (kind) {
    case Expr::Kind::kYear:
      return "YEAR";
    case Expr::Kind::kMonth:
      return "MONTH";
    case Expr::Kind::kDay:
      return "DAY";
    case Expr::Kind::kTStart:
      return "TSTART";
    case Expr::Kind::kTEnd:
      return "TEND";
    case Expr::Kind::kLength:
      return "LENGTH";
    case Expr::Kind::kTotalLength:
      return "TOTAL_LENGTH";
    default:
      return "?";
  }
}

const char* AggName(AggregateFn fn) {
  switch (fn) {
    case AggregateFn::kCount:
      return "COUNT";
    case AggregateFn::kSum:
      return "SUM";
    case AggregateFn::kMin:
      return "MIN";
    case AggregateFn::kMax:
      return "MAX";
    case AggregateFn::kDurCount:
      return "DCOUNT";
    case AggregateFn::kDurSum:
      return "DSUM";
  }
  return "?";
}

}  // namespace

std::string Term::ToString() const {
  switch (kind) {
    case Kind::kConstant:
      return text;
    case Kind::kVariable:
      return "?" + text;
    case Kind::kDate:
      return FormatChronon(date);
    case Kind::kWildcard:
      return "_";
  }
  return "?";
}

std::string GraphPattern::ToString() const {
  std::string out = Cat({s.ToString(), " ", p.ToString(), " ", o.ToString()});
  if (t.kind != Term::Kind::kWildcard) out.append(" ").append(t.ToString());
  return out;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kAnd:
      return Cat({"(", children[0]->ToString(), " && ",
                  children[1]->ToString(), ")"});
    case Kind::kOr:
      return Cat({"(", children[0]->ToString(), " || ",
                  children[1]->ToString(), ")"});
    case Kind::kNot:
      return Cat({"!(", children[0]->ToString(), ")"});
    case Kind::kCompare:
      return Cat({"(", children[0]->ToString(), " ", OpName(op), " ",
                  children[1]->ToString(), ")"});
    case Kind::kVariable:
      return "?" + text;
    case Kind::kDateLit:
      return FormatChronon(date_value);
    case Kind::kIntLit:
      return std::to_string(int_value);
    case Kind::kStringLit:
      return "\"" + text + "\"";
    default:
      return Cat({FuncName(kind), "(", children[0]->ToString(), ")"});
  }
}

std::string Aggregate::ToString() const {
  std::string out = "(";
  out += AggName(fn);
  out += "(";
  if (star) {
    out += "*";
  } else {
    out += "?" + var;
    if (fn == AggregateFn::kDurSum) out += ", ?" + time_var;
  }
  out += ") AS ?" + alias + ")";
  return out;
}

namespace {

std::string ExistsToString(const ExistsBlock& ex) {
  std::string out = " FILTER ";
  if (ex.negated) out += "NOT ";
  out += "EXISTS {";
  for (const auto& p : ex.patterns) out += Cat({" ", p.ToString(), " ."});
  for (const auto& f : ex.filters) {
    out += Cat({" FILTER", f->ToString(), " ."});
  }
  out += " } .";
  return out;
}

std::string ModifiersToString(const Query& q) {
  std::string out;
  if (!q.group_by.empty()) {
    out += " GROUP BY";
    for (const auto& v : q.group_by) out += " ?" + v;
  }
  if (!q.order_by.empty()) {
    out += " ORDER BY";
    for (const auto& k : q.order_by) {
      if (k.descending) {
        out += " DESC(?" + k.var + ")";
      } else {
        out += " ?" + k.var;
      }
    }
  }
  if (q.limit >= 0) out += " LIMIT " + std::to_string(q.limit);
  if (q.offset > 0) out += " OFFSET " + std::to_string(q.offset);
  return out;
}

}  // namespace

std::string Query::ToString() const {
  std::string out = "SELECT";
  if (select.empty() && aggregates.empty()) {
    out += " *";
  } else {
    for (const auto& v : select) out += " ?" + v;
    for (const auto& a : aggregates) out += Cat({" ", a.ToString()});
  }
  out += " {";
  if (!union_branches.empty()) {
    for (size_t i = 0; i < union_branches.size(); ++i) {
      if (i > 0) out += " UNION";
      out += " {";
      for (const auto& p : union_branches[i].patterns) {
        out += Cat({" ", p.ToString(), " ."});
      }
      for (const auto& f : union_branches[i].filters) {
        out += Cat({" FILTER", f->ToString(), " ."});
      }
      for (const auto& ex : union_branches[i].exists) {
        out += ExistsToString(ex);
      }
      out += " }";
    }
    out += " }";
    out += ModifiersToString(*this);
    return out;
  }
  for (const auto& p : patterns) out += Cat({" ", p.ToString(), " ."});
  for (const auto& f : filters) out += Cat({" FILTER", f->ToString(), " ."});
  for (const auto& ex : exists) out += ExistsToString(ex);
  for (const auto& opt : optionals) {
    out += " OPTIONAL {";
    for (const auto& p : opt.patterns) out += Cat({" ", p.ToString(), " ."});
    for (const auto& f : opt.filters) {
      out += Cat({" FILTER", f->ToString(), " ."});
    }
    out += " } .";
  }
  out += " }";
  out += ModifiersToString(*this);
  return out;
}

ExprPtr MakeVar(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kVariable;
  e->text = std::move(name);
  return e;
}

ExprPtr MakeInt(int64_t v) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kIntLit;
  e->int_value = v;
  return e;
}

ExprPtr MakeDate(Chronon d) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kDateLit;
  e->date_value = d;
  return e;
}

ExprPtr MakeString(std::string s) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kStringLit;
  e->text = std::move(s);
  return e;
}

ExprPtr MakeUnary(Expr::Kind fn, ExprPtr arg) {
  auto e = std::make_unique<Expr>();
  e->kind = fn;
  e->children.push_back(std::move(arg));
  return e;
}

ExprPtr MakeCompare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = Expr::Kind::kCompare;
  e->op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

ExprPtr MakeLogic(Expr::Kind kind, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

}  // namespace rdftx::sparqlt
