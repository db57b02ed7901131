#include "sql/unparser.h"

#include "util/string_util.h"

namespace ifgen {

namespace {

void RenderExpr(const Ast& e, int parent_prec, std::string* out);

/// Rule rewrites can produce transiently non-grammatical fragments (e.g. a
/// BiExpr whose rhs column became optional and vanished); rendering must
/// stay total for widget labels, so missing children render as "?".
const Ast& ChildOr(const Ast& e, size_t i) {
  static const Ast kMissing(Symbol::kColExpr, "?");
  return i < e.children.size() ? e.children[i] : kMissing;
}

/// Precedence levels: OR=1, AND=2, NOT=3, cmp=4, add=5, mul=6, primary=7.
int Precedence(const Ast& e) {
  switch (e.sym) {
    case Symbol::kOr:
      return 1;
    case Symbol::kAnd:
      return 2;
    case Symbol::kNot:
      return 3;
    case Symbol::kBetween:
    case Symbol::kIn:
      return 4;
    case Symbol::kBiExpr: {
      if (e.value == "+" || e.value == "-") return 5;
      if (e.value == "*" || e.value == "/") return 6;
      return 4;
    }
    default:
      return 7;
  }
}

void RenderChildList(const Ast& parent, int prec, std::string_view sep,
                     std::string* out) {
  for (size_t i = 0; i < parent.children.size(); ++i) {
    if (i > 0) *out += sep;
    RenderExpr(parent.children[i], prec, out);
  }
}

void RenderExpr(const Ast& e, int parent_prec, std::string* out) {
  const int prec = Precedence(e);
  const bool needs_parens = prec < parent_prec;
  if (needs_parens) *out += "(";
  switch (e.sym) {
    case Symbol::kOr:
      RenderChildList(e, prec + 1, " or ", out);
      break;
    case Symbol::kAnd:
      RenderChildList(e, prec + 1, " and ", out);
      break;
    case Symbol::kNot:
      *out += "not ";
      RenderExpr(ChildOr(e, 0), prec, out);
      break;
    case Symbol::kBiExpr: {
      RenderExpr(ChildOr(e, 0), prec, out);
      *out += " " + e.value + " ";
      RenderExpr(ChildOr(e, 1), prec + 1, out);
      break;
    }
    case Symbol::kBetween:
      RenderExpr(ChildOr(e, 0), prec + 1, out);
      *out += " between ";
      RenderExpr(ChildOr(e, 1), prec + 1, out);
      *out += " and ";
      RenderExpr(ChildOr(e, 2), prec + 1, out);
      break;
    case Symbol::kIn:
      RenderExpr(ChildOr(e, 0), prec + 1, out);
      *out += " in (";
      RenderChildList(ChildOr(e, 1), 0, ", ", out);
      *out += ")";
      break;
    case Symbol::kFuncExpr:
      *out += e.value + "(";
      RenderChildList(e, 0, ", ", out);
      *out += ")";
      break;
    case Symbol::kAlias:
      RenderExpr(ChildOr(e, 0), 7, out);
      *out += " as " + e.value;
      break;
    case Symbol::kColExpr:
      *out += e.value;
      break;
    case Symbol::kNumExpr:
      *out += e.value;
      break;
    case Symbol::kStrExpr: {
      *out += "'";
      for (char ch : e.value) {
        if (ch == '\'') *out += "''";  // re-escape embedded quotes
        else *out += ch;
      }
      *out += "'";
      break;
    }
    case Symbol::kStar:
      *out += "*";
      break;
    case Symbol::kParam:
      // Execution-backend placeholder; value is the 1-based parameter index
      // (matches SQLite's ?NNN syntax).
      *out += "?" + e.value;
      break;
    case Symbol::kList:
      *out += "(";
      RenderChildList(e, 0, ", ", out);
      *out += ")";
      break;
    default:
      *out += std::string(SymbolName(e.sym));
      break;
  }
  if (needs_parens) *out += ")";
}

}  // namespace

Result<std::string> Unparse(const Ast& ast) {
  if (ast.sym != Symbol::kSelect) {
    return Status::Invalid("Unparse expects a Select root, got " +
                           std::string(SymbolName(ast.sym)));
  }
  const Ast* project = nullptr;
  const Ast* top = nullptr;
  const Ast* from = nullptr;
  const Ast* where = nullptr;
  const Ast* group = nullptr;
  const Ast* order = nullptr;
  const Ast* limit = nullptr;
  for (const Ast& c : ast.children) {
    switch (c.sym) {
      case Symbol::kProject:
        project = &c;
        break;
      case Symbol::kTop:
        top = &c;
        break;
      case Symbol::kFrom:
        from = &c;
        break;
      case Symbol::kWhere:
        where = &c;
        break;
      case Symbol::kGroupBy:
        group = &c;
        break;
      case Symbol::kOrderBy:
        order = &c;
        break;
      case Symbol::kLimit:
        limit = &c;
        break;
      default:
        return Status::Invalid("unexpected clause under Select: " +
                               std::string(SymbolName(c.sym)));
    }
  }
  if (project == nullptr || from == nullptr) {
    return Status::Invalid("query lacks Project or From clause");
  }
  // "select  from t" does not parse; refuse to emit it.
  if (project->children.empty()) {
    return Status::Invalid("query has an empty projection");
  }
  std::string out = "select ";
  if (top != nullptr) out += "top " + top->value + " ";
  if (project->value == "distinct") out += "distinct ";
  for (size_t i = 0; i < project->children.size(); ++i) {
    if (i > 0) out += ", ";
    RenderExpr(project->children[i], 0, &out);
  }
  out += " from ";
  for (size_t i = 0; i < from->children.size(); ++i) {
    if (i > 0) out += ", ";
    out += from->children[i].value;
  }
  if (where != nullptr && !where->children.empty()) {
    const Ast& pred = where->children[0];
    // An empty conjunction (every predicate of a MULTI removed) is true:
    // the query filters nothing, which SQL says by omitting the clause.
    if (pred.sym != Symbol::kAnd || !pred.children.empty()) {
      out += " where ";
      RenderExpr(pred, 0, &out);
    }
  }
  if (group != nullptr) {
    out += " group by ";
    for (size_t i = 0; i < group->children.size(); ++i) {
      if (i > 0) out += ", ";
      RenderExpr(group->children[i], 0, &out);
    }
  }
  if (order != nullptr) {
    out += " order by ";
    for (size_t i = 0; i < order->children.size(); ++i) {
      if (i > 0) out += ", ";
      RenderExpr(ChildOr(order->children[i], 0), 0, &out);
      if (order->children[i].value == "desc") out += " desc";
    }
  }
  if (limit != nullptr) out += " limit " + limit->value;
  return out;
}

std::string UnparseFragment(const Ast& ast) {
  switch (ast.sym) {
    case Symbol::kSelect: {
      auto r = Unparse(ast);
      return r.ok() ? *r : ast.ToSExpr();
    }
    case Symbol::kWhere: {
      std::string out = "where ";
      if (!ast.children.empty()) RenderExpr(ast.children[0], 0, &out);
      return out;
    }
    case Symbol::kTop:
      return "top " + ast.value;
    case Symbol::kLimit:
      return "limit " + ast.value;
    case Symbol::kTable:
      return ast.value;
    case Symbol::kFrom: {
      std::vector<std::string> names;
      for (const Ast& c : ast.children) names.push_back(c.value);
      return "from " + Join(names, ", ");
    }
    case Symbol::kProject: {
      std::string out;
      for (size_t i = 0; i < ast.children.size(); ++i) {
        if (i > 0) out += ", ";
        RenderExpr(ast.children[i], 0, &out);
      }
      return out;
    }
    case Symbol::kGroupBy: {
      std::string out = "group by ";
      for (size_t i = 0; i < ast.children.size(); ++i) {
        if (i > 0) out += ", ";
        RenderExpr(ast.children[i], 0, &out);
      }
      return out;
    }
    case Symbol::kOrderBy: {
      std::string out = "order by ";
      for (size_t i = 0; i < ast.children.size(); ++i) {
        if (i > 0) out += ", ";
        RenderExpr(ChildOr(ast.children[i], 0), 0, &out);
        if (ast.children[i].value == "desc") out += " desc";
      }
      return out;
    }
    case Symbol::kOrderKey: {
      std::string out;
      RenderExpr(ChildOr(ast, 0), 0, &out);
      if (ast.value == "desc") out += " desc";
      return out;
    }
    case Symbol::kEmpty:
      return "(none)";
    case Symbol::kSeq: {
      std::vector<std::string> parts;
      for (const Ast& c : ast.children) parts.push_back(UnparseFragment(c));
      return Join(parts, " ");
    }
    default: {
      std::string out;
      RenderExpr(ast, 0, &out);
      return out;
    }
  }
}

}  // namespace ifgen
