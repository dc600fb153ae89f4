#include "query/ast.h"

#include <charconv>

#include "util/string_util.h"

namespace gmine::query::ast {

namespace {

/// Shortest round-tripping decimal form of a double (std::to_chars), so
/// Parse(Print(x)) recovers bit-identical float literals.
std::string FloatLiteral(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  std::string out(buf, res.ptr);
  // Guarantee the token reads back as a float, not an integer.
  if (out.find('.') == std::string::npos &&
      out.find('e') == std::string::npos &&
      out.find('E') == std::string::npos) {
    out += ".0";
  }
  return out;
}

std::string StringLiteral(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

std::string ValueText(const Value& v) {
  switch (v.kind) {
    case Value::Kind::kInt:
      return StrFormat("%llu", static_cast<unsigned long long>(v.int_value));
    case Value::Kind::kFloat:
      return FloatLiteral(v.float_value);
    case Value::Kind::kString:
      return StringLiteral(v.string_value);
  }
  return "";
}

std::string RefText(const NodeRef& ref) {
  if (ref.is_label) return StringLiteral(ref.label);
  return StrFormat("%llu", static_cast<unsigned long long>(ref.id));
}

/// Binding strength: OR < AND < NOT < comparison. A child prints inside
/// parentheses when its level is below the context's, or equal on the
/// right of a left-associative operator (the parser builds left-leaning
/// chains, so `a OR (b OR c)` must keep its parens to round-trip).
int Level(const Predicate& p) {
  switch (p.kind) {
    case Predicate::Kind::kOr: return 1;
    case Predicate::Kind::kAnd: return 2;
    case Predicate::Kind::kNot: return 3;
    case Predicate::Kind::kCompare: return 4;
  }
  return 4;
}

std::string PrintAt(const Predicate& p, int context, bool right) {
  const int level = Level(p);
  std::string body;
  switch (p.kind) {
    case Predicate::Kind::kCompare:
      body = StrFormat("%s %s %s", FieldName(p.field), CompareOpName(p.op),
                       ValueText(p.value).c_str());
      break;
    case Predicate::Kind::kNot:
      body = "NOT " + PrintAt(*p.lhs, level, /*right=*/true);
      break;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      const char* word = p.kind == Predicate::Kind::kAnd ? " AND " : " OR ";
      body = PrintAt(*p.lhs, level, /*right=*/false) + word +
             PrintAt(*p.rhs, level, /*right=*/true);
      break;
    }
  }
  if (level < context || (level == context && right &&
                          (p.kind == Predicate::Kind::kAnd ||
                           p.kind == Predicate::Kind::kOr))) {
    return "(" + body + ")";
  }
  return body;
}

bool EqualPredicate(const Predicate* a, const Predicate* b) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->kind != b->kind) return false;
  switch (a->kind) {
    case Predicate::Kind::kCompare:
      if (a->field != b->field || a->op != b->op ||
          a->value.kind != b->value.kind) {
        return false;
      }
      switch (a->value.kind) {
        case Value::Kind::kInt:
          return a->value.int_value == b->value.int_value;
        case Value::Kind::kFloat:
          // Bit-for-bit literal equality, not numeric: round-trip must
          // preserve the exact double (NaNs never parse).
          return a->value.float_value == b->value.float_value;
        case Value::Kind::kString:
          return a->value.string_value == b->value.string_value;
      }
      return false;
    case Predicate::Kind::kNot:
      return EqualPredicate(a->lhs.get(), b->lhs.get());
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      return EqualPredicate(a->lhs.get(), b->lhs.get()) &&
             EqualPredicate(a->rhs.get(), b->rhs.get());
  }
  return false;
}

bool EqualRef(const NodeRef& a, const NodeRef& b) {
  if (a.is_label != b.is_label) return false;
  return a.is_label ? a.label == b.label : a.id == b.id;
}

}  // namespace

const char* FieldName(Field field) {
  switch (field) {
    case Field::kId: return "id";
    case Field::kLabel: return "label";
    case Field::kDegree: return "degree";
    case Field::kPagerank: return "pagerank";
    case Field::kCommunity: return "community";
  }
  return "?";
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return "=";
    case CompareOp::kNe: return "!=";
    case CompareOp::kLt: return "<";
    case CompareOp::kLe: return "<=";
    case CompareOp::kGt: return ">";
    case CompareOp::kGe: return ">=";
    case CompareOp::kContains: return "CONTAINS";
    case CompareOp::kPrefix: return "PREFIX";
  }
  return "?";
}

const char* MineKernelName(MineStatement::Kernel kernel) {
  switch (kernel) {
    case MineStatement::Kernel::kPagerank: return "PAGERANK";
    case MineStatement::Kernel::kDegrees: return "DEGREES";
    case MineStatement::Kernel::kComponents: return "COMPONENTS";
  }
  return "?";
}

std::optional<MineStatement::Kernel> ParseMineKernel(std::string_view name) {
  if (name == "pagerank") return MineStatement::Kernel::kPagerank;
  if (name == "degrees") return MineStatement::Kernel::kDegrees;
  if (name == "components") return MineStatement::Kernel::kComponents;
  return std::nullopt;
}

std::string PrintPredicate(const Predicate& p) {
  return PrintAt(p, /*context=*/0, /*right=*/false);
}

std::string Print(const Statement& stmt) {
  std::string out;
  if (stmt.explain) out += "EXPLAIN ";
  if (const MatchStatement* m = stmt.match()) {
    out += "MATCH ";
    if (m->source == MatchStatement::Source::kNodes) {
      out += "NODES";
    } else {
      out += StrFormat("NEIGHBORS(%s, %u)", RefText(m->origin).c_str(),
                       m->depth);
    }
    if (m->where != nullptr) {
      out += " WHERE " + PrintPredicate(*m->where);
    }
    if (!m->order_by.empty()) {
      out += " ORDER BY ";
      for (size_t i = 0; i < m->order_by.size(); ++i) {
        if (i > 0) out += ", ";
        out += StrFormat("%s %s", FieldName(m->order_by[i].field),
                         m->order_by[i].descending ? "DESC" : "ASC");
      }
    }
    if (m->limit.has_value()) {
      out += StrFormat(" LIMIT %llu",
                       static_cast<unsigned long long>(*m->limit));
    }
  } else if (const ExtractStatement* e = stmt.extract()) {
    out += "EXTRACT CSG FROM {";
    for (size_t i = 0; i < e->sources.size(); ++i) {
      if (i > 0) out += ", ";
      out += RefText(e->sources[i]);
    }
    out += "}";
    if (e->budget.has_value()) {
      out += StrFormat(" BUDGET %llu",
                       static_cast<unsigned long long>(*e->budget));
    }
  } else if (const SummarizeStatement* s = stmt.summarize()) {
    out += "SUMMARIZE NODE " + RefText(s->node);
  } else if (const MineStatement* mi = stmt.mine()) {
    out += StrFormat("MINE %s", MineKernelName(mi->kernel));
    if (mi->top.has_value()) {
      out += StrFormat(" TOP %llu",
                       static_cast<unsigned long long>(*mi->top));
    }
  }
  return out;
}

bool Equal(const Statement& a, const Statement& b) {
  if (a.explain != b.explain) return false;
  if (a.node.index() != b.node.index()) return false;
  if (const MatchStatement* ma = a.match()) {
    const MatchStatement* mb = b.match();
    if (ma->source != mb->source) return false;
    if (ma->source == MatchStatement::Source::kNeighbors &&
        (!EqualRef(ma->origin, mb->origin) || ma->depth != mb->depth)) {
      return false;
    }
    if (!EqualPredicate(ma->where.get(), mb->where.get())) return false;
    if (ma->order_by.size() != mb->order_by.size()) return false;
    for (size_t i = 0; i < ma->order_by.size(); ++i) {
      if (ma->order_by[i].field != mb->order_by[i].field ||
          ma->order_by[i].descending != mb->order_by[i].descending) {
        return false;
      }
    }
    return ma->limit == mb->limit;
  }
  if (const ExtractStatement* ea = a.extract()) {
    const ExtractStatement* eb = b.extract();
    if (ea->sources.size() != eb->sources.size()) return false;
    for (size_t i = 0; i < ea->sources.size(); ++i) {
      if (!EqualRef(ea->sources[i], eb->sources[i])) return false;
    }
    return ea->budget == eb->budget;
  }
  if (const SummarizeStatement* sa = a.summarize()) {
    return EqualRef(sa->node, b.summarize()->node);
  }
  if (const MineStatement* mia = a.mine()) {
    const MineStatement* mib = b.mine();
    return mia->kernel == mib->kernel && mia->top == mib->top;
  }
  return false;
}

}  // namespace gmine::query::ast
