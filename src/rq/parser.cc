#include "rq/parser.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>

#include "common/strings.h"

namespace rq {

namespace {

class RqParser {
 public:
  explicit RqParser(std::string_view text) : text_(text) {}

  Result<RqQuery> Parse() {
    RqQuery query;
    SkipSpace();
    // Optional explicit head: IDENT '(' vars ')' ':='.
    size_t saved = pos_;
    std::string ident;
    if (TryIdent(&ident) && Peek() == '(' && !IsReserved(ident)) {
      RQ_ASSIGN_OR_RETURN(std::vector<std::string> names, ParseVarList());
      SkipSpace();
      if (Peek() == ':' && pos_ + 1 < text_.size() &&
          text_[pos_ + 1] == '=') {
        pos_ += 2;
        for (const std::string& name : names) {
          explicit_head_.push_back(InternVar(name));
        }
        has_explicit_head_ = true;
      } else {
        pos_ = saved;  // it was an atom, reparse below
        vars_.clear();
        names_.clear();
      }
    } else {
      pos_ = saved;
    }
    RQ_ASSIGN_OR_RETURN(RqExprPtr root, ParseExpr());
    SkipSpace();
    if (pos_ != text_.size()) {
      return InvalidArgumentError("rq: trailing input at offset " +
                                  std::to_string(pos_));
    }
    query.root = root;
    query.var_names = names_;
    if (has_explicit_head_) {
      for (VarId v : explicit_head_) {
        const auto& fv = root->FreeVars();
        if (!std::binary_search(fv.begin(), fv.end(), v)) {
          return InvalidArgumentError("rq: head variable '" +
                                      names_[v] +
                                      "' is not free in the expression");
        }
      }
      query.head = explicit_head_;
    } else {
      query.head = root->FreeVars();
    }
    RQ_RETURN_IF_ERROR(query.Validate());
    return query;
  }

 private:
  static bool IsReserved(const std::string& word) {
    return word == "exists" || word == "tc" || word == "eq";
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool TryConsume(char c) {
    if (Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool TryIdent(std::string* out) {
    SkipSpace();
    size_t start = pos_;
    if (pos_ < text_.size() &&
        (std::isalpha(static_cast<unsigned char>(text_[pos_])) ||
         text_[pos_] == '_')) {
      while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
      *out = std::string(text_.substr(start, pos_ - start));
      return true;
    }
    return false;
  }

  VarId InternVar(const std::string& name) {
    auto it = vars_.find(name);
    if (it != vars_.end()) return it->second;
    VarId id = static_cast<VarId>(names_.size());
    vars_.emplace(name, id);
    names_.push_back(name);
    return id;
  }

  // Parses '(' name (',' name)* ')'.
  Result<std::vector<std::string>> ParseVarList() {
    if (!TryConsume('(')) {
      return InvalidArgumentError("rq: expected '('");
    }
    std::vector<std::string> out;
    for (;;) {
      std::string name;
      if (!TryIdent(&name)) {
        return InvalidArgumentError("rq: expected variable name");
      }
      out.push_back(std::move(name));
      if (TryConsume(',')) continue;
      break;
    }
    if (!TryConsume(')')) {
      return InvalidArgumentError("rq: expected ')'");
    }
    return out;
  }

  // Parses '[' name (',' name)* ']'.
  Result<std::vector<VarId>> ParseBracketVars() {
    if (!TryConsume('[')) {
      return InvalidArgumentError("rq: expected '['");
    }
    std::vector<VarId> out;
    for (;;) {
      std::string name;
      if (!TryIdent(&name)) {
        return InvalidArgumentError("rq: expected variable in brackets");
      }
      out.push_back(InternVar(name));
      if (TryConsume(',')) continue;
      break;
    }
    if (!TryConsume(']')) {
      return InvalidArgumentError("rq: expected ']'");
    }
    return out;
  }

  // Every nesting level ('(', exists, tc, eq) re-enters here.
  Result<RqExprPtr> ParseExpr() {
    if (depth_ >= kMaxParseNesting) {
      return InvalidArgumentError("rq: nesting deeper than " +
                                  std::to_string(kMaxParseNesting));
    }
    ++depth_;
    Result<RqExprPtr> expr = ParseOr();
    --depth_;
    return expr;
  }

  Result<RqExprPtr> ParseOr() {
    RQ_ASSIGN_OR_RETURN(RqExprPtr first, ParseAnd());
    std::vector<RqExprPtr> parts{first};
    while (TryConsume('|')) {
      RQ_ASSIGN_OR_RETURN(RqExprPtr next, ParseAnd());
      parts.push_back(next);
    }
    if (parts.size() > 1) {
      for (size_t i = 1; i < parts.size(); ++i) {
        if (parts[i]->FreeVars() != parts[0]->FreeVars()) {
          return InvalidArgumentError(
              "rq: disjuncts must have the same free variables");
        }
      }
    }
    return RqExpr::Or(std::move(parts));
  }

  Result<RqExprPtr> ParseAnd() {
    RQ_ASSIGN_OR_RETURN(RqExprPtr first, ParsePrim());
    std::vector<RqExprPtr> parts{first};
    while (TryConsume('&')) {
      RQ_ASSIGN_OR_RETURN(RqExprPtr next, ParsePrim());
      parts.push_back(next);
    }
    return RqExpr::And(std::move(parts));
  }

  Result<RqExprPtr> ParsePrim() {
    SkipSpace();
    if (TryConsume('(')) {
      RQ_ASSIGN_OR_RETURN(RqExprPtr inner, ParseExpr());
      if (!TryConsume(')')) {
        return InvalidArgumentError("rq: expected ')'");
      }
      return inner;
    }
    std::string ident;
    if (!TryIdent(&ident)) {
      return InvalidArgumentError("rq: expected atom or operator at offset " +
                                  std::to_string(pos_));
    }
    if (ident == "exists") {
      RQ_ASSIGN_OR_RETURN(std::vector<VarId> bound, ParseBracketVars());
      RQ_ASSIGN_OR_RETURN(RqExprPtr child, ParseParenExpr());
      for (VarId v : bound) {
        const auto& fv = child->FreeVars();
        if (!std::binary_search(fv.begin(), fv.end(), v)) {
          return InvalidArgumentError("rq: exists-variable '" + names_[v] +
                                      "' is not free in its scope");
        }
      }
      return RqExpr::Exists(std::move(bound), std::move(child));
    }
    if (ident == "tc" || ident == "eq") {
      RQ_ASSIGN_OR_RETURN(std::vector<VarId> pair, ParseBracketVars());
      if (pair.size() != 2 || pair[0] == pair[1]) {
        return InvalidArgumentError("rq: " + ident +
                                    " needs two distinct variables");
      }
      RQ_ASSIGN_OR_RETURN(RqExprPtr child, ParseParenExpr());
      const auto& fv = child->FreeVars();
      for (VarId v : pair) {
        if (!std::binary_search(fv.begin(), fv.end(), v)) {
          return InvalidArgumentError("rq: " + ident + " variable '" +
                                      names_[v] + "' is not free");
        }
      }
      if (ident == "eq") {
        return RqExpr::Eq(pair[0], pair[1], std::move(child));
      }
      // Free variables of the subquery beyond the closure pair are
      // parameters, held fixed along the chain (docs/SYNTAX.md).
      return RqExpr::Closure(pair[0], pair[1], std::move(child));
    }
    // Atom.
    RQ_ASSIGN_OR_RETURN(std::vector<std::string> args, ParseVarList());
    std::vector<VarId> vars;
    vars.reserve(args.size());
    for (const std::string& a : args) vars.push_back(InternVar(a));
    return RqExpr::Atom(ident, std::move(vars));
  }

  Result<RqExprPtr> ParseParenExpr() {
    if (!TryConsume('(')) {
      return InvalidArgumentError("rq: expected '('");
    }
    RQ_ASSIGN_OR_RETURN(RqExprPtr inner, ParseExpr());
    if (!TryConsume(')')) {
      return InvalidArgumentError("rq: expected ')'");
    }
    return inner;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::unordered_map<std::string, VarId> vars_;
  std::vector<std::string> names_;
  bool has_explicit_head_ = false;
  std::vector<VarId> explicit_head_;
  int depth_ = 0;
};

}  // namespace

Result<RqQuery> ParseRq(std::string_view text) {
  return RqParser(text).Parse();
}

}  // namespace rq
