#include "regex/regex.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"
#include "obs/subsystems.h"

namespace rq {

namespace {

bool IsPostfix(RegexKind kind) {
  return kind == RegexKind::kStar || kind == RegexKind::kPlus ||
         kind == RegexKind::kOptional;
}

}  // namespace

RegexPtr Regex::Empty() {
  return RegexPtr(new Regex(RegexKind::kEmpty, kInvalidSymbol, {}));
}
RegexPtr Regex::Epsilon() {
  return RegexPtr(new Regex(RegexKind::kEpsilon, kInvalidSymbol, {}));
}
RegexPtr Regex::Atom(Symbol symbol) {
  return RegexPtr(new Regex(RegexKind::kAtom, symbol, {}));
}
RegexPtr Regex::Concat(std::vector<RegexPtr> children) {
  if (children.empty()) return Epsilon();
  if (children.size() == 1) return children[0];
  return RegexPtr(
      new Regex(RegexKind::kConcat, kInvalidSymbol, std::move(children)));
}
RegexPtr Regex::Union(std::vector<RegexPtr> children) {
  RQ_CHECK(!children.empty());
  if (children.size() == 1) return children[0];
  return RegexPtr(
      new Regex(RegexKind::kUnion, kInvalidSymbol, std::move(children)));
}
// A stack of postfix operators is always one node, by the identities
// r** = r+* = r?* = r*+ = r*? = r+? = r?+ = r*, r++ = r+ and r?? = r?:
// any stack with a `*` in it, or with both `+` and `?`, is r*. Chains like
// `a+?+?...` then build (and compile to) a constant-size expression.
RegexPtr Regex::Star(RegexPtr child) {
  if (IsPostfix(child->kind())) return Star(child->children_[0]);
  return RegexPtr(
      new Regex(RegexKind::kStar, kInvalidSymbol, {std::move(child)}));
}
RegexPtr Regex::Plus(RegexPtr child) {
  if (child->kind() == RegexKind::kStar || child->kind() == RegexKind::kPlus) {
    return child;
  }
  if (child->kind() == RegexKind::kOptional) return Star(child->children_[0]);
  return RegexPtr(
      new Regex(RegexKind::kPlus, kInvalidSymbol, {std::move(child)}));
}
RegexPtr Regex::Optional(RegexPtr child) {
  if (child->kind() == RegexKind::kStar ||
      child->kind() == RegexKind::kOptional) {
    return child;
  }
  if (child->kind() == RegexKind::kPlus) return Star(child->children_[0]);
  return RegexPtr(
      new Regex(RegexKind::kOptional, kInvalidSymbol, {std::move(child)}));
}

size_t Regex::Size() const {
  size_t n = 1;
  for (const RegexPtr& c : children_) n += c->Size();
  return n;
}

bool Regex::UsesInverse() const {
  if (kind_ == RegexKind::kAtom) return IsInverseSymbol(symbol_);
  for (const RegexPtr& c : children_) {
    if (c->UsesInverse()) return true;
  }
  return false;
}

uint32_t Regex::MinNumSymbols() const {
  uint32_t n = 0;
  if (kind_ == RegexKind::kAtom) n = symbol_ + 1;
  for (const RegexPtr& c : children_) n = std::max(n, c->MinNumSymbols());
  return n;
}

RegexPtr Regex::InverseExpression() const {
  switch (kind_) {
    case RegexKind::kEmpty:
      return Empty();
    case RegexKind::kEpsilon:
      return Epsilon();
    case RegexKind::kAtom:
      return Atom(InverseSymbol(symbol_));
    case RegexKind::kConcat: {
      std::vector<RegexPtr> rev;
      rev.reserve(children_.size());
      for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
        rev.push_back((*it)->InverseExpression());
      }
      return Concat(std::move(rev));
    }
    case RegexKind::kUnion: {
      std::vector<RegexPtr> out;
      out.reserve(children_.size());
      for (const RegexPtr& c : children_) out.push_back(c->InverseExpression());
      return Union(std::move(out));
    }
    case RegexKind::kStar:
      return Star(children_[0]->InverseExpression());
    case RegexKind::kPlus:
      return Plus(children_[0]->InverseExpression());
    case RegexKind::kOptional:
      return Optional(children_[0]->InverseExpression());
  }
  RQ_CHECK(false);
  return Empty();
}

namespace {

int Precedence(RegexKind kind) {
  switch (kind) {
    case RegexKind::kUnion:
      return 0;
    case RegexKind::kConcat:
      return 1;
    default:
      // Atoms and postfix operators never need parentheses (postfix chains
      // like a*? parse left-to-right anyway).
      return 3;
  }
}

void Render(const Regex& re, const Alphabet& alphabet, int parent_prec,
            std::string* out) {
  int prec = Precedence(re.kind());
  bool parens = prec < parent_prec;
  if (parens) out->push_back('(');
  switch (re.kind()) {
    case RegexKind::kEmpty:
      out->append("<empty>");
      break;
    case RegexKind::kEpsilon:
      out->append("()");
      break;
    case RegexKind::kAtom:
      out->append(alphabet.SymbolName(re.symbol()));
      break;
    case RegexKind::kConcat:
      for (size_t i = 0; i < re.children().size(); ++i) {
        if (i > 0) out->push_back(' ');
        Render(*re.children()[i], alphabet, 1, out);
      }
      break;
    case RegexKind::kUnion:
      for (size_t i = 0; i < re.children().size(); ++i) {
        if (i > 0) out->append(" | ");
        Render(*re.children()[i], alphabet, 0, out);
      }
      break;
    case RegexKind::kStar:
      Render(*re.children()[0], alphabet, 3, out);
      out->push_back('*');
      break;
    case RegexKind::kPlus:
      Render(*re.children()[0], alphabet, 3, out);
      out->push_back('+');
      break;
    case RegexKind::kOptional:
      Render(*re.children()[0], alphabet, 3, out);
      out->push_back('?');
      break;
  }
  if (parens) out->push_back(')');
}

}  // namespace

std::string Regex::ToString(const Alphabet& alphabet) const {
  std::string out;
  Render(*this, alphabet, 0, &out);
  return out;
}

namespace {

// Thompson fragments: one entry, one exit per subexpression.
struct Fragment {
  uint32_t entry;
  uint32_t exit;
};

Fragment Build(const Regex& re, Nfa* nfa) {
  switch (re.kind()) {
    case RegexKind::kEmpty: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      return {in, out};  // no path
    }
    case RegexKind::kEpsilon: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      nfa->AddEpsilon(in, out);
      return {in, out};
    }
    case RegexKind::kAtom: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      nfa->AddTransition(in, re.symbol(), out);
      return {in, out};
    }
    case RegexKind::kConcat: {
      Fragment first = Build(*re.children()[0], nfa);
      Fragment prev = first;
      for (size_t i = 1; i < re.children().size(); ++i) {
        Fragment next = Build(*re.children()[i], nfa);
        nfa->AddEpsilon(prev.exit, next.entry);
        prev = next;
      }
      return {first.entry, prev.exit};
    }
    case RegexKind::kUnion: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      for (const RegexPtr& c : re.children()) {
        Fragment f = Build(*c, nfa);
        nfa->AddEpsilon(in, f.entry);
        nfa->AddEpsilon(f.exit, out);
      }
      return {in, out};
    }
    case RegexKind::kStar: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      Fragment f = Build(*re.children()[0], nfa);
      nfa->AddEpsilon(in, out);
      nfa->AddEpsilon(in, f.entry);
      nfa->AddEpsilon(f.exit, out);
      nfa->AddEpsilon(f.exit, f.entry);
      return {in, out};
    }
    case RegexKind::kPlus: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      Fragment f = Build(*re.children()[0], nfa);
      nfa->AddEpsilon(in, f.entry);
      nfa->AddEpsilon(f.exit, out);
      nfa->AddEpsilon(f.exit, f.entry);
      return {in, out};
    }
    case RegexKind::kOptional: {
      uint32_t in = nfa->AddState();
      uint32_t out = nfa->AddState();
      Fragment f = Build(*re.children()[0], nfa);
      nfa->AddEpsilon(in, out);
      nfa->AddEpsilon(in, f.entry);
      nfa->AddEpsilon(f.exit, out);
      return {in, out};
    }
  }
  RQ_CHECK(false);
  return {0, 0};
}

}  // namespace

Nfa Regex::ToNfa(uint32_t num_symbols) const {
  Nfa nfa(num_symbols);
  Fragment f = Build(*this, &nfa);
  nfa.AddInitial(f.entry);
  nfa.SetAccepting(f.exit);
  obs::RegexCounters& counters = obs::RegexCounters::Get();
  counters.nfa_builds.Increment();
  counters.nfa_states.Add(nfa.num_states());
  return nfa;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class RegexParser {
 public:
  RegexParser(std::string_view text, Alphabet* alphabet)
      : text_(text), alphabet_(alphabet) {}

  Result<RegexPtr> Parse() {
    RQ_ASSIGN_OR_RETURN(RegexPtr re, ParseUnion());
    SkipSpace();
    if (pos_ != text_.size()) {
      return InvalidArgumentError("regex: trailing input at offset " +
                                  std::to_string(pos_) + " in '" +
                                  std::string(text_) + "'");
    }
    return re;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtPrimaryStart() {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    return c == '(' || std::isalpha(static_cast<unsigned char>(c)) ||
           c == '_';
  }

  Result<RegexPtr> ParseUnion() {
    std::vector<RegexPtr> parts;
    RQ_ASSIGN_OR_RETURN(RegexPtr first, ParseConcat());
    parts.push_back(std::move(first));
    for (;;) {
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == '|') {
        ++pos_;
        RQ_ASSIGN_OR_RETURN(RegexPtr next, ParseConcat());
        parts.push_back(std::move(next));
      } else {
        break;
      }
    }
    return Regex::Union(std::move(parts));
  }

  Result<RegexPtr> ParseConcat() {
    std::vector<RegexPtr> parts;
    if (!AtPrimaryStart()) {
      return InvalidArgumentError("regex: expected expression at offset " +
                                  std::to_string(pos_) + " in '" +
                                  std::string(text_) + "'");
    }
    while (AtPrimaryStart()) {
      RQ_ASSIGN_OR_RETURN(RegexPtr part, ParsePostfix());
      parts.push_back(std::move(part));
    }
    return Regex::Concat(std::move(parts));
  }

  Result<RegexPtr> ParsePostfix() {
    RQ_ASSIGN_OR_RETURN(RegexPtr re, ParsePrimary());
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size()) break;
      char c = text_[pos_];
      if (c == '*') {
        re = Regex::Star(std::move(re));
        ++pos_;
      } else if (c == '+') {
        re = Regex::Plus(std::move(re));
        ++pos_;
      } else if (c == '?') {
        re = Regex::Optional(std::move(re));
        ++pos_;
      } else {
        break;
      }
    }
    return re;
  }

  Result<RegexPtr> ParsePrimary() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return InvalidArgumentError("regex: unexpected end of input");
    }
    char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ')') {
        ++pos_;
        return Regex::Epsilon();
      }
      if (depth_ >= kMaxParseNesting) {
        return InvalidArgumentError("regex: parentheses nested deeper than " +
                                    std::to_string(kMaxParseNesting));
      }
      ++depth_;
      Result<RegexPtr> inner = ParseUnion();
      --depth_;
      if (!inner.ok()) return inner.status();
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ')') {
        return InvalidArgumentError("regex: missing ')'");
      }
      ++pos_;
      return inner;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
      std::string_view name = text_.substr(start, pos_ - start);
      bool inverse = false;
      if (pos_ < text_.size() && text_[pos_] == '-') {
        inverse = true;
        ++pos_;
      }
      uint32_t label = alphabet_->InternLabel(name);
      return Regex::Atom(inverse ? InverseSymbolOf(label)
                                 : ForwardSymbolOf(label));
    }
    return InvalidArgumentError(std::string("regex: unexpected character '") +
                                c + "' at offset " + std::to_string(pos_));
  }

  std::string_view text_;
  Alphabet* alphabet_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<RegexPtr> ParseRegex(std::string_view text, Alphabet* alphabet) {
  return RegexParser(text, alphabet).Parse();
}

RegexPtr RandomRegex(const Alphabet& alphabet, int max_depth,
                     bool allow_inverse, Rng& rng) {
  RQ_CHECK(alphabet.num_labels() > 0);
  auto random_atom = [&]() {
    uint32_t label = static_cast<uint32_t>(rng.Below(alphabet.num_labels()));
    bool inverse = allow_inverse && rng.Chance(0.35);
    return Regex::Atom(inverse ? InverseSymbolOf(label)
                               : ForwardSymbolOf(label));
  };
  if (max_depth <= 0) return random_atom();
  switch (rng.Below(8)) {
    case 0:
    case 1:
      return random_atom();
    case 2: {
      std::vector<RegexPtr> kids;
      size_t n = 2 + rng.Below(2);
      for (size_t i = 0; i < n; ++i) {
        kids.push_back(RandomRegex(alphabet, max_depth - 1, allow_inverse,
                                   rng));
      }
      return Regex::Concat(std::move(kids));
    }
    case 3: {
      std::vector<RegexPtr> kids;
      size_t n = 2 + rng.Below(2);
      for (size_t i = 0; i < n; ++i) {
        kids.push_back(RandomRegex(alphabet, max_depth - 1, allow_inverse,
                                   rng));
      }
      return Regex::Union(std::move(kids));
    }
    case 4:
      return Regex::Star(
          RandomRegex(alphabet, max_depth - 1, allow_inverse, rng));
    case 5:
      return Regex::Plus(
          RandomRegex(alphabet, max_depth - 1, allow_inverse, rng));
    case 6:
      return Regex::Optional(
          RandomRegex(alphabet, max_depth - 1, allow_inverse, rng));
    default: {
      std::vector<RegexPtr> kids;
      kids.push_back(RandomRegex(alphabet, max_depth - 1, allow_inverse, rng));
      kids.push_back(random_atom());
      return Regex::Concat(std::move(kids));
    }
  }
}

}  // namespace rq
