#include "reference.h"

#include <algorithm>
#include <cctype>
#include <deque>

namespace rqbench {

namespace {

// Recursive descent over the regex surface syntax:
//   union   ::= concat ('|' concat)*
//   concat  ::= postfix postfix*
//   postfix ::= primary ('*' | '+' | '?')*
//   primary ::= IDENT ['-'] | '(' union ')' | '()'
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<RefRegex> ParseAll() {
    std::optional<RefRegex> r = ParseUnion();
    SkipSpace();
    if (!r || pos_ != text_.size()) return std::nullopt;
    return r;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_]))) {
      ++pos_;
    }
  }
  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }
  bool AtPrimaryStart() {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    return c == '(' || c == '_' || std::isalpha(static_cast<unsigned char>(c));
  }

  std::optional<RefRegex> ParseUnion() {
    std::optional<RefRegex> first = ParseConcat();
    if (!first) return std::nullopt;
    if (!Peek('|')) return first;
    RefRegex node;
    node.kind = RefRegex::Kind::kUnion;
    node.children.push_back(std::move(*first));
    while (Peek('|')) {
      ++pos_;
      std::optional<RefRegex> next = ParseConcat();
      if (!next) return std::nullopt;
      node.children.push_back(std::move(*next));
    }
    return node;
  }

  std::optional<RefRegex> ParseConcat() {
    RefRegex node;
    node.kind = RefRegex::Kind::kConcat;
    while (AtPrimaryStart()) {
      std::optional<RefRegex> next = ParsePostfix();
      if (!next) return std::nullopt;
      node.children.push_back(std::move(*next));
    }
    if (node.children.empty()) return std::nullopt;
    if (node.children.size() == 1) return std::move(node.children[0]);
    return node;
  }

  std::optional<RefRegex> ParsePostfix() {
    std::optional<RefRegex> node = ParsePrimary();
    if (!node) return std::nullopt;
    for (;;) {
      RefRegex::Kind kind;
      if (Peek('*')) {
        kind = RefRegex::Kind::kStar;
      } else if (Peek('+')) {
        kind = RefRegex::Kind::kPlus;
      } else if (Peek('?')) {
        kind = RefRegex::Kind::kOptional;
      } else {
        return node;
      }
      ++pos_;
      RefRegex wrapped;
      wrapped.kind = kind;
      wrapped.children.push_back(std::move(*node));
      node = std::move(wrapped);
    }
  }

  std::optional<RefRegex> ParsePrimary() {
    SkipSpace();
    if (Peek('(')) {
      ++pos_;
      if (Peek(')')) {
        ++pos_;
        return RefRegex{};  // '()' is the empty word
      }
      std::optional<RefRegex> inner = ParseUnion();
      if (!inner || !Peek(')')) return std::nullopt;
      ++pos_;
      return inner;
    }
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (text_[pos_] == '_' ||
            std::isalnum(static_cast<unsigned char>(text_[pos_])))) {
      ++pos_;
    }
    if (pos_ == start) return std::nullopt;
    RefRegex atom;
    atom.kind = RefRegex::Kind::kAtom;
    atom.symbol = std::string(text_.substr(start, pos_ - start));
    if (Peek('-')) {
      ++pos_;
      atom.symbol.push_back('-');
    }
    return atom;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// Positions reachable after matching `r` from any position in `from`
// (a bitmap over 0..n).
std::vector<char> Ends(const RefRegex& r, const std::vector<std::string>& word,
                       const std::vector<char>& from) {
  const size_t n = word.size();
  std::vector<char> out(n + 1, 0);
  switch (r.kind) {
    case RefRegex::Kind::kEpsilon:
      return from;
    case RefRegex::Kind::kAtom:
      for (size_t p = 0; p < n; ++p) {
        if (from[p] && word[p] == r.symbol) out[p + 1] = 1;
      }
      return out;
    case RefRegex::Kind::kConcat: {
      std::vector<char> cur = from;
      for (const RefRegex& child : r.children) cur = Ends(child, word, cur);
      return cur;
    }
    case RefRegex::Kind::kUnion:
      for (const RefRegex& child : r.children) {
        std::vector<char> part = Ends(child, word, from);
        for (size_t p = 0; p <= n; ++p) out[p] |= part[p];
      }
      return out;
    case RefRegex::Kind::kOptional: {
      out = Ends(r.children[0], word, from);
      for (size_t p = 0; p <= n; ++p) out[p] |= from[p];
      return out;
    }
    case RefRegex::Kind::kStar:
    case RefRegex::Kind::kPlus: {
      // Least fixpoint of one-or-more repetitions.
      std::vector<char> reached = Ends(r.children[0], word, from);
      for (bool grew = true; grew;) {
        grew = false;
        std::vector<char> next = Ends(r.children[0], word, reached);
        for (size_t p = 0; p <= n; ++p) {
          if (next[p] && !reached[p]) {
            reached[p] = 1;
            grew = true;
          }
        }
      }
      if (r.kind == RefRegex::Kind::kStar) {
        for (size_t p = 0; p <= n; ++p) reached[p] |= from[p];
      }
      return reached;
    }
  }
  return out;
}

void CollectLabels(const RefRegex& r, std::set<std::string>* out) {
  if (r.kind == RefRegex::Kind::kAtom) {
    std::string label = r.symbol;
    if (!label.empty() && label.back() == '-') label.pop_back();
    out->insert(label);
  }
  for (const RefRegex& child : r.children) CollectLabels(child, out);
}

void SortUnique(std::vector<uint32_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

std::optional<RefRegex> ParseRefRegex(std::string_view text) {
  return Parser(text).ParseAll();
}

std::vector<std::string> SplitWord(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && text[i] == ' ') ++i;
    size_t start = i;
    while (i < text.size() && text[i] != ' ') ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

bool WordMatches(const RefRegex& r, const std::vector<std::string>& word) {
  std::vector<char> start(word.size() + 1, 0);
  start[0] = 1;
  return Ends(r, word, start)[word.size()] != 0;
}

std::set<std::string> LabelsOf(const RefRegex& r) {
  std::set<std::string> out;
  CollectLabels(r, &out);
  return out;
}

RefGraph::RefGraph(uint32_t num_nodes, const std::vector<std::string>& labels)
    : num_nodes_(num_nodes),
      labels_(labels),
      forward_(labels.size(), std::vector<std::vector<uint32_t>>(num_nodes)),
      backward_(labels.size(), std::vector<std::vector<uint32_t>>(num_nodes)) {}

int RefGraph::LabelIndex(const std::string& label) const {
  for (size_t i = 0; i < labels_.size(); ++i) {
    if (labels_[i] == label) return static_cast<int>(i);
  }
  return -1;
}

void RefGraph::AddEdge(uint32_t src, const std::string& label, uint32_t dst) {
  int l = LabelIndex(label);
  if (l < 0 || src >= num_nodes_ || dst >= num_nodes_) return;
  forward_[l][src].push_back(dst);
  backward_[l][dst].push_back(src);
}

std::vector<uint32_t> RefGraph::Step(const std::string& symbol,
                                     const std::vector<uint32_t>& from) const {
  bool inverse = !symbol.empty() && symbol.back() == '-';
  int l = LabelIndex(inverse ? symbol.substr(0, symbol.size() - 1) : symbol);
  std::vector<uint32_t> out;
  if (l < 0) return out;
  const auto& adjacency = inverse ? backward_[l] : forward_[l];
  for (uint32_t v : from) {
    out.insert(out.end(), adjacency[v].begin(), adjacency[v].end());
  }
  SortUnique(&out);
  return out;
}

std::vector<uint32_t> RefGraph::Apply(const RefRegex& r,
                                      const std::vector<uint32_t>& from) const {
  switch (r.kind) {
    case RefRegex::Kind::kEpsilon:
      return from;
    case RefRegex::Kind::kAtom:
      return Step(r.symbol, from);
    case RefRegex::Kind::kConcat: {
      std::vector<uint32_t> cur = from;
      for (const RefRegex& child : r.children) cur = Apply(child, cur);
      return cur;
    }
    case RefRegex::Kind::kUnion: {
      std::vector<uint32_t> out;
      for (const RefRegex& child : r.children) {
        std::vector<uint32_t> part = Apply(child, from);
        out.insert(out.end(), part.begin(), part.end());
      }
      SortUnique(&out);
      return out;
    }
    case RefRegex::Kind::kOptional: {
      std::vector<uint32_t> out = Apply(r.children[0], from);
      out.insert(out.end(), from.begin(), from.end());
      SortUnique(&out);
      return out;
    }
    case RefRegex::Kind::kStar:
    case RefRegex::Kind::kPlus: {
      std::vector<uint32_t> reached = Apply(r.children[0], from);
      std::vector<uint32_t> frontier = reached;
      while (!frontier.empty()) {
        std::vector<uint32_t> next = Apply(r.children[0], frontier);
        std::vector<uint32_t> fresh;
        std::set_difference(next.begin(), next.end(), reached.begin(),
                            reached.end(), std::back_inserter(fresh));
        reached.insert(reached.end(), fresh.begin(), fresh.end());
        SortUnique(&reached);
        frontier = std::move(fresh);
      }
      if (r.kind == RefRegex::Kind::kStar) {
        reached.insert(reached.end(), from.begin(), from.end());
        SortUnique(&reached);
      }
      return reached;
    }
  }
  return {};
}

std::vector<uint32_t> RefGraph::Reach(const RefRegex& r,
                                      uint32_t source) const {
  return Apply(r, {source});
}

std::vector<std::vector<uint32_t>> RefGraph::ClosureRows(
    const std::string& label) const {
  std::vector<std::vector<uint32_t>> rows(num_nodes_);
  int l = LabelIndex(label);
  if (l < 0) return rows;
  // One visited-stamp array shared by every source's BFS.
  std::vector<uint32_t> stamp(num_nodes_, 0);
  std::deque<uint32_t> work;
  for (uint32_t source = 0; source < num_nodes_; ++source) {
    if (forward_[l][source].empty()) continue;
    const uint32_t mark = source + 1;
    std::vector<uint32_t>& row = rows[source];
    work.assign(1, source);
    while (!work.empty()) {
      uint32_t v = work.front();
      work.pop_front();
      for (uint32_t w : forward_[l][v]) {
        if (stamp[w] == mark) continue;
        stamp[w] = mark;
        row.push_back(w);
        work.push_back(w);
      }
    }
    std::sort(row.begin(), row.end());
  }
  return rows;
}

std::vector<std::string> RunReferenceSelfTests() {
  std::vector<std::string> failures;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  auto matches = [](const char* regex, const char* word) {
    std::optional<RefRegex> r = ParseRefRegex(regex);
    return r.has_value() && WordMatches(*r, SplitWord(word));
  };

  // Word matcher.
  expect(matches("a b", "a b"), "'a b' accepts 'a b'");
  expect(!matches("a b", "a"), "'a b' rejects 'a'");
  expect(!matches("a b", "b a"), "'a b' rejects 'b a'");
  expect(matches("(a|b)* c", "c"), "'(a|b)* c' accepts 'c'");
  expect(matches("(a|b)* c", "a b b a c"), "'(a|b)* c' accepts 'a b b a c'");
  expect(!matches("(a|b)* c", "a c c"), "'(a|b)* c' rejects 'a c c'");
  expect(matches("a-", "a-"), "'a-' accepts 'a-'");
  expect(!matches("a-", "a"), "'a-' rejects 'a'");
  expect(matches("p p- p", "p p- p"), "'p p- p' accepts itself");
  expect(matches("a+ b?", "a a"), "'a+ b?' accepts 'a a'");
  expect(!matches("a+ b?", "b"), "'a+ b?' rejects 'b'");
  expect(matches("()", ""), "'()' accepts the empty word");
  expect(matches("a (b a)*", "a b a b a"), "'a (b a)*' accepts 'a b a b a'");
  expect(!matches("a (b a)*", "a b"), "'a (b a)*' rejects 'a b'");
  expect(!ParseRefRegex("a (b").has_value(), "'a (b' does not parse");
  expect(!ParseRefRegex("| a").has_value(), "'| a' does not parse");
  {
    std::optional<RefRegex> r = ParseRefRegex("a (b- | c)* d-");
    expect(r.has_value() && LabelsOf(*r) == std::set<std::string>{"a", "b",
                                                                   "c", "d"},
           "labels of 'a (b- | c)* d-' are {a,b,c,d}");
  }

  // Path evaluation on a 4-cycle 0 -a-> 1 -b-> 2 -a-> 3 -b-> 0.
  RefGraph g(4, {"a", "b"});
  g.AddEdge(0, "a", 1);
  g.AddEdge(1, "b", 2);
  g.AddEdge(2, "a", 3);
  g.AddEdge(3, "b", 0);
  auto reach = [&](const char* regex, uint32_t source) {
    std::optional<RefRegex> r = ParseRefRegex(regex);
    return r.has_value() ? g.Reach(*r, source) : std::vector<uint32_t>{99};
  };
  expect(reach("a b", 0) == std::vector<uint32_t>{2}, "0 -(a b)-> {2}");
  expect(reach("a b", 1).empty(), "1 -(a b)-> {}");
  expect(reach("a-", 1) == std::vector<uint32_t>{0}, "1 -(a-)-> {0}");
  expect(reach("a | b-", 0) == std::vector<uint32_t>{1, 3},
         "0 -(a | b-)-> {1,3}");
  expect(reach("(a | b-) (a- | b)", 0) == std::vector<uint32_t>{0, 2},
         "0 -((a|b-)(a-|b))-> {0,2}");
  expect(reach("a b?", 0) == std::vector<uint32_t>{1, 2}, "0 -(a b?)-> {1,2}");

  // Closure on the chain 0 -c-> 1 -c-> 2 plus 3 -c-> 1: five pairs.
  RefGraph chain(4, {"c"});
  chain.AddEdge(0, "c", 1);
  chain.AddEdge(1, "c", 2);
  chain.AddEdge(3, "c", 1);
  std::vector<std::vector<uint32_t>> rows = chain.ClosureRows("c");
  size_t pairs = 0;
  for (const auto& row : rows) pairs += row.size();
  expect(pairs == 5, "closure of {0c1, 1c2, 3c1} has 5 pairs");
  expect(rows[3] == std::vector<uint32_t>{1, 2}, "closure row of 3 is {1,2}");
  // A cycle reaches itself.
  RefGraph loop(2, {"c"});
  loop.AddEdge(0, "c", 1);
  loop.AddEdge(1, "c", 0);
  expect(loop.ClosureRows("c")[0] == std::vector<uint32_t>{0, 1},
         "closure row of 0 on a 2-cycle is {0,1}");
  return failures;
}

}  // namespace rqbench
