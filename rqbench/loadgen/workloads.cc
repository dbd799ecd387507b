#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "reference.h"

namespace rqbench {

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::vector<std::string> Without(const std::vector<std::string>& labels,
                                 const std::string& drop) {
  std::vector<std::string> out;
  for (const std::string& l : labels) {
    if (l != drop) out.push_back(l);
  }
  return out;
}

// Random regex text. Unions and repetitions are always parenthesized, so
// the text parses back into the tree it was built from.
struct RegexGen {
  Rng& rng;
  std::vector<std::string> labels;
  bool inverse = false;    // may emit `a-`
  bool star = true;        // may emit `*` (else only `+`)
  bool repeat = true;      // may emit repetitions at all

  std::string Atom(bool force_inverse = false) {
    std::string atom = labels[rng.Below(static_cast<uint32_t>(labels.size()))];
    if (force_inverse || (inverse && rng.Chance(0.35))) atom += "-";
    return atom;
  }

  std::string Gen(int depth) {
    if (depth <= 0) return Atom();
    switch (rng.Below(repeat ? 4 : 3)) {
      case 0:
        return Atom();
      case 1: {
        std::vector<std::string> parts;
        int n = 2 + static_cast<int>(rng.Below(2));
        for (int i = 0; i < n; ++i) parts.push_back(Gen(depth - 1));
        return Join(parts, " ");
      }
      case 2:
        return "(" + Gen(depth - 1) + " | " + Gen(depth - 1) + ")";
      default:
        return "(" + Gen(depth - 1) + ")" +
               (star && rng.Chance(0.5) ? "*" : "+");
    }
  }

  // A 2RPQ must use an inverse atom somewhere, or the server would take
  // the one-way path; lead with one.
  std::string Path(int depth) {
    if (!inverse) return Gen(depth);
    return Atom(/*force_inverse=*/true) + " " + Gen(depth);
  }
};

const std::vector<std::string> kColdLabels = {"a", "b", "c", "d", "e", "f"};

std::string Paren(const std::string& s) { return "(" + s + ")"; }

// Path-query pairs (rpq / 2rpq) with verdicts known by construction.
ContainOp PathOp(Rng& rng, const std::string& cls, int template_id,
                 const std::vector<std::string>& labels, int depth) {
  RegexGen gen{rng, labels, cls == "2rpq", /*star=*/true, /*repeat=*/true};
  ContainOp op;
  op.cls = cls;
  op.type = "containment";
  op.expect = Expect::kProved;
  switch (template_id) {
    case 0: {  // q ⊆ q | r
      std::string q = gen.Path(depth);
      op.q1 = q;
      op.q2 = Paren(q) + " | " + Paren(gen.Gen(depth));
      break;
    }
    case 1: {  // r s ⊆ (r | t) s
      std::string r = gen.Path(depth - 1), s = gen.Gen(depth - 1),
                  t = gen.Gen(depth - 1);
      op.q1 = Paren(r) + " " + Paren(s);
      op.q2 = "(" + r + " | " + t + ") " + Paren(s);
      break;
    }
    case 2: {  // every word of q1 uses label x, which q2 never mentions
      std::string x = labels[rng.Below(static_cast<uint32_t>(labels.size()))];
      RegexGen narrow{rng, Without(labels, x), gen.inverse, true, true};
      op.q2 = narrow.Path(depth);
      std::string mid = x + (gen.inverse && rng.Chance(0.5) ? "-" : "");
      op.q1 = Paren(narrow.Gen(depth - 1)) + " " + mid + " " +
              Paren(gen.Gen(depth - 1));
      op.expect = Expect::kRefuted;
      break;
    }
    default: {  // equivalences from regex identities
      op.type = "equivalence";
      op.expect = Expect::kEquivalent;
      int small = std::max(1, depth - 2);
      std::string r = gen.Path(small), s = gen.Gen(small), t = gen.Gen(small);
      switch (rng.Below(4)) {
        case 0:  // (r|s)* = (r* s*)*
          op.q1 = "(" + r + " | " + s + ")*";
          op.q2 = "(" + Paren(r) + "* " + Paren(s) + "*)*";
          break;
        case 1:  // r (s r)* = (r s)* r
          op.q1 = Paren(r) + " (" + Paren(s) + " " + Paren(r) + ")*";
          op.q2 = "(" + Paren(r) + " " + Paren(s) + ")* " + Paren(r);
          break;
        case 2:  // r (s|t) = r s | r t
          op.q1 = Paren(r) + " (" + s + " | " + t + ")";
          op.q2 = Paren(r) + " " + Paren(s) + " | " + Paren(r) + " " +
                  Paren(t);
          break;
        default:  // r+ = r r*
          op.q1 = Paren(r) + "+";
          op.q2 = Paren(r) + " " + Paren(r) + "*";
          break;
      }
      break;
    }
  }
  return op;
}

// One binary CQ atom pred(u, v).
std::string CqAtom(const std::string& pred, const std::string& u,
                   const std::string& v) {
  return pred + "(" + u + ", " + v + ")";
}

// A chain x = v0 .. vk = y of binary atoms, plus `extra` atoms between
// random chain variables. Returns {all atoms, chain atoms}.
std::pair<std::vector<std::string>, std::vector<std::string>> RandomCq(
    Rng& rng, const std::vector<std::string>& preds, int length, int extra) {
  std::vector<std::string> vars = {"x"};
  for (int i = 1; i < length; ++i) vars.push_back("z" + std::to_string(i));
  vars.push_back("y");
  std::vector<std::string> chain;
  for (int i = 0; i < length; ++i) {
    const std::string& p = preds[rng.Below(static_cast<uint32_t>(preds.size()))];
    chain.push_back(rng.Chance(0.3) ? CqAtom(p, vars[i + 1], vars[i])
                                    : CqAtom(p, vars[i], vars[i + 1]));
  }
  std::vector<std::string> all = chain;
  for (int i = 0; i < extra; ++i) {
    const std::string& p = preds[rng.Below(static_cast<uint32_t>(preds.size()))];
    all.push_back(
        CqAtom(p, vars[rng.Below(static_cast<uint32_t>(vars.size()))],
               vars[rng.Below(static_cast<uint32_t>(vars.size()))]));
  }
  return {all, chain};
}

std::string CqText(const std::vector<std::string>& atoms) {
  return "q(x, y) :- " + Join(atoms, ", ");
}

ContainOp UcqOp(Rng& rng, int template_id, int length, int extra) {
  const std::vector<std::string> preds = {"r", "s", "t", "u"};
  ContainOp op;
  op.cls = "ucq";
  op.type = "containment";
  op.expect = Expect::kProved;
  switch (template_id) {
    case 0: {  // a CQ is contained in its sub-CQ
      auto [all, chain] = RandomCq(rng, preds, length, extra);
      op.q1 = CqText(all);
      op.q2 = CqText(chain);
      break;
    }
    case 1: {  // each disjunct of q1 is contained in one of q2
      auto [all1, chain1] = RandomCq(rng, preds, length, extra);
      auto [all2, chain2] = RandomCq(rng, preds, length, extra);
      op.q1 = CqText(all1) + "\n" + CqText(all2);
      op.q2 = CqText(chain2) + "\n" + CqText(chain1);
      break;
    }
    default: {  // q2 needs predicate v, which q1 never mentions
      auto [all, chain] = RandomCq(rng, preds, length, extra);
      op.q1 = CqText(all);
      chain.push_back(CqAtom("v", "x", "y"));
      op.q2 = CqText(chain);
      op.expect = Expect::kRefuted;
      break;
    }
  }
  return op;
}

// Star-free regex whose words have at most two symbols: the expansion
// test then decides UC2RPQ containment exactly.
std::string SmallStarFree(Rng& rng, const std::vector<std::string>& labels,
                          int alternatives) {
  RegexGen gen{rng, labels, /*inverse=*/true, false, false};
  std::vector<std::string> alts;
  for (int i = 0; i < alternatives; ++i) {
    alts.push_back(rng.Chance(0.5) ? gen.Atom() : gen.Atom() + " " + gen.Atom());
  }
  return Join(alts, " | ");
}

ContainOp Uc2RpqOp(Rng& rng, int template_id,
                   const std::vector<std::string>& labels, int length,
                   int alternatives) {
  ContainOp op;
  op.cls = "uc2rpq";
  op.type = "containment";
  op.expect = Expect::kProved;
  // Chain x -R1-> z1 -R2-> ... -> y.
  auto chain = [&](const std::vector<std::string>& ls,
                   std::vector<std::string>* regexes) {
    std::vector<std::string> vars = {"x"};
    for (int i = 1; i < length; ++i) vars.push_back("z" + std::to_string(i));
    vars.push_back("y");
    std::vector<std::string> atoms;
    for (int i = 0; i < length; ++i) {
      std::string r = SmallStarFree(rng, ls, 1 + rng.Below(alternatives));
      regexes->push_back(r);
      atoms.push_back("(" + r + ")(" + vars[i] + ", " + vars[i + 1] + ")");
    }
    return std::make_pair(atoms, vars);
  };
  auto widened = [&](const std::vector<std::string>& regexes,
                     const std::vector<std::string>& vars) {
    std::vector<std::string> atoms;
    for (size_t i = 0; i < regexes.size(); ++i) {
      atoms.push_back("(" + regexes[i] + " | " + SmallStarFree(rng, labels, 1) +
                      ")(" + vars[i] + ", " + vars[i + 1] + ")");
    }
    return atoms;
  };
  switch (template_id) {
    case 0: {  // widen every atom: R ⊆ R | S
      std::vector<std::string> regexes;
      auto [atoms, vars] = chain(labels, &regexes);
      op.q1 = CqText(atoms);
      op.q2 = CqText(widened(regexes, vars));
      break;
    }
    case 1: {  // drop an extra atom from q1 (q1 is the more constrained)
      std::vector<std::string> regexes;
      auto [atoms, vars] = chain(labels, &regexes);
      op.q2 = CqText(atoms);
      atoms.push_back("(" + SmallStarFree(rng, labels, 1) + ")(x, y)");
      op.q1 = CqText(atoms);
      break;
    }
    case 2: {  // a union: each disjunct widened
      std::vector<std::string> r1, r2;
      auto [a1, v1] = chain(labels, &r1);
      auto [a2, v2] = chain(labels, &r2);
      op.q1 = CqText(a1) + "\n" + CqText(a2);
      op.q2 = CqText(widened(r2, v2)) + "\n" + CqText(widened(r1, v1));
      break;
    }
    default: {  // q2 requires a label q1 never mentions
      std::string x = labels.back();
      std::vector<std::string> regexes;
      auto [atoms, vars] = chain(Without(labels, x), &regexes);
      op.q1 = CqText(atoms);
      atoms.push_back("(" + x + ")(x, y)");
      op.q2 = CqText(atoms);
      op.expect = Expect::kRefuted;
      break;
    }
  }
  return op;
}

// Translates a path regex (atoms, concatenation, union, `+`) into an RQ
// over binary relations: concatenation is an existential join, union a
// disjunction, `+` a transitive closure. Variables are globally fresh.
std::string ToRq(const RefRegex& r, const std::string& from,
                 const std::string& to, int* fresh) {
  switch (r.kind) {
    case RefRegex::Kind::kAtom: {
      if (r.symbol.back() == '-') {
        return r.symbol.substr(0, r.symbol.size() - 1) + "(" + to + ", " +
               from + ")";
      }
      return r.symbol + "(" + from + ", " + to + ")";
    }
    case RefRegex::Kind::kConcat: {
      std::vector<std::string> vars = {from};
      for (size_t i = 1; i < r.children.size(); ++i) {
        vars.push_back("v" + std::to_string((*fresh)++));
      }
      vars.push_back(to);
      std::vector<std::string> parts;
      for (size_t i = 0; i < r.children.size(); ++i) {
        parts.push_back(ToRq(r.children[i], vars[i], vars[i + 1], fresh));
      }
      std::vector<std::string> bound(vars.begin() + 1, vars.end() - 1);
      return "exists[" + Join(bound, ", ") + "](" + Join(parts, " & ") + ")";
    }
    case RefRegex::Kind::kUnion: {
      std::vector<std::string> parts;
      for (const RefRegex& child : r.children) {
        parts.push_back(ToRq(child, from, to, fresh));
      }
      return "(" + Join(parts, " | ") + ")";
    }
    case RefRegex::Kind::kPlus:
      return "tc[" + from + ", " + to + "](" +
             ToRq(r.children[0], from, to, fresh) + ")";
    default:
      return "";  // the generator never emits ε, `*` or `?` for RQs
  }
}

std::string RqFromRegex(const std::string& regex) {
  std::optional<RefRegex> r = ParseRefRegex(regex);
  if (!r.has_value()) return "";
  int fresh = 0;
  return "q(x, y) := " + ToRq(*r, "x", "y", &fresh);
}

ContainOp RqOp(Rng& rng, int template_id,
               const std::vector<std::string>& labels, int depth) {
  RegexGen gen{rng, labels, /*inverse=*/true, /*star=*/false, true};
  ContainOp op;
  op.cls = "rq";
  op.type = "containment";
  op.expect = Expect::kProved;
  switch (template_id) {
    case 0: {  // Q ⊆ Q | R
      std::string q = gen.Gen(depth);
      op.q1 = RqFromRegex(q);
      op.q2 = RqFromRegex(Paren(q) + " | " + Paren(gen.Gen(depth)));
      break;
    }
    case 1: {  // dropping a conjunct widens the query
      const std::string& a = labels[rng.Below(static_cast<uint32_t>(labels.size()))];
      const std::string& b = labels[rng.Below(static_cast<uint32_t>(labels.size()))];
      const std::string& c = labels[rng.Below(static_cast<uint32_t>(labels.size()))];
      op.q1 = "q(x, y) := exists[z](" + a + "(x, z) & " + b + "(z, y) & " + c +
              "(x, y))";
      op.q2 = "q(x, y) := exists[z](" + a + "(x, z) & " + b + "(z, y))";
      break;
    }
    case 2: {  // q1 needs label x everywhere; q2 never mentions it
      std::string x = labels[rng.Below(static_cast<uint32_t>(labels.size()))];
      RegexGen narrow{rng, Without(labels, x), true, false, true};
      op.q1 = RqFromRegex(Paren(narrow.Gen(depth - 1)) + " " + x + " " +
                          Paren(gen.Gen(depth - 1)));
      op.q2 = RqFromRegex(narrow.Gen(depth));
      op.expect = Expect::kRefuted;
      break;
    }
    default: {  // conjunction and disjunction commute
      op.type = "equivalence";
      op.expect = Expect::kEquivalent;
      std::string r = gen.Gen(1), s = gen.Gen(1);
      op.q1 = RqFromRegex("(" + r + " | " + s + ") " + Paren(s));
      op.q2 = RqFromRegex("(" + s + " | " + r + ") " + Paren(s));
      break;
    }
  }
  return op;
}

// Stream ids keep the index spaces of different generators apart.
enum Stream : uint64_t {
  kColdStream = 2,
  kColdWarmupStream = 3,
  kScanGraphStream = 4,
  kScanQueryStream = 5,
  kMutateGraphStream = 6,
  kMutateBatchStream = 7,
  kMutateReadStream = 8,
};

ContainOp ColdFrom(Rng& rng) {
  // Class mix: 30% rpq, 25% 2rpq, 10% ucq, 20% uc2rpq, 15% rq. Path and rq
  // pairs draw every template, so about a quarter of them are equivalences
  // (two jobs for the batch engine).
  uint32_t pick = rng.Below(100);
  if (pick < 30) return PathOp(rng, "rpq", static_cast<int>(rng.Below(4)),
                               kColdLabels, 4);
  if (pick < 55) return PathOp(rng, "2rpq", static_cast<int>(rng.Below(4)),
                               kColdLabels, 3);
  if (pick < 65) return UcqOp(rng, static_cast<int>(rng.Below(3)), 4, 3);
  if (pick < 85) return Uc2RpqOp(rng, static_cast<int>(rng.Below(4)),
                                 kColdLabels, 3, 3);
  return RqOp(rng, static_cast<int>(rng.Below(4)), kColdLabels, 3);
}

// The 36 step shapes of a scan query: one symbol or a union of two, over
// the four labels and their inverses.
std::vector<std::string> ScanSteps() {
  std::vector<std::string> symbols;
  for (const char* l : {"a", "b", "c", "d"}) {
    symbols.push_back(l);
    symbols.push_back(std::string(l) + "-");
  }
  std::vector<std::string> steps = symbols;
  for (size_t i = 0; i < symbols.size(); ++i) {
    for (size_t j = i + 1; j < symbols.size(); ++j) {
      steps.push_back("(" + symbols[i] + " | " + symbols[j] + ")");
    }
  }
  return steps;
}

constexpr uint64_t kScanStepsPerQuery = 3;

// Query number `slot` of the 36^3 distinct scan queries, visited in a
// seeded order: slot -> (a * slot + b) mod 36^3 with gcd(a, 36^3) = 1, so
// distinct slots give distinct queries.
std::string ScanQueryAt(uint64_t seed, uint64_t slot) {
  static const std::vector<std::string> steps = ScanSteps();
  const uint64_t n = steps.size();
  const uint64_t total = n * n * n;
  Rng rng(seed, kScanQueryStream, 0);
  uint64_t a = (rng.Next() % (total / 6)) * 6 + 1;  // ≡ 1 mod 6: coprime
  uint64_t b = rng.Next() % total;
  uint64_t code = (a * (slot % total) + b) % total;
  std::vector<std::string> parts;
  for (uint64_t i = 0; i < kScanStepsPerQuery; ++i) {
    parts.push_back(steps[code % n]);
    code /= n;
  }
  return Join(parts, " ");
}

}  // namespace

Rng::Rng(uint64_t seed, uint64_t stream, uint64_t index)
    : state_(SplitMix(SplitMix(seed) ^ SplitMix(stream * 0x1000193 + 7) ^
                      (index * 0x9e3779b97f4a7c15ull))) {}

uint64_t Rng::Next() {
  state_ += 0x9e3779b97f4a7c15ull;
  return SplitMix(state_);
}

const char* ExpectName(Expect expect) {
  switch (expect) {
    case Expect::kProved:
      return "proved";
    case Expect::kRefuted:
      return "refuted";
    case Expect::kEquivalent:
      return "equivalent";
  }
  return "?";
}

ContainOp ColdOp(uint64_t seed, uint64_t index) {
  Rng rng(seed, kColdStream, index);
  return ColdFrom(rng);
}

ContainOp ColdWarmupOp(uint64_t seed, uint64_t index) {
  Rng rng(seed, kColdWarmupStream, index);
  return ColdFrom(rng);
}

std::string NodeName(uint32_t v) { return "n" + std::to_string(v); }

bool ParseNodeName(const std::string& name, uint32_t* v) {
  if (name.size() < 2 || name[0] != 'n') return false;
  char* end = nullptr;
  unsigned long parsed = std::strtoul(name.c_str() + 1, &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *v = static_cast<uint32_t>(parsed);
  return true;
}

std::string GraphText(const GraphSpec& graph) {
  std::string out;
  out.reserve(graph.edges.size() * 16);
  for (const Edge& e : graph.edges) {
    out += NodeName(e.src);
    out += ' ';
    out += graph.labels[e.label];
    out += ' ';
    out += NodeName(e.dst);
    out += '\n';
  }
  return out;
}

GraphSpec ScanGraph(uint64_t seed) {
  GraphSpec g;
  g.num_nodes = kScanNodes;
  g.labels = {"a", "b", "c", "d"};
  Rng rng(seed, kScanGraphStream, 0);
  // Uniform random endpoints, one edge per node per label on average.
  for (uint32_t label = 0; label < 4; ++label) {
    for (uint32_t i = 0; i < kScanNodes; ++i) {
      if (i % 2 == 0) continue;  // half an edge per node per label
      g.edges.push_back({rng.Below(kScanNodes), label, rng.Below(kScanNodes)});
    }
  }
  return g;
}

std::string ScanQuery(uint64_t seed, uint64_t index) {
  return ScanQueryAt(seed, index);
}

std::string ScanWarmupQuery(uint64_t seed, uint64_t index) {
  // Slots counted down from the top, far from any measured slot.
  const uint64_t total = 36ull * 36 * 36;
  return ScanQueryAt(seed, total - 1 - index);
}

namespace {

constexpr uint32_t kMutateNodes = 20000;
constexpr uint32_t kLayers = 4;
constexpr uint32_t kLayerWidth = 1000;
constexpr uint32_t kBulkEdgesPerLabel = 25000;
constexpr uint32_t kClosureOutDegree = 2;

Edge LayerEdge(Rng& rng, uint32_t label) {
  uint32_t layer = rng.Below(kLayers - 1);
  uint32_t src = layer * kLayerWidth + rng.Below(kLayerWidth);
  uint32_t dst = (layer + 1) * kLayerWidth + rng.Below(kLayerWidth);
  return {src, label, dst};
}

}  // namespace

GraphSpec MutateGraph(uint64_t seed) {
  GraphSpec g;
  g.num_nodes = kMutateNodes;
  g.labels = {"a", "b", "c", "d"};
  Rng rng(seed, kMutateGraphStream, 0);
  for (uint32_t label = 0; label < 2; ++label) {
    for (uint32_t i = 0; i < kBulkEdgesPerLabel; ++i) {
      g.edges.push_back(
          {rng.Below(kMutateNodes), label, rng.Below(kMutateNodes)});
    }
  }
  // Closure labels c, d: layered DAGs over the first kLayers * kLayerWidth
  // nodes, each node of the upper layers with kClosureOutDegree edges into
  // the next layer, so a closure row has at most 2 + 4 + 8 entries.
  for (uint32_t label = 2; label < 4; ++label) {
    for (uint32_t layer = 0; layer + 1 < kLayers; ++layer) {
      for (uint32_t i = 0; i < kLayerWidth; ++i) {
        for (uint32_t k = 0; k < kClosureOutDegree; ++k) {
          g.edges.push_back({layer * kLayerWidth + i, label,
                             (layer + 1) * kLayerWidth + rng.Below(kLayerWidth)});
        }
      }
    }
  }
  return g;
}

std::vector<Edge> MutateBatch(uint64_t seed, uint64_t index) {
  Rng rng(seed, kMutateBatchStream, index);
  std::vector<Edge> batch;
  for (int i = 0; i < kMutateBatchEdges; ++i) {
    if (i < kMutateBatchEdges * 6 / 10) {
      batch.push_back(
          {rng.Below(kMutateNodes), rng.Below(2), rng.Below(kMutateNodes)});
    } else {
      batch.push_back(LayerEdge(rng, 2 + rng.Below(2)));
    }
  }
  return batch;
}

std::vector<uint32_t> MutateClosureLabels() { return {2, 3}; }

uint32_t MutateReadLabel(uint64_t seed, uint64_t index) {
  Rng rng(seed, kMutateReadStream, index);
  return 2 + rng.Below(2);
}

}  // namespace rqbench
