#include "automata/containment.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "automata/dfa.h"
#include "automata/ops.h"
#include "cache/automata_cache.h"
#include "common/deadline.h"
#include "common/mem.h"
#include "obs/op.h"
#include "obs/subsystems.h"

namespace rq {

namespace {

// Flushes one finished check into the containment counter vocabulary
// (docs/OBSERVABILITY.md). Counts are batched per check, not per node, so
// the search loops stay free of shared-memory traffic.
void RecordCheck(obs::OpScope& op,
                 const LanguageContainmentResult& result) {
  obs::ContainmentCounters& counters = obs::ContainmentCounters::Get();
  counters.checks.Increment();
  counters.states_explored.Add(result.explored_states);
  counters.states_explored_per_check.Record(result.explored_states);
  if (!result.contained) counters.refuted.Increment();
  op.Attr("states_explored", result.explored_states);
}

struct PairKey {
  uint32_t a_state;
  uint32_t subset_id;

  friend bool operator==(const PairKey& x, const PairKey& y) {
    return x.a_state == y.a_state && x.subset_id == y.subset_id;
  }
};

struct PairKeyHash {
  size_t operator()(const PairKey& k) const {
    // splitmix64 finalizer over both fields: well-mixed in either half and,
    // unlike a size_t shift by 32, defined on 32-bit size_t targets.
    uint64_t z = (static_cast<uint64_t>(k.a_state) << 32) | k.subset_id;
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(z ^ (z >> 31));
  }
};

struct SubsetHash {
  size_t operator()(const std::vector<uint32_t>& v) const {
    size_t h = 0xcbf29ce484222325ULL;
    for (uint32_t x : v) {
      h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
  }
};

LanguageContainmentResult CheckLanguageContainmentImpl(const Nfa& a_in,
                                                       const Nfa& b_in) {
  RQ_CHECK(a_in.num_symbols() == b_in.num_symbols());
  // Memoized (or aliasing, if already epsilon-free) views; see
  // docs/CACHING.md.
  std::shared_ptr<const Nfa> a_ptr = cache::CachedEpsilonFree(a_in);
  std::shared_ptr<const Nfa> b_ptr = cache::CachedEpsilonFree(b_in);
  const Nfa& a = *a_ptr;
  const Nfa& b = *b_ptr;

  LanguageContainmentResult result;

  // The subset table and search frontier are the blowup of this procedure:
  // worst case 2^|b| interned subsets. The CheckExecContext poll in the
  // search loop enforces any installed memory budget.
  MemScope mem_scope(MemSubsystem::kAutomata);

  // Intern b-subsets so search nodes are small.
  std::unordered_map<std::vector<uint32_t>, uint32_t, SubsetHash> subset_ids;
  std::vector<std::vector<uint32_t>> subsets;
  std::vector<bool> subset_accepting;
  auto intern_subset = [&](std::vector<uint32_t> subset) {
    auto it = subset_ids.find(subset);
    if (it != subset_ids.end()) return it->second;
    uint32_t id = static_cast<uint32_t>(subsets.size());
    bool accepting = false;
    for (uint32_t s : subset) accepting = accepting || b.IsAccepting(s);
    // Interned twice (map key + table row) plus the id/flag bookkeeping.
    MemCharge(static_cast<int64_t>(
        2 * subset.size() * sizeof(uint32_t) + 2 * sizeof(uint32_t)));
    subset_ids.emplace(subset, id);
    subsets.push_back(std::move(subset));
    subset_accepting.push_back(accepting);
    return id;
  };

  struct Node {
    PairKey key;
    uint32_t parent;  // index into nodes, or UINT32_MAX
    Symbol via;
  };
  std::vector<Node> nodes;
  std::unordered_map<PairKey, uint32_t, PairKeyHash> seen;
  std::deque<uint32_t> work;

  uint32_t b0 = intern_subset(b.EpsilonClosure(b.initial()));
  for (uint32_t s : a.initial()) {
    PairKey key{s, b0};
    if (seen.contains(key)) continue;
    seen.emplace(key, static_cast<uint32_t>(nodes.size()));
    nodes.push_back({key, 0xffffffffu, kInvalidSymbol});
    work.push_back(static_cast<uint32_t>(nodes.size() - 1));
  }

  auto extract_word = [&](uint32_t idx) {
    std::vector<Symbol> word;
    for (uint32_t i = idx; i != 0xffffffffu; i = nodes[i].parent) {
      if (nodes[i].via != kInvalidSymbol) word.push_back(nodes[i].via);
    }
    std::reverse(word.begin(), word.end());
    return word;
  };

  while (!work.empty()) {
    if (Status s = CheckExecContext(); !s.ok()) {
      result.status = std::move(s);
      return result;
    }
    uint32_t idx = work.front();
    work.pop_front();
    PairKey key = nodes[idx].key;
    ++result.explored_states;
    if (a.IsAccepting(key.a_state) && !subset_accepting[key.subset_id]) {
      result.contained = false;
      result.counterexample = extract_word(idx);
      return result;
    }
    // Group transitions of the A-state by symbol so each symbol computes the
    // B-subset successor once.
    const auto& trans = a.TransitionsFrom(key.a_state);
    for (size_t i = 0; i < trans.size();) {
      Symbol symbol = trans[i].symbol;
      // subsets may reallocate during intern; take a copy of the source.
      std::vector<uint32_t> source = subsets[key.subset_id];
      uint32_t next_subset = intern_subset(b.Step(source, symbol));
      for (; i < trans.size() && trans[i].symbol == symbol; ++i) {
        PairKey next{trans[i].to, next_subset};
        if (seen.contains(next)) continue;
        seen.emplace(next, static_cast<uint32_t>(nodes.size()));
        nodes.push_back({next, idx, symbol});
        work.push_back(static_cast<uint32_t>(nodes.size() - 1));
        MemCharge(static_cast<int64_t>(sizeof(Node) + sizeof(PairKey) +
                                       2 * sizeof(uint32_t)));
      }
    }
  }
  result.contained = true;
  return result;
}

LanguageContainmentResult CheckLanguageContainmentAntichainImpl(
    const Nfa& a_in, const Nfa& b_in) {
  RQ_CHECK(a_in.num_symbols() == b_in.num_symbols());
  std::shared_ptr<const Nfa> a_ptr = cache::CachedEpsilonFree(a_in);
  std::shared_ptr<const Nfa> b_ptr = cache::CachedEpsilonFree(b_in);
  const Nfa& a = *a_ptr;
  const Nfa& b = *b_ptr;

  LanguageContainmentResult result;

  // Same blowup surface as the OTF checker, pruned by ⊆-subsumption; the
  // antichains and queued nodes carry uninterned subset copies.
  MemScope mem_scope(MemSubsystem::kAutomata);

  struct Node {
    uint32_t a_state;
    std::vector<uint32_t> subset;
    uint32_t parent;
    Symbol via;
  };
  std::vector<Node> nodes;
  std::deque<uint32_t> work;
  // Per A-state antichain of ⊆-minimal explored subsets.
  std::vector<std::vector<std::vector<uint32_t>>> antichain(a.num_states());

  auto subset_of = [](const std::vector<uint32_t>& x,
                      const std::vector<uint32_t>& y) {
    return std::includes(y.begin(), y.end(), x.begin(), x.end());
  };
  auto push = [&](uint32_t a_state, std::vector<uint32_t> subset,
                  uint32_t parent, Symbol via) {
    auto& chain = antichain[a_state];
    for (const auto& existing : chain) {
      if (subset_of(existing, subset)) return;  // subsumed
    }
    // Remove supersets of the new subset.
    chain.erase(std::remove_if(chain.begin(), chain.end(),
                               [&](const std::vector<uint32_t>& existing) {
                                 return subset_of(subset, existing);
                               }),
                chain.end());
    // Antichain copy + node copy (the pruned supersets above are not
    // released individually; the function-level scope squares the books).
    MemCharge(static_cast<int64_t>(2 * subset.size() * sizeof(uint32_t) +
                                   sizeof(Node) + sizeof(uint32_t)));
    chain.push_back(subset);
    nodes.push_back({a_state, std::move(subset), parent, via});
    work.push_back(static_cast<uint32_t>(nodes.size() - 1));
  };

  std::vector<uint32_t> b0 = b.EpsilonClosure(b.initial());
  for (uint32_t s : a.initial()) push(s, b0, 0xffffffffu, kInvalidSymbol);

  auto subset_accepting = [&](const std::vector<uint32_t>& subset) {
    for (uint32_t s : subset) {
      if (b.IsAccepting(s)) return true;
    }
    return false;
  };

  while (!work.empty()) {
    if (Status s = CheckExecContext(); !s.ok()) {
      result.status = std::move(s);
      return result;
    }
    uint32_t idx = work.front();
    work.pop_front();
    // Note: a node may have been superseded in the antichain after being
    // queued; exploring it anyway is sound (just possibly redundant).
    ++result.explored_states;
    if (a.IsAccepting(nodes[idx].a_state) &&
        !subset_accepting(nodes[idx].subset)) {
      std::vector<Symbol> word;
      for (uint32_t i = idx; i != 0xffffffffu; i = nodes[i].parent) {
        if (nodes[i].via != kInvalidSymbol) word.push_back(nodes[i].via);
      }
      std::reverse(word.begin(), word.end());
      result.contained = false;
      result.counterexample = std::move(word);
      return result;
    }
    const auto& trans = a.TransitionsFrom(nodes[idx].a_state);
    for (size_t i = 0; i < trans.size();) {
      Symbol symbol = trans[i].symbol;
      std::vector<uint32_t> next_subset = b.Step(nodes[idx].subset, symbol);
      for (; i < trans.size() && trans[i].symbol == symbol; ++i) {
        push(trans[i].to, next_subset, idx, symbol);
      }
    }
  }
  result.contained = true;
  return result;
}

LanguageContainmentResult CheckLanguageContainmentExplicitImpl(const Nfa& a,
                                                               const Nfa& b) {
  RQ_CHECK(a.num_symbols() == b.num_symbols());
  LanguageContainmentResult result;
  if (Status s = CheckExecContext(); !s.ok()) {
    result.status = std::move(s);
    return result;
  }
  // Determinize stops early when the context trips; poll again afterwards
  // so a truncated complement is never used for a verdict.
  std::shared_ptr<const Dfa> complement = cache::CachedComplementToDfa(b);
  if (Status s = CheckExecContext(); !s.ok()) {
    result.status = std::move(s);
    return result;
  }
  Nfa diff = Intersect(a, NfaFromDfa(*complement));
  result.explored_states = diff.num_states();
  std::vector<Symbol> witness;
  bool empty = diff.IsEmptyLanguage(&witness);
  result.contained = empty;
  if (!empty) result.counterexample = std::move(witness);
  return result;
}

// Shared wrapper: consult the verdict cache, otherwise run `impl` under an
// op and flush the containment counters. On a cache hit only cache.*
// counters move — containment.checks / states_explored track actual
// decision-procedure work (docs/OBSERVABILITY.md).
template <typename Impl>
LanguageContainmentResult CheckWithVerdictCache(const char* op_name,
                                                const char* algo,
                                                const Nfa& a, const Nfa& b,
                                                Impl impl) {
  cache::AutomataCache& ac = cache::AutomataCache::Global();
  std::string key;
  if (ac.enabled()) {
    key = cache::VerdictKey(algo, a, b);
    if (auto hit = ac.verdict().Get(key)) return *hit;
  }
  obs::OpScope op(op_name);
  LanguageContainmentResult result = impl(a, b);
  RecordCheck(op, result);
  // Never cache a verdict cut short by deadline/cancellation — it is not a
  // verdict, and the key would otherwise serve it to unbounded callers.
  if (ac.enabled() && result.status.ok()) {
    ac.verdict().Put(std::move(key), result, cache::ApproxBytes(result));
  }
  return result;
}

}  // namespace

LanguageContainmentResult CheckLanguageContainment(const Nfa& a, const Nfa& b) {
  return CheckWithVerdictCache("containment.check", "otf", a, b,
                               CheckLanguageContainmentImpl);
}

LanguageContainmentResult CheckLanguageContainmentAntichain(const Nfa& a,
                                                            const Nfa& b) {
  return CheckWithVerdictCache("containment.check_antichain", "antichain", a,
                               b, CheckLanguageContainmentAntichainImpl);
}

LanguageContainmentResult CheckLanguageContainmentExplicit(const Nfa& a,
                                                           const Nfa& b) {
  return CheckWithVerdictCache("containment.check_explicit", "explicit", a, b,
                               CheckLanguageContainmentExplicitImpl);
}

bool LanguagesEqual(const Nfa& a, const Nfa& b) {
  return CheckLanguageContainment(a, b).contained &&
         CheckLanguageContainment(b, a).contained;
}

}  // namespace rq
