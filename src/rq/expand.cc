#include "rq/expand.h"

#include <algorithm>
#include <unordered_map>

#include "common/deadline.h"
#include "common/mem.h"
#include "obs/op.h"
#include "obs/subsystems.h"

namespace rq {

namespace {

// A partially built disjunct: atoms plus pending variable equalities
// (introduced by Eq nodes; resolved by union-find at the end).
struct Alternative {
  std::vector<CqAtom> atoms;
  std::vector<std::pair<VarId, VarId>> equalities;
};

// Approximate footprint of one materialized alternative, charged against
// MemSubsystem::kRq as the enumeration grows (the CRPQ-containment
// EXPSPACE pressure point). An estimate: discarded intermediates are not
// released individually — the ExpandRq-level MemScope squares the books.
int64_t AlternativeBytes(const Alternative& alt) {
  size_t bytes = sizeof(Alternative) +
                 alt.equalities.size() * sizeof(std::pair<VarId, VarId>);
  for (const CqAtom& atom : alt.atoms) {
    bytes += sizeof(CqAtom) + atom.vars.size() * sizeof(VarId);
  }
  return static_cast<int64_t>(bytes);
}

struct Expander {
  const RqExpandLimits* limits;
  uint32_t next_var;
  bool truncated = false;
  // Set when the installed ExecContext trips mid-enumeration; Gen bails
  // out with empty results and ExpandRq propagates it.
  Status status;

  using Env = std::unordered_map<VarId, VarId>;

  VarId Lookup(const Env& env, VarId v) {
    auto it = env.find(v);
    return it == env.end() ? v : it->second;
  }

  // Cross product of two alternative lists.
  std::vector<Alternative> Cross(std::vector<Alternative> a,
                                 std::vector<Alternative> b) {
    std::vector<Alternative> out;
    for (const Alternative& x : a) {
      for (const Alternative& y : b) {
        if (!status.ok()) return out;
        if (out.size() >= limits->max_expansions) {
          truncated = true;
          return out;
        }
        Alternative merged = x;
        merged.atoms.insert(merged.atoms.end(), y.atoms.begin(),
                            y.atoms.end());
        merged.equalities.insert(merged.equalities.end(),
                                 y.equalities.begin(), y.equalities.end());
        if (merged.atoms.size() <= limits->max_atoms_per_expansion) {
          MemCharge(AlternativeBytes(merged));
          out.push_back(std::move(merged));
        } else {
          truncated = true;
        }
      }
    }
    return out;
  }

  std::vector<Alternative> Gen(const RqExpr& e, const Env& env) {
    if (!status.ok()) return {};
    if (Status s = CheckExecContext(); !s.ok()) {
      status = std::move(s);
      return {};
    }
    switch (e.kind()) {
      case RqExpr::Kind::kAtom: {
        Alternative alt;
        CqAtom atom;
        atom.predicate = e.predicate();
        for (VarId v : e.atom_vars()) atom.vars.push_back(Lookup(env, v));
        alt.atoms.push_back(std::move(atom));
        MemCharge(AlternativeBytes(alt));
        return {std::move(alt)};
      }
      case RqExpr::Kind::kAnd: {
        std::vector<Alternative> acc = Gen(*e.children()[0], env);
        for (size_t i = 1; i < e.children().size(); ++i) {
          // Crossing an empty list stays empty, so skip the (potentially
          // exponential) Gen of the remaining children. A bare `truncated`
          // check would be wrong here: alternatives already in `acc` still
          // need the remaining children's atoms to be genuine expansions.
          if (acc.empty()) break;
          acc = Cross(std::move(acc), Gen(*e.children()[i], env));
        }
        return acc;
      }
      case RqExpr::Kind::kOr: {
        std::vector<Alternative> acc;
        for (const RqExprPtr& c : e.children()) {
          // Once the cap is reached nothing from the remaining disjuncts
          // can be kept; skip their Gen instead of discarding its output.
          if (acc.size() >= limits->max_expansions) {
            truncated = true;
            break;
          }
          std::vector<Alternative> part = Gen(*c, env);
          for (Alternative& alt : part) {
            if (acc.size() >= limits->max_expansions) {
              truncated = true;
              break;
            }
            acc.push_back(std::move(alt));
          }
        }
        return acc;
      }
      case RqExpr::Kind::kExists: {
        Env inner = env;
        for (VarId v : e.bound_vars()) inner[v] = next_var++;
        return Gen(*e.children()[0], inner);
      }
      case RqExpr::Kind::kEq: {
        std::vector<Alternative> out = Gen(*e.children()[0], env);
        VarId a = Lookup(env, e.eq_a());
        VarId b = Lookup(env, e.eq_b());
        for (Alternative& alt : out) alt.equalities.push_back({a, b});
        return out;
      }
      case RqExpr::Kind::kClosure: {
        // Chains of length 1..max_tc_unroll.
        VarId from = Lookup(env, e.closure_from());
        VarId to = Lookup(env, e.closure_to());
        std::vector<Alternative> out;
        for (size_t len = 1; len <= limits->max_tc_unroll; ++len) {
          // A full `out` can accept nothing from this or any longer
          // unrolling; stop before generating the (exponentially growing)
          // chains instead of throwing them away.
          if (out.size() >= limits->max_expansions) {
            truncated = true;
            break;
          }
          std::vector<Alternative> chain;
          VarId prev = from;
          for (size_t i = 0; i < len; ++i) {
            // Same reasoning as kAnd: an empty chain stays empty.
            if (i > 0 && chain.empty()) break;
            VarId next = (i + 1 == len) ? to : next_var++;
            // The link env starts from the enclosing env so free variables
            // of the closure body other than the endpoints (parameters,
            // possibly renamed by an enclosing Exists) keep their outer
            // bindings; only the endpoints are rebound per link.
            Env link = env;
            link[e.closure_from()] = prev;
            link[e.closure_to()] = next;
            // Bound vars inside the child are freshened per link by the
            // recursive Exists handling.
            std::vector<Alternative> part = Gen(*e.children()[0], link);
            chain = (i == 0) ? std::move(part)
                             : Cross(std::move(chain), std::move(part));
            prev = next;
          }
          for (Alternative& alt : chain) {
            if (out.size() >= limits->max_expansions) {
              truncated = true;
              break;
            }
            out.push_back(std::move(alt));
          }
        }
        return out;
      }
    }
    RQ_CHECK(false);
    return {};
  }
};

// Union-find for resolving Eq-induced equalities.
class UnionFind {
 public:
  explicit UnionFind(uint32_t n) : parent_(n) {
    for (uint32_t i = 0; i < n; ++i) parent_[i] = i;
  }
  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Merge(uint32_t a, uint32_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<uint32_t> parent_;
};

}  // namespace

Result<RqExpansions> ExpandRq(const RqQuery& query,
                              const RqExpandLimits& limits) {
  obs::OpScope op("rq.expand");
  MemScope mem_scope(MemSubsystem::kRq);
  RQ_RETURN_IF_ERROR(query.Validate());
  Expander expander;
  expander.limits = &limits;
  expander.next_var = query.root->MaxVarIdPlus1();

  std::vector<Alternative> alts = expander.Gen(*query.root, {});
  RQ_RETURN_IF_ERROR(expander.status);

  RqExpansions out;
  out.truncated = expander.truncated;
  out.complete = !query.root->UsesClosure() && !expander.truncated;
  for (Alternative& alt : alts) {
    ConjunctiveQuery cq;
    cq.num_vars = expander.next_var;
    cq.head = query.head;
    cq.atoms = std::move(alt.atoms);
    if (!alt.equalities.empty()) {
      UnionFind uf(expander.next_var);
      for (const auto& [a, b] : alt.equalities) uf.Merge(a, b);
      for (CqAtom& atom : cq.atoms) {
        for (VarId& v : atom.vars) v = uf.Find(v);
      }
      for (VarId& v : cq.head) v = uf.Find(v);
    }
    RQ_RETURN_IF_ERROR(cq.Validate());
    out.expansions.push_back(std::move(cq));
  }
  obs::RqCounters::Get().expansions.Add(out.expansions.size());
  obs::RqCounters::Get().live_expansions.Set(
      static_cast<int64_t>(out.expansions.size()));
  op.Attr("expansions", out.expansions.size());
  return out;
}

}  // namespace rq
