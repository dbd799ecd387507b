#include "rq/eval.h"

#include <algorithm>
#include <map>

#include "obs/op.h"
#include "obs/subsystems.h"
#include "relational/matcher.h"

namespace rq {

Result<size_t> FindColumn(const std::vector<VarId>& vars, VarId v) {
  auto it = std::lower_bound(vars.begin(), vars.end(), v);
  if (it == vars.end() || *it != v) {
    return InvalidArgumentError(
        "RQ eval: variable v" + std::to_string(v) +
        " is not a column of the subresult (malformed expression)");
  }
  return static_cast<size_t>(it - vars.begin());
}

Relation BinaryTransitiveClosure(const Relation& base) {
  RQ_CHECK(base.arity() == 2);
  Relation total(2);
  total.InsertAll(base);
  Relation delta(2);
  delta.InsertAll(base);
  while (!delta.empty()) {
    Relation next(2);
    for (const Tuple& t : delta.tuples()) {
      for (uint32_t row : base.RowsWithValue(0, t[1])) {
        Tuple joined{t[0], base.tuples()[row][1]};
        if (!total.Contains(joined)) next.Insert(joined);
      }
    }
    total.InsertAll(next);
    delta = std::move(next);
  }
  obs::RqCounters::Get().closure_tuples.Add(total.size());
  return total;
}

Result<RqRelation> EvalRqExpr(const Database& db, const RqExpr& e) {
  switch (e.kind()) {
    case RqExpr::Kind::kAtom: {
      RqRelation out;
      out.vars = e.FreeVars();
      out.relation = Relation(out.vars.size());
      const Relation* stored = db.Find(e.predicate());
      if (stored == nullptr) return out;
      if (stored->arity() != e.atom_vars().size()) {
        return InvalidArgumentError("RQ atom " + e.predicate() +
                                    " arity mismatch with database");
      }
      // Column of each atom position, resolved once up front.
      std::vector<size_t> col_of_pos;
      col_of_pos.reserve(e.atom_vars().size());
      for (VarId v : e.atom_vars()) {
        RQ_ASSIGN_OR_RETURN(size_t col, FindColumn(out.vars, v));
        col_of_pos.push_back(col);
      }
      for (const Tuple& t : stored->tuples()) {
        // Repeated variables filter; then project onto sorted free vars.
        bool ok = true;
        Tuple projected(out.vars.size());
        for (size_t i = 0; i < e.atom_vars().size() && ok; ++i) {
          size_t col = col_of_pos[i];
          // First write wins; later occurrences must agree.
          bool first = true;
          for (size_t j = 0; j < i; ++j) {
            if (e.atom_vars()[j] == e.atom_vars()[i]) {
              first = false;
              break;
            }
          }
          if (first) {
            projected[col] = t[i];
          } else if (projected[col] != t[i]) {
            ok = false;
          }
        }
        if (ok) out.relation.Insert(projected);
      }
      return out;
    }
    case RqExpr::Kind::kAnd: {
      // Natural join via the generic matcher over materialized children.
      std::vector<RqRelation> parts;
      parts.reserve(e.children().size());
      uint32_t num_vars = 0;
      for (const RqExprPtr& c : e.children()) {
        RQ_ASSIGN_OR_RETURN(RqRelation part, EvalRqExpr(db, *c));
        if (!part.vars.empty()) {
          num_vars = std::max(num_vars, part.vars.back() + 1);
        }
        parts.push_back(std::move(part));
      }
      std::vector<MatchAtom> atoms;
      atoms.reserve(parts.size());
      for (const RqRelation& part : parts) {
        atoms.push_back({&part.relation, part.vars});
      }
      RqRelation out;
      out.vars = e.FreeVars();
      out.relation = Relation(out.vars.size());
      MatchConjunction(atoms, num_vars,
                       [&](const std::vector<Value>& binding) {
                         Tuple t;
                         t.reserve(out.vars.size());
                         for (VarId v : out.vars) t.push_back(binding[v]);
                         out.relation.Insert(t);
                         return true;
                       });
      return out;
    }
    case RqExpr::Kind::kOr: {
      RqRelation out;
      out.vars = e.FreeVars();
      out.relation = Relation(out.vars.size());
      for (const RqExprPtr& c : e.children()) {
        RQ_ASSIGN_OR_RETURN(RqRelation part, EvalRqExpr(db, *c));
        // Children share the same free vars, hence the same column order.
        out.relation.InsertAll(part.relation);
      }
      return out;
    }
    case RqExpr::Kind::kExists: {
      RQ_ASSIGN_OR_RETURN(RqRelation child,
                          EvalRqExpr(db, *e.children()[0]));
      RqRelation out;
      out.vars = e.FreeVars();
      out.relation = Relation(out.vars.size());
      std::vector<size_t> keep;
      keep.reserve(out.vars.size());
      for (VarId v : out.vars) {
        RQ_ASSIGN_OR_RETURN(size_t col, FindColumn(child.vars, v));
        keep.push_back(col);
      }
      for (const Tuple& t : child.relation.tuples()) {
        Tuple projected;
        projected.reserve(keep.size());
        for (size_t col : keep) projected.push_back(t[col]);
        out.relation.Insert(projected);
      }
      return out;
    }
    case RqExpr::Kind::kEq: {
      RQ_ASSIGN_OR_RETURN(RqRelation child,
                          EvalRqExpr(db, *e.children()[0]));
      RQ_ASSIGN_OR_RETURN(size_t ca, FindColumn(child.vars, e.eq_a()));
      RQ_ASSIGN_OR_RETURN(size_t cb, FindColumn(child.vars, e.eq_b()));
      RqRelation out;
      out.vars = child.vars;
      out.relation = Relation(out.vars.size());
      for (const Tuple& t : child.relation.tuples()) {
        if (t[ca] == t[cb]) out.relation.Insert(t);
      }
      return out;
    }
    case RqExpr::Kind::kClosure: {
      RQ_ASSIGN_OR_RETURN(RqRelation child,
                          EvalRqExpr(db, *e.children()[0]));
      // Orient columns (from, to) for the closure; remaining columns are
      // parameters, fixed along a chain: group by them and close per group.
      RQ_ASSIGN_OR_RETURN(size_t cf,
                          FindColumn(child.vars, e.closure_from()));
      RQ_ASSIGN_OR_RETURN(size_t ct, FindColumn(child.vars, e.closure_to()));
      std::vector<size_t> param_cols;
      for (size_t col = 0; col < child.vars.size(); ++col) {
        if (col != cf && col != ct) param_cols.push_back(col);
      }
      std::map<Tuple, Relation> groups;
      for (const Tuple& t : child.relation.tuples()) {
        Tuple params;
        params.reserve(param_cols.size());
        for (size_t col : param_cols) params.push_back(t[col]);
        auto [it, inserted] = groups.try_emplace(std::move(params),
                                                 Relation(2));
        it->second.Insert({t[cf], t[ct]});
      }
      RqRelation out;
      out.vars = e.FreeVars();
      out.relation = Relation(out.vars.size());
      for (const auto& [params, oriented] : groups) {
        Relation closed = BinaryTransitiveClosure(oriented);
        for (const Tuple& t : closed.tuples()) {
          Tuple row(out.vars.size());
          row[cf] = t[0];
          row[ct] = t[1];
          for (size_t i = 0; i < param_cols.size(); ++i) {
            row[param_cols[i]] = params[i];
          }
          out.relation.Insert(std::move(row));
        }
      }
      return out;
    }
  }
  RQ_CHECK(false);
  return InvalidArgumentError("unreachable");
}

Result<Relation> EvalRqQuery(const Database& db, const RqQuery& query) {
  obs::OpScope op("rq.eval", obs::QueryKind::kRqEval);
  obs::RqCounters::Get().evals.Increment();
  RQ_RETURN_IF_ERROR(query.Validate());
  RQ_ASSIGN_OR_RETURN(RqRelation result, EvalRqExpr(db, *query.root));
  Relation out(query.head.size());
  std::vector<size_t> cols;
  cols.reserve(query.head.size());
  for (VarId v : query.head) {
    RQ_ASSIGN_OR_RETURN(size_t col, FindColumn(result.vars, v));
    cols.push_back(col);
  }
  for (const Tuple& t : result.relation.tuples()) {
    Tuple projected;
    projected.reserve(cols.size());
    for (size_t col : cols) projected.push_back(t[col]);
    out.Insert(projected);
  }
  op.Finish(obs::kFlightVerdictOk, out.tuples().size());
  return out;
}

Database GraphToDatabase(const GraphDb& graph) {
  Database db;
  for (uint32_t label = 0; label < graph.alphabet().num_labels(); ++label) {
    db.GetOrCreate(graph.alphabet().LabelName(label), 2).value();
  }
  for (const Edge& e : graph.edges()) {
    Relation* rel =
        db.FindMutable(graph.alphabet().LabelName(e.label));
    rel->Insert({e.src, e.dst});
  }
  return db;
}

}  // namespace rq
