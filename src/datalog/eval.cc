#include "datalog/eval.h"

#include <algorithm>

#include "common/deadline.h"
#include "common/mem.h"
#include "obs/op.h"
#include "obs/subsystems.h"

namespace rq {

namespace {

// A stored tuple lives twice (insertion-order vector + membership set);
// the set node costs roughly two pointers plus the hash.
int64_t TupleBytes(size_t arity) {
  return static_cast<int64_t>(
      2 * (sizeof(Tuple) + arity * sizeof(Value)) + 32);
}

// Applies one rule, reading body atom i from `sources[i]` and inserting new
// head tuples into `out` (only tuples absent from `existing`). Returns the
// number of new tuples. Polls the installed ExecContext per candidate
// binding; a trip lands in `*stop` and aborts the join early.
size_t ApplyRule(const DatalogRule& rule,
                 const std::vector<const Relation*>& sources,
                 const Relation& existing, Relation* out,
                 DatalogEvalStats* stats, Status* stop) {
  std::vector<MatchAtom> atoms;
  atoms.reserve(rule.body.size());
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (sources[i] == nullptr || sources[i]->empty()) return 0;
    atoms.push_back({sources[i], rule.body[i].vars});
  }
  size_t added = 0;
  MatchConjunction(atoms, rule.num_vars,
                   [&](const std::vector<Value>& binding) {
                     if (Status s = CheckExecContext(); !s.ok()) {
                       *stop = std::move(s);
                       return false;
                     }
                     if (stats != nullptr) ++stats->tuples_considered;
                     Tuple t;
                     t.reserve(rule.head.vars.size());
                     for (VarId v : rule.head.vars) t.push_back(binding[v]);
                     if (!existing.Contains(t) && out->Insert(t)) {
                       ++added;
                       MemCharge(TupleBytes(t.size()));
                     }
                     return true;
                   });
  if (stats != nullptr) ++stats->rule_applications;
  return added;
}

// Fixpoint body; the public EvalDatalogProgram wraps it in its op so
// timeouts and errors record their verdict.
Result<Database> EvalDatalogProgramImpl(const DatalogProgram& program,
                                        const Database& edb,
                                        DatalogEvalMode mode,
                                        DatalogEvalStats* stats) {
  // Fact stores and per-round delta relations are the fixpoint's memory;
  // ApplyRule charges every derived tuple and the InsertAll flushes below
  // charge the copies kept in the head relations.
  MemScope mem_scope(MemSubsystem::kDatalog);
  RQ_RETURN_IF_ERROR(program.Validate());
  DatalogEvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = DatalogEvalStats();

  // Working database: copy of EDB plus empty IDB relations.
  Database db;
  for (const std::string& name : edb.RelationNames()) {
    const Relation* rel = edb.Find(name);
    RQ_ASSIGN_OR_RETURN(Relation * copy, db.GetOrCreate(name, rel->arity()));
    copy->InsertAll(*rel);
    MemCharge(TupleBytes(rel->arity()) *
              static_cast<int64_t>(rel->size()));
  }
  for (PredId p : program.IdbPredicates()) {
    if (edb.Find(program.PredicateName(p)) != nullptr) {
      return InvalidArgumentError("IDB predicate " +
                                  program.PredicateName(p) +
                                  " also present in the EDB");
    }
    RQ_RETURN_IF_ERROR(db.GetOrCreate(program.PredicateName(p),
                                      program.PredicateArity(p))
                           .status());
  }
  // EDB predicates used by the program but missing from the given database
  // are empty relations.
  for (PredId p = 0; p < program.num_predicates(); ++p) {
    RQ_RETURN_IF_ERROR(
        db.GetOrCreate(program.PredicateName(p), program.PredicateArity(p))
            .status());
  }

  auto rel_of = [&](PredId p) {
    return db.FindMutable(program.PredicateName(p));
  };

  std::vector<DatalogProgram::Scc> sccs = program.DependencySccs();
  std::vector<uint32_t> scc_of(program.num_predicates(), 0);
  for (uint32_t i = 0; i < sccs.size(); ++i) {
    for (PredId p : sccs[i].predicates) scc_of[p] = i;
  }

  Status stop;  // set by ApplyRule when the installed ExecContext trips
  for (uint32_t scc_index = 0; scc_index < sccs.size(); ++scc_index) {
    RQ_RETURN_IF_ERROR(CheckExecContext());
    const DatalogProgram::Scc& scc = sccs[scc_index];
    // Rules contributing to this SCC.
    std::vector<const DatalogRule*> rules;
    for (const DatalogRule& rule : program.rules()) {
      if (scc_of[rule.head.predicate] == scc_index) rules.push_back(&rule);
    }
    if (rules.empty()) continue;

    // Dense index of the SCC's predicates, shared by both recursive modes
    // (per-round fresh/delta relations are stored per SCC predicate).
    std::vector<PredId> scc_preds = scc.predicates;
    auto scc_pred_index = [&](PredId p) -> int {
      for (size_t i = 0; i < scc_preds.size(); ++i) {
        if (scc_preds[i] == p) return static_cast<int>(i);
      }
      return -1;
    };

    if (!scc.recursive) {
      // One pass: all body atoms refer to earlier SCCs.
      for (const DatalogRule* rule : rules) {
        std::vector<const Relation*> sources;
        for (const DatalogAtom& atom : rule->body) {
          sources.push_back(rel_of(atom.predicate));
        }
        Relation* head_rel = rel_of(rule->head.predicate);
        Relation fresh(head_rel->arity());
        stats->tuples_derived +=
            ApplyRule(*rule, sources, *head_rel, &fresh, stats, &stop);
        RQ_RETURN_IF_ERROR(stop);
        MemCharge(TupleBytes(head_rel->arity()) *
                  static_cast<int64_t>(head_rel->InsertAll(fresh)));
      }
      ++stats->rounds;
      continue;
    }

    if (mode == DatalogEvalMode::kNaive) {
      // Re-run every rule over the relations as they stood at the start of
      // the round (snapshot semantics), inserting only after every rule ran.
      // This makes a "round" mean the same thing in both modes — see the
      // round-counting contract on DatalogEvalStats in eval.h.
      for (;;) {
        RQ_RETURN_IF_ERROR(CheckExecContext());
        ++stats->rounds;
        std::vector<Relation> fresh;
        for (PredId p : scc_preds) {
          fresh.emplace_back(program.PredicateArity(p));
        }
        size_t added = 0;
        for (const DatalogRule* rule : rules) {
          std::vector<const Relation*> sources;
          for (const DatalogAtom& atom : rule->body) {
            sources.push_back(rel_of(atom.predicate));
          }
          int hd = scc_pred_index(rule->head.predicate);
          added += ApplyRule(*rule, sources, *rel_of(rule->head.predicate),
                             &fresh[hd], stats, &stop);
          RQ_RETURN_IF_ERROR(stop);
        }
        stats->tuples_derived += added;
        if (added == 0) break;
        for (size_t i = 0; i < scc_preds.size(); ++i) {
          Relation* rel = rel_of(scc_preds[i]);
          MemCharge(TupleBytes(rel->arity()) *
                    static_cast<int64_t>(rel->InsertAll(fresh[i])));
        }
      }
      continue;
    }

    // Semi-naive. Deltas per SCC predicate, seeded by one full pass (SCC
    // relations start empty, so only exit rules fire).
    std::vector<Relation> delta;
    for (PredId p : scc_preds) {
      delta.emplace_back(program.PredicateArity(p));
    }
    ++stats->rounds;
    size_t seed_added = 0;
    for (const DatalogRule* rule : rules) {
      std::vector<const Relation*> sources;
      for (const DatalogAtom& atom : rule->body) {
        sources.push_back(rel_of(atom.predicate));
      }
      Relation* head_rel = rel_of(rule->head.predicate);
      int di = scc_pred_index(rule->head.predicate);
      seed_added +=
          ApplyRule(*rule, sources, *head_rel, &delta[di], stats, &stop);
      RQ_RETURN_IF_ERROR(stop);
    }
    stats->tuples_derived += seed_added;
    for (size_t i = 0; i < scc_preds.size(); ++i) {
      Relation* rel = rel_of(scc_preds[i]);
      MemCharge(TupleBytes(rel->arity()) *
                static_cast<int64_t>(rel->InsertAll(delta[i])));
    }
    // An empty seed delta already confirms the fixpoint: every delta-bound
    // rule application below would join against an empty relation. Skipping
    // the loop keeps the round count identical to naive mode.
    if (seed_added == 0) continue;

    for (;;) {
      RQ_RETURN_IF_ERROR(CheckExecContext());
      ++stats->rounds;
      std::vector<Relation> next_delta;
      for (PredId p : scc_preds) {
        next_delta.emplace_back(program.PredicateArity(p));
      }
      size_t added = 0;
      for (const DatalogRule* rule : rules) {
        // One application per occurrence of an SCC predicate in the body,
        // with that occurrence bound to the delta.
        for (size_t i = 0; i < rule->body.size(); ++i) {
          int di = scc_pred_index(rule->body[i].predicate);
          if (di < 0) continue;
          std::vector<const Relation*> sources;
          for (size_t j = 0; j < rule->body.size(); ++j) {
            if (j == i) {
              sources.push_back(&delta[di]);
            } else {
              sources.push_back(rel_of(rule->body[j].predicate));
            }
          }
          Relation* head_rel = rel_of(rule->head.predicate);
          int hd = scc_pred_index(rule->head.predicate);
          added += ApplyRule(*rule, sources, *head_rel, &next_delta[hd],
                             stats, &stop);
          RQ_RETURN_IF_ERROR(stop);
        }
      }
      stats->tuples_derived += added;
      if (added == 0) break;
      for (size_t i = 0; i < scc_preds.size(); ++i) {
        Relation* rel = rel_of(scc_preds[i]);
        MemCharge(TupleBytes(rel->arity()) *
                  static_cast<int64_t>(rel->InsertAll(next_delta[i])));
      }
      delta = std::move(next_delta);
    }
  }

  // Flush this evaluation into the shared observability registry (the
  // datalog.* vocabulary; the legacy stats struct doubles as the local
  // accumulator so hot loops never touch shared state).
  obs::DatalogCounters& counters = obs::DatalogCounters::Get();
  counters.evals.Increment();
  counters.rounds.Add(stats->rounds);
  counters.rule_applications.Add(stats->rule_applications);
  counters.tuples_considered.Add(stats->tuples_considered);
  counters.tuples_derived.Add(stats->tuples_derived);
  counters.rounds_per_eval.Record(stats->rounds);
  return db;
}

}  // namespace

Result<Database> EvalDatalogProgram(const DatalogProgram& program,
                                    const Database& edb, DatalogEvalMode mode,
                                    DatalogEvalStats* stats) {
  obs::OpScope op("datalog.eval", obs::QueryKind::kDatalogEval);
  DatalogEvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Result<Database> result =
      EvalDatalogProgramImpl(program, edb, mode, stats);
  if (result.ok()) {
    op.Attr("rounds", stats->rounds);
    op.Attr("tuples_considered", stats->tuples_considered);
  }
  op.Finish(result.ok() ? obs::kFlightVerdictOk
                        : obs::FlightVerdictFromError(result.status()),
            stats->rounds);
  return result;
}

Result<Relation> EvalDatalogGoal(const DatalogProgram& program,
                                 const Database& edb, DatalogEvalMode mode,
                                 DatalogEvalStats* stats) {
  if (program.goal() == kInvalidPred) {
    return InvalidArgumentError("program has no goal predicate");
  }
  RQ_ASSIGN_OR_RETURN(Database db, EvalDatalogProgram(program, edb, mode,
                                                      stats));
  const Relation* rel = db.Find(program.PredicateName(program.goal()));
  RQ_CHECK(rel != nullptr);
  return *rel;
}

}  // namespace rq
