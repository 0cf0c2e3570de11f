// Query-transfer constructions from the paper's reductions.
//
// * TransferQxyy (Lemma 5.3 / Lemma D.1): embeds an input database of
//   Q_xyy(x) <- R(x, y), S(y) into an input database of ANY self-join-free
//   CQ Q0 that is all-hierarchical but not q-hierarchical, preserving the
//   Shapley value of every endogenous fact (same aggregate, value function
//   lifted through the head position of Q0's dominated free variable).
//
// * TransferQxyyFull (Lemma E.4): the analogous embedding of
//   Q^full_xyy(x, y) <- R(x, y), S(y) into any self-join-free CQ that is
//   q-hierarchical but not sq-hierarchical.
//
// These are the paper's tools for propagating hardness from the two
// minimal queries to entire classes; here they are strong numeric tests
// (Shapley values must be preserved exactly).
//
// * ApplyMonotoneMap (Observation F.3 / Theorem 7.1): rewrites a database
//   so that the value function γ ∘ τ_id^i becomes τ_id^i — the mechanism
//   behind "hardness is robust to monotone changes of the value function".

#ifndef SHAPCQ_TESTS_TRANSFER_H_
#define SHAPCQ_TESTS_TRANSFER_H_

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/query/cq.h"
#include "shapcq/util/check.h"
#include "shapcq/util/status.h"

namespace shapcq {

struct TransferResult {
  Database d0;
  // Maps each fact id of the source database to its image in d0
  // (the bijection h of Lemma D.1 on endogenous facts; exogenous facts are
  // mapped too). -1 for facts of relations other than R/S.
  std::vector<FactId> fact_map;
  // The lifted value function τ0 of the lemma.
  ValueFunctionPtr tau0;
};

// Lemma 5.3: requires q0 self-join-free, all-hierarchical, NOT
// q-hierarchical; `db` over relations R (binary) and S (unary); `tau` over
// arity-1 answers of Q_xyy.
StatusOr<TransferResult> TransferQxyy(const ConjunctiveQuery& q0,
                                      const Database& db,
                                      ValueFunctionPtr tau);

// Lemma E.4: requires q0 self-join-free, q-hierarchical, NOT
// sq-hierarchical; `tau` over arity-2 answers of Q^full_xyy.
StatusOr<TransferResult> TransferQxyyFull(const ConjunctiveQuery& q0,
                                          const Database& db,
                                          ValueFunctionPtr tau);

// Observation F.3: returns the database π(D) in which, for every atom of
// `q` and every position where the `head_index`-th head variable occurs,
// the value v is replaced by gamma(v). Endogenous/exogenous flags carry
// over; `fact_map`, if non-null, receives the fact bijection. `gamma` must
// be injective on the values that occur (duplicate collapses abort).
Database ApplyMonotoneMap(const ConjunctiveQuery& q, int head_index,
                          const std::function<Value(const Value&)>& gamma,
                          const Database& db,
                          std::vector<FactId>* fact_map = nullptr);

namespace transfer_internal {

// The filler constant "c" of Lemma D.1 (outside the generated domains).
inline const char* const kFiller = "__c";

// Instantiates an atom: x0 -> a, y0 -> b, every other variable -> filler.
inline Tuple Instantiate(const Atom& atom, const std::string& x0,
                         const Value& a, const std::string& y0,
                         const Value& b) {
  Tuple args;
  args.reserve(atom.terms.size());
  for (const Term& term : atom.terms) {
    if (term.is_constant()) {
      args.push_back(term.constant());
    } else if (term.variable() == x0) {
      args.push_back(a);
    } else if (term.variable() == y0) {
      args.push_back(b);
    } else {
      args.push_back(Value(kFiller));
    }
  }
  return args;
}

// Shared construction of Lemma D.1 / Lemma E.4: given the variable pair
// (x0, y0) with atoms(x0) ⊊ atoms(y0), builds D0 from a Q_xyy-style
// database over R (binary, columns x/y) and S (unary, column y).
inline StatusOr<TransferResult> BuildTransfer(const ConjunctiveQuery& q0,
                                              const Database& db,
                                              const std::string& x0,
                                              const std::string& y0,
                                              ValueFunctionPtr tau,
                                              bool tau_takes_pair) {
  // φ_R: an atom containing x0 (hence y0); φ_S: an atom with y0 but not x0.
  int phi_r = -1;
  int phi_s = -1;
  for (int i = 0; i < static_cast<int>(q0.atoms().size()); ++i) {
    const Atom& atom = q0.atoms()[static_cast<size_t>(i)];
    if (atom.ContainsVariable(x0)) {
      SHAPCQ_CHECK(atom.ContainsVariable(y0));
      if (phi_r < 0) phi_r = i;
    } else if (atom.ContainsVariable(y0) && phi_s < 0) {
      phi_s = i;
    }
  }
  SHAPCQ_CHECK(phi_r >= 0 && phi_s >= 0);

  // Joinable pairs (a, b): R(a, b) ∈ D and S(b) ∈ D.
  std::set<Value> s_values;
  for (FactId id : db.FactsOf("S")) {
    s_values.insert(db.fact(id).args[0]);
  }
  std::vector<std::pair<Value, Value>> joinable;
  for (FactId id : db.FactsOf("R")) {
    const Tuple& args = db.fact(id).args;
    if (s_values.count(args[1]) > 0) joinable.emplace_back(args[0], args[1]);
  }

  TransferResult result;
  result.fact_map.assign(static_cast<size_t>(db.num_facts()), -1);
  // Exogenous filler facts for every atom and every joinable pair — except
  // at φ_R and φ_S, whose facts mirror R and S with their endo/exo status.
  for (int i = 0; i < static_cast<int>(q0.atoms().size()); ++i) {
    if (i == phi_r || i == phi_s) continue;
    const Atom& atom = q0.atoms()[static_cast<size_t>(i)];
    std::set<Tuple> added;
    for (const auto& [a, b] : joinable) {
      Tuple fact = Instantiate(atom, x0, a, y0, b);
      if (added.insert(fact).second) {
        result.d0.AddExogenous(atom.relation, std::move(fact));
      }
    }
  }
  const Atom& r_atom = q0.atoms()[static_cast<size_t>(phi_r)];
  for (FactId id : db.FactsOf("R")) {
    const Fact& fact = db.fact(id);
    Tuple image = Instantiate(r_atom, x0, fact.args[0], y0, fact.args[1]);
    result.fact_map[static_cast<size_t>(id)] =
        result.d0.AddFact(r_atom.relation, std::move(image), fact.endogenous);
  }
  const Atom& s_atom = q0.atoms()[static_cast<size_t>(phi_s)];
  for (FactId id : db.FactsOf("S")) {
    const Fact& fact = db.fact(id);
    // y0 -> the S value; x0 does not occur in φ_S (the value is arbitrary).
    Tuple image = Instantiate(s_atom, x0, Value(kFiller), y0, fact.args[0]);
    result.fact_map[static_cast<size_t>(id)] =
        result.d0.AddFact(s_atom.relation, std::move(image), fact.endogenous);
  }

  // τ0: reads the head positions of x0 (and y0, when τ takes the pair).
  std::vector<int> x0_positions;
  std::vector<int> y0_positions;
  for (int position = 0; position < q0.arity(); ++position) {
    if (q0.head()[static_cast<size_t>(position)] == x0) {
      x0_positions.push_back(position);
    }
    if (q0.head()[static_cast<size_t>(position)] == y0) {
      y0_positions.push_back(position);
    }
  }
  SHAPCQ_CHECK(!x0_positions.empty());
  if (tau_takes_pair) {
    SHAPCQ_CHECK(!y0_positions.empty());
    int px = x0_positions[0];
    int py = y0_positions[0];
    result.tau0 = MakeCallbackTau(
        [tau, px, py](const Tuple& t0) {
          return tau->Evaluate(
              {t0[static_cast<size_t>(px)], t0[static_cast<size_t>(py)]});
        },
        {px, py}, tau->ToString() + " o (x0,y0)");
  } else {
    int px = x0_positions[0];
    result.tau0 = MakeCallbackTau(
        [tau, px](const Tuple& t0) {
          return tau->Evaluate({t0[static_cast<size_t>(px)]});
        },
        {px}, tau->ToString() + " o x0");
  }
  return result;
}

}  // namespace transfer_internal

inline StatusOr<TransferResult> TransferQxyy(const ConjunctiveQuery& q0,
                                             const Database& db,
                                             ValueFunctionPtr tau) {
  if (q0.HasSelfJoin() || !IsAllHierarchical(q0) || IsQHierarchical(q0)) {
    return UnsupportedError(
        "Lemma 5.3 transfer requires a self-join-free CQ that is "
        "all-hierarchical but not q-hierarchical: " + q0.ToString());
  }
  // x0: a free variable whose atoms are strictly inside those of an
  // existential variable y0 (the q-hierarchy violation).
  for (const std::string& y0 : q0.existential_variables()) {
    std::vector<int> atoms_y = q0.AtomsContaining(y0);
    for (const std::string& x0 : q0.free_variables()) {
      std::vector<int> atoms_x = q0.AtomsContaining(x0);
      if (atoms_x.size() < atoms_y.size() &&
          std::includes(atoms_y.begin(), atoms_y.end(), atoms_x.begin(),
                        atoms_x.end())) {
        return transfer_internal::BuildTransfer(q0, db, x0, y0,
                                                std::move(tau),
                                                /*tau_takes_pair=*/false);
      }
    }
  }
  return InternalError("no q-hierarchy violation found despite class check");
}

inline StatusOr<TransferResult> TransferQxyyFull(const ConjunctiveQuery& q0,
                                                 const Database& db,
                                                 ValueFunctionPtr tau) {
  if (q0.HasSelfJoin() || !IsQHierarchical(q0) || IsSqHierarchical(q0)) {
    return UnsupportedError(
        "Lemma E.4 transfer requires a self-join-free CQ that is "
        "q-hierarchical but not sq-hierarchical: " + q0.ToString());
  }
  // x0: a free variable dominated by y0; q-hierarchy forces y0 free.
  for (const std::string& x0 : q0.free_variables()) {
    std::vector<int> atoms_x = q0.AtomsContaining(x0);
    for (const std::string& y0 : q0.variables()) {
      if (y0 == x0) continue;
      std::vector<int> atoms_y = q0.AtomsContaining(y0);
      if (atoms_x.size() < atoms_y.size() &&
          std::includes(atoms_y.begin(), atoms_y.end(), atoms_x.begin(),
                        atoms_x.end())) {
        SHAPCQ_CHECK(q0.IsFreeVariable(y0));
        return transfer_internal::BuildTransfer(q0, db, x0, y0,
                                                std::move(tau),
                                                /*tau_takes_pair=*/true);
      }
    }
  }
  return InternalError("no sq-hierarchy violation found despite class check");
}

inline Database ApplyMonotoneMap(
    const ConjunctiveQuery& q, int head_index,
    const std::function<Value(const Value&)>& gamma, const Database& db,
    std::vector<FactId>* fact_map) {
  SHAPCQ_CHECK(head_index >= 0 && head_index < q.arity());
  const std::string& variable = q.head()[static_cast<size_t>(head_index)];
  Database out;
  if (fact_map != nullptr) {
    fact_map->assign(static_cast<size_t>(db.num_facts()), -1);
  }
  for (FactId id = 0; id < db.num_facts(); ++id) {
    const Fact& fact = db.fact(id);
    Tuple args = fact.args;
    int atom_index = -1;
    for (int i = 0; i < static_cast<int>(q.atoms().size()); ++i) {
      if (q.atoms()[static_cast<size_t>(i)].relation == fact.relation) {
        atom_index = i;
        break;
      }
    }
    if (atom_index >= 0) {
      for (int position :
           q.atoms()[static_cast<size_t>(atom_index)].PositionsOf(variable)) {
        args[static_cast<size_t>(position)] =
            gamma(args[static_cast<size_t>(position)]);
      }
    }
    FactId image = out.AddFact(fact.relation, std::move(args),
                               fact.endogenous);
    if (fact_map != nullptr) (*fact_map)[static_cast<size_t>(id)] = image;
  }
  return out;
}

}  // namespace shapcq

#endif  // SHAPCQ_TESTS_TRANSFER_H_
