// The reference join for differential tests of the indexed id join.
//
// EnumerateHomomorphismsNaive is the original unindexed backtracking join
// over Values: it scans every fact of an atom's relation. The indexed join
// (EnumerateHomomorphisms, query/evaluator.h) must produce the same
// homomorphism set, possibly in a different order.

#ifndef SHAPCQ_TESTS_NAIVE_JOIN_H_
#define SHAPCQ_TESTS_NAIVE_JOIN_H_

#include <string>
#include <utility>
#include <vector>

#include "shapcq/data/database.h"
#include "shapcq/query/cq.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/util/check.h"

namespace shapcq {

// Tests whether `fact_args` matches `atom` under (and extending) `binding`:
// constants must equal, repeated variables must agree, and variables bound
// in `binding` must agree with their values. On success, returns true and
// extends `binding` with the atom's newly bound variables.
inline bool MatchAtom(const Atom& atom, const Tuple& fact_args, Binding* binding) {
  SHAPCQ_CHECK(static_cast<int>(fact_args.size()) == atom.arity());
  // Record locally-introduced bindings so we can roll back on mismatch.
  std::vector<std::string> introduced;
  for (int i = 0; i < atom.arity(); ++i) {
    const Term& term = atom.terms[static_cast<size_t>(i)];
    const Value& value = fact_args[static_cast<size_t>(i)];
    if (term.is_constant()) {
      if (term.constant() != value) {
        for (const std::string& name : introduced) binding->erase(name);
        return false;
      }
      continue;
    }
    auto [it, inserted] = binding->emplace(term.variable(), value);
    if (inserted) {
      introduced.push_back(term.variable());
    } else if (it->second != value) {
      for (const std::string& name : introduced) binding->erase(name);
      return false;
    }
  }
  return true;
}

class NaiveJoin {
 public:
  NaiveJoin(const ConjunctiveQuery& q, const Database& db) : q_(q), db_(db) {}

  std::vector<Homomorphism> Run() {
    results_.clear();
    Binding binding;
    std::vector<FactId> used(q_.atoms().size(), -1);
    std::vector<bool> done(q_.atoms().size(), false);
    Recurse(&binding, &used, &done, 0);
    return std::move(results_);
  }

 private:
  int PickNextAtom(const Binding& binding, const std::vector<bool>& done) {
    int best = -1;
    long best_score = -1;
    for (int i = 0; i < static_cast<int>(q_.atoms().size()); ++i) {
      if (done[static_cast<size_t>(i)]) continue;
      const Atom& atom = q_.atoms()[static_cast<size_t>(i)];
      long unbound = 0;
      for (const Term& term : atom.terms) {
        if (term.is_variable() && binding.count(term.variable()) == 0) {
          ++unbound;
        }
      }
      long candidates =
          static_cast<long>(db_.FactsOf(atom.relation).size());
      long score = candidates * (unbound + 1);
      if (best == -1 || score < best_score) {
        best = i;
        best_score = score;
      }
    }
    return best;
  }

  void Recurse(Binding* binding, std::vector<FactId>* used,
               std::vector<bool>* done, size_t depth) {
    if (depth == q_.atoms().size()) {
      Homomorphism hom;
      hom.binding = *binding;
      hom.answer.reserve(q_.head().size());
      for (const std::string& head_var : q_.head()) {
        auto it = binding->find(head_var);
        SHAPCQ_CHECK(it != binding->end());
        hom.answer.push_back(it->second);
      }
      hom.used_facts = *used;
      results_.push_back(std::move(hom));
      return;
    }
    int atom_index = PickNextAtom(*binding, *done);
    SHAPCQ_CHECK(atom_index >= 0);
    const Atom& atom = q_.atoms()[static_cast<size_t>(atom_index)];
    (*done)[static_cast<size_t>(atom_index)] = true;
    for (FactId fact_id : db_.FactsOf(atom.relation)) {
      if (!db_.live(fact_id)) continue;
      Binding saved = *binding;
      if (MatchAtom(atom, db_.fact(fact_id).args, binding)) {
        (*used)[static_cast<size_t>(atom_index)] = fact_id;
        Recurse(binding, used, done, depth + 1);
        (*used)[static_cast<size_t>(atom_index)] = -1;
      }
      *binding = std::move(saved);
    }
    (*done)[static_cast<size_t>(atom_index)] = false;
  }

  const ConjunctiveQuery& q_;
  const Database& db_;
  std::vector<Homomorphism> results_;
};

inline std::vector<Homomorphism> EnumerateHomomorphismsNaive(
    const ConjunctiveQuery& q, const Database& db) {
  NaiveJoin join(q, db);
  return join.Run();
}

}  // namespace shapcq

#endif  // SHAPCQ_TESTS_NAIVE_JOIN_H_
