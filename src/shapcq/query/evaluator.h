// CQ evaluation: answers and homomorphisms.
//
// The evaluator computes Q(D) under standard CQ semantics and can also
// enumerate all homomorphisms together with the facts they use. The Shapley
// brute-force engine relies on the homomorphism list: an answer is alive in
// a sub-database E ∪ D_x iff some homomorphism producing it uses only facts
// of E ∪ D_x, which reduces to a subset check over endogenous fact sets.

#ifndef SHAPCQ_QUERY_EVALUATOR_H_
#define SHAPCQ_QUERY_EVALUATOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "shapcq/data/database.h"
#include "shapcq/data/value.h"
#include "shapcq/query/cq.h"

namespace shapcq {

// Variable binding built during evaluation.
using Binding = std::unordered_map<std::string, Value>;

// One homomorphism from a CQ to a database.
struct Homomorphism {
  Binding binding;
  Tuple answer;                  // head variables under `binding`
  std::vector<FactId> used_facts;  // one per atom, in atom order
};

// Computes the answer set Q(D) (distinct tuples, in some deterministic
// order).
std::vector<Tuple> Evaluate(const ConjunctiveQuery& q, const Database& db);

// The dirty-answer set of a mutation: the distinct answers of Q with at
// least one homomorphism that uses `fact`. Computed by re-running the
// indexed join once per atom of the fact's relation with that atom pinned
// to the single candidate `fact` (the join is seeded from the delta fact;
// the full answer set is never re-enumerated). For deletions call this
// BEFORE tombstoning the fact — the pinned join needs it live. Same
// ordering semantics as Evaluate (sorted distinct tuples).
std::vector<Tuple> AnswersTouching(const ConjunctiveQuery& q,
                                   const Database& db, FactId fact);

// Id-level enumeration result: every homomorphism as a dense ValueId
// binding (one slot per query variable) plus the facts it uses. This is
// the raw output of the interned join; consumers that only need answers or
// used-fact sets (GroupHomomorphismsByAnswer, and through it
// SubsetEvaluator, MonteCarloGame and the batch engines) work on it
// directly and skip the string-keyed Binding materialization.
struct IdHomomorphisms {
  std::vector<std::string> slot_names;          // slot -> variable name
  std::vector<int> head_slots;                  // head position -> slot
  std::vector<std::vector<ValueId>> bindings;   // per hom, by slot
  std::vector<std::vector<FactId>> used_facts;  // per hom, in atom order
};

// Enumerates all homomorphisms from Q to D over interned ids: candidates
// per atom come from galloping intersection of the database's dense
// posting lists over the atom's determined (constant or already-bound)
// positions; Values are never touched during the join.
IdHomomorphisms EnumerateHomomorphismIds(const ConjunctiveQuery& q,
                                         const Database& db);

// One answer of Q over D with the facts each of its homomorphisms uses.
struct AnswerHomomorphisms {
  Tuple answer;
  // Per homomorphism producing `answer`: its used facts, one per atom in
  // atom order (a fact repeats when several atoms match it).
  std::vector<std::vector<FactId>> used_facts;
};

// The homomorphisms of Q over D grouped by answer, in one indexed join.
// Answers are distinct and sorted by tuple (Evaluate's order), so every
// per-answer engine walks one canonical answer layout.
std::vector<AnswerHomomorphisms> GroupHomomorphismsByAnswer(
    const ConjunctiveQuery& q, const Database& db);

// Enumerates all homomorphisms from Q to D (id join underneath; bindings
// are materialized back to Values at the end).
std::vector<Homomorphism> EnumerateHomomorphisms(const ConjunctiveQuery& q,
                                                 const Database& db);

// Evaluates Q over the sub-database D_x ∪ E where E is given as a set of
// endogenous fact ids (bitmask over `endo_index`, see below). Exogenous
// facts of `db` are always available. `endo_position[fact_id]` gives the
// bit position of an endogenous fact or -1. Used by brute-force engines.
class SubsetEvaluator {
 public:
  SubsetEvaluator(const ConjunctiveQuery& q, const Database& db);

  // Number of endogenous facts (bit positions).
  int num_players() const { return num_players_; }
  // The bit position of endogenous fact `id` in masks; -1 for exogenous.
  int PlayerIndex(FactId id) const;
  // Fact id of a player bit.
  FactId PlayerFact(int player) const { return players_[static_cast<size_t>(player)]; }

  // Distinct answers of Q over D_x ∪ E for the player subset `mask`.
  // Deterministic order (by answer tuple).
  std::vector<Tuple> AnswersFor(uint64_t mask) const;

  struct AnswerInfo {
    Tuple answer;
    // Minimal endogenous-support masks: the answer is alive iff some mask
    // is a subset of the player mask.
    std::vector<uint64_t> supports;
  };

  // All potential answers with their minimal supports (for engines that
  // precompute per-answer data, e.g. τ values).
  const std::vector<AnswerInfo>& answers() const { return answers_; }

 private:
  int num_players_ = 0;
  std::vector<FactId> players_;
  std::vector<int> player_index_;  // by fact id
  std::vector<AnswerInfo> answers_;
};

}  // namespace shapcq

#endif  // SHAPCQ_QUERY_EVALUATOR_H_
