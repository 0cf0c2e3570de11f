// Boolean lineage extraction: per-answer provenance as monotone DNF.
//
// For an answer t of Q over D, the Boolean lineage of t maps a subset
// E ⊆ D_n to "t ∈ Q(E ∪ D_x)": a monotone DNF whose clauses are the
// endogenous fact sets of the homomorphisms producing t. The lineage is the
// bridge to knowledge compilation (circuit.h): exact Shapley computation on
// the hardness side of the frontier costs time polynomial in the size of a
// decision-DNNF of the lineage (Deutch, Frost, Kimelfeld & Monet;
// Bienvenu, Figueira & Lafourcade reduce it further to model counting), so
// the cost tracks lineage *structure* rather than the player count.
//
// Extraction rides the indexed id join, grouped by answer
// (GroupHomomorphismsByAnswer, query/evaluator.h — the same grouping the
// sum-count engine uses): each homomorphism's used facts are projected to
// endogenous player indices, deduplicated per clause (one atom may match a
// fact twice under self-joins), and reduced to the minimal supports per
// answer (non-minimal clauses are logically redundant in a monotone DNF
// and only blow up compilation).

#ifndef SHAPCQ_LINEAGE_LINEAGE_H_
#define SHAPCQ_LINEAGE_LINEAGE_H_

#include <vector>

#include "shapcq/data/database.h"
#include "shapcq/query/cq.h"

namespace shapcq {

// One answer with its minimal-support DNF over player indices.
struct AnswerLineage {
  Tuple answer;
  // Minimal endogenous supports: each clause is a sorted, deduplicated
  // vector of player indices; no clause contains another. An empty clause
  // (exogenous-only support) makes the answer unconditionally alive and is
  // then the only clause.
  std::vector<std::vector<int>> clauses;
};

// The full lineage of Q over D: the player universe plus one DNF per
// distinct answer. Players are the endogenous facts in ascending FactId
// order; answers are sorted by answer tuple. Both orders are deterministic,
// so every consumer (engine sharding, tests) sees one canonical layout.
struct LineageSet {
  std::vector<FactId> players;     // player index -> fact id (ascending)
  std::vector<int> player_index;   // fact id -> player index, -1 exogenous
  std::vector<AnswerLineage> answers;

  int num_players() const { return static_cast<int>(players.size()); }
};

// Extracts the lineage of every answer of Q over D in one indexed join.
LineageSet ExtractLineage(const ConjunctiveQuery& q, const Database& db);

}  // namespace shapcq

#endif  // SHAPCQ_LINEAGE_LINEAGE_H_
