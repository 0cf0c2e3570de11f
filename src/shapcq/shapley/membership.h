// Satisfaction-count dynamic program for Boolean hierarchical CQs.
//
// For a Boolean self-join-free hierarchical CQ Q and a database D, computes
//
//   c_k = #{ E ⊆ D_n, |E| = k : Q(E ∪ D_x) is true },   k = 0..|D_n|,
//
// by the classic hierarchical recursion (root-variable split / cross
// product / ground base case) — the algorithm of Livshits, Bertossi,
// Kimelfeld and Sebag underlying the paper's Theorem 3.1 and reused by the
// CDist reduction (Lemma 4.3) and the Sum/Count engine.
//
// The Shapley value of a fact for *membership* (the Boolean query as a 0/1
// utility) follows from the counts of F (f exogenous) and G (f removed).

#ifndef SHAPCQ_SHAPLEY_MEMBERSHIP_H_
#define SHAPCQ_SHAPLEY_MEMBERSHIP_H_

#include <vector>

#include "shapcq/data/database.h"
#include "shapcq/query/cq.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/shapley/score.h"
#include "shapcq/util/bigint.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/status.h"

namespace shapcq {

// Counts over ALL endogenous facts of `db`, length |D_n| + 1: the per-fact
// sum_k series need the full player universe, so facts irrelevant to q pad
// the counts binomially here. Requires: q Boolean (or treated as Boolean),
// self-join-free, hierarchical w.r.t. all its variables. Returns
// UNSUPPORTED otherwise.
StatusOr<std::vector<BigInt>> SatisfactionCounts(const ConjunctiveQuery& q,
                                                 const Database& db);

// Low-level entry point used by the per-aggregate dynamic programs: counts
// over exactly the endogenous facts of `facts`, length (their number) + 1,
// which must all match their atom of `q` (no relevance splitting, no
// padding — the batched Sum/Count scorer's budget fallback passes one
// answer's facts and scores them at that player count). `q` is treated as
// Boolean and must be self-join-free and hierarchical; aborts otherwise.
std::vector<BigInt> SatisfactionCountsOnSubset(const ConjunctiveQuery& q,
                                               const FactSubset& facts,
                                               Combinatorics* comb);

// Shapley/Banzhaf value of `fact` for the Boolean membership game of `q`.
StatusOr<Rational> MembershipScore(const ConjunctiveQuery& q,
                                   const Database& db, FactId fact,
                                   ScoreKind kind = ScoreKind::kShapley);

// The paper's original "membership" task (Figure 1, outermost box): the
// contribution of `fact` to a specific answer tuple of a non-Boolean query.
// Binds the head of `q` to `answer` and scores the resulting Boolean game;
// polynomial exactly when q is ∃-hierarchical. `answer` must have arity
// ar(q).
StatusOr<Rational> AnswerMembershipScore(const ConjunctiveQuery& q,
                                         const Database& db,
                                         const Tuple& answer, FactId fact,
                                         ScoreKind kind = ScoreKind::kShapley);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_MEMBERSHIP_H_
