// Exact brute-force Shapley/Banzhaf computation (ground truth).
//
// Works for ANY aggregate query (any τ, any α, self-joins allowed) by
// enumerating subsets of the endogenous facts. Exponential in |D_n|;
// intended for testing and for the hardness-side benchmarks. The engine
// precomputes the homomorphism structure once (SubsetEvaluator) so that the
// per-subset evaluation is a cheap mask check.

#ifndef SHAPCQ_SHAPLEY_BRUTE_FORCE_H_
#define SHAPCQ_SHAPLEY_BRUTE_FORCE_H_

#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

// Largest |D_n| the brute-force engines accept. Past this horizon the
// session either solves exactly through the lineage-circuit engine (Sum,
// Count, CountDistinct, Max or Min with compilable provenance,
// lineage/engine.h) or samples; under kExactOnly it returns a structured
// status naming this limit, the player count, and the engines consulted
// (session.h).
inline constexpr int kBruteForceMaxPlayers = 26;

// sum_k(A, D) by subset enumeration.
StatusOr<SumKSeries> BruteForceSumK(const AggregateQuery& a,
                                    const Database& db,
                                    const SolverOptions& options = {});

// Score of one fact by direct subset enumeration of D_n \ {f} (uses a single
// homomorphism precomputation, so cheaper than two BruteForceSumK calls).
StatusOr<Rational> BruteForceScore(const AggregateQuery& a, const Database& db,
                                   FactId fact,
                                   ScoreKind kind = ScoreKind::kShapley);

// Scores of all endogenous facts in one subset sweep.
StatusOr<std::vector<std::pair<FactId, Rational>>> BruteForceScoreAll(
    const AggregateQuery& a, const Database& db,
    ScoreKind kind = ScoreKind::kShapley);

// Shapley value straight from the permutation definition (O(n!)); used to
// cross-validate the subset formula on tiny instances. Requires |D_n| <= 9.
StatusOr<Rational> BruteForceShapleyByPermutations(const AggregateQuery& a,
                                                   const Database& db,
                                                   FactId fact);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_BRUTE_FORCE_H_
