// Exact brute-force Shapley/Banzhaf (ground truth) for ANY aggregate query
// (any τ, any α, self-joins allowed) by enumerating subsets of the
// endogenous facts: exponential in |D_n|, for tests, hardness-side
// benchmarks and kAuto's fallback. One sweep evaluates each subset once and
// keeps per-size sums (Bienvenu et al., *When is Shapley Value Computation
// a Matter of Counting?*): sum_k, and per tracked fact the sums over the
// subsets that hold it, from which its score follows in closed form. Memory
// is O(threads·n²) Rationals, never O(2^n). Subsets run in fixed chunks
// over options.num_threads workers, bitwise-identical at every thread
// count; options.cancelled is polled before every chunk, and a fired hook
// fails the call whole with kDeadlineExceeded.

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

// Largest |D_n| accepted. Past it the session solves through the
// lineage-circuit engine (engines/lineage_engine.h) or samples.
inline constexpr int kBruteForceMaxPlayers = 26;

// sum_k(A, D): the sweep tracking no fact.
StatusOr<SumKSeries> BruteForceSumK(const AggregateQuery& a,
                                    const Database& db,
                                    const SolverOptions& options = {});

// Score of one fact (the sweep tracks it alone); reads num_threads and
// cancelled from `options`.
StatusOr<Rational> BruteForceScore(const AggregateQuery& a, const Database& db,
                                   FactId fact,
                                   ScoreKind kind = ScoreKind::kShapley,
                                   const SolverOptions& options = {});

// options.score of every endogenous fact, ascending, from one sweep.
StatusOr<std::vector<std::pair<FactId, Rational>>> BruteForceScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options = {});

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_BRUTE_FORCE_H_
