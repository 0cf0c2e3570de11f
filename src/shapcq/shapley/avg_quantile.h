// Avg and Qnt_q over q-hierarchical CQs (Section 5.1, Appendix D).
//
// Instantiates the generic algorithm with the quintuple data structure
//
//   P[Q', D'](a, k, ℓ<, ℓ=, ℓ>) = #{ E ∈ (D'_n choose k) :
//       the bag (τ ∘ Q')(E ∪ D'_x) has exactly ℓ= copies of a,
//       ℓ< elements < a and ℓ> elements > a },
//
// for anchors a over the τ-values of the full query's answers. Free root
// variables keep the answer sets of the slices disjoint (the quintuples
// add); cross products multiply the bag by the partner's answer count; the
// "non-R" side uses answer-count distributions (answer_counts.h). The final
// series follow the paper's formulas:
//
//   sum_k(Avg)   = Σ_a Σ_ℓ  a · ℓ= / (ℓ< + ℓ= + ℓ>) · P(a, k, ℓ)
//   sum_k(Qnt_q) = Σ_a Σ_ℓ  a · f_q(ℓ<, ℓ=, ℓ>)      · P(a, k, ℓ).

#ifndef SHAPCQ_SHAPLEY_AVG_QUANTILE_H_
#define SHAPCQ_SHAPLEY_AVG_QUANTILE_H_

#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

// sum_k series for A = Avg ∘ τ ∘ Q or Qnt_q ∘ τ ∘ Q. Returns UNSUPPORTED
// unless the query is self-join-free and q-hierarchical and τ is localized
// on some atom of Q. The quintuple counts (avg_quantile_dp.h) run on
// CountValue (fixed-width fast path, escaping to BigInt on overflow);
// arithmetic is exact in either representation, so results are
// bitwise-identical to a pure-BigInt instantiation of the same DP.
StatusOr<SumKSeries> AvgQuantileSumK(const AggregateQuery& a,
                                     const Database& db,
                                     const SolverOptions& options = {});

// The paper's f_q(ℓ<, ℓ=, ℓ>): the contribution (0, 1/2 or 1) of the anchor
// to the q-quantile of a bag with that profile. Exposed for testing.
Rational QuantileContribution(const Rational& q, int64_t less, int64_t equal,
                              int64_t greater);

// Scores every endogenous fact, bitwise-equal to per-fact ScoreViaSumK over
// AvgQuantileSumK and failing exactly where it fails. When the DP splits
// at a free root variable, the per-root-value blocks are independent: one
// pass solves each block over D (polling the deadline before each block)
// and folds them, and F_f re-solves only f's block next to the fold
// divided by that block. A Boolean head, a τ bound from the start, a
// disconnected query, or an empty answer set takes ScoreAllViaSumK.
StatusOr<std::vector<std::pair<FactId, Rational>>> AvgQuantileScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options);

class EngineRegistry;

// Registers the "avg-quantile/q-hierarchical-dp" provider.
void RegisterAvgQuantileEngine(EngineRegistry& registry);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_AVG_QUANTILE_H_
