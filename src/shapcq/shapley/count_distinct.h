// CountDistinct over all-hierarchical CQs (Section 4.1, Lemma 4.3).
//
// CDist decomposes into indicator games: CDist(B) = Σ_a χ_a(B), and the
// indicator game for value a is the Boolean membership game over the
// database D_a obtained by deleting the facts of the localization relation
// whose τ-value differs from a. Hence
//
//   sum_k(CDist ∘ τ ∘ Q, D) = Σ_a pad(c(Q_bool, D_a), removed_a)[k],
//
// where c are satisfaction counts and pad re-inserts the removed endogenous
// facts as never-satisfying padding. Read as linearity, the same reduction
// is one group game per value (shapley/linearity.h), which is how the
// batched scorer runs it.

#ifndef SHAPCQ_SHAPLEY_COUNT_DISTINCT_H_
#define SHAPCQ_SHAPLEY_COUNT_DISTINCT_H_

#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

// sum_k series for A = CDist ∘ τ ∘ Q. Returns UNSUPPORTED unless the
// aggregate is CountDistinct, the query is self-join-free and
// all-hierarchical, and τ is localized on some atom of Q.
StatusOr<SumKSeries> CountDistinctSumK(const AggregateQuery& a,
                                       const Database& db,
                                       const SolverOptions& options = {});

// Batched all-facts scorer with the same gates as CountDistinctSumK: one
// group game per τ-value (the answers with that value, weight 1) through
// the group driver on lineage circuits (linearity.h). If a value's circuit
// exceeds options.lineage's budget, the batch falls back to the identity
// scorer over CountDistinctSumK (ScoreAllViaSumK). Values are
// bitwise-identical to per-fact ScoreViaSumK for every thread count.
StatusOr<std::vector<std::pair<FactId, Rational>>> CountDistinctScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options = {});

class EngineRegistry;

// Registers "count-distinct/boolean-reduction" plus the Section 7.1
// "count-distinct/injective-count-rewrite" fallback (unary head, injective
// τ: CDist coincides with Count on the larger ∃-hierarchical class).
void RegisterCountDistinctEngines(EngineRegistry& registry);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_COUNT_DISTINCT_H_
