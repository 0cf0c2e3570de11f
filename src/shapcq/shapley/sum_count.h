// Sum and Count over ∃-hierarchical CQs (Livshits et al., reused as the
// baseline "prior work" engine; Theorem 3.1 context).
//
// By linearity, sum_k(Sum ∘ τ ∘ Q, D) = Σ_{t ∈ Q(D)} τ(t) · c_k(Q_t, D)
// where Q_t is the Boolean query asking whether t remains an answer, and
// c_k are its satisfaction counts. Q_t is hierarchical exactly when Q is
// ∃-hierarchical, so each term is polynomial-time. Count is Sum with τ ≡ 1.
// Unlike the other engines, this one supports arbitrary (non-localized)
// polynomial-time value functions (Section 7.3).

#ifndef SHAPCQ_SHAPLEY_SUM_COUNT_H_
#define SHAPCQ_SHAPLEY_SUM_COUNT_H_

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

// sum_k series for A = Sum ∘ τ ∘ Q or Count ∘ τ ∘ Q. Returns UNSUPPORTED if
// the aggregate is neither, the query has self-joins, or the query is not
// ∃-hierarchical.
StatusOr<SumKSeries> SumCountSumK(const AggregateQuery& a, const Database& db,
                                  const SolverOptions& options = {});

// Batched all-facts scorer: the value every endogenous fact gets from the
// per-fact sum_k path, computed per answer through the group driver
// (linearity.h). Each answer t's Boolean query Q_t is scored over only the
// facts t's homomorphisms use (its m_t endogenous facts are the players,
// at m_t-player weights; every other fact is a null player of Q_t's game)
// by one counting pass over its lineage circuit. An answer whose circuit
// exceeds options.lineage's budget falls back to the satisfaction-count
// DP over those facts plus one per player with it removed. Nothing is
// padded to all n endogenous facts. Answers shard over
// options.num_threads workers, so the exact values are identical to the
// per-fact path and invariant under the thread count.
StatusOr<std::vector<std::pair<FactId, Rational>>> SumCountScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options = {});

class EngineRegistry;

// Registers the "sum-count/linearity" provider (with the batched scorer).
void RegisterSumCountEngine(EngineRegistry& registry);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_SUM_COUNT_H_
