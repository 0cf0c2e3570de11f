// Min and Max over all-hierarchical CQs (Section 4.2, Appendix C), with
// the Section 7.3 extension to monotone-monoid value functions.
//
// Instantiates the generic algorithm of Figure 2 with the data structure
// P[Q', D'](a, k) = number of k-subsets E of D'_n such that
// max (τ ∘ Q')(E ∪ D'_x) = a, kept sparse: only the values some subset
// attains. combine_∪ composes maxima over disjoint sub-databases;
// combine_× folds the per-factor maxima with τ's monoid, since for a
// non-decreasing ⊗
//
//   max over Q1 × Q2 of (v1 ⊗ v2) = (max v1) ⊗ (max v2).
//
// A localized τ is the case where every τ-variable sits in one atom, so at
// most one factor of a cross product carries a value and the fold is
// trivial. Min runs the same DP on negated values: Min(B) = −Max(−B), and
// negation turns a min-fold into a max-fold.

#ifndef SHAPCQ_SHAPLEY_MIN_MAX_H_
#define SHAPCQ_SHAPLEY_MIN_MAX_H_

#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

// sum_k series for A = Min ∘ τ ∘ Q or Max ∘ τ ∘ Q. Returns UNSUPPORTED
// unless the query is self-join-free and all-hierarchical and τ is either
// localized on some atom of Q or a monoid fold (MakeMonoidTau) whose
// monoid suits the aggregate: plus or maxof for Max, plus or minof for
// Min.
StatusOr<SumKSeries> MinMaxSumK(const AggregateQuery& a, const Database& db,
                                const SolverOptions& options = {});

// Batched all-facts scorer with the same gates as MinMaxSumK. A localized
// τ runs the threshold group games through the group driver on lineage
// circuits (linearity.h). A monoid τ, or a threshold group whose circuit
// exceeds options.lineage's budget, runs one leave-one-out pass of the DP
// instead: it yields every fact's derived database F (fact exogenous),
// which ScoreFactsByIdentity (score.h) turns into scores — G from the
// partition identity, null players an exact 0, facts sharded over
// options.num_threads. Either way the values are bitwise-identical to
// per-fact ScoreViaSumK for every thread count.
StatusOr<std::vector<std::pair<FactId, Rational>>> MinMaxScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options = {});

class EngineRegistry;

// Registers the "min-max/all-hierarchical-dp" provider (with the batched
// scorer).
void RegisterMinMaxEngine(EngineRegistry& registry);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_MIN_MAX_H_
