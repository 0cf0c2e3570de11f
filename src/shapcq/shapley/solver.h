// ShapleySolver: the public façade of the library.
//
// Given an aggregate query A = α ∘ τ ∘ Q, the solver classifies Q against
// the paper's tractability frontiers (Figure 1), dispatches to the matching
// exact dynamic program, and falls back to brute force (small instances) or
// Monte Carlo sampling (approximation) outside the frontiers:
//
//   α               frontier (tractable for every localized τ)
//   ─────────────── ─────────────────────────────────────────
//   Sum, Count      ∃-hierarchical     [Livshits et al.]
//   Min, Max, CDist all-hierarchical   [Theorem 4.1]
//   Avg, Qnt_q      q-hierarchical     [Theorem 5.1]
//   Dup             sq-hierarchical    [Theorem 6.1]
//
// Localization-sensitive special cases (Proposition 7.3) are attempted
// before giving up: specific τ may be tractable outside the frontier.
//
// Dispatch is driven by the EngineRegistry (engine_registry.h): each exact
// algorithm registers a provider, so new engines plug in without touching
// this façade. The database-independent layer — classification, frontier
// verdict, engine chain — is compiled once per query into an
// AttributionPlan and reused across databases and calls through the
// fingerprint-keyed PlanCache (plan.h); a SolverSession (session.h) binds
// the plan to a database per call. Hold a session yourself to also
// amortize per-database state over many calls, or use ComputeAll, which
// batches all facts through one session.

#ifndef SHAPCQ_SHAPLEY_SOLVER_H_
#define SHAPCQ_SHAPLEY_SOLVER_H_

#include <string>
#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/shapley/monte_carlo.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/session.h"
#include "shapcq/util/status.h"

namespace shapcq {

// The most general hierarchy class on which `alpha` is tractable for every
// localized value function (Figure 1).
HierarchyClass TractabilityFrontier(const AggregateFunction& alpha);

// True iff `q` lies inside alpha's frontier (no self-joins and the required
// hierarchy property holds) — i.e., the Shapley value is polynomial-time
// for every localized τ.
bool IsInsideFrontier(const AggregateFunction& alpha,
                      const ConjunctiveQuery& q);

class ShapleySolver {
 public:
  explicit ShapleySolver(AggregateQuery a) : a_(std::move(a)) {}

  const AggregateQuery& aggregate_query() const { return a_; }

  // Every call below returns INVALID_ARGUMENT for an aggregate query that
  // ValidateAggregateQuery (aggregate.h) refuses.

  // Name of the exact engine that Auto would try first, if any.
  StatusOr<std::string> ExactAlgorithmName() const;

  // Score of one endogenous fact.
  StatusOr<SolveResult> Compute(const Database& db, FactId fact,
                                const SolverOptions& options = {}) const;

  // Scores of all endogenous facts: one SolverSession batches the shared
  // work (classification, engine selection, homomorphism supports, DP
  // scaffolding) across facts instead of rebuilding it n times.
  StatusOr<std::vector<std::pair<FactId, SolveResult>>> ComputeAll(
      const Database& db, const SolverOptions& options = {}) const;

  // The raw sum_k series of the aggregate query over `db`, from the first
  // applicable exact engine (brute force as last resort). Feeds
  // ExpectedValueFromSumK and SemivalueFromSumK.
  StatusOr<SumKSeries> ComputeSumKSeries(
      const Database& db, const SolverOptions& options = {}) const;

 private:
  AggregateQuery a_;
};

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_SOLVER_H_
