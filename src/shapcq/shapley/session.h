// SolverSession: executes a compiled AttributionPlan against one Database.
//
// The solving stack is split in two layers (plan.h):
//
//   * AttributionPlan — the immutable, database-independent layer compiled
//     once per query: classification, frontier verdict, the ordered engine
//     chain, and the query-side structural analysis. Shared across
//     databases and sessions through the fingerprint-keyed PlanCache.
//   * SolverSession — the thin executor binding a plan to a Database. It
//     owns only the per-(plan, db) state: the sampling structure
//     (MonteCarloGame: minimal supports, τ-ranks), built on first use.
//
// Every engine is a batch: it scores every endogenous fact or none.
// ComputeAll walks the plan's engine chain and the first batch that
// succeeds labels every fact — the engine's own scorer (e.g. the group
// games of Sum, Count, CountDistinct, Max and Min, or the closed forms'
// shared τ-value multiset), else the fact-level identity scorer over its
// sum_k. When no engine succeeds, kAuto falls back for all facts at once:
// one brute-force sweep of the subset lattice, or one Monte Carlo run
// (each sample walks one permutation or coalition).
//
// Equivalence contract: Compute(fact) is fact's row of ComputeAll — the
// same value, engine label, sampling telemetry and failure status — by
// construction, since ComputeAll is the only code that scores facts. The
// per-fact identity of Section 3.2 (ScoreViaSumK, score.h) stays the
// reference the tests compare each engine's batch against.
//
// A session borrows the database: it must outlive the session, and facts
// must not be added while the session is in use.

#ifndef SHAPCQ_SHAPLEY_SESSION_H_
#define SHAPCQ_SHAPLEY_SESSION_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/monte_carlo.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

struct SolveResult {
  bool is_exact = false;
  Rational exact;            // meaningful iff is_exact
  double approximation = 0;  // always set (exact value as double otherwise)
  std::string algorithm;     // human-readable engine name
  // Sampling telemetry, set by the Monte Carlo paths (0 when exact):
  // std_error is the sample standard error of the mean, so
  // approximation ± 1.96·std_error is the CLT 95% confidence interval the
  // provenance footer (report.h) prints.
  double std_error = 0;
  int64_t samples = 0;
};

class SolverSession {
 public:
  // Binds a precompiled plan to `db` (the serving path: compile once,
  // execute against many databases).
  SolverSession(std::shared_ptr<const AttributionPlan> plan,
                const Database& db);
  // Convenience: fetches (or compiles) the Shapley-keyed plan through
  // PlanCache::Global().
  SolverSession(AggregateQuery a, const Database& db);

  const AttributionPlan& plan() const { return *plan_; }
  const AggregateQuery& aggregate_query() const {
    return plan_->aggregate_query();
  }
  const Database& database() const { return db_; }

  // Hierarchy class of the query (from the compiled plan).
  HierarchyClass classification() const { return plan_->classification(); }
  // Whether the query lies inside the aggregate's tractability frontier.
  bool inside_frontier() const { return plan_->inside_frontier(); }
  // Applicable engine providers, in preference order.
  const std::vector<const EngineProvider*>& engines() const {
    return plan_->engines();
  }
  // Name of the exact engine tried first, if any.
  StatusOr<std::string> ExactAlgorithmName() const {
    return plan_->ExactAlgorithmName();
  }

  // Compute, ComputeAll and ComputeSumKSeries return the plan's
  // INVALID_ARGUMENT status (AttributionPlan::status) for an invalid
  // aggregate query, before any engine or the sampler runs.
  //
  // Score of one live endogenous fact: its row of ComputeAll(options), so
  // it costs a whole batch. Any other id (tombstoned, exogenous or out of
  // range) is INVALID_ARGUMENT.
  StatusOr<SolveResult> Compute(FactId fact, const SolverOptions& options = {});

  // Scores of all endogenous facts, ascending by FactId: one engine batch
  // or one shared fallback for every fact. Under kExactOnly, total failure
  // returns a structured UNSUPPORTED status naming the player count (and
  // whether it exceeds the brute-force limit), the engines consulted, and
  // the first engine failure — so a query stranded outside every exact
  // engine is diagnosable instead of a bare per-engine message. When
  // options.cancelled fires (a serving deadline), the call returns a
  // structured kDeadlineExceeded status instead of starting the next
  // engine or fallback phase — callers degrade to a bounded
  // method=kMonteCarlo run (serve/server.h does exactly that).
  StatusOr<std::vector<std::pair<FactId, SolveResult>>> ComputeAll(
      const SolverOptions& options = {});

  // The raw sum_k series of the aggregate query over the database, from the
  // first applicable exact engine (brute force as last resort).
  StatusOr<SumKSeries> ComputeSumKSeries(
      const SolverOptions& options = {}) const;

 private:
  const AggregateQuery& a() const { return plan_->aggregate_query(); }

  // The first engine batch of the chain that succeeds, labelling every
  // endogenous fact; otherwise the first genuine engine error, or the
  // structured deadline status.
  StatusOr<std::vector<std::pair<FactId, SolveResult>>> ExactAll(
      const SolverOptions& options) const;
  // kAuto's fallback when no engine succeeds: brute force within its
  // player limit, Monte Carlo past it.
  SolverOptions FallbackOptions(const SolverOptions& options) const;
  StatusOr<std::vector<std::pair<FactId, SolveResult>>> BruteForceAll(
      const SolverOptions& options) const;
  // Every endogenous fact's estimate from one run of the session's
  // MonteCarloGame (built on first use). The run depends only on the score
  // kind, seed and sample budget, never on the thread count.
  StatusOr<std::vector<std::pair<FactId, SolveResult>>> MonteCarloAll(
      const SolverOptions& options);

  std::shared_ptr<const AttributionPlan> plan_;
  const Database& db_;
  std::unique_ptr<MonteCarloGame> monte_carlo_game_;
};

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_SESSION_H_
