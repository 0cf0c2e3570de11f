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
// ComputeAll batches across facts: engines with a batched scorer (e.g.
// the group games of Sum, Count, CountDistinct, Max and Min) share
// per-group work across every fact; the brute-force
// fallback sweeps the subset lattice once for all facts; the Monte Carlo
// fallback scores every fact from one sampling run (each sample walks one
// permutation or coalition); and per-fact engine runs fan out over a
// thread pool with deterministic result order.
//
// Equivalence contract: ComputeAll produces exactly the values of calling
// Compute per fact. Exact paths are bitwise-identical (exact rational
// arithmetic; batching only reorders summations), every Monte Carlo path
// reads the same seeded block run, so even estimates match, and an engine that
// fails for some facts keeps its successes — only the failing facts move
// to the next engine or fallback, exactly like per-fact calls. One carve-
// out: a custom engine registering ONLY a batched scorer (no score_one /
// sum_k) is reachable from ComputeAll but not from per-fact Compute; every
// built-in engine has a per-fact entry point, so the paths agree for all
// of them.
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
  // Score of one endogenous fact. Under kExactOnly, total failure returns
  // a structured UNSUPPORTED status naming the player count (and whether
  // it exceeds the brute-force limit), the engines consulted, and the
  // first engine failure — so a query stranded outside every exact engine
  // is diagnosable instead of a bare per-engine message.
  StatusOr<SolveResult> Compute(FactId fact, const SolverOptions& options = {});

  // Scores of all endogenous facts, ascending by FactId. The fast path:
  // batched engines, shared fallbacks, thread-pool fan-out. kExactOnly
  // failures carry the same structured status as Compute. When
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

  StatusOr<SolveResult> ComputeExact(FactId fact, const SolverOptions& options,
                                     Status* first_failure) const;
  // Walks the engine chain over `facts`: each fact keeps the first engine
  // that scores it and only failing facts move on. Solved facts land in
  // (*results)[i]; the returned indices (into `facts`, ascending) are the
  // facts no engine could solve. `first_failure` records the first genuine
  // engine error.
  std::vector<size_t> ExactSweep(const std::vector<FactId>& facts,
                                 const SolverOptions& options,
                                 std::vector<SolveResult>* results,
                                 Status* first_failure) const;
  StatusOr<std::vector<std::pair<FactId, SolveResult>>> BruteForceAll(
      const SolverOptions& options) const;
  StatusOr<std::vector<std::pair<FactId, SolveResult>>> MonteCarloAll(
      const SolverOptions& options);
  // Every endogenous fact's estimate from one run of the session's
  // MonteCarloGame (built on first use), aligned with
  // Database::EndogenousFacts(). The run depends only on the score kind,
  // seed and sample budget, so per-fact Compute, MonteCarloFor and
  // MonteCarloAll read the same estimates.
  StatusOr<std::vector<MonteCarloResult>> SampleAll(
      const SolverOptions& options);
  // Monte Carlo estimates for the endogenous facts at `indices`, written
  // to (*results)[i]: their entries of SampleAll, identical to per-fact
  // kMonteCarlo calls.
  Status MonteCarloFor(const std::vector<size_t>& indices,
                       const SolverOptions& options,
                       std::vector<SolveResult>* results);

  std::shared_ptr<const AttributionPlan> plan_;
  const Database& db_;
  std::unique_ptr<MonteCarloGame> monte_carlo_game_;
};

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_SESSION_H_
