// Registry of exact Shapley engine providers.
//
// Each provider wraps one exact algorithm (a sum_k engine in the sense of
// Section 3.2, and/or direct per-fact scorers) together with a cheap,
// database-independent applicability gate and a preference priority. The
// solver façade asks the registry for the candidates applicable to an
// aggregate query instead of hard-coding the dispatch table, so new engines
// (new aggregates, new special cases, closed forms) plug in by registering
// a provider — without touching the solver.
//
// Providers may still return UNSUPPORTED from their entry points: `applies`
// is a shape gate over the aggregate query, not a completeness promise
// (e.g. the q-hierarchy of the query or the localization of τ is checked by
// the engine itself, and some providers also inspect the database).
//
// Compiled AttributionPlans (plan.h) snapshot CandidatesFor at compile
// time: a provider registered afterwards is picked up by new compilations
// but not retrofitted into already-cached plans — call
// PlanCache::Global().Clear() to recompile against the grown registry.
// Provider pointers stay valid forever (the registry never removes), so
// cached chains never dangle.

#ifndef SHAPCQ_SHAPLEY_ENGINE_REGISTRY_H_
#define SHAPCQ_SHAPLEY_ENGINE_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

// Direct per-fact score (e.g. a closed form that never goes through
// sum_k). Receives the session's SolverOptions — options.score selects the
// score kind, and resource-budgeted engines (lineage-circuit) read their
// budgets from it, so the per-fact and batched paths obey the same caps.
// Per-fact calls are already fanned out by the session, so engines must
// not spawn their own workers here.
using ScoreOneFn = std::function<StatusOr<Rational>(
    const AggregateQuery&, const Database&, FactId, const SolverOptions&)>;

// Batched all-facts scorer: shares per-(query, database) work — answer
// enumeration, relevance splits, DP scaffolding — across every endogenous
// fact. Must return one entry per endogenous fact, ascending by FactId,
// with exactly the values the per-fact path would produce, and must fail
// exactly where the per-fact path fails: SolverSession::ComputeAll treats
// a failed batch as final for the engine. Receives the session's
// SolverOptions so it can shard internally over options.num_threads
// (ScoreKind comes from options.score); sharding must not change any
// value — exact engines stay bitwise-identical for every thread count.
using ScoreAllFn = std::function<StatusOr<std::vector<std::pair<FactId, Rational>>>(
    const AggregateQuery&, const Database&, const SolverOptions&)>;

// SolverSession::ComputeAll batches every provider: score_all when set,
// else ScoreAllViaSumK (score.h) over sum_k. A failed batch is final for
// the provider, so per-fact sweeps run only for providers with score_one
// alone (closed forms, custom scorers). Compute (one fact) prefers
// score_one over sum_k.
struct EngineProvider {
  std::string name;
  // Preference order: lower priorities are tried first; ties keep
  // registration order.
  int priority = 100;
  // Database-independent applicability gate over the aggregate query.
  std::function<bool(const AggregateQuery&)> applies;
  // sum_k(A, D') series (Section 3.2); null for providers that only score
  // directly (closed forms).
  SumKEngine sum_k;
  // Optional direct per-fact scorer: Compute uses it instead of sum_k;
  // ComputeAll sweeps it only for providers without a batch.
  ScoreOneFn score_one;
  // Optional batched scorer; ComputeAll prefers it to the generic batch
  // over sum_k.
  ScoreAllFn score_all;
};

class EngineRegistry {
 public:
  // The process-wide registry, pre-populated with the built-in engines
  // (sum/count, min/max, count-distinct + injective rewrite, avg/quantile,
  // gated product, has-duplicates, closed forms). Registration of custom
  // providers is not thread-safe against concurrent solves.
  static EngineRegistry& Global();

  EngineRegistry() = default;

  void Register(EngineProvider provider);

  // Providers applicable to `a`, ordered by (priority, registration order).
  // Pointers stay valid for the registry's lifetime.
  std::vector<const EngineProvider*> CandidatesFor(
      const AggregateQuery& a) const;

 private:
  std::vector<std::unique_ptr<EngineProvider>> providers_;
};

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_ENGINE_REGISTRY_H_
