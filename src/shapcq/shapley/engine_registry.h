// Registry of exact Shapley engine providers.
//
// Each provider wraps one exact algorithm (a sum_k engine in the sense of
// Section 3.2, and/or a batched scorer of every fact) together with a cheap,
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

// Batched all-facts scorer: shares per-(query, database) work — answer
// enumeration, relevance splits, τ-value multisets, DP scaffolding —
// across every endogenous fact. Scores every endogenous fact or none: it
// returns one entry per endogenous fact, ascending by FactId, or fails, and
// SolverSession then moves every fact to the next engine. When the
// provider also has a sum_k, the values must be the per-fact ScoreViaSumK
// values (the reference the tests hold every batch to). Receives the
// session's SolverOptions:
// options.score selects the score kind, resource-budgeted engines
// (lineage-circuit) read their budgets from it, and the batch may shard
// internally over options.num_threads — sharding must not change any
// value, so exact engines stay bitwise-identical for every thread count.
using ScoreAllFn = std::function<StatusOr<std::vector<std::pair<FactId, Rational>>>(
    const AggregateQuery&, const Database&, const SolverOptions&)>;

// Every engine is a batch. SolverSession::ComputeAll runs score_all when
// set, else ScoreAllViaSumK (score.h) over sum_k; Compute (one fact) reads
// its row of ComputeAll, so no engine is ever asked for a single fact.
struct EngineProvider {
  std::string name;
  // Preference order: lower priorities are tried first; ties keep
  // registration order.
  int priority = 100;
  // Database-independent applicability gate over the aggregate query.
  std::function<bool(const AggregateQuery&)> applies;
  // sum_k(A, D') series (Section 3.2); null for providers that only score
  // facts directly (closed forms).
  SumKEngine sum_k;
  // Optional batched scorer; preferred to the generic batch over sum_k.
  ScoreAllFn score_all;
};

class EngineRegistry {
 public:
  // The process-wide registry, pre-populated with the built-in engines
  // (sum/count, min/max, count-distinct + injective rewrite, avg/quantile,
  // gated product, has-duplicates, closed forms, lineage circuits). Its
  // body — the manifest of built-in engines — lives in
  // engines/builtin_engines.cc, a composition root above shapley/ and
  // lineage/. Registration of custom providers is not thread-safe against
  // concurrent solves.
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
