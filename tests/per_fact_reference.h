// The per-fact reference for one row of SolverSession::ComputeAll: the
// engine the row's label names, run for that one fact. Per-fact Compute is
// itself a row of ComputeAll, so differentials that check the batch
// against single facts compare it with this instead:
//  * an engine with a sum_k: the fact-level identity of Section 3.2
//    (ScoreViaSumK over the engine's series);
//  * "monte-carlo": the fact's estimate from MonteCarloShapley or
//    MonteCarloBanzhaf;
//  * "brute-force", and an engine without a sum_k (the closed forms): the
//    fact's own subset sweep (BruteForceScore).
// Header-only; shared by the tests and bench/bench_compute_all.cc.

#ifndef SHAPCQ_TESTS_PER_FACT_REFERENCE_H_
#define SHAPCQ_TESTS_PER_FACT_REFERENCE_H_

#include <string>
#include <utility>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/monte_carlo.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/session.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

inline StatusOr<SolveResult> PerFactReference(const AggregateQuery& a,
                                              const Database& db, FactId fact,
                                              const std::string& label,
                                              const SolverOptions& options) {
  SolveResult result;
  result.algorithm = label;
  if (label == "monte-carlo") {
    StatusOr<MonteCarloResult> mc =
        options.score == ScoreKind::kShapley
            ? MonteCarloShapley(a, db, fact, options.monte_carlo)
            : MonteCarloBanzhaf(a, db, fact, options.monte_carlo);
    if (!mc.ok()) return mc.status();
    result.approximation = mc->estimate;
    result.std_error = mc->std_error;
    result.samples = mc->samples;
    return result;
  }
  const EngineProvider* engine = nullptr;
  for (const EngineProvider* candidate :
       EngineRegistry::Global().CandidatesFor(a)) {
    if (candidate->name == label) engine = candidate;
  }
  if (engine == nullptr && label != "brute-force") {
    return NotFoundError("no engine named '" + label + "' applies to " +
                         a.ToString());
  }
  StatusOr<Rational> score =
      engine != nullptr && engine->sum_k != nullptr
          ? ScoreViaSumK(a, db, fact, engine->sum_k, options)
          : BruteForceScore(a, db, fact, options.score, options);
  if (!score.ok()) return score.status();
  result.is_exact = true;
  result.exact = std::move(score).value();
  result.approximation = result.exact.ToDouble();
  return result;
}

}  // namespace shapcq

#endif  // SHAPCQ_TESTS_PER_FACT_REFERENCE_H_
