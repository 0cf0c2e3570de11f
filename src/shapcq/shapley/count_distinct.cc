#include "shapcq/shapley/count_distinct.h"

#include <set>

#include "shapcq/agg/value_function.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/shapley/dp_util.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/linearity.h"
#include "shapcq/shapley/membership.h"
#include "shapcq/shapley/sum_count.h"
#include "shapcq/util/check.h"
#include "shapcq/util/combinatorics.h"

namespace shapcq {

namespace {

// The gates of CountDistinctSumK, shared with the batched scorer so both
// fail identically; returns the localization atom.
StatusOr<int> CheckCountDistinctShape(const AggregateQuery& a) {
  if (a.alpha.kind() != AggKind::kCountDistinct) {
    return UnsupportedError("CountDistinctSumK handles CountDistinct only");
  }
  if (a.query.HasSelfJoin()) {
    return UnsupportedError("CountDistinct requires a self-join-free CQ");
  }
  if (!IsAllHierarchical(a.query)) {
    return UnsupportedError("CountDistinct requires an all-hierarchical CQ: " +
                            a.query.ToString());
  }
  std::vector<int> localization = LocalizationAtoms(a.query, *a.tau);
  if (localization.empty()) {
    return UnsupportedError("value function is not localized on any atom of " +
                            a.query.ToString());
  }
  return localization[0];
}

}  // namespace

StatusOr<SumKSeries> CountDistinctSumK(const AggregateQuery& a,
                                       const Database& db,
                                       const SolverOptions& /*options*/) {
  StatusOr<int> localization = CheckCountDistinctShape(a);
  if (!localization.ok()) return localization.status();
  const int atom_index = *localization;
  const std::string& relation =
      a.query.atoms()[static_cast<size_t>(atom_index)].relation;

  // The distinct values actually realized by answers.
  std::set<Rational> values;
  for (const Tuple& answer : Evaluate(a.query, db)) {
    values.insert(a.tau->Evaluate(answer));
  }

  Combinatorics comb;
  int n = db.num_endogenous();
  SumKSeries series(static_cast<size_t>(n) + 1);
  ConjunctiveQuery q_bool = a.query.AsBoolean();
  for (const Rational& value : values) {
    // D_value: remove localization-relation facts with a different τ-value.
    Database d_value;
    int removed_endogenous = 0;
    for (FactId id = 0; id < db.num_facts(); ++id) {
      if (!db.live(id)) continue;
      const Fact& fact = db.fact(id);
      if (fact.relation == relation &&
          EvaluateTauOnFact(a.query, atom_index, *a.tau, fact.args) != value) {
        if (fact.endogenous) ++removed_endogenous;
        continue;
      }
      d_value.AddFact(fact.relation, fact.args, fact.endogenous);
    }
    StatusOr<std::vector<BigInt>> counts = SatisfactionCounts(q_bool, d_value);
    if (!counts.ok()) return counts.status();
    std::vector<BigInt> padded =
        PadCounts(*counts, removed_endogenous, &comb);
    SHAPCQ_CHECK(static_cast<int>(padded.size()) == n + 1);
    for (int k = 0; k <= n; ++k) {
      series[static_cast<size_t>(k)] += Rational(padded[static_cast<size_t>(k)]);
    }
  }
  return series;
}

StatusOr<std::vector<std::pair<FactId, Rational>>> CountDistinctScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options) {
  StatusOr<int> localization = CheckCountDistinctShape(a);
  if (!localization.ok()) return localization.status();
  if (db.num_endogenous() == 0) {
    return std::vector<std::pair<FactId, Rational>>{};
  }
  StatusOr<std::vector<std::pair<FactId, Rational>>> scores =
      ScoreGroupsOnCircuits(a, db, GroupHomomorphismsByAnswer(a.query, db),
                            options);
  if (scores.ok() || scores.status().code() != StatusCode::kUnsupported) {
    return scores;
  }
  // A value group past the compile budget: the Boolean-reduction DP, fact
  // by fact through the identity scorer.
  return ScoreAllViaSumK(a, db, CountDistinctSumK, options);
}

void RegisterCountDistinctEngines(EngineRegistry& registry) {
  EngineProvider primary;
  primary.name = "count-distinct/boolean-reduction";
  primary.priority = 10;
  primary.applies = [](const AggregateQuery& a) {
    return a.alpha.kind() == AggKind::kCountDistinct;
  };
  primary.sum_k = CountDistinctSumK;
  primary.score_all = CountDistinctScoreAll;
  registry.Register(std::move(primary));

  // Section 7.1: with a unary head and an injective tau, distinct answers
  // have distinct values, so CDist coincides with Count -- which is
  // tractable on the strictly larger exists-hierarchical class.
  EngineProvider rewrite;
  rewrite.name = "count-distinct/injective-count-rewrite";
  rewrite.priority = 20;
  rewrite.applies = [](const AggregateQuery& a) {
    return a.alpha.kind() == AggKind::kCountDistinct && a.query.arity() == 1 &&
           a.tau->is_injective() && a.tau->DependsOn() == std::vector<int>{0};
  };
  rewrite.sum_k = [](const AggregateQuery& a, const Database& db,
                     const SolverOptions& options) {
    AggregateQuery as_count{a.query, a.tau, AggregateFunction::Count()};
    return SumCountSumK(as_count, db, options);
  };
  rewrite.score_all = [](const AggregateQuery& a, const Database& db,
                         const SolverOptions& options) {
    AggregateQuery as_count{a.query, a.tau, AggregateFunction::Count()};
    return SumCountScoreAll(as_count, db, options);
  };
  registry.Register(std::move(rewrite));
}

}  // namespace shapcq
