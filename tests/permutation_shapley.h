// The Shapley value straight from its permutation definition: the average,
// over all n! orders of the endogenous facts, of the fact's marginal
// contribution A(P ∪ {f} ∪ D_x) − A(P ∪ D_x), where P holds the facts
// ahead of f. O(n!·n) evaluations, so limited to 9 players.
//
// A test oracle for the brute-force sweep (shapley/brute_force.h): it
// evaluates each coalition through SubsetEvaluator::AnswersFor and
// AggregateQuery::EvaluateOnAnswers and shares no evaluation or summation
// code with the sweep.

#ifndef SHAPCQ_TESTS_PERMUTATION_SHAPLEY_H_
#define SHAPCQ_TESTS_PERMUTATION_SHAPLEY_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/util/check.h"
#include "shapcq/util/rational.h"
#include "shapcq/util/status.h"

namespace shapcq {

inline StatusOr<Rational> BruteForceShapleyByPermutations(
    const AggregateQuery& a, const Database& db, FactId fact) {
  if (db.num_endogenous() > 9) {
    return UnsupportedError("permutation enumeration limited to 9 players");
  }
  SHAPCQ_CHECK(db.fact(fact).endogenous);
  const SubsetEvaluator evaluator(a.query, db);
  const int player = evaluator.PlayerIndex(fact);
  SHAPCQ_CHECK(player >= 0);
  auto value = [&](uint64_t mask) {
    return a.EvaluateOnAnswers(evaluator.AnswersFor(mask));
  };
  std::vector<int> order(static_cast<size_t>(evaluator.num_players()));
  std::iota(order.begin(), order.end(), 0);
  Rational total;
  int64_t permutations = 0;
  do {
    uint64_t before = 0;
    for (int p : order) {
      if (p == player) break;
      before |= uint64_t{1} << p;
    }
    total += value(before | (uint64_t{1} << player)) - value(before);
    ++permutations;
  } while (std::next_permutation(order.begin(), order.end()));
  return total / Rational(permutations);
}

}  // namespace shapcq

#endif  // SHAPCQ_TESTS_PERMUTATION_SHAPLEY_H_
