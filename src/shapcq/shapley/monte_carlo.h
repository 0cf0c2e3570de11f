// Monte Carlo approximation of the Shapley and Banzhaf values, scoring
// every endogenous fact in one sampling run.
//
// Outside each aggregate's frontier the exact problem is #P-hard, so the
// solver falls back to the additive sampling estimators: the Shapley value
// is the expectation of a fact's marginal contribution over a uniformly
// random permutation of the endogenous facts, the Banzhaf value over a
// uniformly random coalition of the others. Unlike the exact engines the
// sampler places no restriction on the query (self-joins and non-localized
// value functions are fine) and no player-count limit.
//
// One sample gives EVERY fact one marginal:
//
//   * Shapley: the sample walks one random permutation, joining players
//     one at a time; the marginal of the joining player is the change of
//     A(E ∪ D_x) it causes.
//   * Banzhaf: the sample draws one coalition S (each player in with
//     probability 1/2), then toggles each fact f in or out of S with an
//     exact undo; f's marginal is v(S ∪ f) − v(S ∖ f).
//
// Both walk one incremental state instead of re-evaluating the aggregate:
// per minimal homomorphism support a count of its missing players, per
// answer a count of its complete supports, per player the supports that
// contain it — so a joining player touches only its own supports — and the
// aggregate's bag state: a running sum and count, multiplicities per
// τ-rank (CountDistinct, HasDuplicates) and a Fenwick tree over τ-ranks
// (Min, Max, Quantile). τ-ranks order the exact Rational τ values, and the
// quantile indices ⌈q·n⌉, ⌊q·n + 1⌋ are exact, so equal-looking doubles
// never merge distinct values. Facts in no minimal support are null
// players: they are never walked and get estimate 0 with std_error 0.
//
// `samples` keeps its meaning: each fact gets num_samples marginals.
// Samples run in fixed blocks of 64; block b draws from a generator seeded
// by the SplitMix64 finalizer over (seed, b), and the per-block per-fact
// sums merge in block order. Estimates are therefore bitwise-identical at
// every thread count, and the per-fact entry points read the same run as
// the batch.

#ifndef SHAPCQ_SHAPLEY_MONTE_CARLO_H_
#define SHAPCQ_SHAPLEY_MONTE_CARLO_H_

#include <cstdint>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/shapley/score.h"
#include "shapcq/util/status.h"

namespace shapcq {

struct MonteCarloOptions {
  int64_t num_samples = 10000;
  uint64_t seed = 1;
};

struct MonteCarloResult {
  double estimate = 0.0;
  // Sample standard error of the mean (σ̂ / √samples).
  double std_error = 0.0;
  int64_t samples = 0;
};

// The sampling structure of one (query, database): the endogenous players,
// the minimal supports of every answer, and the τ-ranks. Construction
// enumerates the homomorphisms once; Estimate is const and safe to call
// concurrently. SolverSession builds one per (plan, database).
class MonteCarloGame {
 public:
  MonteCarloGame(const AggregateQuery& a, const Database& db);

  // Position of an endogenous fact in Database::EndogenousFacts(); -1 for
  // exogenous facts.
  int PlayerIndex(FactId id) const {
    return player_index_[static_cast<size_t>(id)];
  }

  // Estimates for every endogenous fact, aligned with
  // Database::EndogenousFacts(). Blocks fan out over `num_threads` workers
  // (< 1: hardware concurrency) without changing any estimate.
  StatusOr<std::vector<MonteCarloResult>> Estimate(
      ScoreKind score, const MonteCarloOptions& options,
      int num_threads = 1) const;

 private:
  class Walk;

  AggregateFunction alpha_;
  int num_players_ = 0;
  std::vector<int> player_index_;  // by FactId
  // Players in some minimal support, ascending; only they are walked.
  std::vector<int> active_;
  // Minimal supports in CSR form: support s holds the active positions
  // support_players_[support_begin_[s] .. support_begin_[s + 1]) and
  // belongs to answer support_answer_[s].
  std::vector<int> support_begin_;
  std::vector<int> support_players_;
  std::vector<int> support_answer_;
  // Per active position, the supports that contain it (CSR).
  std::vector<int> player_begin_;
  std::vector<int> player_supports_;
  // τ-rank per answer, τ as a double per rank.
  std::vector<int> answer_rank_;
  std::vector<double> rank_value_;
  // Answers with an exogenous-only support: alive in every coalition.
  std::vector<int> always_alive_;
  // Quantile only: 1-based ranks ⌈q·n⌉ and ⌊q·n + 1⌋ per bag size n.
  std::vector<int> quantile_low_;
  std::vector<int> quantile_high_;
};

// Estimates Shapley(fact, a)[db] from `options.num_samples` random
// permutations: the fact's entry of a full MonteCarloGame run.
// INVALID_ARGUMENT unless `fact` is a live endogenous fact of `db` (the
// same holds for the two wrappers below).
StatusOr<MonteCarloResult> MonteCarloShapley(const AggregateQuery& a,
                                             const Database& db, FactId fact,
                                             const MonteCarloOptions& options);

// Estimates Banzhaf(fact, a)[db] from `options.num_samples` random
// coalitions: the fact's entry of a full MonteCarloGame run.
StatusOr<MonteCarloResult> MonteCarloBanzhaf(const AggregateQuery& a,
                                             const Database& db, FactId fact,
                                             const MonteCarloOptions& options);

// Number of samples for an additive (epsilon, delta) guarantee via
// Hoeffding, when each marginal contribution lies in [-range, range].
int64_t HoeffdingSampleCount(double range, double epsilon, double delta);

// Convenience: runs MonteCarloShapley with the Hoeffding sample count for
// the requested guarantee: P(|estimate − Shapley| ≥ epsilon) ≤ delta,
// assuming marginal contributions lie in [−range, range].
StatusOr<MonteCarloResult> MonteCarloShapleyWithGuarantee(
    const AggregateQuery& a, const Database& db, FactId fact, double range,
    double epsilon, double delta, uint64_t seed = 1);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_MONTE_CARLO_H_
