// Per-answer linearity: the one scoring path of the linear aggregates.
//
// For Sum and Count the game decomposes over answers:
//   A(E ∪ D_x) = Σ_t w_t · [t ∈ Q(E ∪ D_x)],  w_t = τ(t) (Sum) or 1 (Count),
// so by linearity of the Shapley and Banzhaf values each fact's score is
// Σ_t w_t times its score in answer t's indicator game (Livshits et al.,
// *The Shapley Value of Tuples in Query Answering*). A fact that no
// homomorphism producing t uses is a null player of that game, and
// removing null players changes no Shapley or Banzhaf value, so answer t's
// game is played over its own m_t players at m_t-player weights — never
// padded to all n endogenous facts.
//
// ScoreAnswersByLinearity owns everything but the counting: answer
// weights, skips, answer-chunk sharding and the merge in answer order. Two
// counters plug in: the hierarchical satisfaction-count DP
// (sum-count/linearity, sum_count.h) and the compiled lineage circuit
// (lineage-circuit, lineage/engine.h).

#ifndef SHAPCQ_SHAPLEY_LINEARITY_H_
#define SHAPCQ_SHAPLEY_LINEARITY_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/bigint.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/status.h"

namespace shapcq {

// One answer's indicator game over its own m players.
struct AnswerGame {
  std::vector<FactId> players;  // local player v -> its fact id
  // pivots[v][k], k = 0..m−1: the size-k coalitions of the other m−1
  // players that do not keep the answer alive but do once v joins.
  std::vector<std::vector<BigInt>> pivots;
};

// Weighted scores of one answer's game: w·Σ_k k!(m−1−k)!·pivots[v][k] / m!
// (Shapley) or w·Σ_k pivots[v][k] / 2^{m−1} (Banzhaf). Players scoring an
// exact 0 are omitted.
std::vector<std::pair<FactId, Rational>> ScoreAnswerGame(
    const AnswerGame& game, const Rational& weight, ScoreKind kind,
    Combinatorics* comb);

// Counts answer `t`'s game on a worker thread; `comb` is the worker's
// private cache. An answer every fact is a null player of (no endogenous
// support, or alive on exogenous facts alone) yields an empty game.
using AnswerGameCounter =
    std::function<StatusOr<AnswerGame>(size_t t, Combinatorics* comb)>;

// Σ_t w_t · (answer t's scores) over `answers` (in the caller's canonical
// answer order). Zero-weight answers are skipped; the rest shard over
// contiguous answer chunks of options.num_threads workers, and the
// contributions merge in answer order, so the exact result is bitwise
// identical for every thread count. A failing counter fails the batch with
// the first failure in answer order. Returns one entry per endogenous fact
// of `db` (ascending FactId), null players an exact 0.
StatusOr<std::vector<std::pair<FactId, Rational>>> ScoreAnswersByLinearity(
    const AggregateQuery& a, const Database& db,
    const std::vector<const Tuple*>& answers, const AnswerGameCounter& count,
    const SolverOptions& options);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_LINEARITY_H_
