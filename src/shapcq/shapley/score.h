// The sum_k framework (Section 3.2 of the paper).
//
// Every exact engine in this library computes, for a database D' and an
// aggregate query A, the series
//
//   sum_k(A, D') = Σ_{E ∈ (D'_n choose k)} A(E ∪ D'_x),   k = 0..|D'_n|.
//
// The Shapley value of a fact f in D follows from the series of two derived
// databases (F: f made exogenous; G: f removed):
//
//   Shapley(f, A) = Σ_k q_k · (sum_k(A, F) − sum_k(A, G)),
//   q_k = k!(n−k−1)!/n!,  n = |D_n|.
//
// The same differences yield the Banzhaf score with uniform weights
// 2^{−(n−1)} — the paper's remark that sum_k-based algorithms extend to all
// Shapley-like scores.

#ifndef SHAPCQ_SHAPLEY_SCORE_H_
#define SHAPCQ_SHAPLEY_SCORE_H_

#include <functional>
#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/util/rational.h"
#include "shapcq/util/status.h"

namespace shapcq {

// Declared in solver_options.h (which includes this header); passed through
// SumKEngine so engines see the configured budgets and thread counts.
struct SolverOptions;

enum class ScoreKind { kShapley, kBanzhaf };

// sum_k(A, D) for k = 0..|D_n| (length |D_n| + 1).
using SumKSeries = std::vector<Rational>;

// An exact engine: computes the sum_k series of A over a database, under
// the given solver options (budgets, thread counts). Every built-in engine
// also defaults the options parameter, so direct 2-argument calls work.
using SumKEngine = std::function<StatusOr<SumKSeries>(
    const AggregateQuery&, const Database&, const SolverOptions&)>;

// Combines the series of F (f exogenous) and G (f removed) into the score of
// f in the original n-player game. Both series must have length n (entries
// k = 0..n−1).
Rational ScoreFromSumK(const SumKSeries& series_f_exogenous,
                       const SumKSeries& series_f_removed, ScoreKind kind);

// The series of G (f removed) derived from the full database's series and
// F's via the partition identity — split the k-subsets of D_n by
// membership of f:
//   sum_k(A, D) = sum_k(A, G_f) + sum_{k−1}(A, F_f).
// `full_series` must have length n+1 and `series_f_exogenous` length n;
// exact rational subtraction on canonical forms makes the result value-
// and representation-identical to solving G directly, so the batched
// scorers never run a G solve.
SumKSeries RemovedSeriesFromIdentity(const SumKSeries& full_series,
                                     const SumKSeries& series_f_exogenous);

// F_f's series (f made exogenous) for one endogenous fact f, on a worker
// thread. Every worker chunk gets its own function, so it may keep private
// state (a database copy, a solver) across the chunk's facts.
using ExogenousSeriesFn = std::function<StatusOr<SumKSeries>(FactId)>;

// The fact-level scoring path of every sum_k engine — the counterpart of
// the per-group ScoreGroupsByLinearity (linearity.h). Given
// full_series = sum_k(A, D), scores each endogenous fact f from F_f's
// series (`new_worker()`'s function) and G_f's, which follows from the
// partition identity. A fact no atom of q matches (SplitRelevantIndexed)
// leaves every answer set unchanged: a null player, scored an exact 0
// without calling the callback. That split needs a self-join-free q; with
// a self-join every fact is scored. The series may range over the relevant
// players only (ScoreFromSumK reads the player count from their length).
//
// Facts shard over contiguous chunks of options.num_threads workers (slot
// i holds fact i), so the exact result is bitwise-identical for every
// thread count. Each worker polls options.cancelled before every fact; a
// fired hook fails the batch with kDeadlineExceeded and no partial scores.
// Otherwise a failing callback fails the batch with the first failure in
// fact order. Returns one entry per endogenous fact (ascending FactId).
StatusOr<std::vector<std::pair<FactId, Rational>>> ScoreFactsByIdentity(
    const AggregateQuery& a, const Database& db, const SumKSeries& full_series,
    const std::function<ExogenousSeriesFn()>& new_worker,
    const SolverOptions& options);

// Runs `engine` on F and G and combines. `fact` must be endogenous in `db`.
// The ScoreKind form runs the engine under default solver options; the
// SolverOptions overload forwards the full options (score kind included)
// into every engine call.
StatusOr<Rational> ScoreViaSumK(const AggregateQuery& a, const Database& db,
                                FactId fact, const SumKEngine& engine,
                                ScoreKind kind = ScoreKind::kShapley);
StatusOr<Rational> ScoreViaSumK(const AggregateQuery& a, const Database& db,
                                FactId fact, const SumKEngine& engine,
                                const SolverOptions& options);

// Scores every endogenous fact with any sum_k engine: one engine run over
// D, then ScoreFactsByIdentity with one engine run per relevant fact over
// F_f (a flag flip on a worker-private database copy). Fails exactly where
// the engine fails over D, and returns exactly the per-fact ScoreViaSumK
// values.
StatusOr<std::vector<std::pair<FactId, Rational>>> ScoreAllViaSumK(
    const AggregateQuery& a, const Database& db, const SumKEngine& engine,
    ScoreKind kind = ScoreKind::kShapley);
StatusOr<std::vector<std::pair<FactId, Rational>>> ScoreAllViaSumK(
    const AggregateQuery& a, const Database& db, const SumKEngine& engine,
    const SolverOptions& options);

// General semivalue: Σ_k weights[k] · (sum_k(A,F) − sum_k(A,G)) for a
// caller-supplied coefficient vector over coalition sizes k = 0..n−1
// (the paper's "Shapley-like scores" in full generality). Shapley uses
// weights q_k = 1/(n·C(n−1,k)); Banzhaf uses 2^{−(n−1)} uniformly. The
// weights of a probabilistic semivalue should satisfy
// Σ_k C(n−1,k)·weights[k] = 1, but this is not enforced.
Rational SemivalueFromSumK(const SumKSeries& series_f_exogenous,
                           const SumKSeries& series_f_removed,
                           const std::vector<Rational>& weights);

// Expected query result over the uniform tuple-independent probabilistic
// database in which every endogenous fact is present independently with
// probability p (exogenous facts are certain):
//   E[A] = Σ_k p^k (1−p)^{n−k} · sum_k(A, D).
// This is the bridge to expected Shapley-like scores over probabilistic
// databases discussed in the paper's Section 8.
Rational ExpectedValueFromSumK(const SumKSeries& series, const Rational& p);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_SCORE_H_
