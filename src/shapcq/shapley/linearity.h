// Group games: the one scoring path of the aggregates that are weighted
// sums of Boolean games.
//
// Sum, Count, CountDistinct, Max and Min all decompose over *groups* of
// answers. A group's game asks "does some answer of the group survive in
// E ∪ D_x?", and the aggregate is a weighted sum of these indicators:
//   Sum/Count      one group per answer t, weight τ(t) (Sum) or 1 (Count);
//   CountDistinct  one group per τ-value v (the answers with τ(t) = v),
//                  weight 1 — the paper's Boolean reduction;
//   Max            the distinct values v_1 < … < v_k; group i holds the
//                  answers with τ ≥ v_i, weight v_1 for i = 1 and
//                  v_i − v_{i−1} otherwise, so Max(∅) = 0;
//   Min            the mirror image: u_1 > … > u_k, group i holds τ ≤ u_i,
//                  weight u_1 for i = 1 and u_i − u_{i−1} otherwise.
// By linearity of the Shapley and Banzhaf values (Livshits et al., *The
// Shapley Value of Tuples in Query Answering*), each fact's score is the
// weighted sum of its scores in the group games. A group's lineage is the
// OR of its answers' lineage DNFs, and a fact outside it is a null player
// of that game; removing null players changes no Shapley or Banzhaf value,
// so each group's game is played over its own m players at m-player
// weights — never padded to all n endogenous facts.
//
// ScoreGroupsByLinearity owns everything but the counting: skips, group
// sharding, the deadline poll and the merge. The counter that fills each
// GroupGame is one counting pass over the group's compiled lineage
// circuit (Deutch et al., *Computing the Shapley Value of Facts in Query
// Answering*): CircuitGroupGame below, shared through the CircuitCache.
// Engines whose exact DP applies keep it only as the fallback for a
// group whose circuit exceeds SolverOptions::lineage's budget.

#ifndef SHAPCQ_SHAPLEY_LINEARITY_H_
#define SHAPCQ_SHAPLEY_LINEARITY_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/lineage/circuit_cache.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/bigint.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/status.h"

namespace shapcq {

// One weighted group of answers (see the file comment).
struct AnswerGroup {
  std::vector<size_t> answers;  // positions in the caller's answer list
  Rational weight;              // never zero
};

// The groups of `a` over `answers` (the caller's canonical answer order):
// answer order for Sum/Count, ascending τ-value for CountDistinct, and
// threshold order for Max (ascending) and Min (descending). Zero-weight
// groups are dropped. Returns UNSUPPORTED for the aggregates that are not
// weighted sums of group games.
StatusOr<std::vector<AnswerGroup>> AnswerGroupsOf(
    const AggregateQuery& a, const std::vector<const Tuple*>& answers);

// One group's game over its own m players.
struct GroupGame {
  std::vector<FactId> players;  // local player v -> its fact id
  // pivots[v][k], k = 0..m−1: the size-k coalitions of the other m−1
  // players that do not keep the group alive but do once v joins.
  std::vector<std::vector<BigInt>> pivots;
};

// Weighted scores of one group's game: w·Σ_k k!(m−1−k)!·pivots[v][k] / m!
// (Shapley) or w·Σ_k pivots[v][k] / 2^{m−1} (Banzhaf). Players scoring an
// exact 0 are omitted.
std::vector<std::pair<FactId, Rational>> ScoreGroupGame(
    const GroupGame& game, const Rational& weight, ScoreKind kind,
    Combinatorics* comb);

// Counts one group's game on a worker thread; `comb` is the worker's
// private cache. A group every fact is a null player of (no endogenous
// support, or alive on exogenous facts alone) yields an empty game.
using GroupGameCounter = std::function<StatusOr<GroupGame>(
    const AnswerGroup& group, Combinatorics* comb)>;

// Σ_g w_g · (group g's scores). Groups shard over contiguous chunks of
// options.num_threads workers, and the contributions merge in group
// order; exact arithmetic makes the result bitwise-identical for every
// thread count. Each worker polls options.cancelled before every group: a
// fired hook fails the batch with kDeadlineExceeded and no partial scores.
// Otherwise a failing counter fails the batch with the first failure in
// group order. Returns one entry per endogenous fact of `db` (ascending
// FactId), null players an exact 0.
StatusOr<std::vector<std::pair<FactId, Rational>>> ScoreGroupsByLinearity(
    const Database& db, const std::vector<AnswerGroup>& groups,
    const GroupGameCounter& count, const SolverOptions& options);

// ---------------------------------------------------------------------------
// The circuit counter
// ---------------------------------------------------------------------------

// Every answer's lineage DNF over FactId literals, in MinimizeClauses
// form: the endogenous facts of each homomorphism, minimal supports only.
// An answer alive on exogenous facts alone has the single empty clause.
std::vector<std::vector<std::vector<int>>> AnswerLineages(
    const std::vector<AnswerHomomorphisms>& answers, const Database& db);

// The OR of `group`'s answers' DNFs (`lineages` from AnswerLineages), in
// MinimizeClauses form.
std::vector<std::vector<int>> GroupLineage(
    const std::vector<std::vector<std::vector<int>>>& lineages,
    const AnswerGroup& group);

// True for the constant-true minimized DNF (a single empty clause).
bool ConstantTrue(const std::vector<std::vector<int>>& minimized);

// A minimized monotone DNF compiled and counted over its canonical
// variable space. The circuit and its stratified model counts live in a
// (possibly shared) CircuitCacheEntry; `players` translates canonical
// variable v back to the caller's literal.
struct CompiledLineage {
  std::vector<int> players;  // canonical var -> caller literal
  std::shared_ptr<const CircuitCacheEntry> entry;
};

// Compiles and counts `minimized` (MinimizeClauses form, neither empty nor
// constant-true) under options' budget, consulting the cross-tenant
// CircuitCache first when options.share_circuits is set. Sharing is
// bitwise-safe: the counts are semantic invariants of the clause set. A
// budget blow-up records a LineageStats budget fallback and returns
// UNSUPPORTED.
StatusOr<CompiledLineage> CompileLineage(
    const std::vector<std::vector<int>>& minimized,
    const LineageOptions& options, Combinatorics* comb);

// The circuit counter: the game of a minimized monotone DNF over FactId
// literals. Empty for the empty or constant-true DNF; otherwise one
// counting pass over its circuit — with T[k] the satisfying assignments of
// weight k and P_v[j] those of weight j that set v, v pivots on
// P_v[k+1] − (T[k] − P_v[k]) coalitions of size k. UNSUPPORTED when the
// circuit exceeds options' budget.
StatusOr<GroupGame> CircuitGroupGame(
    const std::vector<std::vector<int>>& minimized,
    const LineageOptions& options, Combinatorics* comb);

// The group driver over circuits: groups `a` (AnswerGroupsOf) over
// `answers` — the output of GroupHomomorphismsByAnswer(a.query, db) — and
// counts each group's game with CircuitGroupGame over the OR of its
// answers' clauses. A group whose circuit exceeds options.lineage's budget
// goes to `on_budget` when set (an engine's per-group DP), and otherwise
// fails the batch with UNSUPPORTED, for the caller's own fallback. The
// gates are the caller's.
StatusOr<std::vector<std::pair<FactId, Rational>>> ScoreGroupsOnCircuits(
    const AggregateQuery& a, const Database& db,
    const std::vector<AnswerHomomorphisms>& answers,
    const SolverOptions& options, const GroupGameCounter& on_budget = {});

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_LINEARITY_H_
