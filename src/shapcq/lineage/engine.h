// The lineage-circuit engine: exact Shapley/Banzhaf beyond the tractable
// frontier via knowledge compilation.
//
// For the linear aggregates (Sum, Count — and Boolean/membership games as
// Count over a Boolean CQ), the game decomposes over answers:
//   A(E ∪ D_x) = Σ_t w_t · [t alive in E ∪ D_x],
// so by linearity of the Shapley value each fact's score is the weighted
// sum of its scores in the per-answer *indicator* games, and a fact absent
// from an answer's lineage is a null player there (contributes exactly 0).
// Each indicator game is a monotone Boolean function — the answer's
// lineage DNF (lineage.h) — compiled into a decision-DNNF (circuit.h), on
// which the counting-based algorithm of Deutch, Frost, Kimelfeld & Monet
// computes EVERY fact's score from one bottom-up + one top-down counting
// pass per circuit: with m lineage variables, v pivots on
//   P_v[k+1] − (T[k] − P_v[k])   coalitions of size k < m,
// where T[k] counts satisfying assignments of weight k and P_v[j] those of
// weight j that set v (CircuitModelCounts). Those pivot counts are this
// engine's per-answer counter for the shared Sum/Count loop
// (shapley/linearity.h), which weights them at m players — never padded
// to all n endogenous facts — and sums the answers. Restricting each
// answer to its own lineage variables is sound because Shapley and
// Banzhaf are invariant under adding null players.
//
// This makes exact attribution on the FP#P-hard side of the frontier
// polynomial in the *circuit* size: cost tracks lineage structure, not the
// player count, lifting the exact ceiling past the 26-player brute-force
// horizon whenever the provenance is well-structured. Compilation is
// budgeted (SolverOptions::lineage); on blow-up the engine returns
// UNSUPPORTED and the session falls through to brute force or Monte Carlo.
//
// The engine registers as `lineage-circuit` (priority 60): after every
// frontier DP — which win whenever they apply — and before the
// brute-force/Monte-Carlo fallback. It accepts any CQ shape, including
// self-joins and non-hierarchical queries: hardness lives in the data's
// provenance, which the circuit compiler confronts directly.

#ifndef SHAPCQ_LINEAGE_ENGINE_H_
#define SHAPCQ_LINEAGE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/lineage/circuit.h"
#include "shapcq/lineage/stats.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/status.h"

namespace shapcq {

// The process-wide lineage telemetry counters behind LineageStatsSnapshot
// (lineage/stats.h), updated with relaxed atomics — safe from sharded
// scorers.
class LineageStats {
 public:
  static LineageStats& Global();

  void RecordCircuit(const LineageCircuit& circuit);
  void RecordBudgetFallback();
  LineageStatsSnapshot Snapshot() const;
  void Reset();

 private:
  std::atomic<uint64_t> circuits_compiled_{0};
  std::atomic<uint64_t> circuit_nodes_{0};
  std::atomic<uint64_t> cache_lookups_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> budget_fallbacks_{0};
};

// Batched scorer: one circuit per answer through the shared per-answer
// loop (shapley/linearity.h), every fact's score from one counting pass
// per circuit, sharded over answers by options.num_threads (per-answer
// contributions merge in answer order — bitwise-identical for every
// thread count). Budget from options.lineage.
StatusOr<std::vector<std::pair<FactId, Rational>>> LineageCircuitScoreAll(
    const AggregateQuery& a, const Database& db, const SolverOptions& options);

// Per-fact entry point (the session's Compute path). Runs the full batched
// computation under options.lineage's budget — single-threaded, since the
// session already fans per-fact calls out — and selects `fact`; exactness
// over speed, ComputeAll is the intended interface.
StatusOr<Rational> LineageCircuitScoreOne(const AggregateQuery& a,
                                          const Database& db, FactId fact,
                                          const SolverOptions& options);

// Per-answer entry for incremental callers (stream/streaming.h): compiles
// and scores ONE answer's monotone lineage DNF whose literals are
// arbitrary non-negative ids — the streaming cache passes FactIds directly
// instead of dense player indices. A monotone renaming of the literals
// does not change the compiled circuit (clauses are rebuilt over the
// sorted local variable space), so the returned (id, contribution) pairs
// are bitwise-identical to what the batched scorer derives for the same
// answer under the dense labelling. The constant-true lineage (a single
// empty clause), an empty clause list (dead answer), and a zero weight
// all score nobody: empty result. Compilation blow-ups return UNSUPPORTED
// after recording a budget fallback, exactly like the batched paths.
StatusOr<std::vector<std::pair<int, Rational>>> ScoreAnswerClauses(
    const std::vector<std::vector<int>>& clauses, const Rational& weight,
    ScoreKind kind, const LineageOptions& options, Combinatorics* comb);

// sum_k(A, D) from the per-answer circuit model counts, padded to the full
// player universe with binomials. Powers ComputeSumKSeries (and the CLI's
// --expected) past the brute-force horizon. Compiles under the
// options.lineage budget — SolverOptions flows through the SumKEngine
// signature, so a customized budget applies here exactly as it does on
// the scoring paths.
StatusOr<SumKSeries> LineageCircuitSumK(const AggregateQuery& a,
                                        const Database& db,
                                        const SolverOptions& options = {});

void RegisterLineageCircuitEngine(EngineRegistry& registry);

}  // namespace shapcq

#endif  // SHAPCQ_LINEAGE_ENGINE_H_
