// The lineage-circuit engine: exact Shapley/Banzhaf beyond the tractable
// frontier via knowledge compilation.
//
// Sum, Count, CountDistinct, Max and Min are weighted sums of *group
// games* (shapley/linearity.h): a group is a set of answers, its game
// asks whether some answer of the group survives, and its lineage is the
// OR of its answers' lineage DNFs. Each group's lineage compiles into a
// decision-DNNF (circuit.h), on which the counting-based algorithm of
// Deutch, Frost, Kimelfeld & Monet computes EVERY fact's score from one
// bottom-up + one top-down counting pass per circuit. The group driver
// (ScoreGroupsOnCircuits) weights each game at its own m players — never
// padded to all n endogenous facts — and sums the groups. Restricting a
// group to its own lineage variables is sound because Shapley and Banzhaf
// are invariant under adding null players.
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
// brute-force/Monte-Carlo fallback. It accepts any CQ shape and any τ,
// including self-joins and non-hierarchical queries: hardness lives in
// the data's provenance, which the circuit compiler confronts directly.

#ifndef SHAPCQ_ENGINES_LINEAGE_ENGINE_H_
#define SHAPCQ_ENGINES_LINEAGE_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/lineage/stats.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

// Batched scorer: one circuit per group through the group driver
// (shapley/linearity.h), every fact's score from one counting pass per
// circuit, sharded over groups by options.num_threads (contributions merge
// exactly — bitwise-identical for every thread count). Budget from
// options.lineage.
StatusOr<std::vector<std::pair<FactId, Rational>>> LineageCircuitScoreAll(
    const AggregateQuery& a, const Database& db, const SolverOptions& options);

// sum_k(A, D) = Σ_g w_g · (group g's circuit model counts), each padded to
// the full player universe with binomials. Powers ComputeSumKSeries (and
// the CLI's --expected) past the brute-force horizon. Compiles under the
// options.lineage budget — SolverOptions flows through the SumKEngine
// signature, so a customized budget applies here exactly as it does on
// the scoring paths.
StatusOr<SumKSeries> LineageCircuitSumK(const AggregateQuery& a,
                                        const Database& db,
                                        const SolverOptions& options = {});

void RegisterLineageCircuitEngine(EngineRegistry& registry);

}  // namespace shapcq

#endif  // SHAPCQ_ENGINES_LINEAGE_ENGINE_H_
