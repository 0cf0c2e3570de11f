// Has-duplicates (Dup) over sq-hierarchical CQs (Section 6, Appendix E.2).
//
// For a connected sq-hierarchical CQ every free variable occurs in every
// atom, so each fact determines the τ-value of any answer it can
// participate in. Partitioning the facts by that value makes the groups
// independent: the bag has no duplicate iff every group contributes at most
// one answer, which the P0/P1 answer-count machinery counts per group
// (Figure 5). For a disconnected query Q = Q1 × Q2 with τ localized in the
// connected Q1, the bag is Q1's bag replicated |Q2| times, so (App. E.2.3)
//
//   Dup = (Q1 nonempty ∧ |Q2| ≥ 2)  ∨  (Q1 has duplicates ∧ |Q2| = 1).
//
// The structural requirement actually used is that every head position τ
// depends on occurs in every atom of the localization component; for
// sq-hierarchical queries this holds for EVERY localized τ (Theorem 6.1),
// and for some q-hierarchical queries it holds for specific τ — e.g.
// Dup ∘ τ²_id ∘ Q^full_xyy of Proposition 7.3(3), which this engine
// therefore also solves.

#ifndef SHAPCQ_SHAPLEY_HAS_DUPLICATES_H_
#define SHAPCQ_SHAPLEY_HAS_DUPLICATES_H_

#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/status.h"

namespace shapcq {

// sum_k series for A = Dup ∘ τ ∘ Q. Returns UNSUPPORTED unless the query is
// self-join-free and q-hierarchical, τ is localized, and every τ-relevant
// head variable occurs in every atom of the localization component (always
// true when Q is sq-hierarchical).
StatusOr<SumKSeries> HasDuplicatesSumK(const AggregateQuery& a,
                                       const Database& db,
                                       const SolverOptions& options = {});

// Scores every endogenous fact, bitwise-equal to per-fact ScoreViaSumK over
// HasDuplicatesSumK and failing exactly where it fails. For a connected
// query the τ-value groups are independent blocks: one pass counts each
// group's at-most-one-answer polynomial over D (polling the deadline
// before each group) and multiplies them, and F_f re-counts only f's
// group next to the product divided by that group. A query that splits
// into components takes ScoreAllViaSumK.
StatusOr<std::vector<std::pair<FactId, Rational>>> HasDuplicatesScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options);

class EngineRegistry;

// Registers the "has-duplicates/sq-hierarchical-dp" provider.
void RegisterHasDuplicatesEngine(EngineRegistry& registry);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_HAS_DUPLICATES_H_
