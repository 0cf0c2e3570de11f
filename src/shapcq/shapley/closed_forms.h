// Closed-form Shapley values for single-relation queries Q(x⃗) <- R(x⃗)
// with all facts endogenous (Propositions 4.2, 4.4 and 5.2).
//
// These are both fast paths and independent test oracles for the generic
// dynamic programs. Note on Prop. 5.2: the statement in the paper's body
// shows "+" on the second term, but the derivation in Appendix D (and the
// efficiency axiom) give "−"; we implement the derived formula
//
//   Shapley(R(t), Avg ∘ τ ∘ Q)
//     = H(n)/n · τ(t) − (H(n) − 1)/(n(n−1)) · Σ_{t' ≠ t} τ(t').

#ifndef SHAPCQ_SHAPLEY_CLOSED_FORMS_H_
#define SHAPCQ_SHAPLEY_CLOSED_FORMS_H_

#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/data/database.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/rational.h"
#include "shapcq/util/status.h"

namespace shapcq {

// True iff `a` has the shape required by the closed forms: a single atom
// whose terms are distinct variables listed verbatim in the head, and all
// facts of `db` are endogenous facts of that relation.
bool ClosedFormApplies(const AggregateQuery& a, const Database& db);

// The database-independent part of ClosedFormApplies: a single atom whose
// terms are distinct variables listed verbatim in the head.
bool ClosedFormQueryShape(const ConjunctiveQuery& q);

// Proposition 4.2: Shapley(R(t), CDist ∘ τ ∘ Q) = 1/#{t' : τ(t') = τ(t)}.
StatusOr<Rational> ClosedFormCountDistinct(const AggregateQuery& a,
                                           const Database& db, FactId fact);

// Proposition 4.4 (Max) and its negation-dual for Min.
StatusOr<Rational> ClosedFormMax(const AggregateQuery& a, const Database& db,
                                 FactId fact);
StatusOr<Rational> ClosedFormMin(const AggregateQuery& a, const Database& db,
                                 FactId fact);

// Proposition 5.2 (Avg), as derived in the appendix (see header comment).
StatusOr<Rational> ClosedFormAvg(const AggregateQuery& a, const Database& db,
                                 FactId fact);

// Every endogenous fact's score under the Shapley value, ascending by
// FactId, for CountDistinct, Max, Min and Avg. The database-wide state —
// τ-values, their multiplicities and prefix sums, H(n), Σ τ — is built
// once and shared by every fact, so the batch costs O(n log n) plus one
// binomial row sweep per distinct value for Max/Min. Equals the per-fact
// closed forms above bitwise; UNSUPPORTED for Banzhaf, other aggregates
// and databases outside ClosedFormApplies.
StatusOr<std::vector<std::pair<FactId, Rational>>> ClosedFormScoreAll(
    const AggregateQuery& a, const Database& db, const SolverOptions& options);

class EngineRegistry;

// Registers the "closed-form/single-relation" provider: a batched fast
// path (Shapley only) tried before the generic dynamic programs on
// single-relation all-endogenous instances.
void RegisterClosedFormEngines(EngineRegistry& registry);

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_CLOSED_FORMS_H_
