// Value functions τ : Const^ar(Q) -> Q (rationals).
//
// A value function maps each query answer to a number. The paper's
// algorithms assume τ is *localized*: determined by the tuple of a single
// atom of the query. Here localization is a derived property: each value
// function declares which head positions it depends on (DependsOn), and
// LocalizationAtoms(q, τ) lists the atoms containing all of those head
// variables. τ ≡ c depends on nothing and is localized on every atom.
//
// Built-ins match the paper's Equations (2)-(4):
//   τ_id^i(t)   = t[i]
//   τ_{>b}^i(t) = 1 if t[i] > b else 0
//   τ_ReLU^i(t) = t[i] if t[i] > 0 else 0
// plus the Section 7.3 monoid folds τ(t) = t[p1] ⊗ t[p2] ⊗ ... under a
// monotone ⊗, which Min/Max can solve without localization.

#ifndef SHAPCQ_AGG_VALUE_FUNCTION_H_
#define SHAPCQ_AGG_VALUE_FUNCTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "shapcq/data/value.h"
#include "shapcq/query/cq.h"
#include "shapcq/util/rational.h"

namespace shapcq {

// The monotone monoids of a fold τ (MakeMonoidTau).
enum class MonoidKind {
  kPlus,  // a ⊗ b = a + b
  kMax,   // a ⊗ b = max(a, b)
  kMin,   // a ⊗ b = min(a, b)
};

// a ⊗ b.
Rational ApplyMonoid(MonoidKind kind, const Rational& a, const Rational& b);

class ValueFunction {
 public:
  virtual ~ValueFunction() = default;

  // The τ-value of an answer tuple.
  virtual Rational Evaluate(const Tuple& answer) const = 0;

  // Head positions (0-based) the value depends on; empty for constants.
  // Positions outside this list never affect Evaluate.
  virtual std::vector<int> DependsOn() const = 0;

  // True if the function is injective on the values of its depended
  // positions (e.g. τ_id). Enables the Section 7.1 rewrite of
  // CDist ∘ τ ∘ Q to Count ∘ τ ∘ Q for unary heads, where distinct answers
  // are guaranteed distinct values. Conservative default: false.
  virtual bool is_injective() const { return false; }

  // The monoid of a fold τ (MakeMonoidTau), whose DependsOn() lists the
  // folded positions; nullopt for every other value function.
  virtual std::optional<MonoidKind> monoid() const { return std::nullopt; }

  virtual std::string ToString() const = 0;

  // Token used in plan fingerprints (shapley/plan.h). Contract: two value
  // functions with equal tokens must be semantically identical (same
  // Evaluate on every tuple, same DependsOn/is_injective), so a plan cached
  // under one may serve the other. The built-ins (const, id, >b, ReLU,
  // monoid folds) derive the token from their parameters; functions
  // wrapping opaque callbacks (MakeComposedTau, MakeCallbackTau) keep the
  // default, which appends a process-unique instance id — such taus never
  // share cached plans, and the id (unlike a raw address) can never be
  // reused by a later allocation.
  virtual std::string FingerprintToken() const;

  // True when FingerprintToken is derived purely from parameters (the
  // built-ins above). Identity-based tokens return false; the PlanCache
  // then compiles without inserting, so per-request callback taus cannot
  // grow the cache without bound.
  virtual bool HasCanonicalFingerprint() const { return false; }

 protected:
  ValueFunction();

 private:
  // Monotonic per-construction id backing the default FingerprintToken.
  const uint64_t instance_id_;
};

using ValueFunctionPtr = std::shared_ptr<const ValueFunction>;

// τ ≡ c.
ValueFunctionPtr MakeConstantTau(Rational c);
// τ_id^i: the i-th head value (must be numeric at evaluation time).
ValueFunctionPtr MakeTauId(int head_index);
// τ_{>b}^i.
ValueFunctionPtr MakeTauGreaterThan(int head_index, Rational b);
// τ_ReLU^i.
ValueFunctionPtr MakeTauReLU(int head_index);
// τ(t) = t[p1] ⊗ t[p2] ⊗ ... over the given head positions (non-empty;
// the values must be numeric at evaluation time).
ValueFunctionPtr MakeMonoidTau(MonoidKind kind, std::vector<int> positions);
// γ ∘ τ for a user function γ (Theorem 7.1 experiments); `name` is used in
// ToString.
ValueFunctionPtr MakeComposedTau(std::function<Rational(const Rational&)> gamma,
                                 ValueFunctionPtr inner, std::string name);
// Fully general callback over the answer tuple with declared dependencies.
ValueFunctionPtr MakeCallbackTau(std::function<Rational(const Tuple&)> fn,
                                 std::vector<int> depends_on,
                                 std::string name);

// Parses a 1-based head index written as plain decimal digits (at most
// 100,000,000) and returns it 0-based; anything else is INVALID_ARGUMENT.
// The one head-index parser for τ text: canonical tokens and the specs of
// agg/spec.h both use it.
StatusOr<int> ParseHeadIndexSuffix(std::string_view digits);

// Parses a canonical FingerprintToken back into its value function —
// the inverse of FingerprintToken for the built-ins above:
//   const(<rational>)   tau_id^<i>   tau_><b>^<i>   tau_ReLU^<i>
//   tau_plus^<i>,<j>,...   tau_maxof^<i>,...   tau_minof^<i>,...
// (head indices are 1-based in tokens, matching ToString). Tokens of
// non-canonical taus (opaque callbacks) and malformed text fail with
// INVALID_ARGUMENT. Used by the persisted-plan loader (persist/artifact.h)
// to reconstruct plans from their recorded fingerprints.
StatusOr<ValueFunctionPtr> ParseCanonicalTauToken(std::string_view token);

// Indices of the atoms of `q` on which `tau` is localized: atoms containing
// every head variable that `tau` depends on. Empty if none (then `tau` is
// not localized and only brute-force engines apply).
std::vector<int> LocalizationAtoms(const ConjunctiveQuery& q,
                                   const ValueFunction& tau);

// Evaluates τ on a fact of atom `atom_index`: the answer positions that τ
// depends on are read off the fact (via the atom's variables); the rest are
// filled with 0. Requires that `atom_index` is a localization atom of τ.
Rational EvaluateTauOnFact(const ConjunctiveQuery& q, int atom_index,
                           const ValueFunction& tau, const Tuple& fact_args);

}  // namespace shapcq

#endif  // SHAPCQ_AGG_VALUE_FUNCTION_H_
