// Aggregate functions α : Bags(Q) -> Q and aggregate queries A = α ∘ τ ∘ Q.
//
// Conventions follow Section 2 of the paper: α(∅) = 0 for every aggregate,
// and Qnt_q(B) = (x_⌈q|B|⌉ + x_⌊q|B|+1⌋) / 2 where x_i is the i-th smallest
// element of B (so Median = Qnt_{1/2} matches the usual convention). Dup
// ("has-duplicates") is 1 iff some element of the bag has multiplicity >= 2.

#ifndef SHAPCQ_AGG_AGGREGATE_H_
#define SHAPCQ_AGG_AGGREGATE_H_

#include <string>
#include <vector>

#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/cq.h"
#include "shapcq/util/rational.h"
#include "shapcq/util/status.h"

namespace shapcq {

enum class AggKind {
  kSum,
  kCount,
  kCountDistinct,
  kMin,
  kMax,
  kAvg,
  kQuantile,       // parameterized by q in (0, 1)
  kHasDuplicates,  // "Dup"
};

// An aggregate function (kind + quantile parameter where applicable).
class AggregateFunction {
 public:
  static AggregateFunction Sum() { return AggregateFunction(AggKind::kSum); }
  static AggregateFunction Count() {
    return AggregateFunction(AggKind::kCount);
  }
  static AggregateFunction CountDistinct() {
    return AggregateFunction(AggKind::kCountDistinct);
  }
  static AggregateFunction Min() { return AggregateFunction(AggKind::kMin); }
  static AggregateFunction Max() { return AggregateFunction(AggKind::kMax); }
  static AggregateFunction Avg() { return AggregateFunction(AggKind::kAvg); }
  // Requires 0 < q < 1.
  static AggregateFunction Quantile(Rational q);
  static AggregateFunction Median() {
    return Quantile(Rational(BigInt(1), BigInt(2)));
  }
  static AggregateFunction HasDuplicates() {
    return AggregateFunction(AggKind::kHasDuplicates);
  }

  AggKind kind() const { return kind_; }
  // The quantile parameter; requires kind() == kQuantile.
  const Rational& quantile() const;

  // Applies the aggregate to a bag given as a vector with multiplicity
  // (order irrelevant). Returns 0 on the empty bag.
  Rational Apply(const std::vector<Rational>& bag) const;

  // True if α(B) = α(B') for all nonempty bags over one singleton value
  // (Proposition 3.2's "constant per singleton" property). Holds for
  // Min/Max/CDist/Avg/Qnt; fails for Sum/Count/Dup.
  bool IsConstantPerSingleton() const;

  std::string ToString() const;

 private:
  explicit AggregateFunction(AggKind kind) : kind_(kind) {}

  AggKind kind_;
  Rational quantile_;
};

// An aggregate conjunctive query A = α ∘ τ ∘ Q.
struct AggregateQuery {
  ConjunctiveQuery query;
  ValueFunctionPtr tau;
  AggregateFunction alpha;

  // A(D) = α({{ τ(t) : t ∈ Q(D) }}).
  Rational Evaluate(const Database& db) const;
  // Same, over a precomputed answer set.
  Rational EvaluateOnAnswers(const std::vector<Tuple>& answers) const;

  std::string ToString() const;
};

// INVALID_ARGUMENT when τ reads a head position past Q's arity: the
// engines assume τ fits the head and abort otherwise. OK otherwise.
Status ValidateAggregateQuery(const AggregateQuery& a);

// Builds A = α ∘ τ ∘ Q through ValidateAggregateQuery. Every text-facing
// entry point — the CLI and the daemon's BuildAggregateQuery — constructs
// through this; ShapleySolver validates an AggregateQuery built directly.
StatusOr<AggregateQuery> MakeAggregateQuery(ConjunctiveQuery query,
                                            ValueFunctionPtr tau,
                                            AggregateFunction alpha);

}  // namespace shapcq

#endif  // SHAPCQ_AGG_AGGREGATE_H_
