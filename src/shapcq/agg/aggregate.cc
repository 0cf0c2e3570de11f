#include "shapcq/agg/aggregate.h"

#include <algorithm>
#include <map>

#include "shapcq/query/evaluator.h"
#include "shapcq/util/check.h"

namespace shapcq {

AggregateFunction AggregateFunction::Quantile(Rational q) {
  SHAPCQ_CHECK(q > Rational(0) && q < Rational(1));
  AggregateFunction alpha(AggKind::kQuantile);
  alpha.quantile_ = std::move(q);
  return alpha;
}

const Rational& AggregateFunction::quantile() const {
  SHAPCQ_CHECK(kind_ == AggKind::kQuantile);
  return quantile_;
}

Rational AggregateFunction::Apply(const std::vector<Rational>& bag) const {
  if (bag.empty()) return Rational(0);
  switch (kind_) {
    case AggKind::kSum: {
      Rational sum;
      for (const Rational& v : bag) sum += v;
      return sum;
    }
    case AggKind::kCount:
      return Rational(static_cast<int64_t>(bag.size()));
    case AggKind::kCountDistinct: {
      std::vector<Rational> sorted = bag;
      std::sort(sorted.begin(), sorted.end());
      int64_t distinct = 1;
      for (size_t i = 1; i < sorted.size(); ++i) {
        if (sorted[i] != sorted[i - 1]) ++distinct;
      }
      return Rational(distinct);
    }
    case AggKind::kMin: {
      Rational best = bag[0];
      for (const Rational& v : bag) {
        if (v < best) best = v;
      }
      return best;
    }
    case AggKind::kMax: {
      Rational best = bag[0];
      for (const Rational& v : bag) {
        if (v > best) best = v;
      }
      return best;
    }
    case AggKind::kAvg: {
      Rational sum;
      for (const Rational& v : bag) sum += v;
      return sum / Rational(static_cast<int64_t>(bag.size()));
    }
    case AggKind::kQuantile: {
      std::vector<Rational> sorted = bag;
      std::sort(sorted.begin(), sorted.end());
      int64_t n = static_cast<int64_t>(sorted.size());
      Rational qn = quantile_ * Rational(n);
      int64_t i1 = qn.Ceil().ToInt64();                      // ⌈q|B|⌉
      int64_t i2 = (qn + Rational(1)).Floor().ToInt64();     // ⌊q|B|+1⌋
      SHAPCQ_CHECK(i1 >= 1 && i1 <= n);
      SHAPCQ_CHECK(i2 >= 1 && i2 <= n);
      return (sorted[static_cast<size_t>(i1 - 1)] +
              sorted[static_cast<size_t>(i2 - 1)]) /
             Rational(2);
    }
    case AggKind::kHasDuplicates: {
      std::vector<Rational> sorted = bag;
      std::sort(sorted.begin(), sorted.end());
      for (size_t i = 1; i < sorted.size(); ++i) {
        if (sorted[i] == sorted[i - 1]) return Rational(1);
      }
      return Rational(0);
    }
  }
  SHAPCQ_UNREACHABLE();
}

bool AggregateFunction::IsConstantPerSingleton() const {
  switch (kind_) {
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kCountDistinct:
    case AggKind::kAvg:
    case AggKind::kQuantile:
      return true;
    case AggKind::kSum:
    case AggKind::kCount:
    case AggKind::kHasDuplicates:
      return false;
  }
  SHAPCQ_UNREACHABLE();
}

std::string AggregateFunction::ToString() const {
  switch (kind_) {
    case AggKind::kSum:
      return "Sum";
    case AggKind::kCount:
      return "Count";
    case AggKind::kCountDistinct:
      return "CountDistinct";
    case AggKind::kMin:
      return "Min";
    case AggKind::kMax:
      return "Max";
    case AggKind::kAvg:
      return "Avg";
    case AggKind::kQuantile:
      return "Qnt_" + quantile_.ToString();
    case AggKind::kHasDuplicates:
      return "Dup";
  }
  SHAPCQ_UNREACHABLE();
}

Rational AggregateQuery::Evaluate(const Database& db) const {
  return EvaluateOnAnswers(shapcq::Evaluate(query, db));
}

Rational AggregateQuery::EvaluateOnAnswers(
    const std::vector<Tuple>& answers) const {
  std::vector<Rational> bag;
  bag.reserve(answers.size());
  for (const Tuple& answer : answers) bag.push_back(tau->Evaluate(answer));
  return alpha.Apply(bag);
}

std::string AggregateQuery::ToString() const {
  return alpha.ToString() + " o " + tau->ToString() + " o " +
         query.ToString();
}

Status ValidateAggregateQuery(const AggregateQuery& a) {
  for (int position : a.tau->DependsOn()) {
    if (position >= a.query.arity()) {
      return InvalidArgumentError("tau reads head position " +
                                  std::to_string(position + 1) +
                                  " of a query with " +
                                  std::to_string(a.query.arity()));
    }
  }
  return Status();
}

StatusOr<AggregateQuery> MakeAggregateQuery(ConjunctiveQuery query,
                                            ValueFunctionPtr tau,
                                            AggregateFunction alpha) {
  AggregateQuery a{std::move(query), std::move(tau), std::move(alpha)};
  Status valid = ValidateAggregateQuery(a);
  if (!valid.ok()) return valid;
  return a;
}

}  // namespace shapcq
