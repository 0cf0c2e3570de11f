#include "shapcq/agg/spec.h"

#include "shapcq/util/rational.h"

namespace shapcq {

StatusOr<AggregateFunction> ParseAggregateSpec(const std::string& text) {
  if (text == "sum") return AggregateFunction::Sum();
  if (text == "count") return AggregateFunction::Count();
  if (text == "cdist") return AggregateFunction::CountDistinct();
  if (text == "min") return AggregateFunction::Min();
  if (text == "max") return AggregateFunction::Max();
  if (text == "avg") return AggregateFunction::Avg();
  if (text == "median") return AggregateFunction::Median();
  if (text == "dup") return AggregateFunction::HasDuplicates();
  if (text.rfind("qnt:", 0) == 0) {
    StatusOr<Rational> q = Rational::FromString(text.substr(4));
    if (!q.ok()) return q.status();
    if (!(*q > Rational(0) && *q < Rational(1))) {
      return InvalidArgumentError("quantile must be in (0,1)");
    }
    return AggregateFunction::Quantile(*q);
  }
  return InvalidArgumentError("unknown aggregate: " + text);
}

StatusOr<ValueFunctionPtr> ParseTauSpec(const std::string& text) {
  if (text.rfind("id:", 0) == 0) {
    StatusOr<int> i = ParseHeadIndexSuffix(text.substr(3));
    if (!i.ok()) return i.status();
    return MakeTauId(*i);
  }
  if (text.rfind("relu:", 0) == 0) {
    StatusOr<int> i = ParseHeadIndexSuffix(text.substr(5));
    if (!i.ok()) return i.status();
    return MakeTauReLU(*i);
  }
  if (text.rfind("gt:", 0) == 0) {
    size_t second_colon = text.find(':', 3);
    if (second_colon == std::string::npos) {
      return InvalidArgumentError("expected gt:<i>:<b>");
    }
    StatusOr<int> i = ParseHeadIndexSuffix(text.substr(3, second_colon - 3));
    if (!i.ok()) return i.status();
    StatusOr<Rational> b = Rational::FromString(text.substr(second_colon + 1));
    if (!b.ok()) return b.status();
    return MakeTauGreaterThan(*i, *b);
  }
  if (text.rfind("const:", 0) == 0) {
    StatusOr<Rational> c = Rational::FromString(text.substr(6));
    if (!c.ok()) return c.status();
    return MakeConstantTau(*c);
  }
  for (const std::string name : {"plus", "maxof", "minof"}) {
    if (text.rfind(name + ":", 0) == 0) {
      // The text form of the canonical monoid token tau_<name>^<i>,<j>,...
      return ParseCanonicalTauToken("tau_" + name + "^" +
                                    text.substr(name.size() + 1));
    }
  }
  return InvalidArgumentError("unknown value function: " + text);
}

}  // namespace shapcq
