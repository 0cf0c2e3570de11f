#include "shapcq/shapley/avg_quantile.h"

#include "shapcq/shapley/avg_quantile_dp.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/util/fixed_int.h"

namespace shapcq {

Rational QuantileContribution(const Rational& q, int64_t less, int64_t equal,
                              int64_t greater) {
  int64_t total = less + equal + greater;
  if (total == 0 || equal == 0) return Rational(0);
  Rational qn = q * Rational(total);
  int64_t i1 = qn.Ceil().ToInt64();                   // ⌈q·|B|⌉
  int64_t i2 = (qn + Rational(1)).Floor().ToInt64();  // ⌊q·|B|+1⌋
  Rational contribution;
  if (less < i1 && less + equal >= i1) contribution += Rational(1);
  if (less < i2 && less + equal >= i2) contribution += Rational(1);
  return contribution / Rational(2);
}

StatusOr<SumKSeries> AvgQuantileSumK(const AggregateQuery& a,
                                     const Database& db,
                                     const SolverOptions& /*options*/) {
  return avg_quantile_dp::AvgQuantileSumKImpl<CountValue>(a, db);
}

void RegisterAvgQuantileEngine(EngineRegistry& registry) {
  EngineProvider provider;
  provider.name = "avg-quantile/q-hierarchical-dp";
  provider.priority = 10;
  provider.applies = [](const AggregateQuery& a) {
    return a.alpha.kind() == AggKind::kAvg ||
           a.alpha.kind() == AggKind::kQuantile;
  };
  provider.sum_k = AvgQuantileSumK;
  registry.Register(std::move(provider));
}

}  // namespace shapcq
