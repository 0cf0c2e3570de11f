#include "shapcq/shapley/engine_registry.h"

#include <algorithm>

#include "shapcq/util/check.h"

namespace shapcq {

void EngineRegistry::Register(EngineProvider provider) {
  SHAPCQ_CHECK(!provider.name.empty());
  SHAPCQ_CHECK(provider.applies != nullptr);
  SHAPCQ_CHECK(provider.sum_k != nullptr || provider.score_all != nullptr);
  providers_.push_back(
      std::make_unique<EngineProvider>(std::move(provider)));
}

std::vector<const EngineProvider*> EngineRegistry::CandidatesFor(
    const AggregateQuery& a) const {
  std::vector<const EngineProvider*> candidates;
  for (const auto& provider : providers_) {
    if (provider->applies(a)) candidates.push_back(provider.get());
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const EngineProvider* x, const EngineProvider* y) {
                     return x->priority < y->priority;
                   });
  return candidates;
}

}  // namespace shapcq
