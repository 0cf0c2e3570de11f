#include "shapcq/shapley/solver.h"

#include "shapcq/shapley/plan.h"
#include "shapcq/util/check.h"

namespace shapcq {

HierarchyClass TractabilityFrontier(const AggregateFunction& alpha) {
  switch (alpha.kind()) {
    case AggKind::kSum:
    case AggKind::kCount:
      return HierarchyClass::kExistsHierarchical;
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kCountDistinct:
      return HierarchyClass::kAllHierarchical;
    case AggKind::kAvg:
    case AggKind::kQuantile:
      return HierarchyClass::kQHierarchical;
    case AggKind::kHasDuplicates:
      return HierarchyClass::kSqHierarchical;
  }
  SHAPCQ_UNREACHABLE();
}

bool IsInsideFrontier(const AggregateFunction& alpha,
                      const ConjunctiveQuery& q) {
  if (q.HasSelfJoin()) return false;
  return AtLeast(Classify(q), TractabilityFrontier(alpha));
}

StatusOr<std::string> ShapleySolver::ExactAlgorithmName() const {
  Status valid = ValidateAggregateQuery(a_);
  if (!valid.ok()) return valid;
  return PlanCache::Global().GetOrCompile(a_)->ExactAlgorithmName();
}

StatusOr<SolveResult> ShapleySolver::Compute(const Database& db, FactId fact,
                                             const SolverOptions& options) const {
  Status valid = ValidateAggregateQuery(a_);
  if (!valid.ok()) return valid;
  SolverSession session(PlanCache::Global().GetOrCompile(a_, options.score),
                        db);
  return session.Compute(fact, options);
}

StatusOr<std::vector<std::pair<FactId, SolveResult>>>
ShapleySolver::ComputeAll(const Database& db,
                          const SolverOptions& options) const {
  Status valid = ValidateAggregateQuery(a_);
  if (!valid.ok()) return valid;
  SolverSession session(PlanCache::Global().GetOrCompile(a_, options.score),
                        db);
  return session.ComputeAll(options);
}

StatusOr<SumKSeries> ShapleySolver::ComputeSumKSeries(
    const Database& db, const SolverOptions& options) const {
  Status valid = ValidateAggregateQuery(a_);
  if (!valid.ok()) return valid;
  SolverSession session(PlanCache::Global().GetOrCompile(a_), db);
  return session.ComputeSumKSeries(options);
}

}  // namespace shapcq
