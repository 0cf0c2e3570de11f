#include "shapcq/shapley/plan.h"

#include <utility>

#include "shapcq/agg/value_function.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/shapley/solver.h"

namespace shapcq {

const char* ScoreKindName(ScoreKind score) {
  return score == ScoreKind::kShapley ? "shapley" : "banzhaf";
}

const char* FrontierVerdictName(bool inside_frontier) {
  return inside_frontier ? "inside (PTIME for every localized tau)"
                         : "outside (hard for some tau; exact may still "
                           "apply for this tau, else fallback)";
}

std::string PlanFingerprint(const AggregateQuery& a, ScoreKind score) {
  return "Q" + CanonicalQueryKey(a.query) + "|alpha=" + a.alpha.ToString() +
         "|tau=" + a.tau->FingerprintToken() +
         "|score=" + ScoreKindName(score);
}

std::shared_ptr<const AttributionPlan> AttributionPlan::Compile(
    AggregateQuery a, ScoreKind score) {
  std::string fingerprint = PlanFingerprint(a, score);
  return CompileWithFingerprint(std::move(a), score, std::move(fingerprint));
}

std::shared_ptr<const AttributionPlan> AttributionPlan::CompileWithFingerprint(
    AggregateQuery a, ScoreKind score, std::string fingerprint) {
  auto plan =
      std::shared_ptr<AttributionPlan>(new AttributionPlan(std::move(a), score));
  plan->fingerprint_ = std::move(fingerprint);
  const ConjunctiveQuery& q = plan->a_.query;
  plan->classification_ = Classify(q);
  plan->has_self_join_ = q.HasSelfJoin();
  plan->inside_frontier_ =
      !plan->has_self_join_ &&
      AtLeast(plan->classification_, TractabilityFrontier(plan->a_.alpha));
  plan->root_variables_ = RootVariables(q);
  plan->connected_components_ = ConnectedComponents(q);
  // The τ analysis and the engine gates assume τ fits the head.
  plan->status_ = ValidateAggregateQuery(plan->a_);
  if (!plan->status_.ok()) return plan;
  plan->localization_atoms_ = LocalizationAtoms(q, *plan->a_.tau);
  plan->engines_ = EngineRegistry::Global().CandidatesFor(plan->a_);
  return plan;
}

StatusOr<std::string> AttributionPlan::ExactAlgorithmName() const {
  if (engines_.empty()) return UnsupportedError("no exact engine");
  return engines_[0]->name;
}

std::string AttributionPlan::Explain() const {
  std::string out;
  out += "fingerprint     : " + fingerprint_ + "\n";
  out += "hierarchy class : ";
  out += HierarchyClassName(classification_);
  if (has_self_join_) out += " (self-join)";
  out += "\n";
  out += "frontier        : ";
  out += FrontierVerdictName(inside_frontier_);
  out += "\n";
  out += "tau localization: ";
  if (localization_atoms_.empty()) {
    out += "not localized";
  } else {
    out += "atoms {";
    for (size_t i = 0; i < localization_atoms_.size(); ++i) {
      if (i > 0) out += ", ";
      out += a_.query.atoms()[static_cast<size_t>(localization_atoms_[i])]
                 .ToString();
    }
    out += "}";
  }
  out += "\n";
  out += "root variables  : ";
  if (root_variables_.empty()) {
    out += "none";
  } else {
    for (size_t i = 0; i < root_variables_.size(); ++i) {
      if (i > 0) out += ", ";
      out += root_variables_[i];
    }
  }
  out += "\n";
  out += "components      : " + std::to_string(connected_components_.size()) +
         "\n";
  out += "engine chain    : ";
  if (engines_.empty()) {
    out += "none (brute force / Monte Carlo fallback only)\n";
  } else {
    out += "\n";
    for (size_t i = 0; i < engines_.size(); ++i) {
      const EngineProvider& engine = *engines_[i];
      out += "  " + std::to_string(i + 1) + ". " + engine.name + "  [";
      bool first = true;
      auto entry = [&out, &first](const char* name) {
        if (!first) out += ", ";
        out += name;
        first = false;
      };
      if (engine.score_all != nullptr) entry("batched");
      if (engine.sum_k != nullptr) entry("sum_k");
      out += "]\n";
    }
  }
  return out;
}

PlanCache& PlanCache::Global() {
  static PlanCache* cache = new PlanCache();
  return *cache;
}

std::shared_ptr<const AttributionPlan> PlanCache::GetOrCompile(
    const AggregateQuery& a, ScoreKind score, bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  // Identity-based τ tokens can never be looked up again under an equal
  // key, so caching them would only grow the map — one dead entry per
  // per-request callback τ in a serving loop. Compile and stay out of the
  // cache (counted as a miss).
  if (!a.tau->HasCanonicalFingerprint()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++misses_;
    }
    return AttributionPlan::Compile(a, score);
  }
  std::string fingerprint = PlanFingerprint(a, score);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(fingerprint);
    if (it != plans_.end()) {
      ++hits_;
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second;
    }
  }
  // Compile outside the lock so slow compilations don't serialize unrelated
  // queries; on a lost race the first inserted plan wins.
  std::shared_ptr<const AttributionPlan> plan =
      AttributionPlan::CompileWithFingerprint(a, score, fingerprint);
  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  auto [it, inserted] = plans_.emplace(fingerprint, plan);
  if (!inserted) return it->second;
  insertion_order_.push_back(std::move(fingerprint));
  while (plans_.size() > max_entries_) {
    plans_.erase(insertion_order_.front());
    insertion_order_.pop_front();
    ++evictions_;
  }
  return plan;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.entries = plans_.size();
  stats.evictions = evictions_;
  return stats;
}

std::vector<std::shared_ptr<const AttributionPlan>> PlanCache::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const AttributionPlan>> plans;
  plans.reserve(insertion_order_.size());
  for (const std::string& fingerprint : insertion_order_) {
    auto it = plans_.find(fingerprint);
    if (it != plans_.end()) plans.push_back(it->second);
  }
  return plans;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  plans_.clear();
  insertion_order_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

}  // namespace shapcq
