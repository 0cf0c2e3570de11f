#include "shapcq/shapley/session.h"

#include <algorithm>

#include "shapcq/lineage/stats.h"
#include "shapcq/obs/trace.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/util/check.h"

namespace shapcq {

namespace {

constexpr const char* kNoEngineMessage = "no exact engine applies";

SolveResult ExactResult(Rational value, std::string algorithm) {
  SolveResult result;
  result.is_exact = true;
  result.exact = std::move(value);
  result.approximation = result.exact.ToDouble();
  result.algorithm = std::move(algorithm);
  return result;
}

SolveResult ApproximateResult(const MonteCarloResult& mc,
                              std::string algorithm) {
  SolveResult result;
  result.is_exact = false;
  result.approximation = mc.estimate;
  result.std_error = mc.std_error;
  result.samples = mc.samples;
  result.algorithm = std::move(algorithm);
  return result;
}

// A batch must hold one entry per endogenous fact, ascending — aligned with
// `facts`. Guards against a misbehaving custom engine, which then counts as
// failed instead of mixing up facts.
Status CheckAligned(const EngineProvider& engine,
                    const std::vector<std::pair<FactId, Rational>>& batch,
                    const std::vector<FactId>& facts) {
  bool aligned = batch.size() == facts.size();
  for (size_t i = 0; aligned && i < facts.size(); ++i) {
    aligned = batch[i].first == facts[i];
  }
  if (aligned) return Status::Ok();
  return InternalError("engine '" + engine.name +
                       "' returned a misaligned batch");
}

// The structured kExactOnly failure: names the player count, whether it is
// past the brute-force horizon, and the engines consulted, so callers see
// WHY nothing exact ran instead of one engine's shape complaint.
Status ExactUnavailableStatus(const AttributionPlan& plan, int players,
                              const Status& first_failure) {
  std::string message = "no exact engine solved the query over " +
                        std::to_string(players) + " endogenous facts";
  if (players > kBruteForceMaxPlayers) {
    message += " (exceeds the brute-force limit of " +
               std::to_string(kBruteForceMaxPlayers) + " players)";
  }
  message += "; engines consulted: ";
  if (plan.engines().empty()) {
    message += "none";
  } else {
    message += "[";
    for (size_t i = 0; i < plan.engines().size(); ++i) {
      if (i > 0) message += ", ";
      message += plan.engines()[i]->name;
    }
    message += "]";
  }
  message += "; first failure: " + first_failure.message();
  return UnsupportedError(message);
}

// The structured deadline failure: how far the engine chain got before the
// cancellation hook fired, plus the bounded-time way out — callers (e.g.
// serve/server.h) degrade to method=kMonteCarlo, whose cost is capped by
// the sample budget.
Status DeadlineStatus(size_t engines_tried, size_t engines_total) {
  return DeadlineExceededError(
      "deadline exceeded during exact solve: " +
      std::to_string(engines_tried) + "/" + std::to_string(engines_total) +
      " engines tried; retry with method=mc for a bounded-time estimate");
}

}  // namespace

SolverSession::SolverSession(std::shared_ptr<const AttributionPlan> plan,
                             const Database& db)
    : plan_(std::move(plan)), db_(db) {
  SHAPCQ_CHECK(plan_ != nullptr);
}

SolverSession::SolverSession(AggregateQuery a, const Database& db)
    : SolverSession(PlanCache::Global().GetOrCompile(a), db) {}

StatusOr<SolveResult> SolverSession::Compute(FactId fact,
                                             const SolverOptions& options) {
  if (!plan_->status().ok()) return plan_->status();
  if (!db_.live(fact)) {
    return InvalidArgumentError("fact " + std::to_string(fact) +
                                " is not a live fact of the database");
  }
  if (!db_.fact(fact).endogenous) {
    return InvalidArgumentError("fact is exogenous: " +
                                db_.fact(fact).ToString());
  }
  StatusOr<std::vector<std::pair<FactId, SolveResult>>> all =
      ComputeAll(options);
  if (!all.ok()) return all.status();
  // One row per endogenous fact, ascending by FactId: `fact` has one.
  const auto row = std::lower_bound(
      all->begin(), all->end(), fact,
      [](const std::pair<FactId, SolveResult>& entry, FactId id) {
        return entry.first < id;
      });
  return std::move(row->second);
}

SolverOptions SolverSession::FallbackOptions(
    const SolverOptions& options) const {
  SolverOptions forced = options;
  forced.method = db_.num_endogenous() <= kBruteForceMaxPlayers
                      ? SolveMethod::kBruteForce
                      : SolveMethod::kMonteCarlo;
  return forced;
}

StatusOr<std::vector<std::pair<FactId, SolveResult>>>
SolverSession::ExactAll(const SolverOptions& options) const {
  const std::vector<FactId> facts = db_.EndogenousFacts();
  std::vector<std::pair<FactId, SolveResult>> results;
  if (facts.empty()) return results;
  Status failure = UnsupportedError(kNoEngineMessage);
  size_t engines_tried = 0;
  for (const EngineProvider* engine : plan_->engines()) {
    // Deadline poll between engines (on the calling thread only, so the
    // chain stays deterministic).
    if (SolveCancelled(options)) {
      return DeadlineStatus(engines_tried, plan_->engines().size());
    }
    ++engines_tried;
    // One span per engine attempt, recorded on the calling thread only.
    // The lineage-stats delta attributes circuit work (nodes compiled,
    // budget fallbacks) to the engine that caused it.
    LineageStatsSnapshot lineage_before;
    if (options.trace != nullptr) {
      lineage_before = LineageStats::Global().Snapshot();
    }
    Span engine_span(options.trace, "engine:" + engine->name);
    // The engine's own batch, else the fact-level identity scorer over its
    // sum_k. Either scores every endogenous fact or none.
    StatusOr<std::vector<std::pair<FactId, Rational>>> batch =
        engine->score_all != nullptr
            ? engine->score_all(a(), db_, options)
            : ScoreAllViaSumK(a(), db_, engine->sum_k, options);
    const Status status =
        batch.ok() ? CheckAligned(*engine, *batch, facts) : batch.status();
    if (options.trace != nullptr) {
      const int64_t solved =
          status.ok() ? static_cast<int64_t>(facts.size()) : 0;
      engine_span.Annotate("facts_solved", solved);
      engine_span.Annotate("facts_open",
                           static_cast<int64_t>(facts.size()) - solved);
      if (!status.ok()) engine_span.Annotate("reject", status.message());
      const LineageStatsSnapshot delta = LineageStatsDelta(
          LineageStats::Global().Snapshot(), lineage_before);
      if (delta.circuit_nodes > 0) {
        engine_span.Annotate("circuit_nodes",
                             static_cast<int64_t>(delta.circuit_nodes));
      }
      if (delta.budget_fallbacks > 0) {
        engine_span.Annotate("budget_fallbacks",
                             static_cast<int64_t>(delta.budget_fallbacks));
      }
    }
    engine_span.End();
    if (status.ok()) {
      results.reserve(facts.size());
      for (auto& [fact, score] : *batch) {
        results.emplace_back(fact,
                             ExactResult(std::move(score), engine->name));
      }
      return results;
    }
    // Cancelled inside the batch: the same structured failure as the poll
    // between engines.
    if (status.code() == StatusCode::kDeadlineExceeded) {
      return DeadlineStatus(engines_tried, plan_->engines().size());
    }
    if (failure.message() == kNoEngineMessage) failure = status;
  }
  return failure;
}

StatusOr<std::vector<std::pair<FactId, SolveResult>>>
SolverSession::BruteForceAll(const SolverOptions& options) const {
  StatusOr<std::vector<std::pair<FactId, Rational>>> scores =
      BruteForceScoreAll(a(), db_, options);
  if (!scores.ok()) return scores.status();
  std::vector<std::pair<FactId, SolveResult>> results;
  results.reserve(scores->size());
  for (auto& [fact, score] : *scores) {
    results.emplace_back(fact, ExactResult(std::move(score), "brute-force"));
  }
  return results;
}

StatusOr<std::vector<std::pair<FactId, SolveResult>>>
SolverSession::MonteCarloAll(const SolverOptions& options) {
  if (monte_carlo_game_ == nullptr) {
    monte_carlo_game_ = std::make_unique<MonteCarloGame>(a(), db_);
  }
  StatusOr<std::vector<MonteCarloResult>> all = monte_carlo_game_->Estimate(
      options.score, options.monte_carlo, options.num_threads);
  if (!all.ok()) return all.status();
  std::vector<FactId> facts = db_.EndogenousFacts();
  std::vector<std::pair<FactId, SolveResult>> results;
  results.reserve(facts.size());
  for (size_t i = 0; i < facts.size(); ++i) {
    results.emplace_back(facts[i],
                         ApproximateResult((*all)[i], "monte-carlo"));
  }
  return results;
}

StatusOr<std::vector<std::pair<FactId, SolveResult>>> SolverSession::ComputeAll(
    const SolverOptions& options) {
  if (!plan_->status().ok()) return plan_->status();
  switch (options.method) {
    case SolveMethod::kBruteForce: {
      Span span(options.trace, "brute_force");
      StatusOr<std::vector<std::pair<FactId, SolveResult>>> brute =
          BruteForceAll(options);
      if (brute.ok()) {
        span.Annotate("facts", static_cast<int64_t>(brute->size()));
      }
      return brute;
    }
    case SolveMethod::kMonteCarlo: {
      Span span(options.trace, "monte_carlo");
      StatusOr<std::vector<std::pair<FactId, SolveResult>>> mc =
          MonteCarloAll(options);
      if (mc.ok()) {
        span.Annotate("facts", static_cast<int64_t>(mc->size()));
        span.Annotate("samples", options.monte_carlo.num_samples);
      }
      return mc;
    }
    case SolveMethod::kExactOnly:
    case SolveMethod::kAuto: {
      StatusOr<std::vector<std::pair<FactId, SolveResult>>> exact =
          ExactAll(options);
      if (exact.ok()) return exact;
      if (exact.status().code() == StatusCode::kDeadlineExceeded) {
        return exact.status();
      }
      if (options.method == SolveMethod::kExactOnly) {
        return ExactUnavailableStatus(*plan_, db_.num_endogenous(),
                                      exact.status());
      }
      // Last deadline poll before committing to a fallback, whose cost
      // (a full lattice sweep, or the sample budget) the caller then pays
      // in full.
      if (SolveCancelled(options)) {
        return DeadlineStatus(plan_->engines().size(),
                              plan_->engines().size());
      }
      return ComputeAll(FallbackOptions(options));
    }
  }
  SHAPCQ_UNREACHABLE();
}

StatusOr<SumKSeries> SolverSession::ComputeSumKSeries(
    const SolverOptions& options) const {
  if (!plan_->status().ok()) return plan_->status();
  Status failure = UnsupportedError(kNoEngineMessage);
  for (const EngineProvider* engine : plan_->engines()) {
    if (engine->sum_k == nullptr) continue;
    StatusOr<SumKSeries> series = engine->sum_k(a(), db_, options);
    if (series.ok()) return series;
    if (failure.message() == kNoEngineMessage) failure = series.status();
  }
  StatusOr<SumKSeries> brute = BruteForceSumK(a(), db_, options);
  if (brute.ok()) return brute;
  return failure;
}

}  // namespace shapcq
