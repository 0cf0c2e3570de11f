#include "shapcq/shapley/session.h"

#include "shapcq/lineage/stats.h"
#include "shapcq/obs/trace.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/solver.h"
#include "shapcq/util/check.h"
#include "shapcq/util/parallel.h"

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

// One engine's per-fact score: the direct scorer when the provider has
// one, the sum_k framework otherwise.
StatusOr<Rational> ScoreOneWith(const EngineProvider& engine,
                                const AggregateQuery& a, const Database& db,
                                FactId fact, const SolverOptions& options) {
  if (engine.score_one != nullptr) {
    return engine.score_one(a, db, fact, options);
  }
  if (engine.sum_k != nullptr) {
    return ScoreViaSumK(a, db, fact, engine.sum_k, options);
  }
  return UnsupportedError("engine '" + engine.name +
                          "' has no per-fact entry point");
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

// The structured deadline failure: how far the exact solve got before the
// cancellation hook fired, plus the bounded-time way out — callers (e.g.
// serve/server.h) degrade to method=kMonteCarlo, whose cost is capped by
// the sample budget.
Status DeadlineStatus(size_t engines_tried, size_t engines_total,
                      size_t facts_solved, size_t facts_total) {
  return DeadlineExceededError(
      "deadline exceeded during exact solve: " +
      std::to_string(engines_tried) + "/" + std::to_string(engines_total) +
      " engines tried, " + std::to_string(facts_solved) + "/" +
      std::to_string(facts_total) +
      " facts solved; retry with method=mc for a bounded-time estimate");
}

}  // namespace

SolverSession::SolverSession(std::shared_ptr<const AttributionPlan> plan,
                             const Database& db)
    : plan_(std::move(plan)), db_(db) {
  SHAPCQ_CHECK(plan_ != nullptr);
}

SolverSession::SolverSession(AggregateQuery a, const Database& db)
    : SolverSession(PlanCache::Global().GetOrCompile(a), db) {}

StatusOr<SolveResult> SolverSession::ComputeExact(FactId fact,
                                                  const SolverOptions& options,
                                                  Status* first_failure) const {
  Status failure = UnsupportedError(kNoEngineMessage);
  size_t engines_tried = 0;
  for (const EngineProvider* engine : plan_->engines()) {
    if (SolveCancelled(options)) {
      Status deadline =
          DeadlineStatus(engines_tried, plan_->engines().size(), 0, 1);
      if (first_failure != nullptr) *first_failure = deadline;
      return deadline;
    }
    ++engines_tried;
    StatusOr<Rational> score =
        ScoreOneWith(*engine, a(), db_, fact, options);
    if (score.ok()) {
      return ExactResult(std::move(score).value(), engine->name);
    }
    if (failure.message() == kNoEngineMessage) failure = score.status();
  }
  if (first_failure != nullptr) *first_failure = failure;
  return failure;
}

StatusOr<SolveResult> SolverSession::Compute(FactId fact,
                                             const SolverOptions& options) {
  if (!plan_->status().ok()) return plan_->status();
  if (!db_.fact(fact).endogenous) {
    return InvalidArgumentError("fact is exogenous: " +
                                db_.fact(fact).ToString());
  }
  switch (options.method) {
    case SolveMethod::kExactOnly: {
      StatusOr<SolveResult> exact = ComputeExact(fact, options, nullptr);
      if (exact.ok()) return exact;
      return ExactUnavailableStatus(*plan_, db_.num_endogenous(),
                                    exact.status());
    }
    case SolveMethod::kBruteForce: {
      StatusOr<Rational> score =
          BruteForceScore(a(), db_, fact, options.score);
      if (!score.ok()) return score.status();
      return ExactResult(std::move(score).value(), "brute-force");
    }
    case SolveMethod::kMonteCarlo: {
      StatusOr<std::vector<MonteCarloResult>> all = SampleAll(options);
      if (!all.ok()) return all.status();
      const int player = monte_carlo_game_->PlayerIndex(fact);
      return ApproximateResult((*all)[static_cast<size_t>(player)],
                               "monte-carlo");
    }
    case SolveMethod::kAuto: {
      StatusOr<SolveResult> exact = ComputeExact(fact, options, nullptr);
      if (exact.ok()) return exact;
      // A deadline cancellation surfaces as-is: the caller decides whether
      // to degrade to a bounded Monte Carlo run, and the brute-force
      // fallback below is exactly the unbounded work the deadline forbids.
      if (exact.status().code() == StatusCode::kDeadlineExceeded) {
        return exact.status();
      }
      SolverOptions forced = options;
      forced.method = db_.num_endogenous() <= kBruteForceMaxPlayers
                          ? SolveMethod::kBruteForce
                          : SolveMethod::kMonteCarlo;
      return Compute(fact, forced);
    }
  }
  SHAPCQ_UNREACHABLE();
}

std::vector<size_t> SolverSession::ExactSweep(
    const std::vector<FactId>& facts, const SolverOptions& options,
    std::vector<SolveResult>* results, Status* first_failure) const {
  SHAPCQ_CHECK(results->size() == facts.size());
  Status failure = UnsupportedError(kNoEngineMessage);
  auto note_failure = [&failure](const Status& status) {
    if (failure.message() == kNoEngineMessage) failure = status;
  };
  std::vector<size_t> remaining(facts.size());
  for (size_t i = 0; i < facts.size(); ++i) remaining[i] = i;
  size_t engines_tried = 0;
  for (const EngineProvider* engine : plan_->engines()) {
    if (remaining.empty()) break;
    // Deadline poll between engines (on the calling thread only, so the
    // sweep stays deterministic): a fired cancellation stops the chain and
    // surfaces as the kDeadlineExceeded failure ComputeAll propagates.
    if (SolveCancelled(options)) {
      failure = DeadlineStatus(engines_tried, plan_->engines().size(),
                               facts.size() - remaining.size(), facts.size());
      if (first_failure != nullptr) *first_failure = failure;
      return remaining;
    }
    ++engines_tried;
    // One span per engine attempt, recorded on the calling thread only.
    // The lineage-stats delta attributes circuit work (nodes compiled,
    // budget fallbacks) to the engine that caused it; `reject` keeps this
    // engine's own failure even when an earlier engine owns first_failure.
    const size_t open_before = remaining.size();
    std::string reject;
    LineageStatsSnapshot lineage_before;
    if (options.trace != nullptr) {
      lineage_before = LineageStats::Global().Snapshot();
    }
    Span engine_span(options.trace, "engine:" + engine->name);
    auto finish_span = [&]() {
      if (options.trace == nullptr) return;
      engine_span.Annotate("facts_solved",
                           static_cast<int64_t>(open_before - remaining.size()));
      engine_span.Annotate("facts_open",
                           static_cast<int64_t>(remaining.size()));
      if (!reject.empty()) engine_span.Annotate("reject", reject);
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
      engine_span.End();
    };
    if (engine->score_all != nullptr || engine->sum_k != nullptr) {
      // The batch — the engine's own scorer, else the fact-level identity
      // scorer over its sum_k — covers every endogenous fact in one run,
      // so it serves leftover subsets too (its values are the per-fact
      // values by contract). A failed batch is final for this engine:
      // every built-in batch fails exactly where its per-fact path does
      // (the gates read the query alone, and lineage's score_one reruns
      // its batch), so a per-fact sweep would only repeat the failure.
      StatusOr<std::vector<std::pair<FactId, Rational>>> batch =
          engine->score_all != nullptr
              ? engine->score_all(a(), db_, options)
              : ScoreAllViaSumK(a(), db_, engine->sum_k, options);
      if (batch.ok()) {
        // The contract guarantees one entry per endogenous fact,
        // ascending — aligned with `facts`. Guard anyway so a misbehaving
        // custom engine degrades to "failed" instead of mixing up facts.
        bool aligned = batch->size() == facts.size();
        for (size_t i = 0; aligned && i < facts.size(); ++i) {
          aligned = (*batch)[i].first == facts[i];
        }
        if (aligned) {
          for (size_t idx : remaining) {
            (*results)[idx] = ExactResult(std::move((*batch)[idx].second),
                                          engine->name);
          }
          remaining.clear();
          finish_span();
          break;
        }
        Status misaligned = InternalError("engine '" + engine->name +
                                          "' returned a misaligned batch");
        reject = misaligned.message();
        note_failure(misaligned);
      } else if (batch.status().code() == StatusCode::kDeadlineExceeded) {
        // Cancelled inside the batch: the same structured failure as the
        // poll between engines.
        reject = batch.status().message();
        finish_span();
        failure = DeadlineStatus(engines_tried, plan_->engines().size(),
                                 facts.size() - remaining.size(), facts.size());
        if (first_failure != nullptr) *first_failure = failure;
        return remaining;
      } else {
        reject = batch.status().message();
        note_failure(batch.status());
      }
      finish_span();
      continue;
    }
    if (engine->score_one == nullptr) {
      finish_span();
      continue;
    }
    // Per-fact sweep with a score_one-only engine (closed forms, custom
    // providers) over the still-open facts, fanned out over the thread
    // pool. Slot i holds remaining[i]'s outcome, so the result is
    // independent of scheduling; failing facts stay open for the next
    // engine instead of dragging the successes along.
    std::vector<StatusOr<Rational>> scores(
        remaining.size(), StatusOr<Rational>(UnsupportedError("unset")));
    // Shards must never see the trace sink: TraceContext is single-owner
    // and records on the sweep's thread only (see solver_options.h).
    SolverOptions shard_options = options;
    shard_options.trace = nullptr;
    ParallelFor(
        static_cast<int64_t>(remaining.size()),
        [&](int64_t i) {
          FactId fact = facts[remaining[static_cast<size_t>(i)]];
          scores[static_cast<size_t>(i)] =
              engine->score_one(a(), db_, fact, shard_options);
        },
        options.num_threads);
    std::vector<size_t> still_open;
    for (size_t i = 0; i < remaining.size(); ++i) {
      if (scores[i].ok()) {
        (*results)[remaining[i]] =
            ExactResult(std::move(scores[i]).value(), engine->name);
      } else {
        if (reject.empty()) reject = scores[i].status().message();
        note_failure(scores[i].status());
        still_open.push_back(remaining[i]);
      }
    }
    remaining = std::move(still_open);
    finish_span();
  }
  if (first_failure != nullptr && !remaining.empty()) *first_failure = failure;
  return remaining;
}

StatusOr<std::vector<std::pair<FactId, SolveResult>>>
SolverSession::BruteForceAll(const SolverOptions& options) const {
  StatusOr<std::vector<std::pair<FactId, Rational>>> scores =
      BruteForceScoreAll(a(), db_, options.score);
  if (!scores.ok()) return scores.status();
  std::vector<std::pair<FactId, SolveResult>> results;
  results.reserve(scores->size());
  for (auto& [fact, score] : *scores) {
    results.emplace_back(fact, ExactResult(std::move(score), "brute-force"));
  }
  return results;
}

StatusOr<std::vector<MonteCarloResult>> SolverSession::SampleAll(
    const SolverOptions& options) {
  if (monte_carlo_game_ == nullptr) {
    monte_carlo_game_ = std::make_unique<MonteCarloGame>(a(), db_);
  }
  return monte_carlo_game_->Estimate(options.score, options.monte_carlo,
                                     options.num_threads);
}

Status SolverSession::MonteCarloFor(const std::vector<size_t>& indices,
                                    const SolverOptions& options,
                                    std::vector<SolveResult>* results) {
  StatusOr<std::vector<MonteCarloResult>> all = SampleAll(options);
  if (!all.ok()) return all.status();
  SHAPCQ_CHECK(all->size() == results->size());
  for (size_t idx : indices) {
    (*results)[idx] = ApproximateResult((*all)[idx], "monte-carlo");
  }
  return Status::Ok();
}

StatusOr<std::vector<std::pair<FactId, SolveResult>>>
SolverSession::MonteCarloAll(const SolverOptions& options) {
  StatusOr<std::vector<MonteCarloResult>> all = SampleAll(options);
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
      std::vector<FactId> facts = db_.EndogenousFacts();
      std::vector<SolveResult> solved(facts.size());
      Status failure = UnsupportedError(kNoEngineMessage);
      std::vector<size_t> remaining =
          ExactSweep(facts, options, &solved, &failure);
      if (!remaining.empty()) {
        if (failure.code() == StatusCode::kDeadlineExceeded) return failure;
        if (options.method == SolveMethod::kExactOnly) {
          return ExactUnavailableStatus(*plan_, db_.num_endogenous(),
                                        failure);
        }
        // Last deadline poll before committing to a fallback, whose cost
        // (a full lattice sweep, or the sample budget) the caller then
        // pays in full.
        if (SolveCancelled(options)) {
          return DeadlineStatus(plan_->engines().size(),
                                plan_->engines().size(),
                                facts.size() - remaining.size(),
                                facts.size());
        }
        // Fallback for the unsolved facts only — engine successes stay,
        // exactly like per-fact kAuto calls.
        if (db_.num_endogenous() <= kBruteForceMaxPlayers) {
          Span span(options.trace, "brute_force");
          span.Annotate("facts", static_cast<int64_t>(remaining.size()));
          // One shared lattice sweep covers every fact (ascending, aligned
          // with `facts`); the open ones take its values.
          StatusOr<std::vector<std::pair<FactId, Rational>>> brute =
              BruteForceScoreAll(a(), db_, options.score);
          if (!brute.ok()) return brute.status();
          SHAPCQ_CHECK(brute->size() == facts.size());
          for (size_t idx : remaining) {
            SHAPCQ_CHECK((*brute)[idx].first == facts[idx]);
            solved[idx] = ExactResult(std::move((*brute)[idx].second),
                                      "brute-force");
          }
        } else {
          Span span(options.trace, "monte_carlo");
          span.Annotate("facts", static_cast<int64_t>(remaining.size()));
          span.Annotate("samples", options.monte_carlo.num_samples);
          Status status = MonteCarloFor(remaining, options, &solved);
          if (!status.ok()) return status;
        }
      }
      std::vector<std::pair<FactId, SolveResult>> results;
      results.reserve(facts.size());
      for (size_t i = 0; i < facts.size(); ++i) {
        results.emplace_back(facts[i], std::move(solved[i]));
      }
      return results;
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
