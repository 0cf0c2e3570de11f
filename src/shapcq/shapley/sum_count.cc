#include "shapcq/shapley/sum_count.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "shapcq/hierarchy/classification.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/linearity.h"
#include "shapcq/shapley/membership.h"
#include "shapcq/util/check.h"

namespace shapcq {

namespace {

// The gate of SumCountSumK, shared with the batched scorer so both fail
// identically.
Status CheckSumCountShape(const AggregateQuery& a) {
  if (a.alpha.kind() != AggKind::kSum && a.alpha.kind() != AggKind::kCount) {
    return UnsupportedError("SumCountSumK handles Sum and Count only");
  }
  if (a.query.HasSelfJoin()) {
    return UnsupportedError("SumCountSumK requires a self-join-free CQ");
  }
  if (!IsExistsHierarchical(a.query)) {
    return UnsupportedError("Sum/Count requires an exists-hierarchical CQ: " +
                            a.query.ToString());
  }
  return Status::Ok();
}

// Binds the head variables of `a.query` to `answer`, yielding the Boolean
// query "answer still present". Repeated head variables bind once.
ConjunctiveQuery BindAnswer(const ConjunctiveQuery& q, const Tuple& answer) {
  ConjunctiveQuery q_t = q;
  for (size_t i = 0; i < answer.size(); ++i) {
    const std::string& head_var = q.head()[i];
    if (q_t.IsFreeVariable(head_var)) {
      q_t = q_t.Bind(head_var, answer[i]);
    }
  }
  SHAPCQ_CHECK(q_t.is_boolean());
  return q_t;
}

}  // namespace

StatusOr<SumKSeries> SumCountSumK(const AggregateQuery& a, const Database& db,
                                  const SolverOptions& /*options*/) {
  Status shape = CheckSumCountShape(a);
  if (!shape.ok()) return shape;
  int n = db.num_endogenous();
  SumKSeries series(static_cast<size_t>(n) + 1);
  for (const Tuple& answer : Evaluate(a.query, db)) {
    ConjunctiveQuery q_t = BindAnswer(a.query, answer);
    StatusOr<std::vector<BigInt>> counts = SatisfactionCounts(q_t, db);
    if (!counts.ok()) return counts.status();
    Rational weight = a.alpha.kind() == AggKind::kCount
                          ? Rational(1)
                          : a.tau->Evaluate(answer);
    if (weight.is_zero()) continue;
    for (int k = 0; k <= n; ++k) {
      series[static_cast<size_t>(k)] +=
          weight * Rational((*counts)[static_cast<size_t>(k)]);
    }
  }
  return series;
}

StatusOr<std::vector<std::pair<FactId, Rational>>> SumCountScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options) {
  Status shape = CheckSumCountShape(a);
  if (!shape.ok()) return shape;
  if (db.num_endogenous() == 0) {
    return std::vector<std::pair<FactId, Rational>>{};
  }

  // Equivalence with the per-fact path (ScoreViaSumK over SumCountSumK):
  // both are Σ_t w(t) · (the fact's score in Q_t's membership game), and
  // Q_t over E ∪ D_x only ever reads the facts U_t its homomorphisms use —
  // every other fact is a null player, so the game over U_t's m_t
  // endogenous facts at m_t-player weights has the same exact values.
  //
  // Binding and the SatisfactionCounts gates run serially, so the batch
  // fails on exactly the answer the serial path would.
  const std::vector<AnswerHomomorphisms> answers =
      GroupHomomorphismsByAnswer(a.query, db);
  std::vector<ConjunctiveQuery> bound;
  bound.reserve(answers.size());
  for (const AnswerHomomorphisms& answer : answers) {
    ConjunctiveQuery q_t = BindAnswer(a.query, answer.answer);
    if (q_t.HasSelfJoin()) {
      return UnsupportedError(
          "satisfaction counts require a self-join-free CQ");
    }
    if (!IsAllHierarchical(q_t)) {
      return UnsupportedError(
          "satisfaction counts require a hierarchical CQ: " + q_t.ToString());
    }
    bound.push_back(std::move(q_t));
  }

  // Each answer's game is counted on its lineage circuit. An answer whose
  // circuit exceeds options.lineage's budget falls back to the DP over U_t
  // (endogenous and exogenous facts) and over U_t \ {f} per player f, i.e.
  // G_f. F_f (f exogenous) follows from the partition identity
  // c_{k+1}(U_t) = c_{k+1}(G_f) + c_k(F_f), so the pivots of f are
  // c_k(F_f) − c_k(G_f) = c_{k+1}(U_t) − c_{k+1}(G_f) − c_k(G_f), with
  // c_m(G_f) = 0.
  auto satisfaction_game = [&](const AnswerGroup& group,
                               Combinatorics* comb) -> StatusOr<GroupGame> {
    const size_t t = group.answers.front();
    GroupGame game;
    FactSubset support;
    support.db = &db;
    for (const std::vector<FactId>& used : answers[t].used_facts) {
      bool has_endogenous = false;
      for (FactId id : used) {
        has_endogenous = has_endogenous || db.fact(id).endogenous;
      }
      // Alive on exogenous facts alone: every fact is a null player.
      if (!has_endogenous) return game;
      support.facts.insert(support.facts.end(), used.begin(), used.end());
    }
    std::sort(support.facts.begin(), support.facts.end());
    support.facts.erase(
        std::unique(support.facts.begin(), support.facts.end()),
        support.facts.end());
    const std::vector<BigInt> full =
        SatisfactionCountsOnSubset(bound[t], support, comb);
    FactSubset without;
    without.db = &db;
    for (FactId f : support.facts) {
      if (!db.fact(f).endogenous) continue;
      without.facts.clear();
      for (FactId id : support.facts) {
        if (id != f) without.facts.push_back(id);
      }
      const std::vector<BigInt> removed =
          SatisfactionCountsOnSubset(bound[t], without, comb);
      std::vector<BigInt> pivots(removed.size());
      for (size_t k = 0; k < removed.size(); ++k) {
        pivots[k] = full[k + 1] - removed[k];
        if (k + 1 < removed.size()) pivots[k] -= removed[k + 1];
      }
      game.players.push_back(f);
      game.pivots.push_back(std::move(pivots));
    }
    return game;
  };
  return ScoreGroupsOnCircuits(a, db, answers, options, satisfaction_game);
}

void RegisterSumCountEngine(EngineRegistry& registry) {
  EngineProvider provider;
  provider.name = "sum-count/linearity";
  provider.priority = 10;
  provider.applies = [](const AggregateQuery& a) {
    return a.alpha.kind() == AggKind::kSum ||
           a.alpha.kind() == AggKind::kCount;
  };
  provider.sum_k = SumCountSumK;
  provider.score_all = SumCountScoreAll;
  registry.Register(std::move(provider));
}

}  // namespace shapcq
