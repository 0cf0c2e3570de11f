#include "shapcq/shapley/avg_quantile.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "shapcq/shapley/avg_quantile_dp.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/fixed_int.h"

namespace shapcq {

Rational QuantileContribution(const Rational& q, int64_t less, int64_t equal,
                              int64_t greater) {
  int64_t total = less + equal + greater;
  if (total == 0 || equal == 0) return Rational(0);
  return Rational(avg_quantile_dp::QuantileHalves(
             avg_quantile_dp::QuantileRanks(q, total), less, equal)) /
         Rational(2);
}

StatusOr<SumKSeries> AvgQuantileSumK(const AggregateQuery& a,
                                     const Database& db,
                                     const SolverOptions& /*options*/) {
  return avg_quantile_dp::AvgQuantileSumKImpl<CountValue>(a, db);
}

StatusOr<std::vector<std::pair<FactId, Rational>>> AvgQuantileScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options) {
  using Solver = avg_quantile_dp::AvgQntSolver<CountValue>;
  using Structure = Solver::Structure;
  StatusOr<avg_quantile_dp::AvgQntSetup> setup =
      avg_quantile_dp::CheckAvgQuantileShape(a, db);
  if (!setup.ok()) return setup.status();
  const std::vector<Rational>& anchors = setup->anchors;
  Combinatorics comb;
  Solver solver(a.query, *a.tau, setup->relation, anchors, &comb);
  RelevanceSplit split = SplitRelevant(a.query, AllFacts(db));
  std::optional<std::vector<Solver::Block>> blocks =
      anchors.empty() ? std::nullopt
                      : solver.TopBlocks(a.query, split.relevant);
  if (!blocks.has_value()) {
    return ScoreAllViaSumK(a, db, AvgQuantileSumK, options);
  }
  // The full-database block pass, polling the deadline before each
  // block; block_of maps a fact to the block holding it.
  std::vector<Structure> solved;
  solved.reserve(blocks->size());
  std::vector<int> block_of(static_cast<size_t>(db.num_facts()), -1);
  Structure all = solver.Unit();
  for (size_t b = 0; b < blocks->size(); ++b) {
    if (SolveCancelled(options)) {
      return DeadlineExceededError("deadline exceeded while solving blocks");
    }
    solved.push_back(solver.SolveBlock((*blocks)[b], db));
    all = solver.CombineUnion(all, solved.back());
    for (FactId f : (*blocks)[b].facts) {
      block_of[static_cast<size_t>(f)] = static_cast<int>(b);
    }
  }
  // Facts in no block — unmatched root values, irrelevant facts — pad
  // every series alike.
  const int pad = db.num_endogenous() - all.num_endogenous;
  const std::vector<CountValue> pad_row = solver.PadRow(pad);
  const avg_quantile_dp::AvgQntSeries<CountValue> series(anchors, a.alpha,
                                                         setup->num_answers);
  const SumKSeries full_series = series.Of(all, pad_row);
  const Solver::FlatStructure all_flat = solver.Flatten(all);
  // A relevant fact in no block is padding: F drops one padding fact.
  const SumKSeries padding_series =
      split.relevant.CountEndogenous() > all.num_endogenous
          ? series.Of(all, solver.PadRow(pad - 1))
          : SumKSeries();
  return ScoreFactsByIdentity(
      a, db, full_series,
      [&]() -> ExogenousSeriesFn {
        // F_f re-solves f's block with f's flag flipped on the worker's
        // own database copy, next to the fold of every other block: `all`
        // divided by f's block, kept for the worker's last block.
        auto work = std::make_shared<Database>(db);
        auto work_comb = std::make_shared<Combinatorics>();
        auto work_solver = std::make_shared<Solver>(
            a.query, *a.tau, setup->relation, anchors, work_comb.get());
        auto others = std::make_shared<std::pair<int, Solver::FlatStructure>>(
            -1, Solver::FlatStructure());
        return [&, work, work_comb, work_solver,
                others](FactId f) -> StatusOr<SumKSeries> {
          const int b = block_of[static_cast<size_t>(f)];
          if (b < 0) return padding_series;
          if (others->first != b) {
            others->second =
                work_solver->Divide(all_flat, solved[static_cast<size_t>(b)]);
            others->first = b;
          }
          work->SetEndogenous(f, false);
          Structure variant =
              work_solver->SolveBlock((*blocks)[static_cast<size_t>(b)], *work);
          work->SetEndogenous(f, true);
          return series.OfUnion(others->second, variant, pad_row);
        };
      },
      options);
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
  provider.score_all = AvgQuantileScoreAll;
  registry.Register(std::move(provider));
}

}  // namespace shapcq
