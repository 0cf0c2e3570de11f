#include "shapcq/engines/lineage_engine.h"

#include <string>
#include <utility>

#include "shapcq/obs/trace.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/shapley/linearity.h"
#include "shapcq/util/combinatorics.h"

namespace shapcq {

namespace {

bool IsGroupGameAggregate(const AggregateQuery& a) {
  switch (a.alpha.kind()) {
    case AggKind::kSum:
    case AggKind::kCount:
    case AggKind::kCountDistinct:
    case AggKind::kMax:
    case AggKind::kMin:
      return true;
    default:
      return false;
  }
}

Status CheckLineageShape(const AggregateQuery& a) {
  if (!IsGroupGameAggregate(a)) {
    return UnsupportedError(
        "lineage-circuit handles Sum, Count, CountDistinct, Max and Min "
        "only");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<std::vector<std::pair<FactId, Rational>>> LineageCircuitScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options) {
  Status shape = CheckLineageShape(a);
  if (!shape.ok()) return shape;
  if (db.num_endogenous() == 0) {
    return std::vector<std::pair<FactId, Rational>>{};
  }

  // Span sites here run on the calling thread only (the sweep's thread);
  // the per-chunk circuit work below never touches options.trace.
  Span extract_span(options.trace, "lineage_extract");
  const std::vector<AnswerHomomorphisms> answers =
      GroupHomomorphismsByAnswer(a.query, db);
  extract_span.Annotate("answers", static_cast<int64_t>(answers.size()));
  extract_span.Annotate("players",
                        static_cast<int64_t>(db.num_endogenous()));
  extract_span.End();

  Span compile_span(options.trace, "lineage_compile");
  compile_span.Annotate("tasks", static_cast<int64_t>(answers.size()));
  return ScoreGroupsOnCircuits(a, db, answers, options);
}

StatusOr<SumKSeries> LineageCircuitSumK(const AggregateQuery& a,
                                        const Database& db,
                                        const SolverOptions& options) {
  Status shape = CheckLineageShape(a);
  if (!shape.ok()) return shape;
  const int64_t n = db.num_endogenous();
  const std::vector<AnswerHomomorphisms> answers =
      GroupHomomorphismsByAnswer(a.query, db);
  std::vector<const Tuple*> tuples;
  tuples.reserve(answers.size());
  for (const AnswerHomomorphisms& answer : answers) {
    tuples.push_back(&answer.answer);
  }
  StatusOr<std::vector<AnswerGroup>> groups = AnswerGroupsOf(a, tuples);
  if (!groups.ok()) return groups.status();
  const std::vector<std::vector<std::vector<int>>> lineages =
      AnswerLineages(answers, db);
  Combinatorics comb;
  SumKSeries series(static_cast<size_t>(n) + 1);
  for (const AnswerGroup& group : *groups) {
    const std::vector<std::vector<int>> clauses =
        GroupLineage(lineages, group);
    if (ConstantTrue(clauses)) {
      // Alive in every sub-database: w·C(n, k) per level.
      const std::vector<BigInt>& row = comb.BinomialRow(n);
      for (int64_t k = 0; k <= n; ++k) {
        series[static_cast<size_t>(k)] +=
            group.weight * Rational(row[static_cast<size_t>(k)]);
      }
      continue;
    }
    StatusOr<CompiledLineage> compiled =
        CompileLineage(clauses, options.lineage, &comb);
    if (!compiled.ok()) return compiled.status();
    // Pad the local counts to the n-player universe: the n − m facts
    // outside the group's lineage are free.
    const int64_t m = static_cast<int64_t>(compiled->players.size());
    const std::vector<BigInt>& pad = comb.BinomialRow(n - m);
    for (int64_t j = 0; j <= m; ++j) {
      const BigInt& models =
          compiled->entry->counts.by_size[static_cast<size_t>(j)];
      if (models.is_zero()) continue;
      Rational weighted = group.weight * Rational(models);
      for (int64_t g = 0; g <= n - m; ++g) {
        series[static_cast<size_t>(j + g)] +=
            weighted * Rational(pad[static_cast<size_t>(g)]);
      }
    }
  }
  return series;
}

void RegisterLineageCircuitEngine(EngineRegistry& registry) {
  EngineProvider provider;
  provider.name = "lineage-circuit";
  // After every frontier DP (priority 10/20) — those win whenever they
  // apply — and before the session's brute-force/Monte-Carlo fallback.
  provider.priority = 60;
  // Any CQ shape and any τ: self-joins and non-hierarchical queries
  // included. The per-database cost gate is the compilation budget, not
  // the query.
  provider.applies = IsGroupGameAggregate;
  provider.sum_k = LineageCircuitSumK;
  provider.score_all = LineageCircuitScoreAll;
  registry.Register(std::move(provider));
}

}  // namespace shapcq
