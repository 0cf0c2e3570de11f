// Cross-engine consistency at sizes far beyond the brute-force horizon.
//
// Each test exploits an algebraic identity that lets two INDEPENDENT
// engines compute the same quantity on databases with 50-150 endogenous
// facts, where no enumeration could confirm them:
//
//   * τ ≡ c collapses Max/Avg/CDist to c·[Q nonempty] and their sum_k
//     series to c · satisfaction counts (membership engine);
//   * Dup ∘ τ≡c = [#answers ≥ 2], matching the answer-count distribution;
//   * closed forms (Props 4.2/4.4/5.2) vs the generic DPs;
//   * Count == Sum with τ ≡ 1;
//   * the sum-count DP (its budget fallback) and the lineage circuits
//     count the same per-answer games;
//   * the frontier guarantee of the group games: on all-hierarchical
//     queries with a localized τ every group circuit compiles within the
//     budget and stays linear in the group's facts, and past the budget
//     the Min/Max DP still scores exactly.

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/engines/lineage_engine.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/lineage/stats.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/answer_counts.h"
#include "shapcq/shapley/avg_quantile.h"
#include "shapcq/shapley/closed_forms.h"
#include "shapcq/shapley/count_distinct.h"
#include "shapcq/shapley/has_duplicates.h"
#include "shapcq/shapley/linearity.h"
#include "shapcq/shapley/membership.h"
#include "shapcq/shapley/min_max.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/session.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/shapley/sum_count.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/workload/generators.h"
#include "shapcq/workload/random_query.h"

namespace shapcq {
namespace {

Rational R(int64_t n) { return Rational(n); }

// 120 R-facts over 30 y-groups + 30 S-facts: 150 endogenous facts.
Database LargeDb() {
  Database db;
  const int groups = 30;
  for (int i = 0; i < 120; ++i) {
    db.AddEndogenous("R", {Value((i / groups) % 9 - 3), Value(i % groups)});
  }
  for (int g = 0; g < groups; ++g) db.AddEndogenous("S", {Value(g)});
  return db;
}

TEST(EngineScaleTest, ConstantTauCollapsesMaxToMembership) {
  Database db = LargeDb();
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  AggregateQuery max_c{q, MakeConstantTau(R(7)), AggregateFunction::Max()};
  auto series = MinMaxSumK(max_c, db);
  auto counts = SatisfactionCounts(q.AsBoolean(), db);
  ASSERT_TRUE(series.ok());
  ASSERT_TRUE(counts.ok());
  ASSERT_EQ(series->size(), counts->size());
  for (size_t k = 0; k < counts->size(); ++k) {
    EXPECT_EQ((*series)[k], R(7) * Rational((*counts)[k])) << "k=" << k;
  }
}

TEST(EngineScaleTest, ConstantTauCollapsesCDistToMembership) {
  Database db = LargeDb();
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  AggregateQuery cdist_c{q, MakeConstantTau(R(3)),
                         AggregateFunction::CountDistinct()};
  auto series = CountDistinctSumK(cdist_c, db);
  auto counts = SatisfactionCounts(q.AsBoolean(), db);
  ASSERT_TRUE(series.ok());
  for (size_t k = 0; k < counts->size(); ++k) {
    // CDist of a constant bag is 1 when nonempty.
    EXPECT_EQ((*series)[k], Rational((*counts)[k])) << "k=" << k;
  }
}

TEST(EngineScaleTest, ConstantTauCollapsesAvgToMembership) {
  // Smaller (the quintuple DP is the heavy one) but still beyond 2^n.
  Database db;
  const int groups = 12;
  for (int i = 0; i < 36; ++i) {
    db.AddEndogenous("R", {Value((i / groups) % 5 - 2), Value(i % groups)});
  }
  for (int g = 0; g < groups; ++g) db.AddEndogenous("S", {Value(g)});
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  AggregateQuery avg_c{q, MakeConstantTau(R(5)), AggregateFunction::Avg()};
  auto series = AvgQuantileSumK(avg_c, db);
  auto counts = SatisfactionCounts(q.AsBoolean(), db);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  for (size_t k = 0; k < counts->size(); ++k) {
    EXPECT_EQ((*series)[k], R(5) * Rational((*counts)[k])) << "k=" << k;
  }
}

TEST(EngineScaleTest, ConstantTauDupMatchesAnswerCounts) {
  Database db = LargeDb();
  // sq-hierarchical so the Dup engine accepts any localized τ.
  ConjunctiveQuery q = MustParseQuery("Q(y) <- R(x, y), S(y)");
  ASSERT_TRUE(IsSqHierarchical(q));
  AggregateQuery dup_c{q, MakeConstantTau(R(2)),
                       AggregateFunction::HasDuplicates()};
  auto series = HasDuplicatesSumK(dup_c, db);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  Combinatorics comb;
  RelevanceSplit split = SplitRelevant(q, AllFacts(db));
  AnswerCountMap dist = AnswerCountDistribution(q, split.relevant, &comb);
  dist = PadAnswerCounts(dist, split.irrelevant_endogenous, &comb);
  int n = db.num_endogenous();
  // Dup ∘ const = [#answers >= 2]: counts per k of subsets with >= 2.
  std::vector<BigInt> at_least_two(static_cast<size_t>(n) + 1);
  for (const auto& [key, count] : dist) {
    if (key.second >= 2) at_least_two[static_cast<size_t>(key.first)] += count;
  }
  for (int k = 0; k <= n; ++k) {
    EXPECT_EQ((*series)[static_cast<size_t>(k)],
              Rational(at_least_two[static_cast<size_t>(k)]))
        << "k=" << k;
  }
}

TEST(EngineScaleTest, CountEqualsSumOfOnes) {
  Database db = LargeDb();
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  AggregateQuery count{q, MakeConstantTau(R(1)), AggregateFunction::Count()};
  AggregateQuery sum_ones{q, MakeConstantTau(R(1)), AggregateFunction::Sum()};
  auto count_series = SumCountSumK(count, db);
  auto sum_series = SumCountSumK(sum_ones, db);
  ASSERT_TRUE(count_series.ok());
  ASSERT_TRUE(sum_series.ok());
  for (size_t k = 0; k < sum_series->size(); ++k) {
    EXPECT_EQ((*count_series)[k], (*sum_series)[k]);
  }
}

TEST(EngineScaleTest, ClosedFormsAgreeWithDpAt200Facts) {
  Database db;
  for (int i = 0; i < 200; ++i) {
    db.AddEndogenous("R", {Value(i), Value((i * 37) % 41 - 13)});
  }
  ConjunctiveQuery q = MustParseQuery("Q(i, v) <- R(i, v)");
  AggregateQuery max_q{q, MakeTauId(1), AggregateFunction::Max()};
  AggregateQuery cd_q{q, MakeTauId(1), AggregateFunction::CountDistinct()};
  for (FactId probe : {FactId{0}, FactId{99}, FactId{199}}) {
    EXPECT_EQ(*ClosedFormMax(max_q, db, probe),
              *ScoreViaSumK(max_q, db, probe, MinMaxSumK));
    EXPECT_EQ(*ClosedFormCountDistinct(cd_q, db, probe),
              *ScoreViaSumK(cd_q, db, probe, CountDistinctSumK));
  }
}

TEST(EngineScaleTest, EfficiencyAxiomViaEnginesOnly) {
  // Σ_f Shapley(f) = A(D) − A(D_x) verified with the Max engine alone on a
  // 60-fact database (no brute force anywhere).
  Database db;
  const int groups = 15;
  for (int i = 0; i < 45; ++i) {
    db.AddEndogenous("R", {Value((i / groups) % 7 - 2), Value(i % groups)});
  }
  for (int g = 0; g < groups; ++g) db.AddEndogenous("S", {Value(g)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Max()};
  Rational total;
  for (FactId f : db.EndogenousFacts()) {
    total += *ScoreViaSumK(a, db, f, MinMaxSumK);
  }
  EXPECT_EQ(total, a.Evaluate(db));  // A(D_x) = 0: no exogenous facts
}

// 546 endogenous facts under Q(x) <- R(x, y), S(y) over 221 answers:
// x = 0..219 joins two endogenous S values (and the exogenous S(50) when
// x % 4 == 0); every fifth x also joins a third S value through an
// exogenous R fact; x = 1000 is alive on exogenous facts alone and also
// has an endogenous (null-player) alternative. With `endogenous` false
// only the exogenous facts are added (D_x).
Database SumCountScaleDb(bool endogenous) {
  Database db;
  auto add = [&](bool endo, const std::string& relation, Tuple args) {
    if (endo && endogenous) db.AddEndogenous(relation, std::move(args));
    if (!endo) db.AddExogenous(relation, std::move(args));
  };
  for (int x = 0; x < 220; ++x) {
    add(true, "R", {Value(x), Value(x % 50)});
    add(true, "R", {Value(x), Value((7 * x + 3) % 50)});
    if (x % 5 == 0) add(false, "R", {Value(x), Value((3 * x + 1) % 50)});
    if (x % 4 == 0) add(true, "R", {Value(x), Value(50)});
  }
  for (int y = 0; y < 50; ++y) add(true, "S", {Value(y)});
  add(false, "S", {Value(50)});
  add(false, "R", {Value(1000), Value(60)});
  add(false, "S", {Value(60)});
  add(true, "R", {Value(1000), Value(1)});
  return db;
}

TEST(EngineScaleTest, SumCountMatchesLineageCircuitAtScale) {
  const Database db = SumCountScaleDb(/*endogenous=*/true);
  ASSERT_GE(db.num_endogenous(), 500);
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  // Fractional weights; the answer x = 7 weighs exactly 0.
  ValueFunctionPtr tau = MakeCallbackTau(
      [](const Tuple& t) {
        return (Rational(t[0].AsRational()) - R(7)) / R(3);
      },
      {0}, "x_minus_7_thirds");
  AggregateQuery a{q, tau, AggregateFunction::Sum()};
  // Efficiency: the Shapley values add up to A(D) − A(D_x).
  const Rational grand = a.Evaluate(db) - a.Evaluate(SumCountScaleDb(false));
  ASSERT_FALSE(grand.is_zero());
  for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
    for (int threads : {1, 8}) {
      SolverOptions options;
      options.score = kind;
      options.num_threads = threads;
      // No answer circuit fits a zero-variable budget, so sum-count counts
      // every answer with its satisfaction-count DP fallback.
      SolverOptions starved = options;
      starved.lineage.max_answer_vars = 0;
      auto dp = SumCountScoreAll(a, db, starved);
      auto circuits = LineageCircuitScoreAll(a, db, options);
      ASSERT_TRUE(dp.ok()) << dp.status().ToString();
      ASSERT_TRUE(circuits.ok()) << circuits.status().ToString();
      ASSERT_EQ(dp->size(), static_cast<size_t>(db.num_endogenous()));
      ASSERT_EQ(dp->size(), circuits->size());
      Rational total;
      for (size_t i = 0; i < dp->size(); ++i) {
        EXPECT_EQ((*dp)[i].first, (*circuits)[i].first);
        EXPECT_EQ((*dp)[i].second, (*circuits)[i].second)
            << "fact " << (*dp)[i].first << " threads " << threads;
        total += (*dp)[i].second;
      }
      if (kind == ScoreKind::kShapley) {
        EXPECT_EQ(total, grand);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The frontier guarantee of the group games
// ---------------------------------------------------------------------------

// Node bound per group fact. A hierarchical Boolean CQ's lineage is
// read-once, and the compiler's decomposition and caching keep such
// circuits linear (about m + 3 nodes on these inputs); the constant leaves
// twice that room.
constexpr int64_t kNodesPerFact = 2;

using Scorer = std::function<StatusOr<std::vector<std::pair<FactId, Rational>>>(
    const AggregateQuery&, const Database&, const SolverOptions&)>;

// On the paper's tractable classes (all-hierarchical q, localized τ) each
// group's lineage is the lineage of a hierarchical Boolean CQ over a
// restricted database, hence read-once: the engine's group path records no
// budget fallback, and every group circuit stays linear in its facts.
void ExpectFrontierGuarantee(const AggregateQuery& a, const Database& db,
                             const Scorer& scorer, const std::string& label) {
  SolverOptions options;
  options.num_threads = 1;
  options.lineage.share_circuits = false;  // compile every group afresh
  LineageStats::Global().Reset();
  auto scores = scorer(a, db, options);
  ASSERT_TRUE(scores.ok()) << label << ": " << scores.status().ToString();
  EXPECT_EQ(LineageStats::Global().Snapshot().budget_fallbacks, 0u) << label;

  const std::vector<AnswerHomomorphisms> answers =
      GroupHomomorphismsByAnswer(a.query, db);
  std::vector<const Tuple*> tuples;
  for (const AnswerHomomorphisms& answer : answers) {
    tuples.push_back(&answer.answer);
  }
  auto groups = AnswerGroupsOf(a, tuples);
  ASSERT_TRUE(groups.ok()) << label;
  const auto lineages = AnswerLineages(answers, db);
  Combinatorics comb;
  for (const AnswerGroup& group : *groups) {
    const std::vector<std::vector<int>> clauses = GroupLineage(lineages, group);
    if (ConstantTrue(clauses)) continue;
    auto compiled = CompileLineage(clauses, options.lineage, &comb);
    ASSERT_TRUE(compiled.ok()) << label;
    const int64_t m = static_cast<int64_t>(compiled->players.size());
    EXPECT_LE(compiled->entry->circuit.num_nodes(), kNodesPerFact * m + 2)
        << label << ": group of " << group.answers.size() << " answers over "
        << m << " facts";
  }
}

TEST(EngineScaleTest, GroupGamesStayInsideTheBudgetOnTheFrontier) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  const Database large = LargeDb();
  for (AggregateFunction alpha :
       {AggregateFunction::Max(), AggregateFunction::Min()}) {
    ExpectFrontierGuarantee(AggregateQuery{q, MakeTauId(0), alpha}, large,
                            MinMaxScoreAll, "LargeDb " + alpha.ToString());
  }
  ExpectFrontierGuarantee(
      AggregateQuery{q, MakeTauId(0), AggregateFunction::CountDistinct()},
      large, CountDistinctScoreAll, "LargeDb CountDistinct");
  ConjunctiveQuery q_xy = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  ExpectFrontierGuarantee(
      AggregateQuery{q_xy, MakeTauId(0), AggregateFunction::Max()}, large,
      MinMaxScoreAll, "LargeDb Q(x, y) Max");

  Database single;
  for (int i = 0; i < 200; ++i) {
    single.AddEndogenous("R", {Value(i), Value((i * 37) % 41 - 13)});
  }
  ConjunctiveQuery q_single = MustParseQuery("Q(i, v) <- R(i, v)");
  ExpectFrontierGuarantee(
      AggregateQuery{q_single, MakeTauId(1), AggregateFunction::Max()},
      single, MinMaxScoreAll, "200-fact single relation Max");
  ExpectFrontierGuarantee(
      AggregateQuery{q_single, MakeTauId(1),
                     AggregateFunction::CountDistinct()},
      single, CountDistinctScoreAll, "200-fact single relation CDist");

  ExpectFrontierGuarantee(
      AggregateQuery{q, MakeTauId(0), AggregateFunction::Sum()},
      SumCountScaleDb(/*endogenous=*/true), SumCountScoreAll,
      "546-fact Sum");
}

TEST(EngineScaleTest, GroupGamesStayInsideTheBudgetOnRandomFrontierInputs) {
  int checked = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomQueryOptions query_options;
    query_options.max_variables = 4;
    query_options.seed = seed * 31 + 7;
    ConjunctiveQuery q =
        RandomQueryOfClass(HierarchyClass::kAllHierarchical, query_options);
    if (q.arity() == 0) continue;
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 24;
    db_options.domain_size = 8;
    db_options.seed = seed;
    Database db = RandomDatabaseForQuery(q, db_options);
    if (db.num_endogenous() == 0) continue;
    ASSERT_FALSE(LocalizationAtoms(q, *MakeTauId(0)).empty());
    const std::string label = q.ToString() + " seed " + std::to_string(seed);
    for (AggregateFunction alpha :
         {AggregateFunction::Max(), AggregateFunction::Min()}) {
      ExpectFrontierGuarantee(AggregateQuery{q, MakeTauId(0), alpha}, db,
                              MinMaxScoreAll, label);
    }
    ExpectFrontierGuarantee(
        AggregateQuery{q, MakeTauId(0), AggregateFunction::CountDistinct()},
        db, CountDistinctScoreAll, label);
    ExpectFrontierGuarantee(
        AggregateQuery{q, MakeTauId(0), AggregateFunction::Sum()}, db,
        SumCountScoreAll, label);
    ++checked;
  }
  EXPECT_GE(checked, 4);
}

// Past max_answer_vars (256) the first threshold group — every answer —
// cannot compile, so the Min/Max engine falls back to its leave-one-out DP
// and stays exact under its own name.
TEST(EngineScaleTest, LocalizedMaxPastTheBudgetFallsBackToTheDp) {
  Database db;
  const int groups = 100;
  for (int i = 0; i < 2 * groups; ++i) {
    db.AddEndogenous("R", {Value(i / groups + 1), Value(i % groups)});
  }
  for (int g = 0; g < groups; ++g) db.AddEndogenous("S", {Value(g)});
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Max()};
  ASSERT_GT(db.num_endogenous(), 256);
  LineageStats::Global().Reset();
  SolverSession session(a, db);
  auto all = session.ComputeAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_GT(LineageStats::Global().Snapshot().budget_fallbacks, 0u);
  Rational total;
  for (const auto& [fact, result] : *all) {
    EXPECT_TRUE(result.is_exact);
    EXPECT_EQ(result.algorithm, "min-max/all-hierarchical-dp");
    total += result.exact;
  }
  EXPECT_EQ(total, a.Evaluate(db));  // A(D_x) = 0: no exogenous facts
  for (FactId probe : {FactId{97}, FactId{200}}) {  // an R and an S fact
    EXPECT_EQ((*all)[static_cast<size_t>(probe)].second.exact,
              *ScoreViaSumK(a, db, probe, MinMaxSumK))
        << "fact " << probe;
  }
}

}  // namespace
}  // namespace shapcq
