// Tests for the batched Monte Carlo sampler (shapley/monte_carlo.h):
// statistical coverage against brute force for every aggregate, exact
// zeros for null players, exact τ-ranks, and bitwise determinism across
// thread counts and across the session's per-fact, fallback and batched
// paths.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/monte_carlo.h"
#include "shapcq/shapley/session.h"
#include "shapcq/workload/generators.h"

namespace shapcq {
namespace {

std::vector<AggregateFunction> AllAggregates() {
  return {AggregateFunction::Sum(),
          AggregateFunction::Count(),
          AggregateFunction::CountDistinct(),
          AggregateFunction::Min(),
          AggregateFunction::Max(),
          AggregateFunction::Avg(),
          AggregateFunction::Median(),
          AggregateFunction::Quantile(Rational(BigInt(1), BigInt(3))),
          AggregateFunction::HasDuplicates()};
}

// A brute-forceable random database for `q`, plus one answer whose only
// support is exogenous and one endogenous fact in no homomorphism (values
// outside the generator's domain, so nothing joins them by accident).
Database CoverageDatabase(const ConjunctiveQuery& q, uint64_t seed,
                          FactId* null_fact) {
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.domain_size = 4;
  options.seed = seed;
  Database db = RandomDatabaseForQuery(q, options);
  if (q.atoms()[1].relation == "S") {
    db.AddExogenous("R", {Value(90), Value(91)});
    db.AddExogenous("S", {Value(91)});
  } else {
    db.AddExogenous("R", {Value(90), Value(91)});
    db.AddExogenous("R", {Value(91), Value(92)});
  }
  *null_fact = db.AddEndogenous("R", {Value(95), Value(96)});
  return db;
}

TEST(MonteCarloCoverageTest, EstimatesCoverBruteForceForEveryAggregate) {
  // xyy with a repeating τ column, plain xyy, and a self-join.
  const std::vector<std::string> queries = {"Q(x, y) <- R(x, y), S(y)",
                                            "Q(x) <- R(x, y), S(y)",
                                            "Q(x, z) <- R(x, y), R(y, z)"};
  MonteCarloOptions options;
  options.num_samples = 2000;
  int64_t facts = 0;
  int64_t covered = 0;
  int64_t null_facts = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    const ConjunctiveQuery q =
        MustParseQuery(queries[seed % queries.size()]);
    FactId null_fact = -1;
    const Database db = CoverageDatabase(q, seed, &null_fact);
    const std::vector<FactId> players = db.EndogenousFacts();
    ASSERT_LE(db.num_endogenous(), 12);
    for (const AggregateFunction& alpha : AllAggregates()) {
      for (const ValueFunctionPtr& tau : {MakeTauId(0), MakeTauReLU(0)}) {
        const AggregateQuery a{q, tau, alpha};
        const MonteCarloGame game(a, db);
        for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
          options.seed = seed;
          SolverOptions exact_options;
          exact_options.score = kind;
          auto exact = BruteForceScoreAll(a, db, exact_options);
          ASSERT_TRUE(exact.ok());
          auto estimates = game.Estimate(kind, options);
          ASSERT_TRUE(estimates.ok());
          ASSERT_EQ(estimates->size(), players.size());
          for (size_t i = 0; i < players.size(); ++i) {
            const MonteCarloResult& result = (*estimates)[i];
            EXPECT_EQ(result.samples, options.num_samples);
            const double truth = (*exact)[i].second.ToDouble();
            ++facts;
            // 1e-9 absorbs double rounding when σ̂ is (near) zero.
            if (std::abs(result.estimate - truth) <=
                4 * result.std_error + 1e-9) {
              ++covered;
            }
            if (players[i] == null_fact) {
              ++null_facts;
              EXPECT_EQ(result.estimate, 0.0) << a.ToString();
              EXPECT_EQ(result.std_error, 0.0) << a.ToString();
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(null_facts, 30 * 9 * 2 * 2);
  EXPECT_GE(static_cast<double>(covered), 0.99 * static_cast<double>(facts))
      << covered << " of " << facts << " facts within 4 std_error";
}

TEST(MonteCarloRankTest, DistinctValuesThatShareADoubleStayDistinct) {
  // 2^53 and 2^53 + 1 round to one double. Every marginal of CountDistinct
  // is exactly 1 and every marginal of HasDuplicates exactly 0; a sampler
  // that compared doubles would merge the two values.
  const ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x)");
  Database db;
  db.AddEndogenous("R", {Value(int64_t{9007199254740992})});
  db.AddEndogenous("R", {Value(int64_t{9007199254740993})});
  MonteCarloOptions options;
  options.num_samples = 1000;
  for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
    for (FactId fact : db.EndogenousFacts()) {
      const AggregateQuery distinct{q, MakeTauId(0),
                                    AggregateFunction::CountDistinct()};
      auto cdist = kind == ScoreKind::kShapley
                       ? MonteCarloShapley(distinct, db, fact, options)
                       : MonteCarloBanzhaf(distinct, db, fact, options);
      ASSERT_TRUE(cdist.ok());
      EXPECT_EQ(cdist->estimate, 1.0);
      EXPECT_EQ(cdist->std_error, 0.0);

      const AggregateQuery dup{q, MakeTauId(0),
                               AggregateFunction::HasDuplicates()};
      auto has_dup = kind == ScoreKind::kShapley
                         ? MonteCarloShapley(dup, db, fact, options)
                         : MonteCarloBanzhaf(dup, db, fact, options);
      ASSERT_TRUE(has_dup.ok());
      EXPECT_EQ(has_dup->estimate, 0.0);
      EXPECT_EQ(has_dup->std_error, 0.0);

      const AggregateQuery median{q, MakeTauId(0),
                                  AggregateFunction::Median()};
      auto sampled = kind == ScoreKind::kShapley
                         ? MonteCarloShapley(median, db, fact, options)
                         : MonteCarloBanzhaf(median, db, fact, options);
      ASSERT_TRUE(sampled.ok());
      const double exact = BruteForceScore(median, db, fact, kind)->ToDouble();
      EXPECT_LE(std::abs(sampled->estimate - exact), 4 * sampled->std_error);
    }
  }
}

// 35 players: past brute force, and Avg on xyy lies outside its frontier,
// so kAuto falls back to sampling.
Database ThirtyFivePlayerDb() {
  Database db;
  for (int i = 0; i < 30; ++i) {
    db.AddEndogenous("R", {Value(i - 3), Value(i % 5)});
  }
  for (int j = 0; j < 5; ++j) db.AddEndogenous("S", {Value(j)});
  return db;
}

TEST(MonteCarloDeterminismTest, ThreadCountsAgreeBitwise) {
  const ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  const Database db = ThirtyFivePlayerDb();
  MonteCarloOptions options;
  options.num_samples = 1500;  // 24 blocks: two waves, a partial block
  options.seed = 7;
  for (const AggregateFunction& alpha : AllAggregates()) {
    const AggregateQuery a{q, MakeTauReLU(0), alpha};
    const MonteCarloGame game(a, db);
    for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
      auto one = game.Estimate(kind, options, 1);
      ASSERT_TRUE(one.ok());
      for (int threads : {2, 8}) {
        auto many = game.Estimate(kind, options, threads);
        ASSERT_TRUE(many.ok());
        ASSERT_EQ(one->size(), many->size());
        for (size_t i = 0; i < one->size(); ++i) {
          EXPECT_EQ((*one)[i].estimate, (*many)[i].estimate)
              << a.ToString() << " threads=" << threads;
          EXPECT_EQ((*one)[i].std_error, (*many)[i].std_error);
        }
      }
    }
  }
}

TEST(MonteCarloDeterminismTest, SessionPathsReadOneRun) {
  // Per-fact Compute (kMonteCarlo and the kAuto fallback), the kAuto
  // ComputeAll fallback when no engine batch succeeds, and the
  // kMonteCarlo ComputeAll must all report the same estimates.
  const ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  const Database db = ThirtyFivePlayerDb();
  const AggregateQuery a{q, MakeTauReLU(0), AggregateFunction::Avg()};
  for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
    SolverOptions options;
    options.score = kind;
    options.monte_carlo.num_samples = 300;
    options.monte_carlo.seed = 3;
    options.num_threads = 2;
    SolverSession session(a, db);
    options.method = SolveMethod::kMonteCarlo;
    auto sampled = session.ComputeAll(options);
    ASSERT_TRUE(sampled.ok());
    options.method = SolveMethod::kAuto;
    auto fallback = session.ComputeAll(options);
    ASSERT_TRUE(fallback.ok());
    ASSERT_EQ(sampled->size(), fallback->size());
    SolverSession fresh(a, db);
    for (size_t i = 0; i < sampled->size(); ++i) {
      const auto& [fact, batched] = (*sampled)[i];
      EXPECT_EQ(batched.algorithm, "monte-carlo");
      EXPECT_EQ((*fallback)[i].second.algorithm, "monte-carlo");
      EXPECT_EQ(batched.approximation, (*fallback)[i].second.approximation);
      EXPECT_EQ(batched.std_error, (*fallback)[i].second.std_error);
      for (SolveMethod method :
           {SolveMethod::kMonteCarlo, SolveMethod::kAuto}) {
        options.method = method;
        options.num_threads = 1;
        auto single = fresh.Compute(fact, options);
        ASSERT_TRUE(single.ok());
        EXPECT_EQ(single->approximation, batched.approximation);
        EXPECT_EQ(single->std_error, batched.std_error);
        EXPECT_EQ(single->samples, 300);
      }
      MonteCarloOptions direct = options.monte_carlo;
      auto wrapper = kind == ScoreKind::kShapley
                         ? MonteCarloShapley(a, db, fact, direct)
                         : MonteCarloBanzhaf(a, db, fact, direct);
      ASSERT_TRUE(wrapper.ok());
      EXPECT_EQ(wrapper->estimate, batched.approximation);
    }
  }
}

TEST(MonteCarloGameTest, RejectsNonPositiveSampleBudget) {
  const ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x)");
  Database db;
  db.AddEndogenous("R", {Value(1)});
  const AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
  MonteCarloOptions options;
  options.num_samples = 0;
  EXPECT_EQ(MonteCarloGame(a, db).Estimate(ScoreKind::kShapley, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(MonteCarloBanzhaf(a, db, 0, options).ok());
}

}  // namespace
}  // namespace shapcq
