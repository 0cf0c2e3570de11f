// Tests for the solver façade, the Prop 7.3 special cases, Monte Carlo, and
// the tractability-frontier table.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/monte_carlo.h"
#include "shapcq/shapley/solver.h"
#include "shapcq/shapley/special_cases.h"
#include "shapcq/workload/generators.h"

namespace shapcq {
namespace {

Rational R(int64_t n) { return Rational(n); }
Rational R(int64_t n, int64_t d) { return Rational(BigInt(n), BigInt(d)); }

// ---------------------------------------------------------------------------
// Tractability frontier table (the content of Figure 1)
// ---------------------------------------------------------------------------

TEST(FrontierTest, TableMatchesPaper) {
  EXPECT_EQ(TractabilityFrontier(AggregateFunction::Sum()),
            HierarchyClass::kExistsHierarchical);
  EXPECT_EQ(TractabilityFrontier(AggregateFunction::Count()),
            HierarchyClass::kExistsHierarchical);
  EXPECT_EQ(TractabilityFrontier(AggregateFunction::Min()),
            HierarchyClass::kAllHierarchical);
  EXPECT_EQ(TractabilityFrontier(AggregateFunction::Max()),
            HierarchyClass::kAllHierarchical);
  EXPECT_EQ(TractabilityFrontier(AggregateFunction::CountDistinct()),
            HierarchyClass::kAllHierarchical);
  EXPECT_EQ(TractabilityFrontier(AggregateFunction::Avg()),
            HierarchyClass::kQHierarchical);
  EXPECT_EQ(TractabilityFrontier(AggregateFunction::Median()),
            HierarchyClass::kQHierarchical);
  EXPECT_EQ(TractabilityFrontier(AggregateFunction::HasDuplicates()),
            HierarchyClass::kSqHierarchical);
}

TEST(FrontierTest, Figure1ExamplesClassifyAsAnnotated) {
  // Each Figure 1 example is inside the frontier of the aggregates its box
  // lists, and outside the frontier of the aggregates of inner boxes.
  ConjunctiveQuery sq = MustParseQuery("Q(x) <- R(x), S(x, y)");
  ConjunctiveQuery qh = MustParseQuery("Q(x, y) <- R(x), S(x, y)");
  ConjunctiveQuery all = MustParseQuery("Q(y) <- R(x), S(x, y)");
  ConjunctiveQuery exists = MustParseQuery("Q(x) <- R(x), S(x, y), T(y)");
  ConjunctiveQuery general = MustParseQuery("Q() <- R(x), S(x, y), T(y)");

  EXPECT_TRUE(IsInsideFrontier(AggregateFunction::HasDuplicates(), sq));
  EXPECT_FALSE(IsInsideFrontier(AggregateFunction::HasDuplicates(), qh));
  EXPECT_TRUE(IsInsideFrontier(AggregateFunction::Avg(), qh));
  EXPECT_FALSE(IsInsideFrontier(AggregateFunction::Avg(), all));
  EXPECT_TRUE(IsInsideFrontier(AggregateFunction::Max(), all));
  EXPECT_FALSE(IsInsideFrontier(AggregateFunction::Max(), exists));
  EXPECT_TRUE(IsInsideFrontier(AggregateFunction::Sum(), exists));
  EXPECT_FALSE(IsInsideFrontier(AggregateFunction::Sum(), general));
}

TEST(FrontierTest, SelfJoinsAreOutsideEveryFrontier) {
  ConjunctiveQuery self_join = MustParseQuery("Q(x) <- R(x, y), R(y, x)");
  EXPECT_FALSE(IsInsideFrontier(AggregateFunction::Sum(), self_join));
}

// ---------------------------------------------------------------------------
// Proposition 7.3 cases (1) and (2): gated products
// ---------------------------------------------------------------------------

TEST(GatedProductTest, AvgOnQxyyzMatchesBruteForce) {
  // Avg ∘ τ²_ReLU ∘ Q_xyyz(x, z) <- R(x, y), S(y), T(z): hard for τ¹,
  // tractable for τ² (localized on T).
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x, y), S(y), T(z)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 3;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery a{q, MakeTauReLU(1), AggregateFunction::Avg()};
    auto dp = GatedProductSumK(a, db);
    auto bf = BruteForceSumK(a, db);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    ASSERT_TRUE(bf.ok());
    for (size_t k = 0; k < bf->size(); ++k) {
      EXPECT_EQ((*dp)[k], (*bf)[k]) << "seed " << seed << " k=" << k;
    }
  }
}

TEST(GatedProductTest, MedianOnQxyyzMatchesBruteForce) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x, y), S(y), T(z)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 3;
  for (uint64_t seed = 6; seed <= 9; ++seed) {
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery a{q, MakeTauGreaterThan(1, R(0)),
                     AggregateFunction::Median()};
    auto dp = GatedProductSumK(a, db);
    auto bf = BruteForceSumK(a, db);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    for (size_t k = 0; k < bf->size(); ++k) {
      EXPECT_EQ((*dp)[k], (*bf)[k]) << "seed " << seed << " k=" << k;
    }
  }
}

TEST(GatedProductTest, RejectsHardLocalization) {
  // τ¹ is localized on R, whose component {R, S} is all-hierarchical but
  // not q-hierarchical: the Avg engine cannot solve Q1 and the gated
  // product must refuse rather than answer wrong.
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x, y), S(y), T(z)");
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  db.AddEndogenous("S", {Value(2)});
  db.AddEndogenous("T", {Value(3)});
  AggregateQuery a{q, MakeTauReLU(0), AggregateFunction::Avg()};
  EXPECT_FALSE(GatedProductSumK(a, db).ok());
}

TEST(GatedProductTest, RejectsGeneralQuantile) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x, y), S(y), T(z)");
  Database db;
  db.AddEndogenous("T", {Value(3)});
  db.AddEndogenous("R", {Value(1), Value(2)});
  db.AddEndogenous("S", {Value(2)});
  AggregateQuery a{q, MakeTauId(1), AggregateFunction::Quantile(R(1, 4))};
  EXPECT_FALSE(GatedProductSumK(a, db).ok());
}

// ---------------------------------------------------------------------------
// Monte Carlo
// ---------------------------------------------------------------------------

TEST(MonteCarloTest, ConvergesToExactValue) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.seed = 17;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Avg()};
  FactId probe = db.EndogenousFacts().front();
  double exact = BruteForceScore(a, db, probe)->ToDouble();
  MonteCarloOptions mc;
  mc.num_samples = 60000;
  mc.seed = 3;
  auto estimate = MonteCarloShapley(a, db, probe, mc);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate->estimate, exact,
              5 * estimate->std_error + 1e-9);
}

TEST(MonteCarloTest, ErrorShrinksWithSamples) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 6;
  options.seed = 23;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Median()};
  FactId probe = db.EndogenousFacts().front();
  double exact = BruteForceScore(a, db, probe)->ToDouble();
  double previous_error = 1e9;
  for (int64_t samples : {100, 10000}) {
    MonteCarloOptions mc;
    mc.num_samples = samples;
    mc.seed = 5;
    auto estimate = MonteCarloShapley(a, db, probe, mc);
    ASSERT_TRUE(estimate.ok());
    double error = std::abs(estimate->estimate - exact);
    // Not strictly monotone per-seed, but 100 -> 10000 should improve here.
    EXPECT_LE(error, previous_error + 1e-12);
    previous_error = error;
  }
}

TEST(MonteCarloTest, BanzhafSamplerConverges) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x)");
  Database db;
  db.AddEndogenous("R", {Value(5)});
  db.AddEndogenous("R", {Value(3)});
  db.AddEndogenous("R", {Value(2)});
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Max()};
  FactId probe = 0;
  double exact =
      BruteForceScore(a, db, probe, ScoreKind::kBanzhaf)->ToDouble();
  MonteCarloOptions mc;
  mc.num_samples = 40000;
  mc.seed = 11;
  auto estimate = MonteCarloBanzhaf(a, db, probe, mc);
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(estimate->estimate, exact, 5 * estimate->std_error + 1e-9);
}

TEST(MonteCarloTest, HoeffdingBoundIsSane) {
  int64_t m = HoeffdingSampleCount(/*range=*/1.0, /*epsilon=*/0.1,
                                   /*delta=*/0.05);
  EXPECT_GT(m, 100);
  EXPECT_LT(m, 100000);
  EXPECT_GT(HoeffdingSampleCount(1.0, 0.01, 0.05), m);
}

TEST(MonteCarloTest, WorksBeyondBruteForceLimit) {
  // 40 endogenous facts: brute force impossible, sampling fine.
  Database db;
  for (int i = 0; i < 40; ++i) {
    db.AddEndogenous("R", {Value(i % 7), Value(i)});
  }
  db.AddExogenous("S", {Value(0)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y)");
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Max()};
  MonteCarloOptions mc;
  mc.num_samples = 200;
  auto estimate = MonteCarloShapley(a, db, 0, mc);
  ASSERT_TRUE(estimate.ok());
  EXPECT_EQ(estimate->samples, 200);
}

// ---------------------------------------------------------------------------
// Solver dispatch
// ---------------------------------------------------------------------------

TEST(SolverTest, DispatchesToExactEnginePerAggregate) {
  struct Case {
    AggregateFunction alpha;
    const char* query;
    const char* expected_algorithm;
  };
  std::vector<Case> cases = {
      {AggregateFunction::Sum(), "Q(x) <- R(x), S(x, y), T(y)",
       "sum-count/linearity"},
      {AggregateFunction::Max(), "Q(x) <- R(x, y), S(y)",
       "min-max/all-hierarchical-dp"},
      {AggregateFunction::CountDistinct(), "Q(x) <- R(x, y), S(y)",
       "count-distinct/boolean-reduction"},
      {AggregateFunction::Avg(), "Q(x, y) <- R(x, y), S(y)",
       "avg-quantile/q-hierarchical-dp"},
      {AggregateFunction::HasDuplicates(), "Q(x) <- R(x, y), S(x)",
       "has-duplicates/sq-hierarchical-dp"},
  };
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 2;
  for (const Case& c : cases) {
    ConjunctiveQuery q = MustParseQuery(c.query);
    Database db = RandomDatabaseForQuery(q, options);
    ShapleySolver solver(AggregateQuery{q, MakeTauId(0), c.alpha});
    FactId probe = db.EndogenousFacts().front();
    auto result = solver.Compute(db, probe);
    ASSERT_TRUE(result.ok()) << c.query;
    EXPECT_TRUE(result->is_exact);
    EXPECT_EQ(result->algorithm, c.expected_algorithm) << c.query;
    // And the exact value agrees with brute force.
    auto bf = BruteForceScore(AggregateQuery{q, MakeTauId(0), c.alpha}, db,
                              probe);
    EXPECT_EQ(result->exact, *bf) << c.query;
  }
}

TEST(SolverTest, FallsBackToBruteForceOutsideFrontier) {
  // Avg over Q_xyy: outside the q-hierarchical frontier; small database, so
  // Auto uses brute force.
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 3;
  Database db = RandomDatabaseForQuery(q, options);
  ShapleySolver solver(
      AggregateQuery{q, MakeTauReLU(0), AggregateFunction::Avg()});
  FactId probe = db.EndogenousFacts().front();
  auto result = solver.Compute(db, probe);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->is_exact);
  EXPECT_EQ(result->algorithm, "brute-force");
}

TEST(SolverTest, FallsBackToMonteCarloOnLargeIntractableInstances) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db;
  for (int i = 0; i < 30; ++i) {
    db.AddEndogenous("R", {Value(i), Value(i % 5)});
  }
  for (int j = 0; j < 5; ++j) db.AddEndogenous("S", {Value(j)});
  ShapleySolver solver(
      AggregateQuery{q, MakeTauReLU(0), AggregateFunction::Avg()});
  SolverOptions options;
  options.monte_carlo.num_samples = 50;
  auto result = solver.Compute(db, 0, options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->is_exact);
  EXPECT_EQ(result->algorithm, "monte-carlo");
}

TEST(SolverTest, ExactOnlyFailsOutsideFrontier) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  db.AddEndogenous("S", {Value(2)});
  ShapleySolver solver(
      AggregateQuery{q, MakeTauReLU(0), AggregateFunction::Avg()});
  SolverOptions options;
  options.method = SolveMethod::kExactOnly;
  EXPECT_FALSE(solver.Compute(db, 0, options).ok());
}

TEST(SolverTest, GatedProductIsReachableThroughAuto) {
  // Prop 7.3(1): primary Avg engine fails (not q-hierarchical), the gated
  // product succeeds — Auto must find it.
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x, y), S(y), T(z)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 3;
  options.seed = 21;
  Database db = RandomDatabaseForQuery(q, options);
  ShapleySolver solver(
      AggregateQuery{q, MakeTauReLU(1), AggregateFunction::Avg()});
  FactId probe = db.EndogenousFacts().front();
  auto result = solver.Compute(db, probe);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->algorithm, "gated-product/prop-7.3");
}

TEST(SolverTest, ComputeAllSatisfiesEfficiency) {
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.seed = 13;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Median()};
  ShapleySolver solver(a);
  auto results = solver.ComputeAll(db);
  ASSERT_TRUE(results.ok());
  Rational total;
  for (const auto& [fact, result] : *results) {
    ASSERT_TRUE(result.is_exact);
    total += result.exact;
  }
  // ν(P) = A(D) − A(D_x).
  Database exo_only;
  for (FactId id = 0; id < db.num_facts(); ++id) {
    const Fact& fact = db.fact(id);
    if (!fact.endogenous) exo_only.AddExogenous(fact.relation, fact.args);
  }
  EXPECT_EQ(total, a.Evaluate(db) - a.Evaluate(exo_only));
}

TEST(SolverTest, BanzhafThroughSolver) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 19;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Max()};
  ShapleySolver solver(a);
  SolverOptions options_banzhaf;
  options_banzhaf.score = ScoreKind::kBanzhaf;
  for (FactId f : db.EndogenousFacts()) {
    auto result = solver.Compute(db, f, options_banzhaf);
    ASSERT_TRUE(result.ok());
    auto bf = BruteForceScore(a, db, f, ScoreKind::kBanzhaf);
    EXPECT_EQ(result->exact, *bf);
  }
}

TEST(SolverTest, RejectsExogenousFact) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x)");
  Database db;
  FactId exo = db.AddExogenous("R", {Value(1)});
  db.AddEndogenous("R", {Value(2)});
  ShapleySolver solver(
      AggregateQuery{q, MakeTauId(0), AggregateFunction::Sum()});
  EXPECT_FALSE(solver.Compute(db, exo).ok());
}

TEST(SolverTest, RejectsTauPastTheHeadInsteadOfAborting) {
  // τ reads head position 3 of a unary head: an AggregateQuery built
  // directly, past MakeAggregateQuery's check.
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(x)");
  Database db;
  FactId r = db.AddEndogenous("R", {Value(1), Value(2)});
  db.AddEndogenous("S", {Value(1)});
  ShapleySolver solver(
      AggregateQuery{q, MakeTauId(2), AggregateFunction::Avg()});
  const std::string expected = "tau reads head position 3 of a query with 1";
  StatusOr<SolveResult> one = solver.Compute(db, r);
  ASSERT_FALSE(one.ok());
  EXPECT_EQ(one.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(one.status().message(), expected);
  auto all = solver.ComputeAll(db);
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(all.status().message(), expected);
  StatusOr<SumKSeries> series = solver.ComputeSumKSeries(db);
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(series.status().code(), StatusCode::kInvalidArgument);
  StatusOr<std::string> name = solver.ExactAlgorithmName();
  ASSERT_FALSE(name.ok());
  EXPECT_EQ(name.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace shapcq
