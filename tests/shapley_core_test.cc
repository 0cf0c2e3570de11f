// Tests for the sum_k framework, brute force, Boolean membership DP, and
// the Sum/Count engine.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/membership.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/sum_count.h"
#include "shapcq/workload/generators.h"
#include "tests/permutation_shapley.h"

namespace shapcq {
namespace {

Rational R(int64_t n) { return Rational(n); }
Rational R(int64_t n, int64_t d) { return Rational(BigInt(n), BigInt(d)); }

AggregateQuery Agg(const char* text, ValueFunctionPtr tau,
                   AggregateFunction alpha) {
  return AggregateQuery{MustParseQuery(text), std::move(tau),
                        std::move(alpha)};
}

// ---------------------------------------------------------------------------
// Brute force: sanity against hand-computed games and the permutation form
// ---------------------------------------------------------------------------

TEST(BruteForceTest, SingleFactSumGame) {
  Database db;
  FactId f = db.AddEndogenous("R", {Value(5)});
  AggregateQuery a = Agg("Q(x) <- R(x)", MakeTauId(0),
                         AggregateFunction::Sum());
  auto score = BruteForceScore(a, db, f);
  ASSERT_TRUE(score.ok());
  EXPECT_EQ(*score, R(5));
}

TEST(BruteForceTest, TwoFactsSumSplitsAdditively) {
  Database db;
  FactId f1 = db.AddEndogenous("R", {Value(5)});
  FactId f2 = db.AddEndogenous("R", {Value(3)});
  AggregateQuery a = Agg("Q(x) <- R(x)", MakeTauId(0),
                         AggregateFunction::Sum());
  EXPECT_EQ(*BruteForceScore(a, db, f1), R(5));
  EXPECT_EQ(*BruteForceScore(a, db, f2), R(3));
}

TEST(BruteForceTest, TwoFactsMaxGame) {
  // Max game over values {5, 3}: Shapley(5) = 4, Shapley(3) = 1.
  // Permutations: (5,3): 5 then +0; (3,5): 3 then +2. Avg: 5->(5+2)/2=7/2?
  // Compute exactly: Shapley(f5) = 1/2·[v({5})−v(∅)] + 1/2·[v({3,5})−v({3})]
  //                = 1/2·5 + 1/2·(5−3) = 7/2. Shapley(f3) = 1/2·3 + 0 = 3/2.
  Database db;
  FactId f5 = db.AddEndogenous("R", {Value(5)});
  FactId f3 = db.AddEndogenous("R", {Value(3)});
  AggregateQuery a = Agg("Q(x) <- R(x)", MakeTauId(0),
                         AggregateFunction::Max());
  EXPECT_EQ(*BruteForceScore(a, db, f5), R(7, 2));
  EXPECT_EQ(*BruteForceScore(a, db, f3), R(3, 2));
}

TEST(BruteForceTest, SubsetFormulaMatchesPermutationDefinition) {
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 42;
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db = RandomDatabaseForQuery(q, options);
  if (db.num_endogenous() == 0) GTEST_SKIP();
  for (AggregateFunction alpha :
       {AggregateFunction::Sum(), AggregateFunction::Max(),
        AggregateFunction::Avg(), AggregateFunction::Median(),
        AggregateFunction::CountDistinct()}) {
    AggregateQuery a{q, MakeTauId(0), alpha};
    for (FactId f : db.EndogenousFacts()) {
      auto by_subsets = BruteForceScore(a, db, f);
      auto by_permutations = BruteForceShapleyByPermutations(a, db, f);
      ASSERT_TRUE(by_subsets.ok());
      ASSERT_TRUE(by_permutations.ok());
      EXPECT_EQ(*by_subsets, *by_permutations)
          << alpha.ToString() << " fact " << db.fact(f).ToString();
    }
  }
}

TEST(BruteForceTest, ScoreViaSumKAgreesWithDirectScore) {
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.seed = 7;
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauReLU(0), AggregateFunction::Avg()};
  for (FactId f : db.EndogenousFacts()) {
    auto direct = BruteForceScore(a, db, f);
    auto via_sumk = ScoreViaSumK(a, db, f, BruteForceSumK);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(via_sumk.ok());
    EXPECT_EQ(*direct, *via_sumk);
  }
}

TEST(BruteForceTest, EfficiencyAxiom) {
  // Sum of all Shapley values equals A(D) − A(D_x).
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.endogenous_percent = 60;
  for (uint64_t seed : {1u, 2u, 3u}) {
    options.seed = seed;
    ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
    Database db = RandomDatabaseForQuery(q, options);
    for (AggregateFunction alpha :
         {AggregateFunction::Max(), AggregateFunction::Avg(),
          AggregateFunction::HasDuplicates()}) {
      AggregateQuery a{q, MakeTauId(0), alpha};
      auto scores = BruteForceScoreAll(a, db);
      ASSERT_TRUE(scores.ok());
      Rational total;
      for (const auto& [fact, score] : *scores) total += score;
      Database exo_only = db;
      for (FactId f : db.EndogenousFacts()) {
        exo_only = exo_only.WithoutFact(
            *exo_only.FindFact(db.fact(f).relation, db.fact(f).args),
            nullptr);
      }
      Rational expected = a.Evaluate(db) - a.Evaluate(exo_only);
      EXPECT_EQ(total, expected) << "seed " << seed << " " << alpha.ToString();
    }
  }
}

TEST(BruteForceTest, NullPlayerAxiom) {
  Database db;
  db.AddEndogenous("R", {Value(1), Value(10)});
  db.AddEndogenous("S", {Value(10)});
  // R fact with a dangling join value: a null player.
  FactId dangling = db.AddEndogenous("R", {Value(2), Value(99)});
  AggregateQuery a = Agg("Q(x) <- R(x, y), S(y)", MakeTauId(0),
                         AggregateFunction::Sum());
  EXPECT_TRUE(BruteForceScore(a, db, dangling)->is_zero());
}

TEST(BruteForceTest, SymmetryAxiom) {
  Database db;
  FactId f1 = db.AddEndogenous("R", {Value(1), Value(10)});
  FactId f2 = db.AddEndogenous("R", {Value(1), Value(20)});  // same x value
  db.AddEndogenous("S", {Value(10)});
  db.AddEndogenous("S", {Value(20)});
  // Interchangeable facts (same answer, symmetric supports).
  AggregateQuery a = Agg("Q(x) <- R(x, y), S(y)", MakeTauId(0),
                         AggregateFunction::Sum());
  EXPECT_EQ(*BruteForceScore(a, db, f1), *BruteForceScore(a, db, f2));
}

TEST(BruteForceTest, BanzhafMatchesHandComputation) {
  // Two-player Max game over {5, 3}: Banzhaf(f5) = (5 + 2)/2 = 7/2,
  // Banzhaf(f3) = (3 + 0)/2 = 3/2. (Coincides with Shapley for n = 2.)
  Database db;
  FactId f5 = db.AddEndogenous("R", {Value(5)});
  FactId f3 = db.AddEndogenous("R", {Value(3)});
  AggregateQuery a = Agg("Q(x) <- R(x)", MakeTauId(0),
                         AggregateFunction::Max());
  EXPECT_EQ(*BruteForceScore(a, db, f5, ScoreKind::kBanzhaf), R(7, 2));
  EXPECT_EQ(*BruteForceScore(a, db, f3, ScoreKind::kBanzhaf), R(3, 2));
}

TEST(BruteForceTest, RejectsOversizedInstances) {
  Database db;
  for (int i = 0; i < kBruteForceMaxPlayers + 1; ++i) {
    db.AddEndogenous("R", {Value(i)});
  }
  AggregateQuery a = Agg("Q(x) <- R(x)", MakeTauId(0),
                         AggregateFunction::Sum());
  EXPECT_FALSE(BruteForceSumK(a, db).ok());
}

// ---------------------------------------------------------------------------
// Membership DP (satisfaction counts)
// ---------------------------------------------------------------------------

// Counts from brute force: number of k-subsets where the Boolean query holds.
std::vector<BigInt> BruteForceSatCounts(const ConjunctiveQuery& q,
                                        const Database& db) {
  AggregateQuery a{q.AsBoolean(), MakeConstantTau(R(1)),
                   AggregateFunction::Max()};
  // Max of {1,...} = 1 iff nonempty: a 0/1 satisfaction aggregate.
  auto series = BruteForceSumK(a, db);
  std::vector<BigInt> counts;
  for (const Rational& v : *series) {
    counts.push_back(v.numerator());  // values are integers
  }
  return counts;
}

TEST(MembershipTest, SingleAtomCounts) {
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("R", {Value(2)});
  db.AddExogenous("R", {Value(3)});
  // Q() <- R(x): true whenever any R fact is present; exogenous R(3) is
  // always there, so every subset satisfies.
  ConjunctiveQuery q = MustParseQuery("Q() <- R(x)");
  auto counts = SatisfactionCounts(q, db);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)[0].ToInt64(), 1);
  EXPECT_EQ((*counts)[1].ToInt64(), 2);
  EXPECT_EQ((*counts)[2].ToInt64(), 1);
}

TEST(MembershipTest, SingleAtomCountsNoExogenous) {
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("R", {Value(2)});
  ConjunctiveQuery q = MustParseQuery("Q() <- R(x)");
  auto counts = SatisfactionCounts(q, db);
  ASSERT_TRUE(counts.ok());
  // k=0: empty subset unsatisfied; k=1: both satisfy; k=2: satisfies.
  EXPECT_EQ((*counts)[0].ToInt64(), 0);
  EXPECT_EQ((*counts)[1].ToInt64(), 2);
  EXPECT_EQ((*counts)[2].ToInt64(), 1);
}

TEST(MembershipTest, CountsMatchBruteForceOnRandomInstances) {
  std::vector<std::string> queries = {
      "Q() <- R(x)",
      "Q() <- R(x, y)",
      "Q() <- R(x, y), S(y)",
      "Q() <- R(x), S(x, y)",
      "Q() <- R(x), S(x, y), T(x, y, z)",
      "Q() <- R(x), T(z)",
      "Q() <- R(x, x)",
      "Q() <- R(x, 1), S(x)",
      "Q() <- R(3)",
      "Q() <- R(x, y), S(y), T(y, z)",
  };
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.domain_size = 3;
  for (const std::string& text : queries) {
    ConjunctiveQuery q = MustParseQuery(text);
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      options.seed = seed;
      Database db = RandomDatabaseForQuery(q, options);
      auto dp = SatisfactionCounts(q, db);
      ASSERT_TRUE(dp.ok()) << text << ": " << dp.status().ToString();
      std::vector<BigInt> expected = BruteForceSatCounts(q, db);
      ASSERT_EQ(dp->size(), expected.size()) << text << " seed " << seed;
      for (size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ((*dp)[k], expected[k])
            << text << " seed " << seed << " k=" << k;
      }
    }
  }
}

TEST(MembershipTest, RejectsNonHierarchical) {
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("S", {Value(1), Value(2)});
  db.AddEndogenous("T", {Value(2)});
  ConjunctiveQuery rst = MustParseQuery("Q() <- R(x), S(x, y), T(y)");
  EXPECT_FALSE(SatisfactionCounts(rst, db).ok());
}

TEST(MembershipTest, MembershipScoreMatchesBruteForce) {
  ConjunctiveQuery q = MustParseQuery("Q() <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  for (uint64_t seed = 10; seed <= 13; ++seed) {
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery boolean_game{q, MakeConstantTau(R(1)),
                                AggregateFunction::Max()};
    for (FactId f : db.EndogenousFacts()) {
      auto dp = MembershipScore(q, db, f);
      auto bf = BruteForceScore(boolean_game, db, f);
      ASSERT_TRUE(dp.ok());
      ASSERT_TRUE(bf.ok());
      EXPECT_EQ(*dp, *bf) << "seed " << seed;
    }
  }
}

TEST(MembershipTest, BanzhafMembershipMatchesBruteForce) {
  ConjunctiveQuery q = MustParseQuery("Q() <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 77;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery boolean_game{q, MakeConstantTau(R(1)),
                              AggregateFunction::Max()};
  for (FactId f : db.EndogenousFacts()) {
    auto dp = MembershipScore(q, db, f, ScoreKind::kBanzhaf);
    auto bf = BruteForceScore(boolean_game, db, f, ScoreKind::kBanzhaf);
    ASSERT_TRUE(dp.ok());
    ASSERT_TRUE(bf.ok());
    EXPECT_EQ(*dp, *bf);
  }
}

// ---------------------------------------------------------------------------
// Sum / Count over ∃-hierarchical CQs
// ---------------------------------------------------------------------------

TEST(SumCountTest, MatchesBruteForceOnExistsHierarchicalQueries) {
  std::vector<std::string> queries = {
      "Q(x) <- R(x)",
      "Q(x) <- R(x, y), S(y)",
      "Q(x, y) <- R(x, y), S(y)",
      "Q(x) <- R(x), S(x, y), T(y)",  // ∃-hierarchical only
      "Q(y) <- R(x), S(x, y)",
      "Q(x, z) <- R(x, y), S(y), T(z)",
  };
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  for (const std::string& text : queries) {
    ConjunctiveQuery q = MustParseQuery(text);
    for (uint64_t seed = 21; seed <= 23; ++seed) {
      options.seed = seed;
      Database db = RandomDatabaseForQuery(q, options);
      for (AggregateFunction alpha :
           {AggregateFunction::Sum(), AggregateFunction::Count()}) {
        AggregateQuery a{q, MakeTauId(0), alpha};
        auto dp_series = SumCountSumK(a, db);
        auto bf_series = BruteForceSumK(a, db);
        ASSERT_TRUE(dp_series.ok())
            << text << ": " << dp_series.status().ToString();
        ASSERT_TRUE(bf_series.ok());
        ASSERT_EQ(dp_series->size(), bf_series->size());
        for (size_t k = 0; k < bf_series->size(); ++k) {
          EXPECT_EQ((*dp_series)[k], (*bf_series)[k])
              << text << " " << alpha.ToString() << " seed " << seed
              << " k=" << k;
        }
      }
    }
  }
}

TEST(SumCountTest, WorksWithNonLocalizedTau) {
  // τ(x, y) = x + y depends on both head variables and is not localized on
  // a single atom of Q(x, y) <- R(x), T(y); Sum handles it anyway.
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x), T(y)");
  auto tau = MakeCallbackTau(
      [](const Tuple& t) {
        return t[0].AsRational() + t[1].AsRational();
      },
      {0, 1}, "x+y");
  EXPECT_TRUE(LocalizationAtoms(q, *tau).empty());
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("R", {Value(2)});
  db.AddEndogenous("T", {Value(10)});
  AggregateQuery a{q, tau, AggregateFunction::Sum()};
  for (FactId f : db.EndogenousFacts()) {
    auto dp = ScoreViaSumK(a, db, f, SumCountSumK);
    auto bf = BruteForceScore(a, db, f);
    ASSERT_TRUE(dp.ok());
    EXPECT_EQ(*dp, *bf);
  }
}

TEST(SumCountTest, RejectsNonExistsHierarchical) {
  ConjunctiveQuery rst = MustParseQuery("Q() <- R(x), S(x, y), T(y)");
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("S", {Value(1), Value(2)});
  db.AddEndogenous("T", {Value(2)});
  AggregateQuery a{rst, MakeConstantTau(R(1)), AggregateFunction::Count()};
  EXPECT_FALSE(SumCountSumK(a, db).ok());
}

TEST(SumCountTest, RejectsWrongAggregate) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x)");
  Database db;
  db.AddEndogenous("R", {Value(1)});
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Max()};
  EXPECT_FALSE(SumCountSumK(a, db).ok());
}

}  // namespace
}  // namespace shapcq
