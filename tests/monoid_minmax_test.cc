// Tests for the Section 7.3 extension: Min/Max with non-localized
// monotone-monoid value functions, plus the semivalue/expected-value
// additions to the sum_k framework.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/min_max.h"
#include "shapcq/shapley/score.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/workload/generators.h"

namespace shapcq {
namespace {

Rational R(int64_t n) { return Rational(n); }
Rational R(int64_t n, int64_t d) { return Rational(BigInt(n), BigInt(d)); }

TEST(MonoidTauTest, FoldsCorrectly) {
  Tuple t = {Value(3), Value(-1), Value(7)};
  EXPECT_EQ(MakeMonoidTau(MonoidKind::kPlus, {0, 1, 2})->Evaluate(t), R(9));
  EXPECT_EQ(MakeMonoidTau(MonoidKind::kMax, {0, 1})->Evaluate(t), R(3));
  EXPECT_EQ(MakeMonoidTau(MonoidKind::kMin, {0, 1})->Evaluate(t), R(-1));
  EXPECT_EQ(MakeMonoidTau(MonoidKind::kPlus, {2})->Evaluate(t), R(7));
}

// The paper's motivating example: Max(x1 + x2) over a Cartesian product —
// τ is NOT localized (x and z never share an atom), yet exact computation
// works through the monoid structure.
TEST(MonoidMinMaxTest, MaxOfSumOverCartesianProduct) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x), T(z)");
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RandomDatabaseOptions options;
    options.facts_per_relation = 4;
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery reference{q, MakeMonoidTau(MonoidKind::kPlus, {0, 1}),
                             AggregateFunction::Max()};
    auto dp = MinMaxSumK(reference, db);
    auto bf = BruteForceSumK(reference, db);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    ASSERT_TRUE(bf.ok());
    ASSERT_EQ(dp->size(), bf->size());
    for (size_t k = 0; k < bf->size(); ++k) {
      EXPECT_EQ((*dp)[k], (*bf)[k]) << "seed " << seed << " k=" << k;
    }
  }
}

TEST(MonoidMinMaxTest, MaxOfMaxOverCartesianProduct) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x), T(z)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.seed = 42;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery reference{q, MakeMonoidTau(MonoidKind::kMax, {0, 1}),
                           AggregateFunction::Max()};
  auto dp = MinMaxSumK(reference, db);
  auto bf = BruteForceSumK(reference, db);
  ASSERT_TRUE(dp.ok());
  for (size_t k = 0; k < bf->size(); ++k) EXPECT_EQ((*dp)[k], (*bf)[k]);
}

TEST(MonoidMinMaxTest, ThreeComponentSum) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z, w) <- R(x), T(z), U(w)");
  for (uint64_t seed = 7; seed <= 9; ++seed) {
    RandomDatabaseOptions options;
    options.facts_per_relation = 3;
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery reference{q, MakeMonoidTau(MonoidKind::kPlus, {0, 1, 2}),
                             AggregateFunction::Max()};
    auto dp = MinMaxSumK(reference, db);
    auto bf = BruteForceSumK(reference, db);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    for (size_t k = 0; k < bf->size(); ++k) {
      EXPECT_EQ((*dp)[k], (*bf)[k]) << "seed " << seed;
    }
  }
}

TEST(MonoidMinMaxTest, MixedConnectedAndProduct) {
  // Q(x, z) <- R(x, y), S(y), T(z): x and z in different components; the
  // sum x + z spans both.
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x, y), S(y), T(z)");
  for (uint64_t seed = 3; seed <= 6; ++seed) {
    RandomDatabaseOptions options;
    options.facts_per_relation = 3;
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery reference{q, MakeMonoidTau(MonoidKind::kPlus, {0, 1}),
                             AggregateFunction::Max()};
    auto dp = MinMaxSumK(reference, db);
    auto bf = BruteForceSumK(reference, db);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    for (size_t k = 0; k < bf->size(); ++k) {
      EXPECT_EQ((*dp)[k], (*bf)[k]) << "seed " << seed;
    }
  }
}

TEST(MonoidMinMaxTest, SinglePositionAgreesWithLocalizedEngine) {
  // With one position the monoid engine must match the localized Max DP.
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.seed = 17;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery localized{q, MakeTauId(0), AggregateFunction::Max()};
  AggregateQuery fold{q, MakeMonoidTau(MonoidKind::kPlus, {0}),
                      AggregateFunction::Max()};
  auto monoid = MinMaxSumK(fold, db);
  auto classic = MinMaxSumK(localized, db);
  ASSERT_TRUE(monoid.ok());
  ASSERT_TRUE(classic.ok());
  ASSERT_EQ(monoid->size(), classic->size());
  for (size_t k = 0; k < classic->size(); ++k) {
    EXPECT_EQ((*monoid)[k], (*classic)[k]) << "k=" << k;
  }
}

TEST(MonoidMinMaxTest, MinDuals) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x), T(z)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 23;
  Database db = RandomDatabaseForQuery(q, options);
  // Min(x + z) with the kPlus monoid.
  {
    AggregateQuery reference{q, MakeMonoidTau(MonoidKind::kPlus, {0, 1}),
                             AggregateFunction::Min()};
    auto dp = MinMaxSumK(reference, db);
    auto bf = BruteForceSumK(reference, db);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    for (size_t k = 0; k < bf->size(); ++k) EXPECT_EQ((*dp)[k], (*bf)[k]);
  }
  // Min(min(x, z)) with the kMin monoid.
  {
    AggregateQuery reference{q, MakeMonoidTau(MonoidKind::kMin, {0, 1}),
                             AggregateFunction::Min()};
    auto dp = MinMaxSumK(reference, db);
    auto bf = BruteForceSumK(reference, db);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    for (size_t k = 0; k < bf->size(); ++k) EXPECT_EQ((*dp)[k], (*bf)[k]);
  }
}

TEST(MonoidMinMaxTest, RejectsInvalidCombos) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x), T(z)");
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("T", {Value(2)});
  auto fold = [](const ConjunctiveQuery& query, MonoidKind kind,
                 AggregateFunction alpha) {
    return AggregateQuery{query, MakeMonoidTau(kind, {0, 1}), alpha};
  };
  // Max with a non-increasing monoid.
  EXPECT_FALSE(
      MinMaxSumK(fold(q, MonoidKind::kMin, AggregateFunction::Max()), db)
          .ok());
  // Min with a non-decreasing-only monoid.
  EXPECT_FALSE(
      MinMaxSumK(fold(q, MonoidKind::kMax, AggregateFunction::Min()), db)
          .ok());
  // Non-all-hierarchical query.
  ConjunctiveQuery rst = MustParseQuery("Q(x, y) <- R(x), S(x, y), T(y)");
  Database db2;
  db2.AddEndogenous("R", {Value(1)});
  db2.AddEndogenous("S", {Value(1), Value(2)});
  db2.AddEndogenous("T", {Value(2)});
  EXPECT_FALSE(
      MinMaxSumK(fold(rst, MonoidKind::kPlus, AggregateFunction::Max()), db2)
          .ok());
}

TEST(MonoidMinMaxTest, ShapleyScoresThroughMonoidEngine) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x), T(z)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 31;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery reference{q, MakeMonoidTau(MonoidKind::kPlus, {0, 1}),
                           AggregateFunction::Max()};
  for (FactId f : db.EndogenousFacts()) {
    auto dp = ScoreViaSumK(reference, db, f, MinMaxSumK);
    auto bf = BruteForceScore(reference, db, f);
    ASSERT_TRUE(dp.ok());
    EXPECT_EQ(*dp, *bf);
  }
}

// ---------------------------------------------------------------------------
// Semivalues and expected values from sum_k
// ---------------------------------------------------------------------------

TEST(SemivalueTest, ShapleyAndBanzhafAreSpecialCases) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 5;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Max()};
  FactId f = db.EndogenousFacts().front();
  Database with_f = db.WithFactExogenous(f);
  Database without_f = db.WithoutFact(f, nullptr);
  SumKSeries sf = *BruteForceSumK(a, with_f);
  SumKSeries sg = *BruteForceSumK(a, without_f);
  int64_t n = static_cast<int64_t>(sf.size());
  Combinatorics comb;
  std::vector<Rational> shapley_weights, banzhaf_weights;
  Rational banzhaf_w =
      Rational(BigInt(1), BigInt::TwoPow(static_cast<uint64_t>(n - 1)));
  for (int64_t k = 0; k < n; ++k) {
    shapley_weights.push_back(comb.ShapleyCoefficient(n, k));
    banzhaf_weights.push_back(banzhaf_w);
  }
  EXPECT_EQ(SemivalueFromSumK(sf, sg, shapley_weights),
            ScoreFromSumK(sf, sg, ScoreKind::kShapley));
  EXPECT_EQ(SemivalueFromSumK(sf, sg, banzhaf_weights),
            ScoreFromSumK(sf, sg, ScoreKind::kBanzhaf));
}

TEST(ExpectedValueTest, MatchesDirectEnumeration) {
  // E[A] over the uniform TID database with p = 1/3, by definition vs the
  // sum_k identity.
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 3;
  options.seed = 9;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Max()};
  SumKSeries series = *BruteForceSumK(a, db);
  Rational p = R(1, 3);
  Rational via_sumk = ExpectedValueFromSumK(series, p);
  // Direct: Σ_E p^|E| (1−p)^{n−|E|} A(E ∪ D_x) — regroup by |E| using the
  // same brute-force values, but compute independently from per-k data.
  int64_t n = static_cast<int64_t>(series.size()) - 1;
  Rational direct;
  for (int64_t k = 0; k <= n; ++k) {
    Rational weight(1);
    for (int64_t i = 0; i < k; ++i) weight *= p;
    for (int64_t i = 0; i < n - k; ++i) weight *= R(2, 3);
    direct += weight * series[static_cast<size_t>(k)];
  }
  EXPECT_EQ(via_sumk, direct);
  // Sanity: p = 1 gives A(D), p = 0 gives A(D_x).
  EXPECT_EQ(ExpectedValueFromSumK(series, R(1)), a.Evaluate(db));
  Database exo_only;
  for (FactId id = 0; id < db.num_facts(); ++id) {
    if (!db.fact(id).endogenous) {
      exo_only.AddExogenous(db.fact(id).relation, db.fact(id).args);
    }
  }
  EXPECT_EQ(ExpectedValueFromSumK(series, R(0)), a.Evaluate(exo_only));
}

}  // namespace
}  // namespace shapcq
