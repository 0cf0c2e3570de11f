// Avg/Quantile DP over q-hierarchical CQs (Section 5.1), cross-validated
// against brute force, the closed form of Proposition 5.2, and the bag-level
// quantile semantics.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/avg_quantile.h"
#include "shapcq/shapley/avg_quantile_dp.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/closed_forms.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/workload/generators.h"

namespace shapcq {

// Pure BigInt counts for the quintuple DP: the differential oracle of the
// CountValue production path.
template <>
struct avg_quantile_dp::CountOps<BigInt> {
  static BigInt FromBigInt(const BigInt& value) { return value; }
  static void AddProduct(BigInt& acc, const BigInt& a, const BigInt& b) {
    acc += a * b;
  }
  static void AddProductBig(BigInt& acc, const BigInt& a, const BigInt& b) {
    acc += a * b;
  }
  static BigInt Binomial(Combinatorics* comb, int64_t n, int64_t k) {
    return comb->Binomial(n, k);
  }
  static BigInt ToBigInt(const BigInt& value) { return value; }
};

namespace {

// The quintuple DP instantiated on pure BigInt counts.
StatusOr<SumKSeries> AvgQuantileSumKBigInt(const AggregateQuery& a,
                                           const Database& db) {
  return avg_quantile_dp::AvgQuantileSumKImpl<BigInt>(a, db);
}

Rational R(int64_t n) { return Rational(n); }
Rational R(int64_t n, int64_t d) { return Rational(BigInt(n), BigInt(d)); }

// q-hierarchical query shapes for the sweeps.
const char* kQHierarchicalQueries[] = {
    "Q(x) <- R(x)",
    "Q(x, y) <- R(x, y)",
    "Q(x) <- R(x, y)",
    "Q(x, y) <- R(x, y), S(y)",      // q-hier, not sq-hier
    "Q(x) <- R(x), S(x, y)",         // sq-hier
    "Q(x, y) <- R(x), S(x, y)",      // q-hier (Figure 1 example)
    "Q(x, z) <- R(x), T(z)",         // cross product
    "Q(x, y, z) <- R(x, y), S(y), T(z)",  // disconnected + projection-free
    "Q(x) <- R(x, 1), S(x)",         // constants
};

struct SweepCase {
  std::string query;
  uint64_t seed;
};

std::vector<SweepCase> MakeSweep() {
  std::vector<SweepCase> cases;
  for (const char* q : kQHierarchicalQueries) {
    for (uint64_t seed = 1; seed <= 4; ++seed) cases.push_back({q, seed});
  }
  return cases;
}

class AvgQntSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AvgQntSweepTest, AvgMatchesBruteForce) {
  const SweepCase& param = GetParam();
  ConjunctiveQuery q = MustParseQuery(param.query);
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = param.seed;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Avg()};
  auto dp = AvgQuantileSumK(a, db);
  auto bf = BruteForceSumK(a, db);
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  ASSERT_TRUE(bf.ok());
  ASSERT_EQ(dp->size(), bf->size());
  for (size_t k = 0; k < bf->size(); ++k) {
    EXPECT_EQ((*dp)[k], (*bf)[k]) << "k=" << k;
  }
}

TEST_P(AvgQntSweepTest, MedianMatchesBruteForce) {
  const SweepCase& param = GetParam();
  ConjunctiveQuery q = MustParseQuery(param.query);
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = param.seed + 50;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Median()};
  auto dp = AvgQuantileSumK(a, db);
  auto bf = BruteForceSumK(a, db);
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  for (size_t k = 0; k < bf->size(); ++k) {
    EXPECT_EQ((*dp)[k], (*bf)[k]) << "k=" << k;
  }
}

TEST_P(AvgQntSweepTest, ThirdQuantileMatchesBruteForce) {
  const SweepCase& param = GetParam();
  ConjunctiveQuery q = MustParseQuery(param.query);
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = param.seed + 90;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0),
                   AggregateFunction::Quantile(R(1, 3))};
  auto dp = AvgQuantileSumK(a, db);
  auto bf = BruteForceSumK(a, db);
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  for (size_t k = 0; k < bf->size(); ++k) {
    EXPECT_EQ((*dp)[k], (*bf)[k]) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(QHierarchicalSweep, AvgQntSweepTest,
                         ::testing::ValuesIn(MakeSweep()));

// ---------------------------------------------------------------------------
// Targeted cases
// ---------------------------------------------------------------------------

TEST(AvgQuantileTest, VariousValueFunctions) {
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.seed = 3;
  Database db = RandomDatabaseForQuery(q, options);
  for (ValueFunctionPtr tau :
       {MakeTauId(1), MakeTauReLU(0), MakeTauGreaterThan(1, R(0)),
        MakeConstantTau(R(2))}) {
    for (AggregateFunction alpha :
         {AggregateFunction::Avg(), AggregateFunction::Median()}) {
      AggregateQuery a{q, tau, alpha};
      auto dp = AvgQuantileSumK(a, db);
      auto bf = BruteForceSumK(a, db);
      ASSERT_TRUE(dp.ok()) << tau->ToString();
      for (size_t k = 0; k < bf->size(); ++k) {
        EXPECT_EQ((*dp)[k], (*bf)[k])
            << tau->ToString() << " " << alpha.ToString() << " k=" << k;
      }
    }
  }
}

TEST(AvgQuantileTest, ShapleyScoresMatchBruteForce) {
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 8;
  Database db = RandomDatabaseForQuery(q, options);
  for (AggregateFunction alpha :
       {AggregateFunction::Avg(), AggregateFunction::Median()}) {
    AggregateQuery a{q, MakeTauId(0), alpha};
    for (FactId f : db.EndogenousFacts()) {
      auto dp = ScoreViaSumK(a, db, f, AvgQuantileSumK);
      auto bf = BruteForceScore(a, db, f);
      ASSERT_TRUE(dp.ok());
      EXPECT_EQ(*dp, *bf) << alpha.ToString();
    }
  }
}

// The batched scorer shards its fact sweep over the workers (TSan runs
// this file): at 8 threads every score still equals brute force.
TEST(AvgQuantileTest, ScoreAllAtEightThreadsMatchesBruteForce) {
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.seed = 8;
  Database db = RandomDatabaseForQuery(q, options);
  SolverOptions eight;
  eight.num_threads = 8;
  for (AggregateFunction alpha :
       {AggregateFunction::Avg(), AggregateFunction::Median()}) {
    AggregateQuery a{q, MakeTauId(0), alpha};
    auto batch = AvgQuantileScoreAll(a, db, eight);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), db.EndogenousFacts().size());
    for (const auto& [f, score] : *batch) {
      auto bf = BruteForceScore(a, db, f);
      ASSERT_TRUE(bf.ok());
      EXPECT_EQ(score, *bf) << alpha.ToString() << " " << db.fact(f).ToString();
    }
  }
}

TEST(AvgQuantileTest, AgreesWithClosedFormAvg) {
  Database db;
  for (int i = 0; i < 30; ++i) {
    db.AddEndogenous("R", {Value(i), Value((i * 13) % 17 - 5)});
  }
  ConjunctiveQuery q = MustParseQuery("Q(i, v) <- R(i, v)");
  AggregateQuery a{q, MakeTauId(1), AggregateFunction::Avg()};
  for (FactId probe : {FactId{0}, FactId{11}, FactId{29}}) {
    auto closed = ClosedFormAvg(a, db, probe);
    auto dp = ScoreViaSumK(a, db, probe, AvgQuantileSumK);
    ASSERT_TRUE(closed.ok());
    ASSERT_TRUE(dp.ok());
    EXPECT_EQ(*closed, *dp);
  }
}

TEST(AvgQuantileTest, RejectsAllHierarchicalButNotQHierarchical) {
  // Q_xyy is the paper's canonical hard query for Avg (Lemma 5.4).
  ConjunctiveQuery q_xyy = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  db.AddEndogenous("S", {Value(2)});
  AggregateQuery a{q_xyy, MakeTauReLU(0), AggregateFunction::Avg()};
  EXPECT_FALSE(AvgQuantileSumK(a, db).ok());
}

TEST(AvgQuantileTest, ExogenousOnlyRelationStillWorks) {
  Database db;
  db.AddExogenous("R", {Value(3), Value(1)});
  db.AddExogenous("R", {Value(5), Value(2)});
  db.AddEndogenous("S", {Value(1)});
  db.AddEndogenous("S", {Value(2)});
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Avg()};
  auto dp = AvgQuantileSumK(a, db);
  auto bf = BruteForceSumK(a, db);
  ASSERT_TRUE(dp.ok());
  for (size_t k = 0; k < bf->size(); ++k) EXPECT_EQ((*dp)[k], (*bf)[k]);
}

// The production path counts in CountValue (fixed-width with BigInt
// escape); the pure-BigInt instantiation is the differential oracle. Both
// are exact, so every series entry must agree bitwise.
TEST(AvgQuantileTest, CountValuePathMatchesBigIntOracleBitwise) {
  for (const char* query : kQHierarchicalQueries) {
    ConjunctiveQuery q = MustParseQuery(query);
    for (uint64_t seed : {7u, 21u}) {
      RandomDatabaseOptions options;
      options.facts_per_relation = 6;
      options.seed = seed;
      Database db = RandomDatabaseForQuery(q, options);
      for (AggregateFunction alpha :
           {AggregateFunction::Avg(), AggregateFunction::Median(),
            AggregateFunction::Quantile(R(1, 3))}) {
        AggregateQuery a{q, MakeTauId(0), alpha};
        auto fast = AvgQuantileSumK(a, db);
        auto oracle = AvgQuantileSumKBigInt(a, db);
        ASSERT_TRUE(fast.ok()) << fast.status().ToString();
        ASSERT_TRUE(oracle.ok());
        ASSERT_EQ(fast->size(), oracle->size());
        for (size_t k = 0; k < oracle->size(); ++k) {
          EXPECT_EQ((*fast)[k], (*oracle)[k])
              << query << " " << alpha.ToString() << " seed=" << seed
              << " k=" << k;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// f_q (QuantileContribution) unit behavior
// ---------------------------------------------------------------------------

TEST(QuantileContributionTest, MatchesDirectQuantileDecomposition) {
  // For any bag profile, summing value · f_q over the distinct values must
  // reproduce Qnt_q of the bag.
  std::vector<std::vector<int>> bags = {
      {1}, {1, 2}, {1, 1, 2}, {1, 2, 3, 4}, {2, 2, 2}, {1, 3, 3, 7, 9},
      {5, 4, 3, 2, 1, 0},
  };
  for (const Rational& q :
       {R(1, 2), R(1, 4), R(3, 4), R(1, 3), R(2, 3), R(9, 10)}) {
    for (const auto& bag : bags) {
      std::vector<Rational> values;
      for (int v : bag) values.push_back(R(v));
      Rational expected = AggregateFunction::Quantile(q).Apply(values);
      // Decompose: for each distinct value, count less/equal/greater.
      std::vector<Rational> distinct = values;
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      Rational reconstructed;
      for (const Rational& v : distinct) {
        int64_t less = 0, equal = 0, greater = 0;
        for (const Rational& w : values) {
          if (w < v) ++less;
          else if (w == v) ++equal;
          else ++greater;
        }
        reconstructed += v * QuantileContribution(q, less, equal, greater);
      }
      EXPECT_EQ(reconstructed, expected)
          << "q=" << q.ToString() << " bag size " << bag.size();
    }
  }
}

TEST(QuantileContributionTest, ZeroCases) {
  EXPECT_TRUE(QuantileContribution(R(1, 2), 0, 0, 0).is_zero());
  EXPECT_TRUE(QuantileContribution(R(1, 2), 3, 0, 2).is_zero());
  // Anchor below the median position.
  EXPECT_TRUE(QuantileContribution(R(1, 2), 0, 1, 4).is_zero());
}

}  // namespace
}  // namespace shapcq
