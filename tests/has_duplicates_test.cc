// Has-duplicates DP over sq-hierarchical CQs (Section 6 / Appendix E.2),
// cross-validated against brute force.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/has_duplicates.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/workload/generators.h"

namespace shapcq {
namespace {

Rational R(int64_t n) { return Rational(n); }

// sq-hierarchical query shapes (Section 6 examples included).
const char* kSqHierarchicalQueries[] = {
    "Q(x) <- R(x)",
    "Q(x, y) <- R(x, y)",
    "Q(x) <- R(x, y)",
    "Q(x) <- R(x, y), S(x)",
    "Q(x, y) <- R(x, y), S(x, y, z)",
    "Q(x, z) <- R(x, y), S(x), T(z)",
    "Q(x, z) <- R(x), T(z)",
    "Q(x) <- R(x, 1), S(x)",
};

struct SweepCase {
  std::string query;
  uint64_t seed;
};

std::vector<SweepCase> MakeSweep() {
  std::vector<SweepCase> cases;
  for (const char* q : kSqHierarchicalQueries) {
    for (uint64_t seed = 1; seed <= 4; ++seed) cases.push_back({q, seed});
  }
  return cases;
}

class DupSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DupSweepTest, MatchesBruteForce) {
  const SweepCase& param = GetParam();
  ConjunctiveQuery q = MustParseQuery(param.query);
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.domain_size = 3;  // small domain: duplicates are common
  options.seed = param.seed;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::HasDuplicates()};
  auto dp = HasDuplicatesSumK(a, db);
  auto bf = BruteForceSumK(a, db);
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  ASSERT_TRUE(bf.ok());
  ASSERT_EQ(dp->size(), bf->size());
  for (size_t k = 0; k < bf->size(); ++k) {
    EXPECT_EQ((*dp)[k], (*bf)[k]) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(SqHierarchicalSweep, DupSweepTest,
                         ::testing::ValuesIn(MakeSweep()));

TEST(HasDuplicatesTest, ShapleyScoresMatchBruteForce) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(x)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.domain_size = 3;
  options.seed = 6;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::HasDuplicates()};
  for (FactId f : db.EndogenousFacts()) {
    auto dp = ScoreViaSumK(a, db, f, HasDuplicatesSumK);
    auto bf = BruteForceScore(a, db, f);
    ASSERT_TRUE(dp.ok());
    EXPECT_EQ(*dp, *bf) << db.fact(f).ToString();
  }
}

// The batched scorer shards its fact sweep over the workers (TSan runs
// this file): at 8 threads every score still equals brute force, on a
// head whose answers share τ-values.
TEST(HasDuplicatesTest, ScoreAllAtEightThreadsMatchesBruteForce) {
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(x)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.domain_size = 3;
  options.seed = 6;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::HasDuplicates()};
  SolverOptions eight;
  eight.num_threads = 8;
  auto batch = HasDuplicatesScoreAll(a, db, eight);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), db.EndogenousFacts().size());
  bool any_nonzero = false;
  for (const auto& [f, score] : *batch) {
    auto bf = BruteForceScore(a, db, f);
    ASSERT_TRUE(bf.ok());
    EXPECT_EQ(score, *bf) << db.fact(f).ToString();
    any_nonzero = any_nonzero || !score.is_zero();
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(HasDuplicatesTest, HandcraftedDuplicateScenario) {
  // Q(x) <- R(x, y): two R-facts with the same x produce ONE answer (set
  // semantics), so no duplicate; duplicates need τ-collisions across
  // different x. τ = x mod nothing... use τ_>0: x=1 and x=2 both map to 1.
  Database db;
  db.AddEndogenous("R", {Value(1), Value(5)});
  db.AddEndogenous("R", {Value(2), Value(6)});
  db.AddEndogenous("R", {Value(-1), Value(7)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y)");
  AggregateQuery a{q, MakeTauGreaterThan(0, R(0)),
                   AggregateFunction::HasDuplicates()};
  auto dp = HasDuplicatesSumK(a, db);
  auto bf = BruteForceSumK(a, db);
  ASSERT_TRUE(dp.ok());
  for (size_t k = 0; k < bf->size(); ++k) EXPECT_EQ((*dp)[k], (*bf)[k]);
  // Sanity: with both positive x present the bag is {1, 1, 0} -> Dup = 1.
  EXPECT_EQ(a.Evaluate(db), R(1));
}

TEST(HasDuplicatesTest, Proposition73ThirdCase) {
  // Dup ∘ τ²_id ∘ Q^full_xyy: q-hierarchical but NOT sq-hierarchical, yet
  // tractable because τ²_id depends on y, which occurs in every atom
  // (Proposition 7.3(3)). The engine must accept it and agree with brute
  // force.
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 5;
  options.domain_size = 3;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery a{q, MakeTauId(1), AggregateFunction::HasDuplicates()};
    auto dp = HasDuplicatesSumK(a, db);
    auto bf = BruteForceSumK(a, db);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    for (size_t k = 0; k < bf->size(); ++k) {
      EXPECT_EQ((*dp)[k], (*bf)[k]) << "seed " << seed << " k=" << k;
    }
  }
}

TEST(HasDuplicatesTest, RejectsHardLocalization) {
  // Dup ∘ τ¹_id ∘ Q^full_xyy is the FP^#P-hard case of Lemma E.2(2):
  // τ depends on x, which is missing from the S atom.
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  db.AddEndogenous("S", {Value(2)});
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::HasDuplicates()};
  EXPECT_FALSE(HasDuplicatesSumK(a, db).ok());
}

TEST(HasDuplicatesTest, RejectsNonQHierarchical) {
  ConjunctiveQuery q_xyy = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  db.AddEndogenous("S", {Value(2)});
  AggregateQuery a{q_xyy, MakeTauReLU(0), AggregateFunction::HasDuplicates()};
  EXPECT_FALSE(HasDuplicatesSumK(a, db).ok());
}

TEST(HasDuplicatesTest, ConstantTauOnCrossProduct) {
  // With τ ≡ c, Dup = [#answers >= 2]; exercised on a cross product where
  // the replication logic matters.
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x), T(z)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 44;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeConstantTau(R(9)),
                   AggregateFunction::HasDuplicates()};
  auto dp = HasDuplicatesSumK(a, db);
  auto bf = BruteForceSumK(a, db);
  ASSERT_TRUE(dp.ok());
  for (size_t k = 0; k < bf->size(); ++k) EXPECT_EQ((*dp)[k], (*bf)[k]);
}

TEST(HasDuplicatesTest, BooleanQueryNeverHasDuplicates) {
  ConjunctiveQuery q = MustParseQuery("Q() <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 15;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeConstantTau(R(1)),
                   AggregateFunction::HasDuplicates()};
  auto dp = HasDuplicatesSumK(a, db);
  ASSERT_TRUE(dp.ok());
  for (const Rational& v : *dp) EXPECT_TRUE(v.is_zero());
}

}  // namespace
}  // namespace shapcq
