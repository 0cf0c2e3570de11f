// Tests for the cooperative-game abstraction, including the classic games
// used throughout the game-theory literature and the Set-Cover game of
// Lemma D.5 (tied back to the quantile reduction database).

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/workload/generators.h"
#include "tests/cooperative_game.h"
#include "tests/permutation_shapley.h"

namespace shapcq {
namespace {

Rational R(int64_t n) { return Rational(n); }
Rational R(int64_t n, int64_t d) { return Rational(BigInt(n), BigInt(d)); }

TEST(GameTest, GloveGame) {
  // Players 0,1 hold left gloves, player 2 a right glove; a pair is worth 1.
  CooperativeGame game(3, [](uint64_t coalition) {
    bool left = (coalition & 0b011) != 0;
    bool right = (coalition & 0b100) != 0;
    return left && right ? R(1) : R(0);
  });
  // Classic result: Shapley = (1/6, 1/6, 4/6).
  EXPECT_EQ(*game.Score(0), R(1, 6));
  EXPECT_EQ(*game.Score(1), R(1, 6));
  EXPECT_EQ(*game.Score(2), R(2, 3));
  EXPECT_TRUE(*game.SatisfiesEfficiency());
  EXPECT_TRUE(*game.AreSymmetric(0, 1));
  EXPECT_FALSE(*game.AreSymmetric(0, 2));
}

TEST(GameTest, UnanimityGame) {
  // ν(C) = 1 iff C = P: all players symmetric, Shapley = 1/n each.
  for (int n : {1, 2, 4, 6}) {
    CooperativeGame game(n, [n](uint64_t coalition) {
      return coalition == (uint64_t{1} << n) - 1 ? R(1) : R(0);
    });
    for (int p = 0; p < n; ++p) {
      EXPECT_EQ(*game.Score(p), R(1, n)) << "n=" << n << " p=" << p;
    }
  }
}

TEST(GameTest, NonZeroEmptyUtilityIsShifted) {
  // utility(∅) = 5 must not leak into the scores.
  CooperativeGame game(2, [](uint64_t coalition) {
    return R(5) + R(static_cast<int64_t>(__builtin_popcountll(coalition)));
  });
  EXPECT_TRUE(game.Utility(0).is_zero());
  EXPECT_EQ(*game.Score(0), R(1));
  EXPECT_EQ(*game.Score(1), R(1));
}

TEST(GameTest, NullPlayerDetection) {
  CooperativeGame game(3, [](uint64_t coalition) {
    return (coalition & 0b001) != 0 ? R(7) : R(0);  // only player 0 matters
  });
  EXPECT_FALSE(*game.IsNullPlayer(0));
  EXPECT_TRUE(*game.IsNullPlayer(1));
  EXPECT_TRUE(*game.IsNullPlayer(2));
  EXPECT_TRUE(game.Score(1)->is_zero());
}

TEST(GameTest, BanzhafVsShapleyOnWeightedVoting) {
  // Weighted majority [3; 2, 1, 1]: ν = 1 iff weight ≥ 3.
  CooperativeGame game(3, [](uint64_t coalition) {
    int weight = 0;
    if (coalition & 1) weight += 2;
    if (coalition & 2) weight += 1;
    if (coalition & 4) weight += 1;
    return weight >= 3 ? R(1) : R(0);
  });
  // Shapley: big player 2/3, small players 1/6 each.
  EXPECT_EQ(*game.Score(0), R(2, 3));
  EXPECT_EQ(*game.Score(1), R(1, 6));
  // Banzhaf: big player swings in {10,01,11} -> 3/4; small in {10} -> 1/4.
  EXPECT_EQ(*game.Score(0, ScoreKind::kBanzhaf), R(3, 4));
  EXPECT_EQ(*game.Score(1, ScoreKind::kBanzhaf), R(1, 4));
}

TEST(GameTest, SetCoverGameMatchesQuantileReductionDatabase) {
  // Lemma D.5 ≅ Lemma D.4: the Shapley value of set i in the Set-Cover
  // game equals the Shapley value of S(i) in the quantile database.
  std::vector<std::vector<int>> sets = {{1, 2}, {2, 3}, {3}, {1}};
  CooperativeGame game = SetCoverGame(3, sets);
  Database db = SetCoverQuantileDatabase(
      SetCoverInstance{3, sets}, /*a=*/1, /*b=*/2);
  AggregateQuery a{MustParseQuery("Q(x) <- R(x, y), S(y)"),
                   MakeTauGreaterThan(0, R(0)), AggregateFunction::Median()};
  for (int i = 0; i < static_cast<int>(sets.size()); ++i) {
    FactId s_fact = *db.FindFact("S", {Value(i + 1)});
    EXPECT_EQ(*game.Score(i), *BruteForceScore(a, db, s_fact))
        << "set " << i + 1;
  }
}

TEST(GameTest, AllScoresAndSizeLimit) {
  CooperativeGame small(2, [](uint64_t c) {
    return R(static_cast<int64_t>(__builtin_popcountll(c)));
  });
  auto scores = small.AllScores();
  ASSERT_TRUE(scores.ok());
  EXPECT_EQ((*scores)[0], R(1));
  EXPECT_EQ((*scores)[1], R(1));
  CooperativeGame big(27, [](uint64_t) { return R(0); });
  EXPECT_FALSE(big.Score(0).ok());

  // The brute-force sweep (shapley/brute_force.h) against the game over
  // the same coalition values A(S ∪ D_x), and up to 9 players against the
  // permutation definition: every aggregate, a self-join and a tombstoned
  // fact. Each query gets one database inside a single chunk of 2^8 masks
  // and one spanning several (n = 5 and 10 for xyy, 6 and 11 for the
  // self-join).
  const std::vector<AggregateFunction> aggregates = {
      AggregateFunction::Sum(),
      AggregateFunction::Count(),
      AggregateFunction::CountDistinct(),
      AggregateFunction::Min(),
      AggregateFunction::Max(),
      AggregateFunction::Avg(),
      AggregateFunction::Median(),
      AggregateFunction::Quantile(R(1, 3)),
      AggregateFunction::HasDuplicates()};
  const std::vector<std::pair<const char*, int>> inputs = {
      {"Q(x) <- R(x, y), S(y)", 4},
      {"Q(x) <- R(x, y), S(y)", 6},
      {"Q(x, z) <- R(x, y), R(y, z)", 8},
      {"Q(x, z) <- R(x, y), R(y, z)", 12}};
  for (const auto& [text, facts] : inputs) {
    const ConjunctiveQuery q = MustParseQuery(text);
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = facts;
    db_options.domain_size = facts;
    db_options.endogenous_percent = 90;
    db_options.seed = static_cast<uint64_t>(facts);
    Database db = RandomDatabaseForQuery(q, db_options);
    ASSERT_TRUE(db.DeleteFact(db.EndogenousFacts().front()).ok());
    const SubsetEvaluator evaluator(q, db);
    const int n = evaluator.num_players();
    ASSERT_LE(n, 12) << text;
    for (const AggregateFunction& alpha : aggregates) {
      for (const ValueFunctionPtr& tau : {MakeTauId(0), MakeTauReLU(0)}) {
        const AggregateQuery a{q, tau, alpha};
        std::vector<Rational> values;
        for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
          values.push_back(a.EvaluateOnAnswers(evaluator.AnswersFor(mask)));
        }
        const CooperativeGame game(n, [&](uint64_t mask) {
          return values[static_cast<size_t>(mask)];
        });
        for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
          SolverOptions options;
          options.score = kind;
          options.num_threads = 8;
          const auto expected = game.AllScores(kind);
          const auto all = BruteForceScoreAll(a, db, options);
          options.num_threads = 1;
          ASSERT_TRUE(expected.ok());
          ASSERT_TRUE(all.ok()) << all.status().ToString();
          ASSERT_EQ(all->size(), static_cast<size_t>(n));
          for (int p = 0; p < n; ++p) {
            const FactId f = evaluator.PlayerFact(p);
            const Rational& truth = (*expected)[static_cast<size_t>(p)];
            const std::string label = a.ToString() + " " +
                                      db.fact(f).ToString() + " n=" +
                                      std::to_string(n);
            EXPECT_EQ((*all)[static_cast<size_t>(p)].first, f);
            EXPECT_EQ((*all)[static_cast<size_t>(p)].second, truth)
                << label;
            EXPECT_EQ(*BruteForceScore(a, db, f, kind, options), truth)
                << label;
            EXPECT_EQ(*ScoreViaSumK(a, db, f, BruteForceSumK, options),
                      truth)
                << label;
            if (kind == ScoreKind::kShapley && n <= 9) {
              EXPECT_EQ(*BruteForceShapleyByPermutations(a, db, f), truth)
                  << label;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace shapcq
