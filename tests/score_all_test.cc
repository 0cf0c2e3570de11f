// Differential tests for the batched all-facts scorers (ScoreAllFn).
//
// Every batched engine must reproduce the per-fact sum_k path bit for bit:
// exact rational arithmetic makes the batching a pure reordering of the
// same sums, so the comparisons below use operator== on Rational (canonical
// form — equality is bitwise identity). Also checked: thread-count
// invariance (the sharded accumulation merges per-worker state in
// deterministic order) and gate parity (a batched scorer fails with
// exactly the series engine's error).

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/data/db_io.h"
#include "shapcq/lineage/stats.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/avg_quantile.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/shapley/session.h"
#include "shapcq/shapley/solver.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/closed_forms.h"
#include "shapcq/shapley/count_distinct.h"
#include "shapcq/shapley/has_duplicates.h"
#include "shapcq/shapley/min_max.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/shapley/special_cases.h"
#include "shapcq/shapley/sum_count.h"
#include "shapcq/util/check.h"
#include "shapcq/workload/generators.h"
#include "shapcq/workload/random_query.h"

namespace shapcq {
namespace {

SolverOptions Options(ScoreKind kind, int num_threads = 0) {
  SolverOptions options;
  options.score = kind;
  options.num_threads = num_threads;
  return options;
}

// Asserts that a batched result matches per-fact ScoreViaSumK over
// `engine` on every endogenous fact, bit for bit.
void ExpectMatchesPerFact(
    const StatusOr<std::vector<std::pair<FactId, Rational>>>& batched,
    const AggregateQuery& a, const Database& db, const SumKEngine& engine,
    ScoreKind kind, const std::string& label) {
  ASSERT_TRUE(batched.ok()) << label << ": " << batched.status().ToString();
  std::vector<FactId> endo = db.EndogenousFacts();
  ASSERT_EQ(batched->size(), endo.size()) << label;
  for (size_t i = 0; i < endo.size(); ++i) {
    EXPECT_EQ((*batched)[i].first, endo[i]) << label;
    StatusOr<Rational> single = ScoreViaSumK(a, db, endo[i], engine, kind);
    ASSERT_TRUE(single.ok()) << label << ": " << single.status().ToString();
    EXPECT_EQ((*batched)[i].second, *single)
        << label << " fact " << endo[i];
  }
}

// `db` plus facts of a relation Q does not mention: null players every
// batched scorer must score an exact 0 without changing anyone else's
// value (they drop out of the DP tables, unlike the per-fact series).
Database WithUnmentionedRelation(Database db) {
  db.AddEndogenous("Unmentioned", {Value(1)});
  db.AddEndogenous("Unmentioned", {Value(2)});
  db.AddExogenous("Unmentioned", {Value(3)});
  return db;
}

// ---------------------------------------------------------------------------
// MinMaxScoreAll (localized τ: threshold group games; monoid τ: the DP)
// ---------------------------------------------------------------------------

TEST(MinMaxScoreAllTest, MatchesPerFactOnRandomAllHierarchicalWorkloads) {
  for (AggregateFunction alpha :
       {AggregateFunction::Min(), AggregateFunction::Max()}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RandomQueryOptions query_options;
      query_options.max_variables = 3;
      query_options.seed = seed * 17 + 2;
      ConjunctiveQuery q = RandomQueryOfClass(
          HierarchyClass::kAllHierarchical, query_options);
      RandomDatabaseOptions db_options;
      db_options.facts_per_relation = 4;
      db_options.seed = seed * 5 + 1;
      Database db = RandomDatabaseForQuery(q, db_options);
      if (db.num_endogenous() == 0) continue;
      ValueFunctionPtr tau =
          q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
      AggregateQuery a{q, tau, alpha};
      for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
        ExpectMatchesPerFact(MinMaxScoreAll(a, db, Options(kind)), a, db,
                             MinMaxSumK, kind,
                             a.ToString() + " seed " + std::to_string(seed));
      }
      const Database wider = WithUnmentionedRelation(db);
      for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
        ExpectMatchesPerFact(MinMaxScoreAll(a, wider, Options(kind)), a,
                             wider, MinMaxSumK, kind,
                             a.ToString() + " seed " + std::to_string(seed) +
                                 " + unmentioned relation");
      }
    }
  }
}

TEST(MinMaxScoreAllTest, MatchesBruteForceOnSmallInstance) {
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  Database db;
  db.AddEndogenous("R", {Value(1), Value(10)});
  db.AddEndogenous("R", {Value(2), Value(10)});
  db.AddEndogenous("R", {Value(3), Value(20)});
  db.AddEndogenous("S", {Value(10)});
  db.AddExogenous("S", {Value(20)});
  db.AddEndogenous("T", {Value(99)});  // irrelevant endogenous fact
  for (AggregateFunction alpha :
       {AggregateFunction::Min(), AggregateFunction::Max()}) {
    AggregateQuery a{q, MakeTauId(0), alpha};
    auto batched = MinMaxScoreAll(a, db, Options(ScoreKind::kShapley));
    auto oracle = BruteForceScoreAll(a, db, Options(ScoreKind::kShapley));
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ASSERT_TRUE(oracle.ok());
    ASSERT_EQ(batched->size(), oracle->size());
    for (size_t i = 0; i < batched->size(); ++i) {
      EXPECT_EQ((*batched)[i].first, (*oracle)[i].first);
      EXPECT_EQ((*batched)[i].second, (*oracle)[i].second)
          << "fact " << (*batched)[i].first;
    }
  }
}

TEST(MinMaxScoreAllTest, ThreadCountNeverChangesAnyValue) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  RandomDatabaseOptions db_options;
  db_options.facts_per_relation = 6;
  db_options.seed = 11;
  Database db = RandomDatabaseForQuery(q, db_options);
  ASSERT_GT(db.num_endogenous(), 0);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Max()};
  auto reference = MinMaxScoreAll(a, db, Options(ScoreKind::kShapley, 1));
  ASSERT_TRUE(reference.ok());
  for (int threads : {2, 8}) {
    auto threaded =
        MinMaxScoreAll(a, db, Options(ScoreKind::kShapley, threads));
    ASSERT_TRUE(threaded.ok());
    ASSERT_EQ(reference->size(), threaded->size());
    for (size_t i = 0; i < reference->size(); ++i) {
      EXPECT_EQ((*reference)[i].first, (*threaded)[i].first);
      EXPECT_EQ((*reference)[i].second, (*threaded)[i].second)
          << "threads=" << threads;
    }
  }
}

TEST(MinMaxScoreAllTest, RefusesExactlyLikeTheSeriesEngine) {
  // Not all-hierarchical: R(x, y), S(y) with y shared but x free in one
  // atom only... use a genuinely non-all-hierarchical query.
  ConjunctiveQuery q = MustParseQuery("Q() <- R(x), S(x, y), T(y)");
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("S", {Value(1), Value(2)});
  db.AddEndogenous("T", {Value(2)});
  AggregateQuery a{q, MakeConstantTau(Rational(1)), AggregateFunction::Max()};
  auto batched = MinMaxScoreAll(a, db);
  auto series = MinMaxSumK(a, db);
  ASSERT_FALSE(batched.ok());
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(batched.status().message(), series.status().message());
}

// ---------------------------------------------------------------------------
// MinMaxScoreAll with monoid value functions (Section 7.3 extension)
// ---------------------------------------------------------------------------

Database MonoidDb(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    db.AddEndogenous("R", {Value(i), Value(i % 5 - 2)});
    db.AddEndogenous("T", {Value(i), Value((i * 3) % 7 - 3)});
  }
  return db;
}

TEST(MinMaxScoreAllMonoidTest, MatchesPerFactOnCrossProduct) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(i, x), T(j, z)");
  for (int n : {3, 5}) {
    Database db = MonoidDb(n);
    struct Case {
      MonoidKind kind;
      bool is_max;
    };
    for (const Case& c : {Case{MonoidKind::kPlus, true},
                          Case{MonoidKind::kMax, true},
                          Case{MonoidKind::kPlus, false},
                          Case{MonoidKind::kMin, false}}) {
      AggregateQuery reference{
          q, MakeMonoidTau(c.kind, {0, 1}),
          c.is_max ? AggregateFunction::Max() : AggregateFunction::Min()};
      for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
        ExpectMatchesPerFact(MinMaxScoreAll(reference, db, Options(kind)),
                             reference, db, MinMaxSumK, kind,
                             "monoid n=" + std::to_string(n));
      }
    }
  }
}

TEST(MinMaxScoreAllMonoidTest, MatchesPerFactOnConnectedQuery) {
  // Connected all-hierarchical query: the top level is a root split, not
  // a cross product.
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  Database db;
  for (int i = 0; i < 5; ++i) {
    db.AddEndogenous("R", {Value(i % 3), Value(i)});
    db.AddFact("S", {Value(i)}, /*endogenous=*/i % 2 == 0);
  }
  AggregateQuery reference{q, MakeMonoidTau(MonoidKind::kPlus, {0, 1}),
                           AggregateFunction::Max()};
  for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
    ExpectMatchesPerFact(MinMaxScoreAll(reference, db, Options(kind)),
                         reference, db, MinMaxSumK, kind, "monoid connected");
  }
}

TEST(MinMaxScoreAllMonoidTest, MatchesBruteForceWithIrrelevantFacts) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(i, x), T(j, z)");
  Database db = MonoidDb(3);
  db.AddEndogenous("U", {Value(7)});  // never joins: exact-zero fast path
  // Tombstones leave gaps in the FactId space that scores must keep.
  Database tombstoned = MonoidDb(4);
  tombstoned.AddEndogenous("U", {Value(7)});
  ASSERT_TRUE(tombstoned.DeleteFact(2).ok());
  ASSERT_TRUE(tombstoned.DeleteFact(5).ok());
  struct Case {
    const Database* db;
    MonoidKind kind;
    AggregateFunction alpha;
  };
  for (const Case& c :
       {Case{&db, MonoidKind::kPlus, AggregateFunction::Max()},
        Case{&tombstoned, MonoidKind::kPlus, AggregateFunction::Min()},
        Case{&tombstoned, MonoidKind::kMin, AggregateFunction::Min()}}) {
    AggregateQuery reference{q, MakeMonoidTau(c.kind, {0, 1}), c.alpha};
    auto batched = MinMaxScoreAll(reference, *c.db);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    std::vector<FactId> endo = c.db->EndogenousFacts();
    ASSERT_EQ(batched->size(), endo.size());
    for (size_t i = 0; i < endo.size(); ++i) {
      EXPECT_EQ((*batched)[i].first, endo[i]);
      auto oracle = BruteForceScore(reference, *c.db, endo[i]);
      ASSERT_TRUE(oracle.ok());
      EXPECT_EQ((*batched)[i].second, *oracle)
          << reference.ToString() << " fact " << endo[i];
    }
  }
}

TEST(MinMaxScoreAllMonoidTest, SessionRoutesMonoidMaxToTheMinMaxDp) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(i, x), T(j, z)");
  Database db = MonoidDb(4);
  AggregateQuery a{q, MakeMonoidTau(MonoidKind::kPlus, {0, 1}),
                   AggregateFunction::Max()};
  SolverSession session(a, db);
  auto all = session.ComputeAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  auto batched = MinMaxScoreAll(a, db);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(all->size(), batched->size());
  for (size_t i = 0; i < all->size(); ++i) {
    const SolveResult& result = (*all)[i].second;
    EXPECT_EQ(result.algorithm, "min-max/all-hierarchical-dp");
    EXPECT_TRUE(result.is_exact);
    EXPECT_EQ(result.exact, (*batched)[i].second);
  }
}

TEST(MinMaxScoreAllMonoidTest, RefusesExactlyLikeTheSeriesEngine) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(i, x), T(j, z)");
  Database db = MonoidDb(2);
  // Max with a non-decreasing monoid is required.
  AggregateQuery a{q, MakeMonoidTau(MonoidKind::kMin, {0, 1}),
                   AggregateFunction::Max()};
  auto batched = MinMaxScoreAll(a, db);
  auto series = MinMaxSumK(a, db);
  ASSERT_FALSE(batched.ok());
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(batched.status().message(), series.status().message());
}

// ---------------------------------------------------------------------------
// ScoreAllViaSumK over AvgQuantileSumK (quintuple DP)
// ---------------------------------------------------------------------------

TEST(AvgQuantileViaSumKTest, MatchesPerFactOnRandomQHierarchicalWorkloads) {
  for (AggregateFunction alpha :
       {AggregateFunction::Avg(), AggregateFunction::Median(),
        AggregateFunction::Quantile(Rational(BigInt(1), BigInt(4)))}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RandomQueryOptions query_options;
      query_options.max_variables = 3;
      query_options.seed = seed * 19 + 3;
      ConjunctiveQuery q =
          RandomQueryOfClass(HierarchyClass::kQHierarchical, query_options);
      RandomDatabaseOptions db_options;
      db_options.facts_per_relation = 4;
      db_options.seed = seed * 3 + 2;
      Database db = RandomDatabaseForQuery(q, db_options);
      if (db.num_endogenous() == 0) continue;
      ValueFunctionPtr tau =
          q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
      AggregateQuery a{q, tau, alpha};
      for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
        ExpectMatchesPerFact(
            ScoreAllViaSumK(a, db, AvgQuantileSumK, Options(kind)), a, db,
            AvgQuantileSumK, kind,
            a.ToString() + " seed " + std::to_string(seed));
      }
      const Database wider = WithUnmentionedRelation(db);
      for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
        ExpectMatchesPerFact(
            ScoreAllViaSumK(a, wider, AvgQuantileSumK, Options(kind)), a,
            wider, AvgQuantileSumK, kind,
            a.ToString() + " seed " + std::to_string(seed) +
                " + unmentioned relation");
      }
    }
  }
}

TEST(AvgQuantileViaSumKTest, ThreadCountNeverChangesAnyValue) {
  // q-hierarchical: the free variable dominates the existential one.
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(x)");
  RandomDatabaseOptions db_options;
  db_options.facts_per_relation = 5;
  db_options.seed = 13;
  Database db = RandomDatabaseForQuery(q, db_options);
  ASSERT_GT(db.num_endogenous(), 0);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Avg()};
  auto reference = ScoreAllViaSumK(a, db, AvgQuantileSumK,
                                   Options(ScoreKind::kShapley, 1));
  ASSERT_TRUE(reference.ok());
  for (int threads : {2, 8}) {
    auto threaded = ScoreAllViaSumK(a, db, AvgQuantileSumK,
                                    Options(ScoreKind::kShapley, threads));
    ASSERT_TRUE(threaded.ok());
    ASSERT_EQ(reference->size(), threaded->size());
    for (size_t i = 0; i < reference->size(); ++i) {
      EXPECT_EQ((*reference)[i].first, (*threaded)[i].first);
      EXPECT_EQ((*reference)[i].second, (*threaded)[i].second)
          << "threads=" << threads;
    }
  }
}

TEST(AvgQuantileViaSumKTest, RefusesExactlyLikeTheSeriesEngine) {
  // ∃-hierarchical but not q-hierarchical: Q(x) with y joining two atoms.
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x), S(x, y), T(y)");
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("S", {Value(1), Value(2)});
  db.AddEndogenous("T", {Value(2)});
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Avg()};
  auto batched = ScoreAllViaSumK(a, db, AvgQuantileSumK);
  auto series = AvgQuantileSumK(a, db);
  ASSERT_FALSE(batched.ok());
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(batched.status().message(), series.status().message());
}

// ---------------------------------------------------------------------------
// ScoreAllViaSumK over the engines without a scorer of their own
// ---------------------------------------------------------------------------

// `db` with its smallest endogenous fact tombstoned: a hole in the FactId
// space the batch must skip.
Database WithTombstone(Database db) {
  const FactId first = db.EndogenousFacts().front();
  SHAPCQ_CHECK(db.DeleteFact(first).ok());
  return db;
}

using BatchScorer =
    std::function<StatusOr<std::vector<std::pair<FactId, Rational>>>(
        const AggregateQuery&, const Database&, const SolverOptions&)>;

// Per input: db, db plus an unmentioned relation, and that with a
// tombstone; Shapley and Banzhaf; 1, 2 and 8 threads — every batch equal
// to per-fact ScoreViaSumK bit for bit. The batch is `batch` when set,
// else ScoreAllViaSumK over `engine`.
void ExpectViaSumKMatchesPerFact(const AggregateQuery& a, const Database& db,
                                 const SumKEngine& engine,
                                 const std::string& label,
                                 const BatchScorer& batch = nullptr) {
  const Database wider = WithUnmentionedRelation(db);
  const Database tombstoned = WithTombstone(wider);
  for (const auto& [input, suffix] :
       {std::pair<const Database*, const char*>{&db, ""},
        {&wider, " + unmentioned relation"},
        {&tombstoned, " + unmentioned relation + tombstone"}}) {
    for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
      for (int threads : {1, 2, 8}) {
        const SolverOptions options = Options(kind, threads);
        ExpectMatchesPerFact(
            batch != nullptr ? batch(a, *input, options)
                             : ScoreAllViaSumK(a, *input, engine, options),
            a, *input, engine, kind,
            label + suffix + " threads " + std::to_string(threads));
      }
    }
  }
}

TEST(ScoreAllViaSumKTest, MatchesPerFactForCountDistinct) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RandomQueryOptions query_options;
    query_options.max_variables = 3;
    query_options.seed = seed * 17 + 2;
    ConjunctiveQuery q =
        RandomQueryOfClass(HierarchyClass::kAllHierarchical, query_options);
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 4;
    db_options.seed = seed * 5 + 1;
    Database db = RandomDatabaseForQuery(q, db_options);
    if (db.num_endogenous() == 0) continue;
    ValueFunctionPtr tau =
        q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
    AggregateQuery a{q, tau, AggregateFunction::CountDistinct()};
    ExpectViaSumKMatchesPerFact(a, db, CountDistinctSumK,
                                a.ToString() + " seed " + std::to_string(seed));
  }
}

TEST(ScoreAllViaSumKTest, MatchesPerFactForHasDuplicates) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RandomQueryOptions query_options;
    query_options.max_variables = 3;
    query_options.seed = seed * 23 + 5;
    ConjunctiveQuery q =
        RandomQueryOfClass(HierarchyClass::kSqHierarchical, query_options);
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 4;
    db_options.domain_size = 3;  // small domain: duplicates are common
    db_options.seed = seed * 7 + 3;
    Database db = RandomDatabaseForQuery(q, db_options);
    if (db.num_endogenous() == 0) continue;
    ValueFunctionPtr tau =
        q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
    AggregateQuery a{q, tau, AggregateFunction::HasDuplicates()};
    ExpectViaSumKMatchesPerFact(a, db, HasDuplicatesSumK,
                                a.ToString() + " seed " + std::to_string(seed));
  }
}

TEST(ScoreAllViaSumKTest, MatchesPerFactForGatedProduct) {
  // Proposition 7.3: τ localized on T, the component Q1 = {T} gated by the
  // satisfaction of Q2 = {R, S}.
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x, y), S(y), T(z)");
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 3;
    db_options.seed = seed;
    Database db = RandomDatabaseForQuery(q, db_options);
    if (db.num_endogenous() == 0) continue;
    for (AggregateFunction alpha :
         {AggregateFunction::Avg(), AggregateFunction::Median()}) {
      AggregateQuery a{q, MakeTauReLU(1), alpha};
      ExpectViaSumKMatchesPerFact(
          a, db, GatedProductSumK,
          a.ToString() + " seed " + std::to_string(seed));
    }
  }
}

TEST(ScoreAllViaSumKTest, CancellationFailsTheWholeBatch) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(x)");
  RandomDatabaseOptions db_options;
  db_options.facts_per_relation = 5;
  db_options.seed = 13;
  Database db = RandomDatabaseForQuery(q, db_options);
  ASSERT_GT(db.num_endogenous(), 0);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Avg()};
  for (int threads : {1, 8}) {
    SolverOptions fired = Options(ScoreKind::kShapley, threads);
    fired.cancelled = [] { return true; };
    auto cancelled = ScoreAllViaSumK(a, db, AvgQuantileSumK, fired);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded);

    auto plain = ScoreAllViaSumK(a, db, AvgQuantileSumK,
                                 Options(ScoreKind::kShapley, threads));
    SolverOptions unfired = Options(ScoreKind::kShapley, threads);
    unfired.cancelled = [] { return false; };
    auto hooked = ScoreAllViaSumK(a, db, AvgQuantileSumK, unfired);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(hooked.ok()) << hooked.status().ToString();
    EXPECT_EQ(*hooked, *plain) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Block-local fact sweeps: AvgQuantileScoreAll and HasDuplicatesScoreAll
// re-solve only a fact's own top-level block
// ---------------------------------------------------------------------------

TEST(AvgQuantileScoreAllTest, MatchesPerFactOnRandomQHierarchicalWorkloads) {
  for (AggregateFunction alpha :
       {AggregateFunction::Avg(), AggregateFunction::Median(),
        AggregateFunction::Quantile(Rational(BigInt(1), BigInt(4)))}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RandomQueryOptions query_options;
      query_options.max_variables = 3;
      query_options.seed = seed * 19 + 3;
      ConjunctiveQuery q =
          RandomQueryOfClass(HierarchyClass::kQHierarchical, query_options);
      RandomDatabaseOptions db_options;
      db_options.facts_per_relation = 4;
      db_options.seed = seed * 3 + 2;
      Database db = RandomDatabaseForQuery(q, db_options);
      if (db.num_endogenous() == 0) continue;
      ValueFunctionPtr tau =
          q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
      AggregateQuery a{q, tau, alpha};
      ExpectViaSumKMatchesPerFact(
          a, db, AvgQuantileSumK,
          a.ToString() + " seed " + std::to_string(seed), AvgQuantileScoreAll);
    }
  }
}

TEST(AvgQuantileScoreAllTest, FallbackShapesMatchPerFact) {
  // The shapes with no top-level block product (ScoreAllViaSumK), then
  // block shapes whose unmatched root values leave relevant facts in no
  // block (padding), and whose blocks hold exogenous answers (the
  // division by a block shifts by them).
  struct Case {
    const char* query;
    ValueFunctionPtr tau;
    const char* facts;  // db_io's line format
  };
  const std::vector<Case> cases = {
      // Boolean head.
      {"Q() <- R(x), S(x)", MakeConstantTau(Rational(2)),
       "+R(1)\n+R(2)\n+S(1)\n+S(2)\n+S(3)\n"},
      // Disconnected cross product.
      {"Q(x, z) <- R(x), T(z)", MakeTauId(0),
       "+R(1)\n+R(4)\n+T(7)\n+T(8)\n"},
      // τ bound at the top: it reads no head position.
      {"Q(x) <- R(x, y), S(x)", MakeConstantTau(Rational(5)),
       "+R(1, 2)\n+R(1, 3)\n+R(2, 2)\n+S(1)\n+S(2)\n"},
      // No answer at all: no anchors.
      {"Q(x) <- R(x, y), S(x)", MakeTauId(0),
       "+R(1, 2)\n+R(2, 3)\n+S(3)\n"},
      // Blocks x = 1 and x = 3; R(2, ·) and S(4) are in none.
      {"Q(x) <- R(x, y), S(x)", MakeTauId(0),
       "+R(1, 2)\n+R(1, 3)\n+R(2, 2)\n+R(3, 5)\n+S(1)\n+S(3)\n+S(4)\n"},
      // Block y = 2 answers without any endogenous fact.
      {"Q(x, y) <- R(x, y), S(y)", MakeTauId(0),
       "-R(1, 2)\n+R(3, 2)\n-S(2)\n+R(1, 4)\n+R(2, 4)\n+S(4)\n"},
  };
  for (const Case& c : cases) {
    StatusOr<Database> db = ParseDatabase(c.facts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (AggregateFunction alpha :
         {AggregateFunction::Avg(), AggregateFunction::Median()}) {
      AggregateQuery a{MustParseQuery(c.query), c.tau, alpha};
      ExpectViaSumKMatchesPerFact(a, *db, AvgQuantileSumK, a.ToString(),
                                  AvgQuantileScoreAll);
    }
  }
}

TEST(AvgQuantileScoreAllTest, RefusesExactlyLikeTheSeriesEngine) {
  // Not q-hierarchical: engine-mix's Monte Carlo class, Avg on
  // Q(x) <- R(x, y), S(y).
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  RandomDatabaseOptions db_options;
  db_options.facts_per_relation = 20;
  db_options.domain_size = 30;
  db_options.endogenous_percent = 100;
  db_options.seed = 5;
  Database db = RandomDatabaseForQuery(q, db_options);
  ASSERT_GT(db.num_endogenous(), kBruteForceMaxPlayers);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Avg()};
  auto batched = AvgQuantileScoreAll(a, db, SolverOptions());
  auto series = AvgQuantileSumK(a, db);
  ASSERT_FALSE(batched.ok());
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(batched.status().message(), series.status().message());
  // So the session still falls through to Monte Carlo past brute force.
  SolverOptions options;
  options.monte_carlo.num_samples = 20;
  auto results = ShapleySolver(a).ComputeAll(db, options);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (const auto& [fact, result] : *results) {
    EXPECT_EQ(result.algorithm, "monte-carlo") << db.fact(fact).ToString();
  }
}

TEST(HasDuplicatesScoreAllTest, MatchesPerFactOnRandomSqHierarchicalWorkloads) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomQueryOptions query_options;
    query_options.max_variables = 3;
    query_options.seed = seed * 23 + 5;
    ConjunctiveQuery q =
        RandomQueryOfClass(HierarchyClass::kSqHierarchical, query_options);
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 5;
    db_options.domain_size = 3;  // small domain: duplicates are common
    db_options.seed = seed * 7 + 3;
    Database db = RandomDatabaseForQuery(q, db_options);
    if (db.num_endogenous() == 0) continue;
    ValueFunctionPtr tau =
        q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
    AggregateQuery a{q, tau, AggregateFunction::HasDuplicates()};
    ExpectViaSumKMatchesPerFact(a, db, HasDuplicatesSumK,
                                a.ToString() + " seed " + std::to_string(seed),
                                HasDuplicatesScoreAll);
  }
}

TEST(HasDuplicatesScoreAllTest, RepeatedTauValuesAndFallbackMatchPerFact) {
  struct Case {
    const char* query;
    int tau_position;
  };
  const std::vector<Case> cases = {
      // Repeated τ-values: answers (x, y) share x.
      {"Q(x, y) <- R(x, y), S(x)", 0},
      // Proposition 7.3(3): q- but not sq-hierarchical, τ on y.
      {"Q(x, y) <- R(x, y), S(y)", 1},
      // Splits into components: ScoreAllViaSumK.
      {"Q(x, z) <- R(x, y), S(x), T(z)", 0},
  };
  // A group whose exogenous facts alone give two answers: no subset is
  // duplicate-free, so nothing divides by its polynomial.
  StatusOr<Database> saturated = ParseDatabase(
      "-R(1, 1)\n-R(1, 2)\n-S(1)\n+R(1, 3)\n+R(2, 1)\n+R(2, 2)\n+S(2)\n");
  ASSERT_TRUE(saturated.ok()) << saturated.status().ToString();
  AggregateQuery saturated_a{MustParseQuery("Q(x, y) <- R(x, y), S(x)"),
                             MakeTauId(0), AggregateFunction::HasDuplicates()};
  ExpectViaSumKMatchesPerFact(saturated_a, *saturated, HasDuplicatesSumK,
                              "saturated group", HasDuplicatesScoreAll);
  for (const Case& c : cases) {
    ConjunctiveQuery q = MustParseQuery(c.query);
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 6;
    db_options.domain_size = 3;
    db_options.seed = 41;
    Database db = RandomDatabaseForQuery(q, db_options);
    ASSERT_GT(db.num_endogenous(), 0);
    AggregateQuery a{q, MakeTauId(c.tau_position),
                     AggregateFunction::HasDuplicates()};
    auto scores = HasDuplicatesScoreAll(a, db, SolverOptions());
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    bool any_nonzero = false;
    for (const auto& [fact, score] : *scores) {
      any_nonzero = any_nonzero || !score.is_zero();
    }
    EXPECT_TRUE(any_nonzero) << a.ToString() << ": no duplicate ever forms";
    ExpectViaSumKMatchesPerFact(a, db, HasDuplicatesSumK, a.ToString(),
                                HasDuplicatesScoreAll);
  }
}

TEST(HasDuplicatesScoreAllTest, RefusesExactlyLikeTheSeriesEngine) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x), S(x, y), T(y)");
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("S", {Value(1), Value(2)});
  db.AddEndogenous("T", {Value(2)});
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::HasDuplicates()};
  auto batched = HasDuplicatesScoreAll(a, db, SolverOptions());
  auto series = HasDuplicatesSumK(a, db);
  ASSERT_FALSE(batched.ok());
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(batched.status().message(), series.status().message());
}

// Modeled on ScoreAllViaSumKTest.CancellationFailsTheWholeBatch: the block
// pass polls before each of its four blocks, so a hook that fires at its
// third poll fails the batch inside that pass — whole, with no fact ever
// polled — at 1 and 8 threads.
TEST(BlockSweepTest, CancellationInsideTheBlockPassFailsTheWholeBatch) {
  struct Case {
    const char* query;
    AggregateFunction alpha;
    BatchScorer scorer;
  };
  const std::vector<Case> cases = {
      {"Q(x) <- R(x, y), S(x)", AggregateFunction::Avg(),
       AvgQuantileScoreAll},
      {"Q(x, y) <- R(x, y), S(x)", AggregateFunction::HasDuplicates(),
       HasDuplicatesScoreAll},
  };
  Database db;
  for (int64_t x = 1; x <= 4; ++x) {
    db.AddEndogenous("R", {Value(x), Value(x + 10)});
    db.AddEndogenous("R", {Value(x), Value(x + 20)});
    db.AddEndogenous("S", {Value(x)});
  }
  for (const Case& c : cases) {
    AggregateQuery a{MustParseQuery(c.query), MakeTauId(0), c.alpha};
    for (int threads : {1, 8}) {
      std::atomic<int> polls{0};
      SolverOptions fired = Options(ScoreKind::kShapley, threads);
      fired.cancelled = [&polls] { return polls.fetch_add(1) + 1 >= 3; };
      auto cancelled = c.scorer(a, db, fired);
      ASSERT_FALSE(cancelled.ok());
      EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded)
          << a.ToString();
      EXPECT_EQ(polls.load(), 3) << a.ToString() << " threads=" << threads;

      auto plain = c.scorer(a, db, Options(ScoreKind::kShapley, threads));
      SolverOptions unfired = Options(ScoreKind::kShapley, threads);
      unfired.cancelled = [] { return false; };
      auto hooked = c.scorer(a, db, unfired);
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();
      ASSERT_TRUE(hooked.ok()) << hooked.status().ToString();
      EXPECT_EQ(*hooked, *plain) << a.ToString() << " threads=" << threads;
    }
  }
}

// The brute-force sweep polls before each of its 2^(12−8) = 16 mask
// chunks, so a hook that fires at its third poll fails every entry point
// and the session's kBruteForce path whole, at 1 and 8 threads. An unfired
// hook and the thread count leave every score bitwise-unchanged.
TEST(BruteForceSweepTest, CancellationInsideTheSweepFailsTheWholeCall) {
  Database db;
  for (int64_t x = 1; x <= 4; ++x) {
    db.AddEndogenous("R", {Value(x), Value(x + 10)});
    db.AddEndogenous("R", {Value(x), Value(x + 20)});
    db.AddEndogenous("S", {Value(x + 10)});
  }
  ASSERT_EQ(db.num_endogenous(), 12);
  const AggregateQuery a{MustParseQuery("Q(x) <- R(x, y), S(y)"),
                         MakeTauReLU(0), AggregateFunction::Avg()};
  for (int threads : {1, 8}) {
    std::atomic<int> polls{0};
    SolverOptions fired = Options(ScoreKind::kShapley, threads);
    fired.cancelled = [&polls] { return polls.fetch_add(1) + 1 >= 3; };
    auto expect_fired = [&](const Status& status, const char* call) {
      EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
          << call << " threads=" << threads;
      if (threads == 1) {
        EXPECT_EQ(polls.load(), 3) << call;
      }
      polls = 0;
    };
    expect_fired(BruteForceScoreAll(a, db, fired).status(), "ScoreAll");
    expect_fired(BruteForceScore(a, db, 0, ScoreKind::kShapley, fired).status(),
                 "Score");
    expect_fired(BruteForceSumK(a, db, fired).status(), "SumK");
    fired.method = SolveMethod::kBruteForce;
    SolverSession session(a, db);
    expect_fired(session.ComputeAll(fired).status(), "ComputeAll");

    for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
      auto serial = BruteForceScoreAll(a, db, Options(kind, 1));
      auto plain = BruteForceScoreAll(a, db, Options(kind, threads));
      SolverOptions unfired = Options(kind, threads);
      unfired.cancelled = [] { return false; };
      auto hooked = BruteForceScoreAll(a, db, unfired);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();
      ASSERT_TRUE(hooked.ok()) << hooked.status().ToString();
      EXPECT_EQ(*plain, *serial) << "threads=" << threads;
      EXPECT_EQ(*hooked, *plain) << "threads=" << threads;
      EXPECT_EQ(*BruteForceSumK(a, db, unfired),
                *BruteForceSumK(a, db, Options(kind, 1)));
    }
  }
}

// ---------------------------------------------------------------------------
// The group driver: CountDistinct's batch, budget fallbacks, deadlines
// ---------------------------------------------------------------------------

// Options whose compile budget no group circuit fits (every non-constant
// lineage has a variable), so each engine runs its DP fallback.
SolverOptions Starved(ScoreKind kind, int num_threads = 0) {
  SolverOptions options = Options(kind, num_threads);
  options.lineage.max_answer_vars = 0;
  return options;
}

TEST(CountDistinctScoreAllTest, MatchesPerFactOnRandomAllHierarchicalWorkloads) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RandomQueryOptions query_options;
    query_options.max_variables = 3;
    query_options.seed = seed * 17 + 2;
    ConjunctiveQuery q =
        RandomQueryOfClass(HierarchyClass::kAllHierarchical, query_options);
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 4;
    db_options.seed = seed * 5 + 1;
    Database db = RandomDatabaseForQuery(q, db_options);
    if (db.num_endogenous() == 0) continue;
    ValueFunctionPtr tau =
        q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
    AggregateQuery a{q, tau, AggregateFunction::CountDistinct()};
    const Database wider = WithUnmentionedRelation(db);
    for (const Database* input : {&std::as_const(db), &wider}) {
      for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
        const std::string label = a.ToString() + " seed " +
                                  std::to_string(seed) +
                                  (input == &db ? "" : " + unmentioned");
        ExpectMatchesPerFact(CountDistinctScoreAll(a, *input, Options(kind)),
                             a, *input, CountDistinctSumK, kind, label);
        ExpectMatchesPerFact(CountDistinctScoreAll(a, *input, Starved(kind)),
                             a, *input, CountDistinctSumK, kind,
                             label + " (DP fallback)");
      }
    }
  }
}

TEST(CountDistinctScoreAllTest, RefusesExactlyLikeTheSeriesEngine) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x), S(x, y), T(y)");
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("S", {Value(1), Value(2)});
  db.AddEndogenous("T", {Value(2)});
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::CountDistinct()};
  auto batched = CountDistinctScoreAll(a, db);
  auto series = CountDistinctSumK(a, db);
  ASSERT_FALSE(batched.ok());
  ASSERT_FALSE(series.ok());
  EXPECT_EQ(batched.status().message(), series.status().message());
}

// Each group-game engine keeps its DP for circuits past the compile
// budget; both roads produce the same bits, and the fallback is recorded.
TEST(GroupDriverTest, BudgetFallbackToTheDpIsBitwiseIdentical) {
  struct Case {
    const char* query;
    AggregateFunction alpha;
    BatchScorer scorer;
  };
  const std::vector<Case> cases = {
      {"Q(x) <- R(x), S(x, y), T(y)", AggregateFunction::Sum(),
       SumCountScoreAll},
      {"Q(x, y) <- R(x, y), S(y)", AggregateFunction::Max(), MinMaxScoreAll},
      {"Q(x) <- R(x, y), S(y)", AggregateFunction::Min(), MinMaxScoreAll},
      {"Q(x) <- R(x, y), S(y)", AggregateFunction::CountDistinct(),
       CountDistinctScoreAll},
  };
  for (const Case& c : cases) {
    ConjunctiveQuery q = MustParseQuery(c.query);
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 8;
    db_options.domain_size = 5;
    db_options.seed = 29;
    Database db = RandomDatabaseForQuery(q, db_options);
    ASSERT_GT(db.num_endogenous(), 0);
    AggregateQuery a{q, MakeTauId(0), c.alpha};
    for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
      for (int threads : {1, 8}) {
        const uint64_t fallbacks_before =
            LineageStats::Global().Snapshot().budget_fallbacks;
        auto dp = c.scorer(a, db, Starved(kind, threads));
        EXPECT_GT(LineageStats::Global().Snapshot().budget_fallbacks,
                  fallbacks_before)
            << a.ToString();
        auto circuits = c.scorer(a, db, Options(kind, threads));
        ASSERT_TRUE(dp.ok()) << a.ToString() << ": " << dp.status().ToString();
        ASSERT_TRUE(circuits.ok()) << a.ToString();
        EXPECT_EQ(*dp, *circuits) << a.ToString() << " threads " << threads;
      }
    }
  }
}

// Modeled on ScoreAllViaSumKTest.CancellationFailsTheWholeBatch: the group
// driver polls before every group, a fired hook fails the batch whole, and
// it never reaches an engine's DP fallback (one poll, no fact-level poll).
TEST(GroupDriverTest, CancellationFailsTheWholeBatch) {
  struct Case {
    const char* query;
    AggregateFunction alpha;
    BatchScorer scorer;
  };
  const std::vector<Case> cases = {
      {"Q(x) <- R(x), S(x, y), T(y)", AggregateFunction::Sum(),
       SumCountScoreAll},
      {"Q(x, y) <- R(x, y), S(y)", AggregateFunction::Max(), MinMaxScoreAll},
  };
  for (const Case& c : cases) {
    ConjunctiveQuery q = MustParseQuery(c.query);
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 6;
    db_options.seed = 13;
    Database db = RandomDatabaseForQuery(q, db_options);
    ASSERT_GT(db.num_endogenous(), 0);
    AggregateQuery a{q, MakeTauId(0), c.alpha};
    for (int threads : {1, 8}) {
      for (bool starved : {false, true}) {
        std::atomic<int> polls{0};
        SolverOptions fired = starved ? Starved(ScoreKind::kShapley, threads)
                                      : Options(ScoreKind::kShapley, threads);
        fired.cancelled = [&polls] {
          polls.fetch_add(1);
          return true;
        };
        auto cancelled = c.scorer(a, db, fired);
        ASSERT_FALSE(cancelled.ok());
        EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded)
            << a.ToString();
        if (threads == 1) {
          EXPECT_EQ(polls.load(), 1) << a.ToString();
        }
      }
      auto plain = c.scorer(a, db, Options(ScoreKind::kShapley, threads));
      SolverOptions unfired = Options(ScoreKind::kShapley, threads);
      unfired.cancelled = [] { return false; };
      auto hooked = c.scorer(a, db, unfired);
      ASSERT_TRUE(plain.ok()) << plain.status().ToString();
      ASSERT_TRUE(hooked.ok()) << hooked.status().ToString();
      EXPECT_EQ(*hooked, *plain) << a.ToString() << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// SumCountScoreAll: sharded accumulation is thread-count invariant
// ---------------------------------------------------------------------------

TEST(SumCountScoreAllShardingTest, IdenticalAcrossThreadCounts) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x), S(x, y), T(y)");
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 8;
    db_options.domain_size = 6;
    db_options.seed = seed;
    Database db = RandomDatabaseForQuery(q, db_options);
    if (db.num_endogenous() == 0) continue;
    AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
    for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
      auto reference = SumCountScoreAll(a, db, Options(kind, 1));
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      for (int threads : {2, 8}) {
        auto sharded = SumCountScoreAll(a, db, Options(kind, threads));
        ASSERT_TRUE(sharded.ok());
        ASSERT_EQ(reference->size(), sharded->size());
        for (size_t i = 0; i < reference->size(); ++i) {
          EXPECT_EQ((*reference)[i].first, (*sharded)[i].first);
          EXPECT_EQ((*reference)[i].second, (*sharded)[i].second)
              << "seed " << seed << " threads " << threads;
        }
      }
    }
  }
}

// A fractional-weight τ: per-answer contributions with non-integer weights
// must still merge to the same exact sums for every thread count.
TEST(SumCountScoreAllShardingTest, FractionalWeightsIdenticalAcrossThreads) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x), S(x, y)");
  Database db;
  for (int i = 0; i < 6; ++i) {
    db.AddEndogenous("R", {Value(i)});
    db.AddEndogenous("S", {Value(i), Value(i % 3)});
  }
  ValueFunctionPtr tau = MakeCallbackTau(
      [](const Tuple& t) {
        return Rational(t[0].AsRational()) / Rational(3);
      },
      {0}, "third");
  AggregateQuery a{q, tau, AggregateFunction::Sum()};
  auto reference = SumCountScoreAll(a, db, Options(ScoreKind::kShapley, 1));
  ASSERT_TRUE(reference.ok());
  auto sharded = SumCountScoreAll(a, db, Options(ScoreKind::kShapley, 8));
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(reference->size(), sharded->size());
  for (size_t i = 0; i < reference->size(); ++i) {
    EXPECT_EQ((*reference)[i].second, (*sharded)[i].second);
  }
}

// ---------------------------------------------------------------------------
// ClosedFormScoreAll (Props. 4.2, 4.4, 5.2 from one shared τ multiset)
// ---------------------------------------------------------------------------

struct ClosedFormCase {
  const char* label;
  AggregateFunction alpha;
  std::function<StatusOr<Rational>(const AggregateQuery&, const Database&,
                                   FactId)>
      oracle;
};

std::vector<ClosedFormCase> ClosedFormCases() {
  return {
      {"count-distinct", AggregateFunction::CountDistinct(),
       ClosedFormCountDistinct},
      {"max", AggregateFunction::Max(), ClosedFormMax},
      {"min", AggregateFunction::Min(), ClosedFormMin},
      {"avg", AggregateFunction::Avg(), ClosedFormAvg},
  };
}

// R(i, v_i) for i < n with v_i drawn from a small range, so τ = v ties;
// with `tombstone`, one more fact is inserted and deleted in the middle of
// the id space.
Database SingleRelationDb(int n, uint64_t seed, bool tombstone) {
  Database db;
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  auto next_value = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int64_t>((state >> 33) % 5) - 2;
  };
  for (int i = 0; i < n; ++i) {
    db.AddEndogenous("R", {Value(i), Value(next_value())});
    if (tombstone && i == n / 2) {
      FactId doomed = db.AddEndogenous("R", {Value(100 + i), Value(9)});
      SHAPCQ_CHECK(db.DeleteFact(doomed).ok());
    }
  }
  return db;
}

TEST(ClosedFormScoreAllTest, MatchesPerFactClosedFormsAndBruteForce) {
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y)");
  int checked = 0;
  for (const ClosedFormCase& c : ClosedFormCases()) {
    AggregateQuery a{q, MakeTauId(1), c.alpha};
    for (int n : {1, 2, 5, 9}) {
      for (uint64_t seed : {1, 2, 3}) {
        for (bool tombstone : {false, true}) {
          Database db = SingleRelationDb(n, seed, tombstone);
          const std::string label = std::string(c.label) + " n " +
                                    std::to_string(n) + " seed " +
                                    std::to_string(seed) +
                                    (tombstone ? " tombstone" : "");
          auto batch = ClosedFormScoreAll(a, db, Options(ScoreKind::kShapley));
          ASSERT_TRUE(batch.ok()) << label << ": "
                                  << batch.status().ToString();
          const std::vector<FactId> endo = db.EndogenousFacts();
          ASSERT_EQ(batch->size(), endo.size()) << label;
          for (size_t i = 0; i < endo.size(); ++i) {
            EXPECT_EQ((*batch)[i].first, endo[i]) << label;
            auto oracle = c.oracle(a, db, endo[i]);
            ASSERT_TRUE(oracle.ok()) << label;
            EXPECT_EQ((*batch)[i].second, *oracle)
                << label << " fact " << endo[i];
            EXPECT_EQ((*batch)[i].second, *BruteForceScore(a, db, endo[i]))
                << label << " fact " << endo[i];
            ++checked;
          }
          // The session serves the instance from the closed-form batch.
          SolverSession session(a, db);
          auto all = session.ComputeAll();
          ASSERT_TRUE(all.ok()) << label;
          for (size_t i = 0; i < all->size(); ++i) {
            EXPECT_EQ((*all)[i].second.algorithm,
                      "closed-form/single-relation")
                << label;
            EXPECT_EQ((*all)[i].second.exact, (*batch)[i].second) << label;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 4 * 3 * 2 * (1 + 2 + 5 + 9));
}

TEST(ClosedFormScoreAllTest, BanzhafFallsThroughToTheNextEngine) {
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y)");
  // The engine after the closed forms in each chain.
  const std::vector<std::string> next_engine = {
      "count-distinct/boolean-reduction",
      "min-max/all-hierarchical-dp",
      "min-max/all-hierarchical-dp",
      "avg-quantile/q-hierarchical-dp",
  };
  const std::vector<ClosedFormCase> cases = ClosedFormCases();
  for (size_t c = 0; c < cases.size(); ++c) {
    AggregateQuery a{q, MakeTauId(1), cases[c].alpha};
    Database db = SingleRelationDb(6, 4, /*tombstone=*/true);
    EXPECT_EQ(ClosedFormScoreAll(a, db, Options(ScoreKind::kBanzhaf))
                  .status()
                  .code(),
              StatusCode::kUnsupported)
        << cases[c].label;
    SolverSession session(a, db);
    SolverOptions banzhaf = Options(ScoreKind::kBanzhaf);
    auto all = session.ComputeAll(banzhaf);
    ASSERT_TRUE(all.ok()) << cases[c].label;
    for (const auto& [fact, result] : *all) {
      EXPECT_EQ(result.algorithm, next_engine[c]) << cases[c].label;
      EXPECT_EQ(result.exact,
                *BruteForceScore(a, db, fact, ScoreKind::kBanzhaf))
          << cases[c].label << " fact " << fact;
      auto per_fact = session.Compute(fact, banzhaf);
      ASSERT_TRUE(per_fact.ok()) << cases[c].label;
      EXPECT_EQ(per_fact->algorithm, next_engine[c]) << cases[c].label;
      EXPECT_EQ(per_fact->exact, result.exact) << cases[c].label;
    }
  }
}

// ---------------------------------------------------------------------------
// Warm-cache sessions reproduce the direct batched scorers bit for bit
// ---------------------------------------------------------------------------

TEST(ScoreAllWarmCacheTest, CachedPlanSessionsMatchDirectBatchedScorers) {
  struct Case {
    const char* label;
    const char* query;
    AggregateFunction alpha;
    std::function<StatusOr<std::vector<std::pair<FactId, Rational>>>(
        const AggregateQuery&, const Database&, const SolverOptions&)>
        direct;
  };
  std::vector<Case> cases = {
      {"sum", "Q(x) <- R(x), S(x, y), T(y)", AggregateFunction::Sum(),
       SumCountScoreAll},
      {"max", "Q(x, y) <- R(x, y), S(y)", AggregateFunction::Max(),
       MinMaxScoreAll},
      {"avg", "Q(x, y) <- R(x, y), S(y)", AggregateFunction::Avg(),
       [](const AggregateQuery& a, const Database& db,
          const SolverOptions& options) {
         return ScoreAllViaSumK(a, db, AvgQuantileSumK, options);
       }},
  };
  for (const Case& c : cases) {
    ConjunctiveQuery q = MustParseQuery(c.query);
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 5;
    db_options.seed = 41;
    Database db = RandomDatabaseForQuery(q, db_options);
    AggregateQuery a{q, MakeTauId(0), c.alpha};
    auto direct = c.direct(a, db, Options(ScoreKind::kShapley));
    ASSERT_TRUE(direct.ok()) << c.label << ": "
                             << direct.status().ToString();

    PlanCache cache;
    cache.GetOrCompile(a);  // cold compile
    bool hit = false;
    SolverSession warm(cache.GetOrCompile(a, ScoreKind::kShapley, &hit), db);
    EXPECT_TRUE(hit) << c.label;
    auto all = warm.ComputeAll();
    ASSERT_TRUE(all.ok()) << c.label << ": " << all.status().ToString();
    ASSERT_EQ(all->size(), direct->size()) << c.label;
    for (size_t i = 0; i < all->size(); ++i) {
      EXPECT_EQ((*all)[i].first, (*direct)[i].first) << c.label;
      EXPECT_TRUE((*all)[i].second.is_exact) << c.label;
      EXPECT_EQ((*all)[i].second.exact, (*direct)[i].second)
          << c.label << " fact " << (*all)[i].first;
    }
  }
}

}  // namespace
}  // namespace shapcq
