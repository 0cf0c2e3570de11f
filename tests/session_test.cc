// Differential tests for the SolverSession batching layer and the indexed
// evaluator.
//
// Two invariants are checked across randomized workloads from
// workload/generators:
//  1. ComputeAll (batched engines, shared fallbacks, thread pool) returns
//     exactly the per-fact results of the engine each row names
//     (tests/per_fact_reference.h) — bitwise-identical Rationals on exact
//     paths, identical estimates on the sampling path — and Compute(fact)
//     returns that row on every method.
//  2. The indexed EnumerateHomomorphisms returns the same homomorphism set
//     as the retained naive reference join.

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/monte_carlo.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/shapley/session.h"
#include "shapcq/shapley/solver.h"
#include "shapcq/shapley/sum_count.h"
#include "shapcq/workload/generators.h"
#include "shapcq/workload/random_query.h"
#include "tests/naive_join.h"
#include "tests/per_fact_reference.h"

namespace shapcq {
namespace {

// ---------------------------------------------------------------------------
// Indexed join vs. naive reference join
// ---------------------------------------------------------------------------

// Canonical, order-insensitive form of a homomorphism list.
std::set<std::pair<Tuple, std::vector<FactId>>> Canonical(
    const std::vector<Homomorphism>& homs) {
  std::set<std::pair<Tuple, std::vector<FactId>>> out;
  for (const Homomorphism& hom : homs) {
    out.emplace(hom.answer, hom.used_facts);
  }
  return out;
}

TEST(IndexedJoinTest, MatchesNaiveReferenceOnRandomWorkloads) {
  for (HierarchyClass target :
       {HierarchyClass::kSqHierarchical, HierarchyClass::kQHierarchical,
        HierarchyClass::kAllHierarchical, HierarchyClass::kExistsHierarchical,
        HierarchyClass::kGeneral}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      RandomQueryOptions query_options;
      query_options.max_variables = 4;
      query_options.seed = seed;
      ConjunctiveQuery q = RandomQueryOfClass(target, query_options);
      RandomDatabaseOptions db_options;
      db_options.facts_per_relation = 6;
      db_options.seed = seed * 31 + 7;
      Database db = RandomDatabaseForQuery(q, db_options);
      std::vector<Homomorphism> indexed = EnumerateHomomorphisms(q, db);
      std::vector<Homomorphism> naive = EnumerateHomomorphismsNaive(q, db);
      EXPECT_EQ(indexed.size(), naive.size()) << q.ToString();
      EXPECT_EQ(Canonical(indexed), Canonical(naive)) << q.ToString();
    }
  }
}

TEST(IndexedJoinTest, MatchesNaiveWithConstantsAndRepeatedVariables) {
  std::vector<const char*> queries = {
      "Q(x) <- R(x, x)",
      "Q(x) <- R(x, y), S(y, 2)",
      "Q() <- R(x, 1), S(x, x)",
      "Q(x, y) <- R(x, y), S(y, x)",
  };
  Database db;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) {
      db.AddEndogenous("R", {Value(i), Value(j)});
      db.AddFact("S", {Value(j), Value(i)}, /*endogenous=*/i % 2 == 0);
    }
  }
  for (const char* text : queries) {
    ConjunctiveQuery q = MustParseQuery(text);
    EXPECT_EQ(Canonical(EnumerateHomomorphisms(q, db)),
              Canonical(EnumerateHomomorphismsNaive(q, db)))
        << text;
  }
}

TEST(IndexedJoinTest, FactsWithProbesTheRightFacts) {
  Database db;
  FactId r0 = db.AddEndogenous("R", {Value(1), Value("a")});
  FactId r1 = db.AddEndogenous("R", {Value(1), Value("b")});
  FactId r2 = db.AddEndogenous("R", {Value(2), Value("a")});
  db.AddExogenous("S", {Value(1)});
  EXPECT_EQ(db.FactsWith("R", 0, Value(1)), (std::vector<FactId>{r0, r1}));
  EXPECT_EQ(db.FactsWith("R", 1, Value("a")), (std::vector<FactId>{r0, r2}));
  EXPECT_TRUE(db.FactsWith("R", 0, Value(7)).empty());
  EXPECT_TRUE(db.FactsWith("T", 0, Value(1)).empty());
  // Numeric cross-kind equality carries over to the index.
  EXPECT_EQ(db.FactsWith("R", 0, Value(1.0)), (std::vector<FactId>{r0, r1}));
}

// ---------------------------------------------------------------------------
// ComputeAll vs. the per-fact reference of each row's engine
// ---------------------------------------------------------------------------

struct AggCase {
  AggregateFunction alpha;
  HierarchyClass frontier;
};

std::vector<AggCase> AggCases() {
  return {
      {AggregateFunction::Sum(), HierarchyClass::kExistsHierarchical},
      {AggregateFunction::Count(), HierarchyClass::kExistsHierarchical},
      {AggregateFunction::Min(), HierarchyClass::kAllHierarchical},
      {AggregateFunction::Max(), HierarchyClass::kAllHierarchical},
      {AggregateFunction::CountDistinct(), HierarchyClass::kAllHierarchical},
      {AggregateFunction::Avg(), HierarchyClass::kQHierarchical},
      {AggregateFunction::Median(), HierarchyClass::kQHierarchical},
      {AggregateFunction::HasDuplicates(), HierarchyClass::kSqHierarchical},
  };
}

void ExpectAllMatchesPerFact(const AggregateQuery& a, const Database& db,
                             const SolverOptions& options,
                             const std::string& label) {
  ShapleySolver solver(a);
  auto all = solver.ComputeAll(db, options);
  ASSERT_TRUE(all.ok()) << label << ": " << all.status().ToString();
  ASSERT_EQ(all->size(), db.EndogenousFacts().size()) << label;
  size_t i = 0;
  for (FactId fact : db.EndogenousFacts()) {
    const auto& [batch_fact, batch] = (*all)[i++];
    EXPECT_EQ(batch_fact, fact) << label;
    auto single = PerFactReference(a, db, fact, batch.algorithm, options);
    ASSERT_TRUE(single.ok()) << label << ": " << single.status().ToString();
    EXPECT_EQ(batch.is_exact, single->is_exact) << label << " fact " << fact;
    if (batch.is_exact && single->is_exact) {
      EXPECT_EQ(batch.exact, single->exact)
          << label << " fact " << fact << " batch=" << batch.algorithm
          << " single=" << single->algorithm;
    }
    // Per-fact and batched sampling read the same seeded run, so even the
    // estimates must agree to the last bit.
    EXPECT_EQ(batch.approximation, single->approximation)
        << label << " fact " << fact;
  }
}

TEST(SessionDifferentialTest, ComputeAllMatchesPerFactAcrossAggregates) {
  for (const AggCase& c : AggCases()) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      RandomQueryOptions query_options;
      query_options.max_variables = 3;
      query_options.seed = seed * 13 + 1;
      ConjunctiveQuery q = RandomQueryOfClass(c.frontier, query_options);
      RandomDatabaseOptions db_options;
      db_options.facts_per_relation = 4;
      db_options.seed = seed * 7 + 3;
      Database db = RandomDatabaseForQuery(q, db_options);
      if (db.num_endogenous() == 0) continue;
      ValueFunctionPtr tau =
          q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
      AggregateQuery a{q, tau, c.alpha};
      ExpectAllMatchesPerFact(
          a, db, SolverOptions{},
          a.ToString() + " seed " + std::to_string(seed));
    }
  }
}

TEST(SessionDifferentialTest, WarmCacheComputeAllIsBitwiseIdenticalToCold) {
  // The façade routes through the global PlanCache: the first ComputeAll
  // compiles (or reuses) the plan, the second is guaranteed warm. Both must
  // match a cold, cache-bypassing compile bit for bit — values, exactness,
  // and engine choice.
  for (const AggCase& c : AggCases()) {
    RandomQueryOptions query_options;
    query_options.max_variables = 3;
    query_options.seed = 17;
    ConjunctiveQuery q = RandomQueryOfClass(c.frontier, query_options);
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 4;
    db_options.seed = 23;
    Database db = RandomDatabaseForQuery(q, db_options);
    if (db.num_endogenous() == 0) continue;
    ValueFunctionPtr tau =
        q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
    AggregateQuery a{q, tau, c.alpha};
    std::string label = a.ToString();

    SolverSession cold_session(AttributionPlan::Compile(a), db);
    auto cold = cold_session.ComputeAll();
    ASSERT_TRUE(cold.ok()) << label << ": " << cold.status().ToString();

    ShapleySolver solver(a);
    auto first = solver.ComputeAll(db);
    auto second = solver.ComputeAll(db);  // warm: plan served from cache
    ASSERT_TRUE(first.ok()) << label;
    ASSERT_TRUE(second.ok()) << label;
    ASSERT_EQ(cold->size(), first->size()) << label;
    ASSERT_EQ(cold->size(), second->size()) << label;
    for (size_t i = 0; i < cold->size(); ++i) {
      const auto& [fact, result] = (*cold)[i];
      for (const auto* warm : {&first.value(), &second.value()}) {
        EXPECT_EQ((*warm)[i].first, fact) << label;
        EXPECT_EQ((*warm)[i].second.is_exact, result.is_exact) << label;
        EXPECT_EQ((*warm)[i].second.exact, result.exact) << label;
        EXPECT_EQ((*warm)[i].second.approximation, result.approximation)
            << label;
        EXPECT_EQ((*warm)[i].second.algorithm, result.algorithm) << label;
      }
    }
  }
}

TEST(SessionDifferentialTest, ComputeAllMatchesPerFactOutsideFrontier) {
  // General-class queries push Auto to the brute-force fallback, which
  // ComputeAll serves from a single shared subset sweep.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RandomQueryOptions query_options;
    query_options.max_variables = 3;
    query_options.seed = seed + 40;
    ConjunctiveQuery q =
        RandomQueryOfClass(HierarchyClass::kGeneral, query_options);
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 3;
    db_options.seed = seed * 11 + 5;
    Database db = RandomDatabaseForQuery(q, db_options);
    if (db.num_endogenous() == 0 ||
        db.num_endogenous() > kBruteForceMaxPlayers) {
      continue;
    }
    ValueFunctionPtr tau =
        q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
    for (AggregateFunction alpha :
         {AggregateFunction::Avg(), AggregateFunction::Max()}) {
      AggregateQuery a{q, tau, alpha};
      ExpectAllMatchesPerFact(
          a, db, SolverOptions{},
          a.ToString() + " seed " + std::to_string(seed));
    }
  }
}

TEST(SessionDifferentialTest, ComputeAllMatchesPerFactForBanzhaf) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x), S(x, y), T(y)");
  RandomDatabaseOptions db_options;
  db_options.facts_per_relation = 5;
  db_options.seed = 17;
  Database db = RandomDatabaseForQuery(q, db_options);
  ASSERT_GT(db.num_endogenous(), 0);
  SolverOptions options;
  options.score = ScoreKind::kBanzhaf;
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
  ExpectAllMatchesPerFact(a, db, options, "banzhaf sum");
}

TEST(SessionDifferentialTest, MonteCarloComputeAllMatchesPerFact) {
  // Large intractable instance: Auto lands on Monte Carlo. The batched
  // run must reproduce the per-fact estimates exactly.
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db;
  for (int i = 0; i < 30; ++i) {
    db.AddEndogenous("R", {Value(i), Value(i % 5)});
  }
  for (int j = 0; j < 5; ++j) db.AddEndogenous("S", {Value(j)});
  AggregateQuery a{q, MakeTauReLU(0), AggregateFunction::Avg()};
  SolverOptions options;
  options.monte_carlo.num_samples = 64;
  ExpectAllMatchesPerFact(a, db, options, "monte carlo");
}

TEST(SessionDifferentialTest, ThreadedComputeAllIsDeterministic) {
  // A workload with a batched engine (Sum) and one without (Median): the
  // thread count must never change any result.
  for (AggregateFunction alpha :
       {AggregateFunction::Sum(), AggregateFunction::Median()}) {
    ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 5;
    db_options.seed = 23;
    Database db = RandomDatabaseForQuery(q, db_options);
    ShapleySolver solver(AggregateQuery{q, MakeTauId(0), alpha});
    SolverOptions one_thread;
    one_thread.num_threads = 1;
    SolverOptions three_threads;
    three_threads.num_threads = 3;
    auto sequential = solver.ComputeAll(db, one_thread);
    auto threaded = solver.ComputeAll(db, three_threads);
    ASSERT_TRUE(sequential.ok());
    ASSERT_TRUE(threaded.ok());
    ASSERT_EQ(sequential->size(), threaded->size());
    for (size_t i = 0; i < sequential->size(); ++i) {
      EXPECT_EQ((*sequential)[i].first, (*threaded)[i].first);
      EXPECT_EQ((*sequential)[i].second.is_exact,
                (*threaded)[i].second.is_exact);
      EXPECT_EQ((*sequential)[i].second.exact, (*threaded)[i].second.exact);
      EXPECT_EQ((*sequential)[i].second.algorithm,
                (*threaded)[i].second.algorithm);
    }
  }
}

// ---------------------------------------------------------------------------
// Batched Sum/Count engine against independent oracles
// ---------------------------------------------------------------------------

TEST(SumCountScoreAllTest, AgreesWithBruteForceSweep) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x), S(x, y), T(y)");
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RandomDatabaseOptions db_options;
    db_options.facts_per_relation = 4;
    db_options.seed = seed;
    Database db = RandomDatabaseForQuery(q, db_options);
    if (db.num_endogenous() == 0) continue;
    AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
    for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
      SolverOptions batch_options;
      batch_options.score = kind;
      auto batched = SumCountScoreAll(a, db, batch_options);
      auto oracle = BruteForceScoreAll(a, db, batch_options);
      ASSERT_TRUE(batched.ok()) << batched.status().ToString();
      ASSERT_TRUE(oracle.ok());
      ASSERT_EQ(batched->size(), oracle->size());
      for (size_t i = 0; i < batched->size(); ++i) {
        EXPECT_EQ((*batched)[i].first, (*oracle)[i].first);
        EXPECT_EQ((*batched)[i].second, (*oracle)[i].second)
            << "seed " << seed << " fact " << (*batched)[i].first;
      }
    }
  }
}

TEST(SumCountScoreAllTest, RefusesOutsideTheFrontierLikeTheSeriesEngine) {
  ConjunctiveQuery q = MustParseQuery("Q() <- R(x), S(x, y), T(y)");
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("S", {Value(1), Value(2)});
  db.AddEndogenous("T", {Value(2)});
  AggregateQuery a{q, MakeConstantTau(Rational(1)), AggregateFunction::Count()};
  auto batched = SumCountScoreAll(a, db);
  EXPECT_FALSE(batched.ok());
  auto series = SumCountSumK(a, db);
  EXPECT_FALSE(series.ok());
  EXPECT_EQ(batched.status().message(), series.status().message());
}

// ---------------------------------------------------------------------------
// Session reuse
// ---------------------------------------------------------------------------

TEST(SolverSessionTest, SharedSessionAnswersManyQueries) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x), S(x, y), T(y)");
  RandomDatabaseOptions db_options;
  db_options.facts_per_relation = 5;
  db_options.seed = 29;
  Database db = RandomDatabaseForQuery(q, db_options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
  SolverSession session(a, db);
  EXPECT_EQ(session.classification(), Classify(q));
  EXPECT_TRUE(session.inside_frontier());
  ASSERT_FALSE(session.engines().empty());
  EXPECT_EQ(*session.ExactAlgorithmName(), "sum-count/linearity");
  ShapleySolver solver(a);
  for (FactId fact : db.EndogenousFacts()) {
    auto via_session = session.Compute(fact);
    auto via_solver = solver.Compute(db, fact);
    ASSERT_TRUE(via_session.ok());
    ASSERT_TRUE(via_solver.ok());
    EXPECT_EQ(via_session->exact, via_solver->exact);
    EXPECT_EQ(via_session->algorithm, via_solver->algorithm);
  }
  // Exogenous facts are rejected just like by the façade.
  for (FactId fact : db.ExogenousFacts()) {
    EXPECT_FALSE(session.Compute(fact).ok());
    break;
  }
}

TEST(SolverSessionTest, ClosedFormFastPathServesSingleRelationInstances) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x)");
  Database db;
  db.AddEndogenous("R", {Value(5)});
  db.AddEndogenous("R", {Value(3)});
  db.AddEndogenous("R", {Value(2)});
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Max()};
  SolverSession session(a, db);
  auto all = session.ComputeAll();
  ASSERT_TRUE(all.ok());
  for (const auto& [fact, result] : *all) {
    EXPECT_EQ(result.algorithm, "closed-form/single-relation");
    EXPECT_EQ(result.exact, *BruteForceScore(a, db, fact));
  }
  // Banzhaf has no closed form: the session must fall through to the DP
  // with identical values.
  SolverOptions banzhaf;
  banzhaf.score = ScoreKind::kBanzhaf;
  auto banzhaf_all = session.ComputeAll(banzhaf);
  ASSERT_TRUE(banzhaf_all.ok());
  for (const auto& [fact, result] : *banzhaf_all) {
    EXPECT_NE(result.algorithm, "closed-form/single-relation");
    EXPECT_EQ(result.exact,
              *BruteForceScore(a, db, fact, ScoreKind::kBanzhaf));
  }
}

// ---------------------------------------------------------------------------
// Structured exact-only failures and Monte Carlo telemetry
// ---------------------------------------------------------------------------

// A 35-player instance outside every exact engine: Avg over a
// non-q-hierarchical query (the paper's FP#P-hard side), too large for
// brute force, and not a linear aggregate so the lineage-circuit engine
// does not apply either.
Database ThirtyFivePlayerDb() {
  Database db;
  for (int i = 0; i < 30; ++i) {
    db.AddEndogenous("R", {Value(i), Value(i % 5)});
  }
  for (int j = 0; j < 5; ++j) db.AddEndogenous("S", {Value(j)});
  return db;
}

TEST(SolverSessionTest, ExactOnlyFailureNamesPlayersAndEngines) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db = ThirtyFivePlayerDb();
  AggregateQuery a{q, MakeTauReLU(0), AggregateFunction::Avg()};
  SolverSession session(a, db);
  SolverOptions exact_only;
  exact_only.method = SolveMethod::kExactOnly;
  auto all = session.ComputeAll(exact_only);
  ASSERT_FALSE(all.ok());
  const std::string& message = all.status().message();
  EXPECT_NE(message.find("35 endogenous facts"), std::string::npos)
      << message;
  EXPECT_NE(message.find("exceeds the brute-force limit of 26"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("engines consulted"), std::string::npos) << message;
  EXPECT_NE(message.find("avg-quantile"), std::string::npos) << message;
  // The per-fact path reports the same structured diagnosis.
  auto one = session.Compute(db.EndogenousFacts().front(), exact_only);
  ASSERT_FALSE(one.ok());
  EXPECT_NE(one.status().message().find("35 endogenous facts"),
            std::string::npos)
      << one.status().message();
  EXPECT_NE(one.status().message().find("engines consulted"),
            std::string::npos)
      << one.status().message();
}

// Compute(fact) on every endogenous fact of a fresh session equals fact's
// row of ComputeAll in every field, or fails with ComputeAll's code and
// message. Returns the engine label of the rows ("" on failure).
std::string ExpectComputeIsItsRow(const AggregateQuery& a, const Database& db,
                                  const SolverOptions& options,
                                  const std::string& label) {
  SolverSession batch_session(a, db);
  auto all = batch_session.ComputeAll(options);
  std::string engine;
  for (FactId fact : db.EndogenousFacts()) {
    SolverSession session(a, db);
    auto one = session.Compute(fact, options);
    EXPECT_EQ(one.ok(), all.ok()) << label << " fact " << fact;
    if (!all.ok() || !one.ok()) {
      EXPECT_EQ(one.status().code(), all.status().code()) << label;
      EXPECT_EQ(one.status().message(), all.status().message()) << label;
      continue;
    }
    const auto row = std::find_if(
        all->begin(), all->end(),
        [fact](const auto& entry) { return entry.first == fact; });
    if (row == all->end()) {
      ADD_FAILURE() << label << ": no row for fact " << fact;
      continue;
    }
    const SolveResult& expected = row->second;
    EXPECT_EQ(one->exact, expected.exact) << label << " fact " << fact;
    EXPECT_EQ(one->algorithm, expected.algorithm) << label << " fact " << fact;
    EXPECT_EQ(one->is_exact, expected.is_exact) << label << " fact " << fact;
    EXPECT_EQ(one->approximation, expected.approximation)
        << label << " fact " << fact;
    EXPECT_EQ(one->std_error, expected.std_error) << label << " fact " << fact;
    EXPECT_EQ(one->samples, expected.samples) << label << " fact " << fact;
    engine = expected.algorithm;
  }
  return engine;
}

TEST(SolverSessionTest, ComputeIsItsRowOfComputeAllOnEveryMethod) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  // Sum is served by its engine; Avg over this non-q-hierarchical query has
  // no exact engine, so kAuto falls back to brute force on 7 players and
  // to Monte Carlo on 35.
  Database small;
  for (int i = 0; i < 5; ++i) {
    small.AddEndogenous("R", {Value(i), Value(i % 2)});
  }
  small.AddEndogenous("S", {Value(0)});
  small.AddEndogenous("S", {Value(1)});
  small.AddExogenous("R", {Value(9), Value(1)});
  const Database large = ThirtyFivePlayerDb();
  const AggregateQuery sum{q, MakeTauId(0), AggregateFunction::Sum()};
  const AggregateQuery avg{q, MakeTauReLU(0), AggregateFunction::Avg()};
  for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
    SolverOptions options;
    options.score = kind;
    options.monte_carlo.num_samples = 64;
    const std::string score =
        kind == ScoreKind::kShapley ? " shapley" : " banzhaf";

    EXPECT_EQ(ExpectComputeIsItsRow(sum, small, options, "auto engine" + score),
              "sum-count/linearity");
    EXPECT_EQ(ExpectComputeIsItsRow(avg, small, options, "auto brute" + score),
              "brute-force");
    EXPECT_EQ(ExpectComputeIsItsRow(avg, large, options, "auto mc" + score),
              "monte-carlo");

    SolverOptions brute = options;
    brute.method = SolveMethod::kBruteForce;
    EXPECT_EQ(ExpectComputeIsItsRow(sum, small, brute, "brute" + score),
              "brute-force");
    SolverOptions mc = options;
    mc.method = SolveMethod::kMonteCarlo;
    EXPECT_EQ(ExpectComputeIsItsRow(sum, small, mc, "mc" + score),
              "monte-carlo");
    SolverOptions exact_only = options;
    exact_only.method = SolveMethod::kExactOnly;
    EXPECT_EQ(ExpectComputeIsItsRow(avg, large, exact_only, "exact" + score),
              "");

    // A hook that fires at its first poll: the deadline status, before any
    // engine runs, under kAuto and kExactOnly alike.
    SolverOptions cancelled = options;
    cancelled.cancelled = [] { return true; };
    for (SolveMethod method : {SolveMethod::kAuto, SolveMethod::kExactOnly}) {
      cancelled.method = method;
      EXPECT_EQ(
          ExpectComputeIsItsRow(sum, small, cancelled, "cancel" + score), "");
      SolverSession session(sum, small);
      EXPECT_EQ(session.Compute(0, cancelled).status().code(),
                StatusCode::kDeadlineExceeded);
    }
  }
}

TEST(SolverSessionTest, TauPastHeadArityIsInvalidForEveryMethod) {
  // τ reads head position 2 of a unary head: the plan compiles invalid,
  // with no engines, and every entry point refuses before any engine or
  // the sampler evaluates τ.
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  db.AddEndogenous("S", {Value(2)});
  AggregateQuery a{q, MakeTauId(1), AggregateFunction::Sum()};
  SolverSession session(a, db);
  EXPECT_EQ(session.plan().status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(session.engines().empty());
  for (SolveMethod method :
       {SolveMethod::kAuto, SolveMethod::kExactOnly, SolveMethod::kBruteForce,
        SolveMethod::kMonteCarlo}) {
    SolverOptions options;
    options.method = method;
    EXPECT_EQ(session.Compute(0, options).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(session.ComputeAll(options).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(session.ComputeSumKSeries().status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SolverSessionTest, FactsThatAreNotLiveAndEndogenousAreInvalid) {
  // A tombstoned fact keeps its endogenous flag, so liveness is checked
  // first; ids past the fact table and negative ids are refused too, on
  // every method, before any engine or the sampler runs.
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x)");
  Database db;
  for (int i = 1; i <= 5; ++i) db.AddEndogenous("R", {Value(i)});
  ASSERT_TRUE(db.DeleteFact(0).ok());
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
  SolverSession session(a, db);
  for (SolveMethod method :
       {SolveMethod::kAuto, SolveMethod::kExactOnly, SolveMethod::kBruteForce,
        SolveMethod::kMonteCarlo}) {
    SolverOptions options;
    options.method = method;
    for (FactId fact : {FactId{0}, FactId{db.num_facts()}, FactId{-1}}) {
      EXPECT_EQ(session.Compute(fact, options).status().code(),
                StatusCode::kInvalidArgument)
          << "method " << static_cast<int>(method) << " fact " << fact;
    }
    // Live facts still score.
    EXPECT_TRUE(session.Compute(1, options).ok());
  }
  MonteCarloOptions mc;
  mc.num_samples = 16;
  for (FactId fact : {FactId{0}, FactId{db.num_facts()}, FactId{-1}}) {
    EXPECT_EQ(MonteCarloShapley(a, db, fact, mc).status().code(),
              StatusCode::kInvalidArgument)
        << "fact " << fact;
    EXPECT_EQ(MonteCarloBanzhaf(a, db, fact, mc).status().code(),
              StatusCode::kInvalidArgument)
        << "fact " << fact;
  }
  EXPECT_TRUE(MonteCarloShapley(a, db, 1, mc).ok());
}

TEST(SolverSessionTest, MonteCarloEstimatesCarrySeededConfidenceIntervals) {
  // The sampler takes seed and sample budget from SolverOptions, seeds its
  // sample blocks from them, and surfaces CLT telemetry: estimates are
  // identical across runs and thread counts, and every result carries its
  // sample count and standard error for the ±1.96·σ̂ interval the
  // provenance footer prints.
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db = ThirtyFivePlayerDb();
  AggregateQuery a{q, MakeTauReLU(0), AggregateFunction::Avg()};
  SolverSession session(a, db);
  SolverOptions options;
  options.method = SolveMethod::kMonteCarlo;
  options.monte_carlo.num_samples = 128;
  options.monte_carlo.seed = 9;
  options.num_threads = 1;
  auto serial = session.ComputeAll(options);
  ASSERT_TRUE(serial.ok());
  options.num_threads = 8;
  auto wide = session.ComputeAll(options);
  ASSERT_TRUE(wide.ok());
  SolverSession fresh(a, db);
  auto rerun = fresh.ComputeAll(options);
  ASSERT_TRUE(rerun.ok());
  ASSERT_EQ(serial->size(), wide->size());
  ASSERT_EQ(serial->size(), rerun->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    const SolveResult& result = (*serial)[i].second;
    EXPECT_FALSE(result.is_exact);
    EXPECT_EQ(result.samples, 128);
    EXPECT_GE(result.std_error, 0.0);
    EXPECT_EQ(result.approximation, (*wide)[i].second.approximation);
    EXPECT_EQ(result.std_error, (*wide)[i].second.std_error);
    EXPECT_EQ(result.approximation, (*rerun)[i].second.approximation);
  }
  // A different seed samples different streams.
  options.monte_carlo.seed = 10;
  auto reseeded = fresh.ComputeAll(options);
  ASSERT_TRUE(reseeded.ok());
  bool any_difference = false;
  for (size_t i = 0; i < serial->size(); ++i) {
    if ((*serial)[i].second.approximation !=
        (*reseeded)[i].second.approximation) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

}  // namespace
}  // namespace shapcq
