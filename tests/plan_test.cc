// Tests for the compiled-plan layer (shapley/plan.h): canonical
// fingerprints, AttributionPlan compilation, PlanCache behavior (including
// concurrent access), warm-vs-cold ComputeAll equivalence, and the
// per-fact engine fallback in the executor.

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/cq.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/shapley/session.h"
#include "shapcq/shapley/solver.h"
#include "shapcq/util/parallel.h"
#include "shapcq/workload/generators.h"

namespace shapcq {
namespace {

AggregateQuery Agg(const char* query, AggregateFunction alpha,
                   ValueFunctionPtr tau) {
  return AggregateQuery{MustParseQuery(query), std::move(tau),
                        std::move(alpha)};
}

// ---------------------------------------------------------------------------
// Canonical query keys and plan fingerprints
// ---------------------------------------------------------------------------

TEST(CanonicalQueryKeyTest, InvariantUnderVariableRenamingAndQueryName) {
  ConjunctiveQuery q1 = MustParseQuery("Q(x) <- R(x, y), S(y)");
  ConjunctiveQuery q2 = MustParseQuery("P(u) <- R(u, w), S(w)");
  EXPECT_EQ(CanonicalQueryKey(q1), CanonicalQueryKey(q2));
  EXPECT_EQ(CanonicalQueryKey(q1), "(v0)<-1:R(v0,v1),1:S(v1)");
}

TEST(CanonicalQueryKeyTest, SensitiveToStructureAndConstants) {
  std::string base = CanonicalQueryKey(MustParseQuery("Q(x) <- R(x, y), S(y)"));
  // A different join shape, a repeated variable, a constant, and a
  // different constant are all distinct keys.
  EXPECT_NE(base, CanonicalQueryKey(MustParseQuery("Q(x) <- R(x, y), S(x)")));
  EXPECT_NE(base, CanonicalQueryKey(MustParseQuery("Q(x) <- R(x, x), S(x)")));
  std::string c1 = CanonicalQueryKey(MustParseQuery("Q(x) <- R(x, 1), S(x)"));
  std::string c2 = CanonicalQueryKey(MustParseQuery("Q(x) <- R(x, 2), S(x)"));
  EXPECT_NE(c1, c2);
}

TEST(CanonicalQueryKeyTest, StringConstantsCannotForgeKeyStructure) {
  // A malicious string constant that spells out an atom boundary must not
  // collide with the genuinely two-atom query: string constants are
  // length-prefixed in the key, never spliced in raw.
  Atom forged{"R", {Term::Variable("x"), Term::Constant(Value("a),S(b"))}};
  ConjunctiveQuery q1 = *ConjunctiveQuery::Create("Q", {"x"}, {forged});
  ConjunctiveQuery q2 = MustParseQuery("Q(x) <- R(x, 'a'), S('b')");
  EXPECT_NE(CanonicalQueryKey(q1), CanonicalQueryKey(q2));
  // And equal string constants still produce equal keys.
  Atom same{"R", {Term::Variable("y"), Term::Constant(Value("a),S(b"))}};
  ConjunctiveQuery q3 = *ConjunctiveQuery::Create("P", {"y"}, {same});
  EXPECT_EQ(CanonicalQueryKey(q1), CanonicalQueryKey(q3));
}

TEST(CanonicalQueryKeyTest, RelationNamesCannotForgeKeyStructure) {
  // Relation names come from the programmatic API and are validated only
  // as non-empty; one spelling out an atom boundary must not collide with
  // the genuinely two-atom query.
  Atom forged{"A(v0),B", {}};
  ConjunctiveQuery q1 = *ConjunctiveQuery::Create("Q", {}, {forged});
  ConjunctiveQuery q2 =
      *ConjunctiveQuery::Create("Q", {}, {Atom{"A", {Term::Variable("x")}},
                                          Atom{"B", {}}});
  EXPECT_NE(CanonicalQueryKey(q1), CanonicalQueryKey(q2));
}

TEST(CanonicalQueryKeyTest, NonFiniteDoubleAndStringNanStayDistinct) {
  // The double nan and the string "nan" are unequal Values, so their keys
  // must differ (the non-finite fallback is "d:"-prefixed, strings are
  // length-prefixed).
  Atom with_double{"R", {Term::Constant(Value(std::nan("")))}};
  Atom with_string{"R", {Term::Constant(Value("nan"))}};
  ConjunctiveQuery q1 = *ConjunctiveQuery::Create("Q", {}, {with_double});
  ConjunctiveQuery q2 = *ConjunctiveQuery::Create("Q", {}, {with_string});
  EXPECT_NE(CanonicalQueryKey(q1), CanonicalQueryKey(q2));
}

TEST(CanonicalQueryKeyTest, NumericConstantsFollowValueEquality) {
  // int 2 and double 2.0 are equal Values, so they canonicalize equally.
  Atom r1{"R", {Term::Variable("x"), Term::Constant(Value(int64_t{2}))}};
  Atom r2{"R", {Term::Variable("x"), Term::Constant(Value(2.0))}};
  ConjunctiveQuery q1 = *ConjunctiveQuery::Create("Q", {"x"}, {r1});
  ConjunctiveQuery q2 = *ConjunctiveQuery::Create("Q", {"x"}, {r2});
  EXPECT_EQ(CanonicalQueryKey(q1), CanonicalQueryKey(q2));
}

TEST(PlanFingerprintTest, EquatesAlphaRenamedQueries) {
  AggregateQuery a1 =
      Agg("Q(x) <- R(x, y), S(y)", AggregateFunction::Sum(), MakeTauId(0));
  AggregateQuery a2 =
      Agg("P(a) <- R(a, b), S(b)", AggregateFunction::Sum(), MakeTauId(0));
  EXPECT_EQ(PlanFingerprint(a1, ScoreKind::kShapley),
            PlanFingerprint(a2, ScoreKind::kShapley));
}

TEST(PlanFingerprintTest, DistinguishesConstantAlphaTauAndScoreKind) {
  AggregateQuery base =
      Agg("Q(x) <- R(x, y), S(y)", AggregateFunction::Sum(), MakeTauId(0));
  std::string fp = PlanFingerprint(base, ScoreKind::kShapley);

  // A constant in the body.
  EXPECT_NE(fp, PlanFingerprint(Agg("Q(x) <- R(x, 1), S(x)",
                                    AggregateFunction::Sum(), MakeTauId(0)),
                                ScoreKind::kShapley));
  // The aggregate, including quantile parameters.
  EXPECT_NE(fp, PlanFingerprint(Agg("Q(x) <- R(x, y), S(y)",
                                    AggregateFunction::Count(), MakeTauId(0)),
                                ScoreKind::kShapley));
  AggregateQuery qnt3 = Agg("Q(x) <- R(x, y), S(y)",
                            AggregateFunction::Quantile(
                                Rational(BigInt(1), BigInt(3))),
                            MakeTauId(0));
  AggregateQuery qnt2 = Agg("Q(x) <- R(x, y), S(y)",
                            AggregateFunction::Median(), MakeTauId(0));
  EXPECT_NE(PlanFingerprint(qnt3, ScoreKind::kShapley),
            PlanFingerprint(qnt2, ScoreKind::kShapley));
  // The value function and its parameters.
  EXPECT_NE(fp, PlanFingerprint(Agg("Q(x) <- R(x, y), S(y)",
                                    AggregateFunction::Sum(),
                                    MakeConstantTau(Rational(1))),
                                ScoreKind::kShapley));
  EXPECT_NE(
      PlanFingerprint(Agg("Q(x) <- R(x, y), S(y)", AggregateFunction::Sum(),
                          MakeConstantTau(Rational(1))),
                      ScoreKind::kShapley),
      PlanFingerprint(Agg("Q(x) <- R(x, y), S(y)", AggregateFunction::Sum(),
                          MakeConstantTau(Rational(2))),
                      ScoreKind::kShapley));
  // The score kind.
  EXPECT_NE(fp, PlanFingerprint(base, ScoreKind::kBanzhaf));
}

TEST(PlanFingerprintTest, OpaqueCallbackTausNeverShareFingerprints) {
  auto fn = [](const Tuple&) { return Rational(1); };
  ValueFunctionPtr t1 = MakeCallbackTau(fn, {}, "same-name");
  ValueFunctionPtr t2 = MakeCallbackTau(fn, {}, "same-name");
  AggregateQuery a1 = Agg("Q(x) <- R(x)", AggregateFunction::Sum(), t1);
  AggregateQuery a2 = Agg("Q(x) <- R(x)", AggregateFunction::Sum(), t2);
  // Identity-based tokens: distinct objects get distinct fingerprints even
  // with identical display names, while the same object equals itself.
  EXPECT_NE(PlanFingerprint(a1, ScoreKind::kShapley),
            PlanFingerprint(a2, ScoreKind::kShapley));
  EXPECT_EQ(PlanFingerprint(a1, ScoreKind::kShapley),
            PlanFingerprint(a1, ScoreKind::kShapley));
}

// ---------------------------------------------------------------------------
// AttributionPlan compilation
// ---------------------------------------------------------------------------

TEST(AttributionPlanTest, CompilePopulatesTheDatabaseIndependentLayer) {
  AggregateQuery a =
      Agg("Q(x, y) <- R(x, y), S(y)", AggregateFunction::Max(), MakeTauId(0));
  auto plan = AttributionPlan::Compile(a);
  EXPECT_EQ(plan->fingerprint(), PlanFingerprint(a, ScoreKind::kShapley));
  EXPECT_EQ(plan->classification(), Classify(a.query));
  EXPECT_TRUE(plan->inside_frontier());
  EXPECT_FALSE(plan->has_self_join());
  ASSERT_FALSE(plan->engines().empty());
  EXPECT_EQ(*plan->ExactAlgorithmName(), plan->engines()[0]->name);
  // τ reads head position 0 (= x), which only atom R contains.
  EXPECT_EQ(plan->localization_atoms(), std::vector<int>{0});
  EXPECT_EQ(plan->connected_components().size(), 1u);

  std::string explain = plan->Explain();
  EXPECT_NE(explain.find(plan->fingerprint()), std::string::npos);
  EXPECT_NE(explain.find(HierarchyClassName(plan->classification())),
            std::string::npos);
  for (const EngineProvider* engine : plan->engines()) {
    EXPECT_NE(explain.find(engine->name), std::string::npos);
  }
  EXPECT_NE(explain.find("batched"), std::string::npos);
}

TEST(AttributionPlanTest, SessionDelegatesToThePlan) {
  AggregateQuery a =
      Agg("Q(x) <- R(x), S(x, y), T(y)", AggregateFunction::Sum(),
          MakeTauId(0));
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 11;
  Database db = RandomDatabaseForQuery(a.query, options);
  SolverSession session(a, db);
  EXPECT_EQ(session.plan().fingerprint(),
            PlanFingerprint(a, ScoreKind::kShapley));
  EXPECT_EQ(session.classification(), session.plan().classification());
  EXPECT_EQ(session.inside_frontier(), session.plan().inside_frontier());
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, HitsMissesAndClear) {
  PlanCache cache;
  AggregateQuery a =
      Agg("Q(x) <- R(x, y), S(y)", AggregateFunction::Sum(), MakeTauId(0));
  bool hit = true;
  auto p1 = cache.GetOrCompile(a, ScoreKind::kShapley, &hit);
  EXPECT_FALSE(hit);
  auto p2 = cache.GetOrCompile(a, ScoreKind::kShapley, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p2.get());

  // An alpha-renamed query shares the plan; a different score kind does not.
  AggregateQuery renamed =
      Agg("P(u) <- R(u, w), S(w)", AggregateFunction::Sum(), MakeTauId(0));
  auto p3 = cache.GetOrCompile(renamed, ScoreKind::kShapley, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(p1.get(), p3.get());
  auto p4 = cache.GetOrCompile(a, ScoreKind::kBanzhaf, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(p1.get(), p4.get());

  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);

  cache.Clear();
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  // The plan survives the clear through its shared_ptr.
  EXPECT_EQ(p1->fingerprint(), PlanFingerprint(a, ScoreKind::kShapley));
}

TEST(PlanCacheTest, FifoEvictionBoundsTheCache) {
  PlanCache cache(2);
  AggregateQuery a1 =
      Agg("Q(x) <- R(x, 1)", AggregateFunction::Sum(), MakeTauId(0));
  AggregateQuery a2 =
      Agg("Q(x) <- R(x, 2)", AggregateFunction::Sum(), MakeTauId(0));
  AggregateQuery a3 =
      Agg("Q(x) <- R(x, 3)", AggregateFunction::Sum(), MakeTauId(0));
  cache.GetOrCompile(a1);
  cache.GetOrCompile(a2);
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.GetOrCompile(a3);  // evicts a1, the oldest entry
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  bool hit = false;
  cache.GetOrCompile(a3, ScoreKind::kShapley, &hit);
  EXPECT_TRUE(hit);
  cache.GetOrCompile(a1, ScoreKind::kShapley, &hit);
  EXPECT_FALSE(hit);  // was evicted; recompiled
}

TEST(PlanCacheTest, OpaqueTausCompileFreshAndNeverGrowTheCache) {
  PlanCache cache;
  ValueFunctionPtr tau =
      MakeCallbackTau([](const Tuple&) { return Rational(1); }, {}, "cb");
  AggregateQuery a = Agg("Q(x) <- R(x)", AggregateFunction::Sum(), tau);
  bool hit = true;
  auto p1 = cache.GetOrCompile(a, ScoreKind::kShapley, &hit);
  EXPECT_FALSE(hit);
  auto p2 = cache.GetOrCompile(a, ScoreKind::kShapley, &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(p1.get(), p2.get());  // compiled fresh each time
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);  // never inserted
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(PlanCacheTest, ConcurrentGetOrCompileFromParallelForWorkers) {
  PlanCache cache;
  constexpr int kQueries = 4;
  constexpr int kCalls = 96;
  const char* queries[kQueries] = {
      "Q(x) <- R(x, y), S(y)",
      "Q(x) <- R(x, y), S(x)",
      "Q(x, y) <- R(x, y)",
      "Q(x) <- R(x), S(x, y), T(y)",
  };
  std::vector<const AttributionPlan*> seen(kCalls, nullptr);
  ParallelFor(
      kCalls,
      [&](int64_t i) {
        AggregateQuery a =
            Agg(queries[i % kQueries], AggregateFunction::Sum(), MakeTauId(0));
        seen[static_cast<size_t>(i)] = cache.GetOrCompile(a).get();
      },
      8);
  // Every call for one fingerprint observed the same plan object.
  for (int q = 0; q < kQueries; ++q) {
    for (int i = q + kQueries; i < kCalls; i += kQueries) {
      EXPECT_EQ(seen[static_cast<size_t>(i)], seen[static_cast<size_t>(q)]);
    }
  }
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kCalls));
  EXPECT_GE(stats.misses, static_cast<uint64_t>(kQueries));
}

// ---------------------------------------------------------------------------
// Warm-vs-cold ComputeAll equivalence across the engine spectrum
// ---------------------------------------------------------------------------

struct Workload {
  const char* label;
  const char* query;
  AggregateFunction alpha;
};

TEST(PlanCacheTest, WarmAndColdComputeAllAreBitwiseIdentical) {
  std::vector<Workload> workloads = {
      {"sum", "Q(x) <- R(x), S(x, y), T(y)", AggregateFunction::Sum()},
      {"max", "Q(x, y) <- R(x, y), S(y)", AggregateFunction::Max()},
      {"avg", "Q(x, y) <- R(x, y), S(y)", AggregateFunction::Avg()},
      {"cdist", "Q(x) <- R(x, y), S(y)", AggregateFunction::CountDistinct()},
      {"dup", "Q(x, y) <- R(x, y)", AggregateFunction::HasDuplicates()},
  };
  for (const Workload& workload : workloads) {
    AggregateQuery a = Agg(workload.query, workload.alpha, MakeTauId(0));
    RandomDatabaseOptions options;
    options.facts_per_relation = 4;
    options.seed = 97;
    Database db = RandomDatabaseForQuery(a.query, options);

    // Cold: a freshly compiled plan, bypassing every cache.
    SolverSession cold_session(AttributionPlan::Compile(a), db);
    auto cold = cold_session.ComputeAll();
    ASSERT_TRUE(cold.ok()) << workload.label << ": "
                           << cold.status().ToString();

    // Warm: the same plan served twice from a cache.
    PlanCache cache;
    bool hit = false;
    SolverSession first(cache.GetOrCompile(a), db);
    auto warm_first = first.ComputeAll();
    SolverSession second(cache.GetOrCompile(a, ScoreKind::kShapley, &hit),
                         db);
    auto warm_second = second.ComputeAll();
    EXPECT_TRUE(hit) << workload.label;
    ASSERT_TRUE(warm_first.ok()) << workload.label;
    ASSERT_TRUE(warm_second.ok()) << workload.label;

    ASSERT_EQ(cold->size(), warm_first.value().size()) << workload.label;
    ASSERT_EQ(cold->size(), warm_second.value().size()) << workload.label;
    for (size_t i = 0; i < cold->size(); ++i) {
      const auto& [fact, result] = (*cold)[i];
      for (const auto* warm : {&warm_first.value(), &warm_second.value()}) {
        EXPECT_EQ((*warm)[i].first, fact) << workload.label;
        EXPECT_EQ((*warm)[i].second.is_exact, result.is_exact)
            << workload.label;
        EXPECT_EQ((*warm)[i].second.exact, result.exact) << workload.label;
        EXPECT_EQ((*warm)[i].second.algorithm, result.algorithm)
            << workload.label;
      }
      // And per-fact Compute reads the same row.
      auto per_fact = cold_session.Compute(fact);
      ASSERT_TRUE(per_fact.ok()) << workload.label;
      EXPECT_EQ(per_fact->exact, result.exact) << workload.label;
    }
  }
}

// ---------------------------------------------------------------------------
// Every engine is a batch: it scores every fact or none
// ---------------------------------------------------------------------------

// Brute-force scores of every endogenous fact, as a custom batch returns
// them.
StatusOr<std::vector<std::pair<FactId, Rational>>> BruteForceBatch(
    const AggregateQuery& a, const Database& db, const SolverOptions& options) {
  return BruteForceScoreAll(a, db, options);
}

// A provider whose batch always fails, first in the chain for queries over
// the marker relation "PzR": a batch that cannot score some fact fails as a
// whole, so every fact moves to the next engine — on ComputeAll and
// per-fact Compute alike.
std::atomic<int> poison_batch_calls{0};

void RegisterPoisonEngineOnce() {
  static bool registered = [] {
    EngineProvider provider;
    provider.name = "poison/whole-batch";
    provider.priority = 0;  // ahead of every built-in
    provider.applies = [](const AggregateQuery& a) {
      return !a.query.AtomsOf("PzR").empty();
    };
    provider.score_all = [](const AggregateQuery&, const Database&,
                            const SolverOptions&)
        -> StatusOr<std::vector<std::pair<FactId, Rational>>> {
      poison_batch_calls.fetch_add(1);
      return UnsupportedError("poisoned fact");
    };
    EngineRegistry::Global().Register(std::move(provider));
    return true;
  }();
  (void)registered;
}

TEST(ExactSweepTest, FailingBatchMovesEveryFactToTheNextEngine) {
  RegisterPoisonEngineOnce();
  AggregateQuery a = Agg("Q(x) <- PzR(x, y)", AggregateFunction::Sum(),
                         MakeTauId(0));
  Database db;
  for (int i = 1; i <= 5; ++i) {
    db.AddEndogenous("PzR", {Value(i), Value(i + 10)});
  }
  SolverSession session(AttributionPlan::Compile(a), db);
  poison_batch_calls.store(0);
  auto all = session.ComputeAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  // One batch attempt, final for the engine.
  EXPECT_EQ(poison_batch_calls.load(), 1);
  ASSERT_EQ(all->size(), 5u);
  for (const auto& [fact, result] : *all) {
    EXPECT_TRUE(result.is_exact);
    EXPECT_EQ(result.algorithm, "sum-count/linearity") << "fact " << fact;
    EXPECT_EQ(result.exact, *BruteForceScore(a, db, fact));
    // Per-fact Compute runs the same failing batch and moves on to the
    // same engine with the same value.
    auto per_fact = session.Compute(fact);
    ASSERT_TRUE(per_fact.ok()) << per_fact.status().ToString();
    EXPECT_EQ(per_fact->exact, result.exact) << "fact " << fact;
    EXPECT_EQ(per_fact->algorithm, result.algorithm) << "fact " << fact;
  }
}

// A batch-only provider (no sum_k), first in the chain for queries over
// the marker relation "BoR", scoring every fact by brute force.
void RegisterBatchOnlyEngineOnce() {
  static bool registered = [] {
    EngineProvider provider;
    provider.name = "batch-only/custom";
    provider.priority = 0;  // ahead of every built-in
    provider.applies = [](const AggregateQuery& a) {
      return !a.query.AtomsOf("BoR").empty();
    };
    provider.score_all = BruteForceBatch;
    EngineRegistry::Global().Register(std::move(provider));
    return true;
  }();
  (void)registered;
}

TEST(ExactSweepTest, BatchOnlyProviderIsReachableFromPerFactCompute) {
  RegisterBatchOnlyEngineOnce();
  AggregateQuery a = Agg("Q(x) <- BoR(x, y)", AggregateFunction::Max(),
                         MakeTauId(0));
  Database db;
  for (int i = 1; i <= 5; ++i) {
    db.AddEndogenous("BoR", {Value(i % 3), Value(i)});
  }
  db.AddExogenous("BoR", {Value(7), Value(7)});
  SolverSession session(AttributionPlan::Compile(a), db);
  auto all = session.ComputeAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 5u);
  for (const auto& [fact, result] : *all) {
    EXPECT_EQ(result.algorithm, "batch-only/custom") << "fact " << fact;
    auto per_fact = session.Compute(fact);
    ASSERT_TRUE(per_fact.ok()) << per_fact.status().ToString();
    EXPECT_EQ(per_fact->algorithm, "batch-only/custom") << "fact " << fact;
    EXPECT_EQ(per_fact->exact, result.exact) << "fact " << fact;
    EXPECT_EQ(per_fact->exact, *BruteForceScore(a, db, fact));
  }
}

TEST(ExactSweepTest, NullPlayersKeepTheBatchingEngineLabel) {
  // Count-distinct has no scorer of its own: the session batches its sum_k
  // through the fact-level scorer, which scores the facts of a relation Q
  // does not mention as exact zeros under the same engine label.
  AggregateQuery a = Agg("Q(x, y) <- R(x, y), S(y)",
                         AggregateFunction::CountDistinct(), MakeTauId(0));
  Database db;
  db.AddEndogenous("R", {Value(1), Value(10)});
  db.AddEndogenous("R", {Value(2), Value(10)});
  db.AddEndogenous("R", {Value(1), Value(20)});
  db.AddEndogenous("S", {Value(10)});
  db.AddExogenous("S", {Value(20)});
  const FactId unmentioned = db.AddEndogenous("Unmentioned", {Value(1)});
  db.AddExogenous("Unmentioned", {Value(2)});
  SolverSession session(AttributionPlan::Compile(a), db);
  auto all = session.ComputeAll();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 5u);
  for (const auto& [fact, result] : *all) {
    EXPECT_TRUE(result.is_exact);
    EXPECT_EQ(result.algorithm, "count-distinct/boolean-reduction")
        << "fact " << fact;
    auto oracle = BruteForceScore(a, db, fact);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(result.exact, *oracle) << "fact " << fact;
    if (fact == unmentioned) {
      EXPECT_TRUE(result.exact.is_zero());
    }
  }
}

}  // namespace
}  // namespace shapcq
