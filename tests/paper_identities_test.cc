// The paper's structural identities as executable tests.
//
//   * Proposition 3.2: for τ ≡ c and constant-per-singleton α,
//     Shapley(f, α ∘ τ ∘ Q) = α({{c}}) · Shapley(f, Q_bool).
//   * Lemma 4.3: Shapley(f, CDist ∘ τ ∘ Q)[D] = Σ_a Shapley(f, Q_bool)[D_a].
//   * Section 7.1: CDist ∘ τ_id ∘ Q ≡ Count ∘ τ ∘ Q for unary heads, which
//     makes CDist tractable on an ∃-hierarchical-but-not-all-hierarchical
//     query through the solver's rewrite.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/membership.h"
#include "shapcq/shapley/solver.h"
#include "shapcq/workload/generators.h"

namespace shapcq {
namespace {

Rational R(int64_t n) { return Rational(n); }

TEST(Proposition32Test, ConstantTauFactorsThroughBooleanGame) {
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  const Rational c(7);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery boolean_game{q.AsBoolean(), MakeConstantTau(R(1)),
                                AggregateFunction::Max()};
    for (AggregateFunction alpha :
         {AggregateFunction::Min(), AggregateFunction::Max(),
          AggregateFunction::CountDistinct(), AggregateFunction::Avg(),
          AggregateFunction::Median()}) {
      ASSERT_TRUE(alpha.IsConstantPerSingleton());
      Rational alpha_of_singleton = alpha.Apply({c});
      AggregateQuery a{q, MakeConstantTau(c), alpha};
      for (FactId f : db.EndogenousFacts()) {
        EXPECT_EQ(*BruteForceScore(a, db, f),
                  alpha_of_singleton * *BruteForceScore(boolean_game, db, f))
            << alpha.ToString() << " seed " << seed;
      }
    }
  }
}

TEST(Lemma43Test, CDistDecomposesIntoMembershipGames) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.domain_size = 3;
  for (uint64_t seed = 5; seed <= 8; ++seed) {
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    ValueFunctionPtr tau = MakeTauGreaterThan(0, R(0));
    AggregateQuery a{q, tau, AggregateFunction::CountDistinct()};
    // Values realized by answers.
    std::set<Rational> values;
    for (const Tuple& answer : Evaluate(q, db)) {
      values.insert(tau->Evaluate(answer));
    }
    for (FactId f : db.EndogenousFacts()) {
      Rational total;
      for (const Rational& value : values) {
        // D_a: remove R-facts whose τ-value differs (R is atom 0, the
        // localization atom of τ^1).
        Database d_value;
        FactId f_image = -1;
        for (FactId id = 0; id < db.num_facts(); ++id) {
          const Fact& fact = db.fact(id);
          if (fact.relation == "R" &&
              EvaluateTauOnFact(q, 0, *tau, fact.args) != value) {
            continue;
          }
          FactId image =
              d_value.AddFact(fact.relation, fact.args, fact.endogenous);
          if (id == f) f_image = image;
        }
        if (f_image < 0) continue;  // f removed: convention gives 0
        auto score = MembershipScore(q.AsBoolean(), d_value, f_image);
        ASSERT_TRUE(score.ok());
        total += *score;
      }
      EXPECT_EQ(total, *BruteForceScore(a, db, f)) << "seed " << seed;
    }
  }
}

TEST(Section71Test, InjectiveCDistRewriteUnlocksExistsHierarchical) {
  // Q(x) <- R(x), S(x, y), T(y): ∃-hierarchical, NOT all-hierarchical —
  // the primary CDist engine refuses, but τ_id is injective so the solver
  // rewrites to Count and stays exact.
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x), S(x, y), T(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 9;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::CountDistinct()};
  ShapleySolver solver(a);
  SolverOptions exact_only;
  exact_only.method = SolveMethod::kExactOnly;
  for (FactId f : db.EndogenousFacts()) {
    auto result = solver.Compute(db, f, exact_only);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->algorithm, "count-distinct/injective-count-rewrite");
    EXPECT_EQ(result->exact, *BruteForceScore(a, db, f));
  }
  // With a NON-injective τ on the same query the rewrite does not apply:
  // only the lineage circuits (the value groups' games) stay exact, and
  // with their compile budget starved exact-only must fail.
  AggregateQuery hard{q, MakeTauGreaterThan(0, R(0)),
                      AggregateFunction::CountDistinct()};
  ShapleySolver hard_solver(hard);
  const FactId probe = db.EndogenousFacts().front();
  auto circuit = hard_solver.Compute(db, probe, exact_only);
  ASSERT_TRUE(circuit.ok()) << circuit.status().ToString();
  EXPECT_EQ(circuit->algorithm, "lineage-circuit");
  EXPECT_EQ(circuit->exact, *BruteForceScore(hard, db, probe));
  SolverOptions starved = exact_only;
  starved.lineage.max_circuit_nodes = 2;
  EXPECT_FALSE(hard_solver.Compute(db, probe, starved).ok());
}

TEST(Section71Test, RewriteAgreesWithPrimaryEngineInsideFrontier) {
  // On all-hierarchical unary-head queries both CDist paths apply and must
  // agree.
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 11;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery cdist{q, MakeTauId(0), AggregateFunction::CountDistinct()};
  AggregateQuery count{q, MakeTauId(0), AggregateFunction::Count()};
  ShapleySolver cdist_solver(cdist);
  ShapleySolver count_solver(count);
  for (FactId f : db.EndogenousFacts()) {
    auto via_cdist = cdist_solver.Compute(db, f);
    auto via_count = count_solver.Compute(db, f);
    ASSERT_TRUE(via_cdist.ok());
    ASSERT_TRUE(via_count.ok());
    EXPECT_EQ(via_cdist->exact, via_count->exact);
  }
}

}  // namespace
}  // namespace shapcq
