// Numeric validation of the paper's transfer constructions: Lemma 5.3
// (Q_xyy -> all-hierarchical-not-q-hierarchical CQs), Lemma E.4
// (Q^full_xyy -> q-hierarchical-not-sq-hierarchical CQs), and the monotone
// value-map machinery of Theorem 7.1 / Observation F.3. Each transfer must
// preserve the Shapley value of every endogenous fact EXACTLY.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/workload/generators.h"
#include "shapcq/workload/random_query.h"
#include "tests/transfer.h"

namespace shapcq {
namespace {

Rational R(int64_t n) { return Rational(n); }

Database SmallQxyyDb(uint64_t seed) {
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.domain_size = 3;
  options.seed = seed;
  return RandomDatabaseForQuery(MustParseQuery("Q(x) <- R(x, y), S(y)"),
                                options);
}

TEST(TransferQxyyTest, PreservesShapleyOnCanonicalTarget) {
  // Q0(y) <- R0(x), S0(x, y): all-hierarchical, not q-hierarchical
  // (free y dominated by existential x).
  ConjunctiveQuery q0 = MustParseQuery("Q0(y) <- R0(x), S0(x, y)");
  ConjunctiveQuery q_xyy = MustParseQuery("Q(x) <- R(x, y), S(y)");
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Database db = SmallQxyyDb(seed);
    for (AggregateFunction alpha :
         {AggregateFunction::Avg(), AggregateFunction::Median(),
          AggregateFunction::Max()}) {
      ValueFunctionPtr tau = MakeTauReLU(0);
      auto transfer = TransferQxyy(q0, db, tau);
      ASSERT_TRUE(transfer.ok()) << transfer.status().ToString();
      AggregateQuery source{q_xyy, tau, alpha};
      AggregateQuery target{q0, transfer->tau0, alpha};
      for (FactId f : db.EndogenousFacts()) {
        FactId image = transfer->fact_map[static_cast<size_t>(f)];
        ASSERT_GE(image, 0);
        EXPECT_EQ(*BruteForceScore(source, db, f),
                  *BruteForceScore(target, transfer->d0, image))
            << alpha.ToString() << " seed " << seed << " fact "
            << db.fact(f).ToString();
      }
    }
  }
}

TEST(TransferQxyyTest, PreservesShapleyOnWiderTarget) {
  // A larger target with an extra always-satisfied atom inside the
  // y0-dominated structure: Q0(z) <- A(w), B(w, z), C(w, z, u).
  // atoms(z) = {B, C} ⊊ atoms(w) = {A, B, C}; w existential, z free.
  ConjunctiveQuery q0 = MustParseQuery("Q0(z) <- A(w), B(w, z), C(w, z, u)");
  ASSERT_FALSE(IsQHierarchical(q0));
  ConjunctiveQuery q_xyy = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db = SmallQxyyDb(7);
  ValueFunctionPtr tau = MakeTauGreaterThan(0, R(0));
  auto transfer = TransferQxyy(q0, db, tau);
  ASSERT_TRUE(transfer.ok()) << transfer.status().ToString();
  AggregateQuery source{q_xyy, tau, AggregateFunction::Avg()};
  AggregateQuery target{q0, transfer->tau0, AggregateFunction::Avg()};
  for (FactId f : db.EndogenousFacts()) {
    FactId image = transfer->fact_map[static_cast<size_t>(f)];
    EXPECT_EQ(*BruteForceScore(source, db, f),
              *BruteForceScore(target, transfer->d0, image));
  }
}

TEST(TransferQxyyTest, RejectsWrongClass) {
  Database db = SmallQxyyDb(1);
  // q-hierarchical target: not a valid Lemma 5.3 destination.
  EXPECT_FALSE(
      TransferQxyy(MustParseQuery("Q0(x, y) <- R0(x, y), S0(y)"), db,
                   MakeTauId(0))
          .ok());
  // Non-all-hierarchical target.
  EXPECT_FALSE(
      TransferQxyy(MustParseQuery("Q0(x) <- R0(x), S0(x, y), T0(y)"), db,
                   MakeTauId(0))
          .ok());
}

TEST(TransferQxyyFullTest, PreservesShapleyOnCanonicalTarget) {
  // Q0(x, y) <- R0(x, y), S0(y): q-hierarchical, not sq-hierarchical.
  ConjunctiveQuery q0 = MustParseQuery("Q0(a, b) <- R0(a, b), S0(b)");
  ConjunctiveQuery q_full = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    Database db = SmallQxyyDb(seed);
    ValueFunctionPtr tau = MakeTauReLU(0);
    auto transfer = TransferQxyyFull(q0, db, tau);
    ASSERT_TRUE(transfer.ok()) << transfer.status().ToString();
    AggregateQuery source{q_full, tau, AggregateFunction::HasDuplicates()};
    AggregateQuery target{q0, transfer->tau0,
                          AggregateFunction::HasDuplicates()};
    for (FactId f : db.EndogenousFacts()) {
      FactId image = transfer->fact_map[static_cast<size_t>(f)];
      ASSERT_GE(image, 0);
      EXPECT_EQ(*BruteForceScore(source, db, f),
                *BruteForceScore(target, transfer->d0, image))
          << "seed " << seed;
    }
  }
}

TEST(TransferQxyyFullTest, RejectsWrongClass) {
  Database db = SmallQxyyDb(2);
  // sq-hierarchical target.
  EXPECT_FALSE(TransferQxyyFull(MustParseQuery("Q0(x) <- R0(x, y), S0(x)"),
                                db, MakeTauId(0))
                   .ok());
}

TEST(TransferQxyyTest, PreservesShapleyOnRandomTargets) {
  // Sweep random all-hierarchical-not-q-hierarchical targets from the
  // stratified query generator.
  ConjunctiveQuery q_xyy = MustParseQuery("Q(x) <- R(x, y), S(y)");
  for (uint64_t seed = 21; seed <= 26; ++seed) {
    RandomQueryOptions query_options;
    query_options.max_variables = 4;
    query_options.seed = seed;
    ConjunctiveQuery q0 =
        RandomQueryOfClass(HierarchyClass::kAllHierarchical, query_options);
    Database db = SmallQxyyDb(seed);
    ValueFunctionPtr tau = MakeTauReLU(0);
    auto transfer = TransferQxyy(q0, db, tau);
    ASSERT_TRUE(transfer.ok())
        << q0.ToString() << ": " << transfer.status().ToString();
    AggregateQuery source{q_xyy, tau, AggregateFunction::Median()};
    AggregateQuery target{q0, transfer->tau0, AggregateFunction::Median()};
    for (FactId f : db.EndogenousFacts()) {
      FactId image = transfer->fact_map[static_cast<size_t>(f)];
      ASSERT_GE(image, 0);
      EXPECT_EQ(*BruteForceScore(source, db, f),
                *BruteForceScore(target, transfer->d0, image))
          << q0.ToString() << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Observation F.3 / Theorem 7.1
// ---------------------------------------------------------------------------

TEST(MonotoneMapTest, GammaComposedTauEqualsTauOnTransformedDb) {
  // γ(v) = 2v + 1 (monotone, injective). For every subset-level evaluation:
  // (γ ∘ τ_id ∘ Q)(D) = (τ_id ∘ Q)(π(D)), hence equal Shapley values.
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 33;
  Database db = RandomDatabaseForQuery(q, options);
  auto gamma_value = [](const Value& v) {
    return Value(2 * v.AsInt() + 1);
  };
  std::vector<FactId> fact_map;
  Database transformed = ApplyMonotoneMap(q, 0, gamma_value, db, &fact_map);
  ValueFunctionPtr gamma_tau = MakeComposedTau(
      [](const Rational& v) { return v * Rational(2) + Rational(1); },
      MakeTauId(0), "2v+1");
  for (AggregateFunction alpha :
       {AggregateFunction::Max(), AggregateFunction::Avg(),
        AggregateFunction::Median()}) {
    AggregateQuery lhs{q, gamma_tau, alpha};
    AggregateQuery rhs{q, MakeTauId(0), alpha};
    for (FactId f : db.EndogenousFacts()) {
      EXPECT_EQ(*BruteForceScore(lhs, db, f),
                *BruteForceScore(rhs, transformed,
                                 fact_map[static_cast<size_t>(f)]))
          << alpha.ToString();
    }
  }
}

TEST(MonotoneMapTest, JoinColumnsTransformConsistently) {
  // When the mapped head variable is also a join variable, all its columns
  // transform together, preserving the join structure.
  ConjunctiveQuery q = MustParseQuery("Q(y) <- R(x, y), S(y)");
  Database db;
  db.AddEndogenous("R", {Value(1), Value(5)});
  db.AddEndogenous("S", {Value(5)});
  db.AddEndogenous("S", {Value(6)});
  std::vector<FactId> fact_map;
  Database transformed = ApplyMonotoneMap(
      q, 0, [](const Value& v) { return Value(v.AsInt() * 10); }, db,
      &fact_map);
  EXPECT_TRUE(transformed.Contains("R", {Value(1), Value(50)}));
  EXPECT_TRUE(transformed.Contains("S", {Value(50)}));
  EXPECT_TRUE(transformed.Contains("S", {Value(60)}));
  // Same number of answers before and after.
  EXPECT_EQ(Evaluate(q, db).size(), Evaluate(q, transformed).size());
}

}  // namespace
}  // namespace shapcq
