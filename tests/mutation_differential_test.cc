// Differential tests for solves over a mutated database: random
// insert/delete/compact sequences through Database's own mutation API,
// checked after every mutation.
//
// Oracle, on exact rationals (canonical form — equality is bitwise
// identity): a fresh ComputeAll of the mutated database (FactId space with
// tombstone holes) == a fresh ComputeAll of a database REBUILT from
// scratch with only the live facts (dense ids), compared by fact content.
// This pins every engine's tombstone handling, at every thread count.
// Covers Sum/Count (group games) and Min/Max/Avg/Median (their DPs and the
// brute-force fallback over a tombstoned database).

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/session.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/workload/generators.h"
#include "shapcq/workload/random_query.h"

namespace shapcq {
namespace {

// Keep every instance brute-forceable so kAuto always lands on an exact
// engine (never Monte Carlo).
constexpr int kMaxPlayers = 12;

struct MutationCase {
  AggregateFunction alpha;
  HierarchyClass target;  // query class (keeps the exact engines in play)
  uint64_t seed;
  int num_threads;
};

std::vector<MutationCase> MakeCases() {
  std::vector<MutationCase> cases;
  struct AlphaClass {
    AggregateFunction alpha;
    HierarchyClass target;
  };
  const std::vector<AlphaClass> alphas = {
      {AggregateFunction::Sum(), HierarchyClass::kGeneral},
      {AggregateFunction::Count(), HierarchyClass::kExistsHierarchical},
      {AggregateFunction::Min(), HierarchyClass::kAllHierarchical},
      {AggregateFunction::Max(), HierarchyClass::kAllHierarchical},
      {AggregateFunction::Avg(), HierarchyClass::kQHierarchical},
      {AggregateFunction::Median(), HierarchyClass::kQHierarchical},
  };
  for (const AlphaClass& ac : alphas) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      for (int threads : {1, 4}) {
        cases.push_back({ac.alpha, ac.target, seed, threads});
      }
    }
  }
  return cases;
}

// Rebuilds a dense database holding exactly the live facts of `db`.
Database RebuildLive(const Database& db) {
  Database fresh;
  for (FactId id = 0; id < db.num_facts(); ++id) {
    if (!db.live(id)) continue;
    const Fact& fact = db.fact(id);
    fresh.AddFact(fact.relation, fact.args, fact.endogenous);
  }
  return fresh;
}

using ContentKey = std::pair<std::string, Tuple>;

std::map<ContentKey, Rational> ByContent(
    const Database& db,
    const std::vector<std::pair<FactId, SolveResult>>& results) {
  std::map<ContentKey, Rational> scores;
  for (const auto& [id, result] : results) {
    const Fact& fact = db.fact(id);
    scores.emplace(ContentKey{fact.relation, fact.args}, result.exact);
  }
  return scores;
}

class MutationDifferentialTest
    : public ::testing::TestWithParam<MutationCase> {};

TEST_P(MutationDifferentialTest, MutateThenSolveMatchesRebuild) {
  const MutationCase& param = GetParam();
  RandomQueryOptions query_options;
  query_options.max_variables = 3;
  query_options.components = 1 + static_cast<int>(param.seed % 2);
  query_options.seed = param.seed;
  ConjunctiveQuery q = RandomQueryOfClass(param.target, query_options);

  RandomDatabaseOptions db_options;
  db_options.facts_per_relation = 3;
  db_options.domain_size = 3;
  db_options.seed = param.seed * 1000 + 7;
  Database db = RandomDatabaseForQuery(q, db_options);
  if (db.num_endogenous() == 0 || db.num_endogenous() > kMaxPlayers) {
    GTEST_SKIP();
  }

  ValueFunctionPtr tau =
      q.arity() > 0 ? MakeTauId(0) : MakeConstantTau(Rational(1));
  AggregateQuery a{q, tau, param.alpha};
  SolverOptions options;
  options.num_threads = param.num_threads;

  std::mt19937_64 rng(param.seed * 7919 + 13);

  auto check_round = [&](const std::string& label) {
    SolverSession fresh(a, db);
    StatusOr<std::vector<std::pair<FactId, SolveResult>>> mutated =
        fresh.ComputeAll(options);
    ASSERT_TRUE(mutated.ok()) << label << ": " << mutated.status().ToString();
    for (const auto& [fact, result] : *mutated) {
      ASSERT_TRUE(result.is_exact) << label << " fact " << fact;
    }

    // Rebuild from scratch (dense ids), compared by content.
    Database rebuilt = RebuildLive(db);
    SolverSession scratch(a, rebuilt);
    StatusOr<std::vector<std::pair<FactId, SolveResult>>> dense =
        scratch.ComputeAll(options);
    ASSERT_TRUE(dense.ok()) << label << ": " << dense.status().ToString();
    std::map<ContentKey, Rational> mutated_scores = ByContent(db, *mutated);
    std::map<ContentKey, Rational> dense_scores = ByContent(rebuilt, *dense);
    EXPECT_EQ(mutated_scores, dense_scores) << label;
  };

  check_round("initial");

  const std::vector<Atom>& atoms = q.atoms();
  for (int step = 0; step < 6; ++step) {
    const std::string label = "step " + std::to_string(step);
    bool mutated = false;
    if (rng() % 2 == 0) {
      // Random insert into a random query relation.
      const Atom& atom = atoms[rng() % atoms.size()];
      Tuple args;
      for (int i = 0; i < atom.arity(); ++i) {
        args.emplace_back(static_cast<int64_t>(rng() % 4));
      }
      bool endogenous =
          db.num_endogenous() < kMaxPlayers && rng() % 4 != 0;
      StatusOr<FactId> inserted =
          db.InsertFact(atom.relation, std::move(args), endogenous);
      // Colliding with an existing fact is fine — just no mutation.
      mutated = inserted.ok();
    } else {
      std::vector<FactId> live;
      for (FactId id = 0; id < db.num_facts(); ++id) {
        if (db.live(id)) live.push_back(id);
      }
      if (!live.empty()) {
        FactId victim = live[rng() % live.size()];
        ASSERT_TRUE(db.DeleteFact(victim).ok()) << label;
        mutated = true;
      }
    }
    if (step % 3 == 2) {
      db.CompactTombstones();
      mutated = true;
    }
    if (!mutated) continue;
    check_round(label);
  }
}

INSTANTIATE_TEST_SUITE_P(Mutation, MutationDifferentialTest,
                         ::testing::ValuesIn(MakeCases()));

}  // namespace
}  // namespace shapcq
