// Differential tests for the streaming path: random insert/delete/compact
// sequences against a StreamingSolver, checked after every mutation.
//
// Three-way agreement, all on exact rationals (canonical form — equality
// is bitwise identity):
//   1. StreamingSolver::ComputeAll == a fresh SolverSession on the mutated
//      database (id-aligned; this is the mutate-then-solve vs solve-fresh
//      oracle the incremental cache is gated on).
//   2. Fresh solve of the mutated database (FactId space with tombstone
//      holes) == fresh solve of a database REBUILT from scratch with only
//      the live facts (dense ids) — compared by fact content. This pins
//      every engine's tombstone handling, not just the streaming cache's.
//   3. Repeated across thread counts: the parity must hold for any
//      num_threads.
// Covers Sum/Count (incremental circuit-patching path) and
// Min/Max/Avg/Median (session fallback path over a tombstoned database).

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
#include "shapcq/stream/streaming.h"
#include "shapcq/workload/generators.h"
#include "shapcq/workload/random_query.h"

namespace shapcq {
namespace {

// Keep every instance brute-forceable so kAuto always lands on an exact
// engine (never Monte Carlo).
constexpr int kMaxPlayers = 12;

struct StreamingCase {
  AggregateFunction alpha;
  HierarchyClass target;  // query class (keeps the exact engines in play)
  uint64_t seed;
  int num_threads;
};

std::vector<StreamingCase> MakeCases() {
  std::vector<StreamingCase> cases;
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

class StreamingDifferentialTest
    : public ::testing::TestWithParam<StreamingCase> {};

TEST_P(StreamingDifferentialTest, MutateThenSolveMatchesRebuild) {
  const StreamingCase& param = GetParam();
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

  StreamingSolver solver(a, &db, options);
  std::mt19937_64 rng(param.seed * 7919 + 13);

  auto check_round = [&](const std::string& label) {
    StatusOr<std::vector<std::pair<FactId, SolveResult>>> streamed =
        solver.ComputeAll();
    ASSERT_TRUE(streamed.ok()) << label << ": " << streamed.status().ToString();

    // Oracle 1: fresh session on the mutated (tombstoned) database.
    SolverSession fresh(a, db);
    StatusOr<std::vector<std::pair<FactId, SolveResult>>> mutated =
        fresh.ComputeAll(options);
    ASSERT_TRUE(mutated.ok()) << label << ": " << mutated.status().ToString();
    ASSERT_EQ(streamed->size(), mutated->size()) << label;
    for (size_t i = 0; i < mutated->size(); ++i) {
      ASSERT_EQ((*streamed)[i].first, (*mutated)[i].first) << label;
      ASSERT_TRUE((*streamed)[i].second.is_exact) << label;
      ASSERT_TRUE((*mutated)[i].second.is_exact) << label;
      EXPECT_EQ((*streamed)[i].second.exact, (*mutated)[i].second.exact)
          << label << " fact " << (*mutated)[i].first << " of "
          << db.ToString();
    }

    // Oracle 2: rebuild-from-scratch (dense ids), compared by content.
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
          solver.InsertFact(atom.relation, std::move(args), endogenous);
      // Colliding with an existing fact is fine — just no mutation.
      mutated = inserted.ok();
    } else {
      std::vector<FactId> live;
      for (FactId id = 0; id < db.num_facts(); ++id) {
        if (db.live(id)) live.push_back(id);
      }
      if (!live.empty()) {
        FactId victim = live[rng() % live.size()];
        ASSERT_TRUE(solver.DeleteFact(victim).ok()) << label;
        mutated = true;
      }
    }
    if (step % 3 == 2) {
      solver.CompactTombstones();
      mutated = true;
    }
    if (!mutated) continue;
    check_round(label);
  }

  // The linear aggregates must actually have used the incremental path.
  if (param.alpha.kind() == AggKind::kSum ||
      param.alpha.kind() == AggKind::kCount) {
    EXPECT_TRUE(solver.incremental());
    EXPECT_GT(solver.stats().incremental_solves, 0u);
    EXPECT_EQ(solver.stats().fallback_solves, 0u);
    EXPECT_EQ(solver.stats().full_rebuilds, 1u);
  } else {
    EXPECT_GT(solver.stats().fallback_solves, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Streaming, StreamingDifferentialTest,
                         ::testing::ValuesIn(MakeCases()));

// --- Epoch regression tests ------------------------------------------------
//
// The streaming cache keys on Database::epoch(). Any semantic change the
// solver is not notified about must still be visible through the epoch so
// ComputeAll degrades to a full rebuild — never a stale answer. These pin
// the two historically silent mutations: SetEndogenous (partition change)
// and an external CompactTombstones the caller forgot to announce.

// Asserts solver.ComputeAll() is bitwise-identical to a fresh session on
// the current database state.
void ExpectMatchesFresh(StreamingSolver& solver, const AggregateQuery& a,
                        const Database& db, const SolverOptions& options,
                        const std::string& label) {
  StatusOr<std::vector<std::pair<FactId, SolveResult>>> streamed =
      solver.ComputeAll();
  ASSERT_TRUE(streamed.ok()) << label << ": " << streamed.status().ToString();
  SolverSession fresh(a, db);
  StatusOr<std::vector<std::pair<FactId, SolveResult>>> expected =
      fresh.ComputeAll(options);
  ASSERT_TRUE(expected.ok()) << label << ": " << expected.status().ToString();
  ASSERT_EQ(streamed->size(), expected->size()) << label;
  for (size_t i = 0; i < expected->size(); ++i) {
    ASSERT_EQ((*streamed)[i].first, (*expected)[i].first) << label;
    ASSERT_TRUE((*streamed)[i].second.is_exact) << label;
    EXPECT_EQ((*streamed)[i].second.exact, (*expected)[i].second.exact)
        << label << " fact " << (*expected)[i].first;
  }
}

struct EpochFixture {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db;
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};

  EpochFixture() {
    db.AddEndogenous("R", {Value(int64_t{1}), Value(int64_t{10})});
    db.AddEndogenous("R", {Value(int64_t{1}), Value(int64_t{11})});
    db.AddEndogenous("R", {Value(int64_t{2}), Value(int64_t{10})});
    db.AddEndogenous("S", {Value(int64_t{10})});
    db.AddEndogenous("S", {Value(int64_t{11})});
    db.AddExogenous("S", {Value(int64_t{12})});
  }
};

TEST(StreamingEpochTest, UnnotifiedSetEndogenousForcesRebuild) {
  EpochFixture f;
  SolverOptions options;
  StreamingSolver solver(f.a, &f.db, options);
  ExpectMatchesFresh(solver, f.a, f.db, options, "initial");
  ASSERT_EQ(solver.stats().full_rebuilds, 1u);

  // Flip a player exogenous behind the solver's back. The partition change
  // must bump the epoch, and the next solve must rebuild and agree with a
  // fresh session on the mutated database.
  const uint64_t before = f.db.epoch();
  f.db.SetEndogenous(0, false);
  EXPECT_EQ(f.db.epoch(), before + 1);
  ExpectMatchesFresh(solver, f.a, f.db, options, "after exogenous flip");
  EXPECT_EQ(solver.stats().full_rebuilds, 2u);

  // And back again: a second unnotified flip, a second detected rebuild.
  f.db.SetEndogenous(0, true);
  ExpectMatchesFresh(solver, f.a, f.db, options, "after endogenous flip");
  EXPECT_EQ(solver.stats().full_rebuilds, 3u);
}

TEST(StreamingEpochTest, NoOpSetEndogenousKeepsCache) {
  EpochFixture f;
  SolverOptions options;
  StreamingSolver solver(f.a, &f.db, options);
  ASSERT_TRUE(solver.ComputeAll().ok());
  ASSERT_EQ(solver.stats().full_rebuilds, 1u);

  // Re-asserting the current flag is not a semantic change: no epoch bump,
  // and the cache survives the next solve.
  const uint64_t before = f.db.epoch();
  f.db.SetEndogenous(0, true);
  EXPECT_EQ(f.db.epoch(), before);
  ExpectMatchesFresh(solver, f.a, f.db, options, "after no-op flip");
  EXPECT_EQ(solver.stats().full_rebuilds, 1u);
  EXPECT_EQ(solver.stats().incremental_solves, 2u);
}

TEST(StreamingEpochTest, UnnotifiedExternalCompactionForcesRebuild) {
  EpochFixture f;
  SolverOptions options;
  StreamingSolver solver(f.a, &f.db, options);
  ASSERT_TRUE(solver.ComputeAll().ok());
  ASSERT_TRUE(solver.DeleteFact(1).ok());
  ExpectMatchesFresh(solver, f.a, f.db, options, "after delete");
  ASSERT_EQ(solver.stats().full_rebuilds, 1u);

  // Compact the database directly, without OnCompact. The epoch moves past
  // what the cache recorded, so the next solve must detect it and rebuild
  // rather than trust posting lists whose rows were shuffled.
  f.db.CompactTombstones();
  ExpectMatchesFresh(solver, f.a, f.db, options, "after silent compaction");
  EXPECT_EQ(solver.stats().full_rebuilds, 2u);
}

TEST(StreamingEpochTest, NotifiedCompactionKeepsCache) {
  EpochFixture f;
  SolverOptions options;
  StreamingSolver solver(f.a, &f.db, options);
  ASSERT_TRUE(solver.ComputeAll().ok());
  ASSERT_TRUE(solver.DeleteFact(1).ok());

  // The solver's own CompactTombstones (and equivalently an external
  // compaction followed by OnCompact) absorbs the epoch bump: contents are
  // unchanged, so the cache stays warm.
  solver.CompactTombstones();
  ExpectMatchesFresh(solver, f.a, f.db, options, "after notified compaction");
  EXPECT_EQ(solver.stats().full_rebuilds, 1u);

  f.db.CompactTombstones();
  solver.OnCompact();
  ExpectMatchesFresh(solver, f.a, f.db, options, "after external OnCompact");
  EXPECT_EQ(solver.stats().full_rebuilds, 1u);
}

}  // namespace
}  // namespace shapcq
