// Tests for the lineage-circuit subsystem (src/shapcq/lineage/):
//
//   * the decision-DNNF compiler and its size-stratified model counts,
//     differentially against 2^m truth-table enumeration;
//   * the formula-cache (compilation sharing) with counts still exact;
//   * the engine, bitwise-equal to brute force on randomized
//     non-hierarchical (and self-join) workloads, every score kind, thread
//     counts {1, 2, 8} — Sum and Count per answer, CountDistinct, Max and
//     Min through their value and threshold groups;
//   * exactness BEYOND the brute-force horizon (> 26 players), checked via
//     the Shapley efficiency identity Σ_f Shapley_f = A(D) − A(D_x);
//   * the compilation budget falling through to brute force / Monte Carlo;
//   * plan wiring: the engine chain, Explain(), fingerprints.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/engines/lineage_engine.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/lineage/circuit.h"
#include "shapcq/lineage/circuit_cache.h"
#include "shapcq/lineage/lineage.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/shapley/session.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/workload/generators.h"

namespace shapcq {
namespace {

SolverOptions Options(ScoreKind kind, int num_threads = 0) {
  SolverOptions options;
  options.score = kind;
  options.num_threads = num_threads;
  return options;
}

bool ClauseSatisfied(const std::vector<int>& clause, uint64_t mask) {
  for (int v : clause) {
    if ((mask & (uint64_t{1} << v)) == 0) return false;
  }
  return true;
}

bool DnfSatisfied(const std::vector<std::vector<int>>& clauses,
                  uint64_t mask) {
  for (const std::vector<int>& clause : clauses) {
    if (ClauseSatisfied(clause, mask)) return true;
  }
  return false;
}

// Truth-table reference for CountModelsBySize.
CircuitModelCounts EnumerateCounts(
    const std::vector<std::vector<int>>& clauses, int num_vars) {
  CircuitModelCounts counts;
  counts.by_size.assign(static_cast<size_t>(num_vars) + 1, BigInt());
  counts.containing.assign(
      static_cast<size_t>(num_vars),
      std::vector<BigInt>(static_cast<size_t>(num_vars) + 1, BigInt()));
  for (uint64_t mask = 0; mask < (uint64_t{1} << num_vars); ++mask) {
    if (!DnfSatisfied(clauses, mask)) continue;
    int ones = __builtin_popcountll(mask);
    counts.by_size[static_cast<size_t>(ones)] += BigInt(1);
    for (int v = 0; v < num_vars; ++v) {
      if (mask & (uint64_t{1} << v)) {
        counts.containing[static_cast<size_t>(v)]
                         [static_cast<size_t>(ones)] += BigInt(1);
      }
    }
  }
  return counts;
}

void ExpectCountsMatch(const std::vector<std::vector<int>>& clauses,
                       int num_vars, const std::string& label) {
  StatusOr<LineageCircuit> circuit = CompileDnf(clauses, num_vars);
  ASSERT_TRUE(circuit.ok()) << label << ": " << circuit.status().ToString();
  Combinatorics comb;
  CircuitModelCounts actual = CountModelsBySize(*circuit, &comb);
  CircuitModelCounts expected = EnumerateCounts(clauses, num_vars);
  ASSERT_EQ(actual.by_size.size(), expected.by_size.size()) << label;
  for (size_t k = 0; k < expected.by_size.size(); ++k) {
    EXPECT_EQ(actual.by_size[k], expected.by_size[k])
        << label << " by_size[" << k << "]";
  }
  for (int v = 0; v < num_vars; ++v) {
    for (size_t k = 0; k <= static_cast<size_t>(num_vars); ++k) {
      EXPECT_EQ(actual.containing[static_cast<size_t>(v)][k],
                expected.containing[static_cast<size_t>(v)][k])
          << label << " containing[" << v << "][" << k << "]";
    }
  }
}

TEST(CircuitTest, ConstantsAndSingleClauses) {
  ExpectCountsMatch({}, 3, "constant false");
  ExpectCountsMatch({{}}, 3, "constant true");
  ExpectCountsMatch({{0}}, 1, "one literal");
  ExpectCountsMatch({{0}}, 4, "literal with free universe");
  ExpectCountsMatch({{0, 1, 2}}, 3, "single clause");
  ExpectCountsMatch({{0, 2}, {1}}, 4, "two clauses");
}

TEST(CircuitTest, CountsMatchEnumerationOnRandomDnfs) {
  uint64_t state = 12345;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int round = 0; round < 60; ++round) {
    int num_vars = 2 + static_cast<int>(next() % 9);  // 2..10
    int num_clauses = 1 + static_cast<int>(next() % 6);
    std::vector<std::vector<int>> clauses;
    for (int c = 0; c < num_clauses; ++c) {
      int len = 1 + static_cast<int>(next() % 4);
      std::vector<int> clause;
      for (int i = 0; i < len; ++i) {
        clause.push_back(static_cast<int>(next() % num_vars));
      }
      clauses.push_back(std::move(clause));
    }
    ExpectCountsMatch(clauses, num_vars,
                      "round " + std::to_string(round));
  }
}

TEST(CircuitTest, FormulaCacheSharesIndependentGroups) {
  // OR of independent blocks: branching stays in the first component, so
  // the trailing blocks compile once and are shared through the memo.
  std::vector<std::vector<int>> clauses = {
      {0, 1}, {1, 2}, {3, 4}, {4, 5}, {6, 7}, {7, 8}};
  StatusOr<LineageCircuit> circuit = CompileDnf(clauses, 9);
  ASSERT_TRUE(circuit.ok());
  EXPECT_GT(circuit->cache_hits, 0);
  ExpectCountsMatch(clauses, 9, "independent groups");
  // Sanity on size: additive in the blocks, far below the 2^9 table.
  EXPECT_LT(circuit->num_nodes(), 64);
}

TEST(CircuitTest, BudgetAborts) {
  CircuitBudget tiny;
  tiny.max_nodes = 2;  // just the constants
  StatusOr<LineageCircuit> circuit = CompileDnf({{0, 1}, {1, 2}}, 3, tiny);
  ASSERT_FALSE(circuit.ok());
  EXPECT_EQ(circuit.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(circuit.status().message().find("budget"), std::string::npos);

  CircuitBudget narrow;
  narrow.max_vars = 2;
  EXPECT_FALSE(CompileDnf({{0, 1}, {1, 2}}, 3, narrow).ok());

  CircuitBudget few_clauses;
  few_clauses.max_clauses = 1;
  EXPECT_FALSE(CompileDnf({{0, 1}, {1, 2}}, 3, few_clauses).ok());
}

TEST(LineageExtractionTest, MinimalSupportsPerAnswer) {
  // R(1) is an endogenous shortcut to the same answer that also flows
  // through the exogenous R(2): the minimal support keeps only {S(1)} for
  // the exogenous path... spelled out: answer 1 is alive via
  // (R(1), S(1)) and via (R(2) exogenous, S(1)) — the second support is
  // {S(1)} alone, which subsumes the first.
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(y), S(x)");
  Database db;
  FactId r1 = db.AddEndogenous("R", {Value(1)});
  db.AddExogenous("R", {Value(2)});
  FactId s1 = db.AddEndogenous("S", {Value(1)});
  (void)r1;
  LineageSet lineage = ExtractLineage(q, db);
  ASSERT_EQ(lineage.answers.size(), 1u);
  const AnswerLineage& answer = lineage.answers.front();
  ASSERT_EQ(answer.clauses.size(), 1u);
  ASSERT_EQ(answer.clauses.front().size(), 1u);
  EXPECT_EQ(lineage.players[static_cast<size_t>(
                answer.clauses.front().front())],
            s1);
}

// The differential workhorse: lineage-circuit == brute force, bit for
// bit, on every endogenous fact.
void ExpectMatchesBruteForce(const AggregateQuery& a, const Database& db,
                             const std::string& label) {
  ASSERT_LE(db.num_endogenous(), kBruteForceMaxPlayers) << label;
  for (ScoreKind kind : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
    auto brute = BruteForceScoreAll(a, db, Options(kind));
    ASSERT_TRUE(brute.ok()) << label;
    for (int threads : {1, 2, 8}) {
      auto circuit = LineageCircuitScoreAll(a, db, Options(kind, threads));
      ASSERT_TRUE(circuit.ok())
          << label << ": " << circuit.status().ToString();
      ASSERT_EQ(circuit->size(), brute->size()) << label;
      for (size_t i = 0; i < brute->size(); ++i) {
        EXPECT_EQ((*circuit)[i].first, (*brute)[i].first) << label;
        EXPECT_EQ((*circuit)[i].second, (*brute)[i].second)
            << label << " kind "
            << (kind == ScoreKind::kShapley ? "shapley" : "banzhaf")
            << " threads " << threads << " fact " << (*brute)[i].first;
      }
    }
    // The per-fact identity (ScoreViaSumK over the engine's series) agrees
    // with the batch.
    auto batch = LineageCircuitScoreAll(a, db, Options(kind, 1));
    ASSERT_TRUE(batch.ok()) << label;
    for (const auto& [fact, score] : *batch) {
      auto one =
          ScoreViaSumK(a, db, fact, LineageCircuitSumK, Options(kind));
      ASSERT_TRUE(one.ok()) << label;
      EXPECT_EQ(*one, score) << label << " fact " << fact;
    }
  }
}

TEST(LineageEngineTest, MatchesBruteForceOnNonHierarchicalWorkloads) {
  struct Case {
    std::string query;
    AggregateFunction alpha;
    ValueFunctionPtr tau;
    std::string label;
  };
  const std::vector<Case> cases = {
      {"Q() <- R(x), S(x, y), T(y)", AggregateFunction::Count(),
       MakeConstantTau(Rational(1)), "boolean membership count"},
      {"Q(z) <- R(z, x), S(x, y), T(y)", AggregateFunction::Sum(),
       MakeTauId(0), "chain sum tau_id"},
      {"Q(z) <- R(z, x), S(x, y), T(y)", AggregateFunction::Sum(),
       MakeTauReLU(0), "chain sum tau_relu"},
      {"Q(z) <- R(z, x), S(x, y), T(y)", AggregateFunction::Count(),
       MakeConstantTau(Rational(1)), "chain count"},
      {"Q(x) <- R(x, y), R(y, z)", AggregateFunction::Sum(), MakeTauId(0),
       "self-join sum"},
      {"Q(x) <- R(x, y), S(y)", AggregateFunction::Sum(), MakeTauId(0),
       "exists-hierarchical sum (agrees with the linearity engine too)"},
  };
  for (const Case& c : cases) {
    ConjunctiveQuery q = MustParseQuery(c.query);
    for (uint64_t seed : {1, 7, 23}) {
      RandomDatabaseOptions options;
      options.facts_per_relation = 5;
      options.endogenous_percent = 80;
      options.seed = seed;
      Database db = RandomDatabaseForQuery(q, options);
      if (db.num_endogenous() == 0 ||
          db.num_endogenous() > kBruteForceMaxPlayers) {
        continue;
      }
      AggregateQuery a{q, c.tau, c.alpha};
      ExpectMatchesBruteForce(
          a, db, c.label + " seed " + std::to_string(seed));
    }
  }
}

TEST(LineageEngineTest, SumKSeriesMatchesBruteForce) {
  ConjunctiveQuery q = MustParseQuery("Q(z) <- R(z, x), S(x, y), T(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 11;
  Database db = RandomDatabaseForQuery(q, options);
  ASSERT_GT(db.num_endogenous(), 0);
  ASSERT_LE(db.num_endogenous(), kBruteForceMaxPlayers);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
  auto brute = BruteForceSumK(a, db);
  ASSERT_TRUE(brute.ok());
  auto circuit = LineageCircuitSumK(a, db);
  ASSERT_TRUE(circuit.ok()) << circuit.status().ToString();
  ASSERT_EQ(circuit->size(), brute->size());
  for (size_t k = 0; k < brute->size(); ++k) {
    EXPECT_EQ((*circuit)[k], (*brute)[k]) << "k = " << k;
  }
}

// CountDistinct, Max and Min are weighted sums of group games (one per
// τ-value, one per threshold), so the engine serves them on any CQ and
// any τ: bitwise brute force on the FP#P-hard side of their frontiers,
// through score_all and sum_k.
TEST(LineageEngineTest, GroupGamesMatchBruteForcePastTheFrontier) {
  const std::vector<std::string> queries = {
      "Q(z) <- R(z, x), S(x, y), T(y)",  // not hierarchical
      "Q(x) <- R(x), S(x, y), T(y)",     // ∃- but not all-hierarchical
      "Q(x) <- R(x, y), R(y, z)",        // self-join
      "Q(x, z) <- R(x, y), R(y, z)",     // self-join, binary head
  };
  const std::vector<std::pair<ValueFunctionPtr, std::string>> taus = {
      {MakeTauId(0), "tau_id"},
      {MakeTauGreaterThan(0, Rational(2)), "tau_gt2"},
      {MakeTauReLU(0), "tau_relu"},
  };
  int checked = 0;
  for (const std::string& query : queries) {
    ConjunctiveQuery q = MustParseQuery(query);
    for (uint64_t seed : {3, 19}) {
      RandomDatabaseOptions options;
      options.facts_per_relation = 4;
      options.domain_size = 4;
      options.endogenous_percent = 80;
      options.seed = seed;
      Database db = RandomDatabaseForQuery(q, options);
      if (db.num_endogenous() == 0 || db.num_endogenous() > 12) continue;
      for (AggregateFunction alpha :
           {AggregateFunction::CountDistinct(), AggregateFunction::Max(),
            AggregateFunction::Min()}) {
        for (const auto& [tau, tau_name] : taus) {
          AggregateQuery a{q, tau, alpha};
          const std::string label = a.ToString() + " " + tau_name +
                                    " seed " + std::to_string(seed);
          ExpectMatchesBruteForce(a, db, label);
          auto brute = BruteForceSumK(a, db);
          auto circuit = LineageCircuitSumK(a, db);
          ASSERT_TRUE(brute.ok()) << label;
          ASSERT_TRUE(circuit.ok()) << label << ": "
                                    << circuit.status().ToString();
          EXPECT_EQ(*circuit, *brute) << label;
          ++checked;
        }
      }
    }
  }
  EXPECT_GE(checked, 36);
}

TEST(LineageEngineTest, SumKRespectsConfiguredLineageBudget) {
  // Regression: SolverOptions now flows through SumKEngine, so a
  // starved budget must make LineageCircuitSumK refuse — it used to
  // silently compile under the defaults.
  ConjunctiveQuery q = MustParseQuery("Q(z) <- R(z, x), S(x, y), T(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 4;
  options.seed = 11;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
  SolverOptions starved;
  starved.lineage.max_answer_vars = 1;
  auto refused = LineageCircuitSumK(a, db, starved);
  EXPECT_FALSE(refused.ok());
  auto defaulted = LineageCircuitSumK(a, db);
  ASSERT_TRUE(defaulted.ok()) << defaulted.status().ToString();
}

// BlockChainDatabase (workload/generators.h): per-answer lineage splits
// into 7-fact blocks behind the non-∃-hierarchical chain query, so brute
// force needs 2^(7·groups) subsets while the circuits stay tiny.

TEST(LineageEngineTest, ExactBeyondTheBruteForceHorizon) {
  ConjunctiveQuery q = MustParseQuery("Q(z) <- R(z, x), S(x, y), T(y)");
  Database db = BlockChainDatabase(6);  // 42 endogenous facts
  ASSERT_GT(db.num_endogenous(), kBruteForceMaxPlayers);
  EXPECT_FALSE(IsExistsHierarchical(q));
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
  SolverSession session(a, db);
  auto results = session.ComputeAll(Options(ScoreKind::kShapley, 0));
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  Rational total;
  for (const auto& [fact, result] : *results) {
    EXPECT_TRUE(result.is_exact);
    EXPECT_EQ(result.algorithm, "lineage-circuit");
    total += result.exact;
  }
  // Shapley efficiency: the scores partition A(D) − A(D_x) = A(D).
  EXPECT_EQ(total, a.Evaluate(db));
  // Thread-count invariance, bit for bit, past the horizon too.
  auto serial = session.ComputeAll(Options(ScoreKind::kShapley, 1));
  auto wide = session.ComputeAll(Options(ScoreKind::kShapley, 8));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(wide.ok());
  ASSERT_EQ(serial->size(), wide->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ((*serial)[i].second.exact, (*wide)[i].second.exact);
    EXPECT_EQ((*serial)[i].second.exact, (*results)[i].second.exact);
  }
}

TEST(LineageEngineTest, BudgetFallsThroughToMonteCarlo) {
  ConjunctiveQuery q = MustParseQuery("Q(z) <- R(z, x), S(x, y), T(y)");
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
  LineageStats::Global().Reset();

  // Past the horizon with a starved budget: the only remaining road is
  // Monte Carlo.
  Database big = BlockChainDatabase(6);
  SolverSession big_session(a, big);
  SolverOptions starved = Options(ScoreKind::kShapley, 2);
  starved.lineage.max_circuit_nodes = 2;
  starved.monte_carlo.num_samples = 64;
  auto sampled = big_session.ComputeAll(starved);
  ASSERT_TRUE(sampled.ok()) << sampled.status().ToString();
  for (const auto& [fact, result] : *sampled) {
    EXPECT_FALSE(result.is_exact);
    EXPECT_EQ(result.algorithm, "monte-carlo");
    EXPECT_EQ(result.samples, 64);
  }
  EXPECT_GT(LineageStats::Global().Snapshot().budget_fallbacks, 0u);

  // Within the horizon the same starved budget lands in brute force and
  // stays exact.
  Database small = BlockChainDatabase(2);  // 14 facts
  SolverSession small_session(a, small);
  auto brute = small_session.ComputeAll(starved);
  ASSERT_TRUE(brute.ok());
  for (const auto& [fact, result] : *brute) {
    EXPECT_TRUE(result.is_exact);
    EXPECT_EQ(result.algorithm, "brute-force");
  }
}

TEST(LineageEngineTest, RefusesNonLinearAggregates) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  Database db = BlockChainDatabase(1);
  AggregateQuery avg{q, MakeTauId(0), AggregateFunction::Avg()};
  EXPECT_FALSE(LineageCircuitScoreAll(avg, db, Options(ScoreKind::kShapley))
                   .ok());
}

TEST(LineagePlanTest, EngineChainAndFingerprints) {
  ConjunctiveQuery q = MustParseQuery("Q(z) <- R(z, x), S(x, y), T(y)");
  AggregateQuery sum{q, MakeTauId(0), AggregateFunction::Sum()};
  auto plan = AttributionPlan::Compile(sum);
  // The chain holds the linearity DP first and the circuit engine as the
  // exact backstop; Explain surfaces it with both entry points: the batch
  // (ComputeAll) and the series (ComputeSumKSeries).
  bool found = false;
  for (const EngineProvider* engine : plan->engines()) {
    if (engine->name == "lineage-circuit") {
      found = true;
      EXPECT_TRUE(engine->score_all != nullptr);
      EXPECT_TRUE(engine->sum_k != nullptr);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(plan->Explain().find("lineage-circuit  [batched, sum_k]"),
            std::string::npos)
      << plan->Explain();
  // The chain order puts the frontier DP ahead of the circuit backstop.
  ASSERT_FALSE(plan->engines().empty());
  EXPECT_EQ(plan->engines().front()->name, "sum-count/linearity");
  EXPECT_EQ(plan->engines().back()->name, "lineage-circuit");
  // Fingerprint sensitivity: the plans around the new engine chain stay
  // distinct per aggregate and score kind (cache keys never collide).
  AggregateQuery count{q, MakeTauId(0), AggregateFunction::Count()};
  EXPECT_NE(plan->fingerprint(),
            AttributionPlan::Compile(count)->fingerprint());
  EXPECT_NE(plan->fingerprint(),
            AttributionPlan::Compile(sum, ScoreKind::kBanzhaf)
                ->fingerprint());
  // Min is a weighted sum of threshold group games: its chain ends in the
  // circuit backstop behind the Min/Max DP. Avg is no such sum and never
  // gets the circuit engine.
  AggregateQuery min_a{q, MakeTauId(0), AggregateFunction::Min()};
  auto min_plan = AttributionPlan::Compile(min_a);
  ASSERT_FALSE(min_plan->engines().empty());
  EXPECT_EQ(min_plan->engines().front()->name, "min-max/all-hierarchical-dp");
  EXPECT_EQ(min_plan->engines().back()->name, "lineage-circuit");
  AggregateQuery avg_a{q, MakeTauId(0), AggregateFunction::Avg()};
  auto avg_plan = AttributionPlan::Compile(avg_a);
  for (const EngineProvider* engine : avg_plan->engines()) {
    EXPECT_NE(engine->name, "lineage-circuit");
  }
}

TEST(LineageStatsTest, CountersAccumulateAndReset) {
  LineageStats::Global().Reset();
  // A shape another test already solved would be served from the shared
  // CircuitCache without compiling anything; start cold.
  CircuitCache::Global().Clear();
  ConjunctiveQuery q = MustParseQuery("Q(z) <- R(z, x), S(x, y), T(y)");
  Database db = BlockChainDatabase(3);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
  auto scores = LineageCircuitScoreAll(a, db, Options(ScoreKind::kShapley));
  ASSERT_TRUE(scores.ok());
  LineageStatsSnapshot snapshot = LineageStats::Global().Snapshot();
  EXPECT_GT(snapshot.circuits_compiled, 0u);
  EXPECT_GT(snapshot.circuit_nodes, 0u);
  EXPECT_GE(snapshot.cache_lookups, snapshot.cache_hits);
  LineageStats::Global().Reset();
  EXPECT_EQ(LineageStats::Global().Snapshot().circuits_compiled, 0u);
}

}  // namespace
}  // namespace shapcq
