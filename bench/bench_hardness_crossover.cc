// Experiment E3: the dichotomy shape — exact cost inside vs outside the
// q-hierarchical frontier for Avg (Theorem 5.1).
//
// Inside:  Avg ∘ τ_id ∘ Q^full_xyy(x, y) <- R(x, y), S(y)   (q-hierarchical,
//          quintuple DP, polynomial).
// Outside: Avg ∘ τ_ReLU ∘ Q_xyy(x) <- R(x, y), S(y)          (all-hier but
//          not q-hier; the paper proves FP^#P-hardness, so the only exact
//          option is exponential subset enumeration).
//
// Identical databases, growing n. The table shows the polynomial engine
// pulling away from the exponential baseline — the "who wins and where"
// shape of the dichotomy.
//
// E3b extends the experiment to the lineage-circuit engine (PR 5): on the
// hard side of the Sum/Count frontier (a non-∃-hierarchical chain query,
// FP#P-hard in general) the circuit engine is exact at any player count
// the lineage structure affords — it matches brute force bitwise while it
// is feasible, then keeps going far past the 26-player horizon where the
// previous chain could only sample.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/engines/lineage_engine.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/avg_quantile.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/score.h"
#include "shapcq/shapley/session.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/workload/generators.h"

using namespace shapcq;  // NOLINT

namespace {

Database MakeDb(int n) {
  Database db;
  int groups = n / 4 + 1;
  for (int i = 0; i < n; ++i) {
    db.AddEndogenous("R", {Value((i / groups) % 5 - 2), Value(i % groups)});
  }
  for (int g = 0; g < groups; ++g) db.AddEndogenous("S", {Value(g)});
  return db;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::ParseArgs(argc, argv);
  std::printf("E3: exact cost inside vs outside the Avg frontier "
              "(Theorem 5.1)\n");
  bench::Rule('=');
  std::printf("%6s %10s %18s %22s\n", "n", "|D_n|", "inside: DP (ms)",
              "outside: brute force (ms)");
  bench::Rule();
  ConjunctiveQuery inside_q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  ConjunctiveQuery outside_q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  const std::vector<int> crossover_sizes =
      args.smoke ? std::vector<int>{6, 8}
                 : std::vector<int>{6, 8, 10, 12, 14, 16, 18};
  for (int n : crossover_sizes) {
    Database db = MakeDb(n);
    int players = db.num_endogenous();
    AggregateQuery inside{inside_q, MakeTauId(0), AggregateFunction::Avg()};
    AggregateQuery outside{outside_q, MakeTauReLU(0),
                           AggregateFunction::Avg()};
    FactId probe = db.EndogenousFacts().front();
    double dp_ms = bench::TimeMs([&] {
      auto r = ScoreViaSumK(inside, db, probe, AvgQuantileSumK);
      if (!r.ok()) std::abort();
    });
    double bf_ms = bench::TimeMs([&] {
      auto r = BruteForceScore(outside, db, probe);
      if (!r.ok()) std::abort();
    });
    std::printf("%6d %10d %18.2f %22.2f\n", n, players, dp_ms, bf_ms);
    bench::JsonLine("hardness_crossover")
        .Int("n", n)
        .Int("players", players)
        .Num("inside_dp_ms", dp_ms)
        .Num("outside_brute_force_ms", bf_ms)
        .Emit();
  }
  bench::Rule();
  // Beyond the brute-force horizon the DP keeps going.
  std::printf("beyond the brute-force horizon (DP only):\n");
  const std::vector<int> dp_sizes =
      args.smoke ? std::vector<int>{16} : std::vector<int>{32, 48, 64};
  for (int n : dp_sizes) {
    Database db = MakeDb(n);
    AggregateQuery inside{inside_q, MakeTauId(0), AggregateFunction::Avg()};
    FactId probe = db.EndogenousFacts().front();
    double dp_ms = bench::TimeMs([&] {
      auto r = ScoreViaSumK(inside, db, probe, AvgQuantileSumK);
      if (!r.ok()) std::abort();
    });
    std::printf("%6d %10d %18.2f %22s\n", n, db.num_endogenous(), dp_ms,
                "(2^n infeasible)");
    bench::JsonLine("hardness_crossover_dp_only")
        .Int("n", n)
        .Int("players", db.num_endogenous())
        .Num("inside_dp_ms", dp_ms)
        .Emit();
  }
  bench::Rule('=');
  std::printf("E3 result: brute force roughly doubles per +1 player "
              "(exponential); the q-hierarchical DP grows polynomially and "
              "continues far past the brute-force horizon.\n\n");

  // E3b: the lineage-circuit engine on the hard side of the Sum frontier.
  ConjunctiveQuery chain_q =
      MustParseQuery("Q(z) <- R(z, x), S(x, y), T(y)");
  AggregateQuery chain{chain_q, MakeTauId(0), AggregateFunction::Sum()};
  std::printf("E3b: exact Sum attribution OUTSIDE the frontier "
              "(lineage circuits vs brute force)\n");
  bench::Rule('=');
  std::printf("%8s %12s %16s %14s %10s\n", "players", "brute (ms)",
              "circuit (ms)", "nodes", "bitwise");
  bench::Rule();
  const std::vector<int> circuit_crossover =
      args.smoke ? std::vector<int>{2} : std::vector<int>{1, 2, 3};
  for (int groups : circuit_crossover) {
    Database db = BlockChainDatabase(groups);
    SolverOptions options;
    options.num_threads = 1;
    StatusOr<std::vector<std::pair<FactId, Rational>>> circuit =
        UnsupportedError("unset");
    bench::AllocDelta circuit_alloc;
    double circuit_ms = bench::TimeMs([&] {
      circuit_alloc = bench::MeasureAlloc(
          [&] { circuit = LineageCircuitScoreAll(chain, db, options); });
    });
    if (!circuit.ok()) std::abort();
    StatusOr<std::vector<std::pair<FactId, Rational>>> brute =
        UnsupportedError("unset");
    double brute_ms =
        bench::TimeMs([&] { brute = BruteForceScoreAll(chain, db); });
    if (!brute.ok()) std::abort();
    bool identical = circuit->size() == brute->size();
    for (size_t i = 0; identical && i < brute->size(); ++i) {
      identical = (*circuit)[i].first == (*brute)[i].first &&
                  (*circuit)[i].second == (*brute)[i].second;
    }
    if (!identical) std::abort();  // the engines must agree bit for bit
    LineageStatsSnapshot stats = LineageStats::Global().Snapshot();
    std::printf("%8d %12.2f %16.2f %14llu %10s\n", db.num_endogenous(),
                brute_ms, circuit_ms,
                static_cast<unsigned long long>(stats.circuit_nodes),
                "yes");
    bench::JsonLine("hardness_crossover_circuit")
        .Int("players", db.num_endogenous())
        .Num("brute_force_ms", brute_ms)
        .Num("circuit_ms", circuit_ms)
        .Int("circuit_nodes", static_cast<int64_t>(stats.circuit_nodes))
        .Bool("bitwise_identical", identical)
        .Int("circuit_alloc_bytes",
             static_cast<long long>(circuit_alloc.bytes))
        .Int("circuit_alloc_calls",
             static_cast<long long>(circuit_alloc.calls))
        .Emit();
    LineageStats::Global().Reset();
  }
  bench::Rule();
  std::printf("beyond the brute-force horizon (exact circuits; previously "
              "Monte Carlo only):\n");
  const std::vector<int> circuit_groups =
      args.smoke ? std::vector<int>{6} : std::vector<int>{6, 8, 10, 16};
  for (int groups : circuit_groups) {
    Database db = BlockChainDatabase(groups);
    SolverOptions options;
    SolverSession session(chain, db);
    StatusOr<std::vector<std::pair<FactId, SolveResult>>> results =
        UnsupportedError("unset");
    bench::AllocDelta exact_alloc;
    double exact_ms = bench::TimeMs([&] {
      exact_alloc = bench::MeasureAlloc(
          [&] { results = session.ComputeAll(options); });
    });
    if (!results.ok()) std::abort();
    int exact_facts = 0;
    for (const auto& [fact, result] : *results) {
      if (result.is_exact && result.algorithm == "lineage-circuit") {
        ++exact_facts;
      }
    }
    if (exact_facts != db.num_endogenous()) std::abort();
    // The old chain's only option at this size: sampling.
    SolverOptions mc;
    mc.method = SolveMethod::kMonteCarlo;
    mc.monte_carlo.num_samples = 1000;
    StatusOr<std::vector<std::pair<FactId, SolveResult>>> sampled =
        UnsupportedError("unset");
    double mc_ms = bench::TimeMs([&] { sampled = session.ComputeAll(mc); });
    if (!sampled.ok()) std::abort();
    LineageStatsSnapshot stats = LineageStats::Global().Snapshot();
    std::printf("%8d %12s %16.2f %14llu   (mc-1000: %.2f ms, inexact)\n",
                db.num_endogenous(), "(2^n infeasible)", exact_ms,
                static_cast<unsigned long long>(stats.circuit_nodes), mc_ms);
    bench::JsonLine("hardness_crossover_circuit_exact")
        .Int("players", db.num_endogenous())
        .Num("circuit_exact_ms", exact_ms)
        .Int("circuit_nodes", static_cast<int64_t>(stats.circuit_nodes))
        .Int("exact_facts", exact_facts)
        .Num("monte_carlo_1000_ms", mc_ms)
        .Int("circuit_alloc_bytes", static_cast<long long>(exact_alloc.bytes))
        .Int("circuit_alloc_calls", static_cast<long long>(exact_alloc.calls))
        .Int("peak_rss_bytes", static_cast<long long>(bench::PeakRssBytes()))
        .Emit();
    LineageStats::Global().Reset();
  }
  bench::Rule('=');
  std::printf("E3b result: the circuit engine matches brute force bitwise "
              "while 2^n is feasible, then stays exact far beyond it — "
              "cost tracks lineage structure, not player count.\n");
  return 0;
}
