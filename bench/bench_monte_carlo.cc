// Experiment E6: Monte Carlo approximation quality vs sample count on a
// query OUTSIDE the tractable frontier (Avg ∘ τ_ReLU ∘ Q_xyy), where
// sampling is the only scalable option. The exact reference value comes
// from brute force on a 16-player instance.
//
// A second, batched row times SolverSession::ComputeAll on the sampled
// request of perfbench's engine-mix workload: Avg ∘ τ_id ∘ Q_xyy over 37
// players (xyy_db's layout), 400 samples, Shapley and Banzhaf. Every fact
// is scored from one sampling run, so it reports ComputeAll milliseconds
// and fact-samples per second. The row runs under --smoke too, and the
// binary exits 1 if it did not score every fact.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/monte_carlo.h"
#include "shapcq/shapley/session.h"

using namespace shapcq;  // NOLINT

namespace {

// perfbench's xyy_db(players) layout for Q(x) <- R(x, y), S(y): a third of
// the players are S(y) facts and each x joins about three y's.
Database XyyDatabase(int players) {
  const int ny = std::max(2, players / 3);
  const int nr = players - ny;
  const int nx = std::max(2, nr / 3);
  Database db;
  for (int i = 0; i < nr; ++i) {
    const int x = i % nx;
    const int y = (i / nx + 2 * x) % ny;
    db.AddEndogenous("R", {Value(1000 + x), Value(2000 + y)});
  }
  for (int y = 0; y < ny; ++y) db.AddEndogenous("S", {Value(2000 + y)});
  return db;
}

// Times ComputeAll (method mc) over a fresh session per repetition, so
// the sampling structure's construction is included. Returns false when
// some fact was not scored by the sampler.
bool BatchedRow(ScoreKind score, int reps) {
  const int players = 37;
  const int64_t samples = 400;
  Database db = XyyDatabase(players);
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Avg()};
  SolverOptions options;
  options.score = score;
  options.method = SolveMethod::kMonteCarlo;
  options.monte_carlo.num_samples = samples;
  options.num_threads = 1;
  std::vector<double> times;
  bool complete = true;
  for (int rep = 0; rep < reps; ++rep) {
    SolverSession session(a, db);
    StatusOr<std::vector<std::pair<FactId, SolveResult>>> results =
        UnsupportedError("not run");
    times.push_back(
        bench::TimeMs([&] { results = session.ComputeAll(options); }));
    if (!results.ok() || static_cast<int>(results->size()) != players) {
      complete = false;
      continue;
    }
    for (const auto& [fact, result] : *results) {
      complete = complete && result.samples == samples &&
                 result.algorithm == "monte-carlo";
    }
  }
  std::sort(times.begin(), times.end());
  const double ms = times[times.size() / 2];
  const double fact_samples_per_s =
      static_cast<double>(players) * static_cast<double>(samples) /
      (ms / 1e3);
  std::printf("%-8s %3d players %4lld samples %9.3f ms %12.0f "
              "fact-samples/s\n",
              ScoreKindName(score), players, static_cast<long long>(samples),
              ms, fact_samples_per_s);
  bench::JsonLine("monte_carlo_batched")
      .Str("score", ScoreKindName(score))
      .Int("players", players)
      .Int("samples", static_cast<long long>(samples))
      .Int("reps", reps)
      .Num("compute_all_ms", ms)
      .Num("fact_samples_per_s", fact_samples_per_s)
      .Bool("complete", complete)
      .Emit();
  return complete;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::ParseArgs(argc, argv);
  std::printf("E6: Monte Carlo error vs samples (Avg ∘ tau_ReLU ∘ Q_xyy, "
              "outside the frontier)\n");
  bench::Rule('=');
  const int n = args.smoke ? 8 : 12;
  const int groups = args.smoke ? 3 : 4;
  Database db;
  for (int i = 0; i < n; ++i) {
    db.AddEndogenous("R", {Value(i % 7 - 2), Value(i % groups)});
  }
  for (int g = 0; g < groups; ++g) db.AddEndogenous("S", {Value(g)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  AggregateQuery a{q, MakeTauReLU(0), AggregateFunction::Avg()};
  FactId probe = db.EndogenousFacts().front();
  double exact = BruteForceScore(a, db, probe)->ToDouble();
  std::printf("players = %d, exact Shapley(f) = %.6f\n\n",
              db.num_endogenous(), exact);
  std::printf("%10s %12s %12s %12s %10s\n", "samples", "estimate",
              "abs_error", "std_error", "time_ms");
  bench::Rule();
  const std::vector<int64_t> sample_counts =
      args.smoke ? std::vector<int64_t>{100, 400}
                 : std::vector<int64_t>{100, 400, 1600, 6400, 25600, 102400};
  for (int64_t samples : sample_counts) {
    MonteCarloOptions options;
    options.num_samples = samples;
    options.seed = 12345;
    MonteCarloResult result;
    double ms = bench::TimeMs([&] {
      result = *MonteCarloShapley(a, db, probe, options);
    });
    std::printf("%10lld %12.6f %12.6f %12.6f %10.2f\n",
                static_cast<long long>(samples), result.estimate,
                std::abs(result.estimate - exact), result.std_error, ms);
    bench::JsonLine("monte_carlo")
        .Int("samples", static_cast<long long>(samples))
        .Int("players", db.num_endogenous())
        .Num("estimate", result.estimate)
        .Num("abs_error", std::abs(result.estimate - exact))
        .Num("std_error", result.std_error)
        .Num("ms", ms)
        .Emit();
  }
  bench::Rule();
  std::printf("Hoeffding sample bounds for range 1: eps=0.05,d=0.05 -> %lld;"
              " eps=0.01,d=0.01 -> %lld\n",
              static_cast<long long>(HoeffdingSampleCount(1.0, 0.05, 0.05)),
              static_cast<long long>(HoeffdingSampleCount(1.0, 0.01, 0.01)));
  bench::Rule('=');
  std::printf("E6 result: error decays ~1/sqrt(samples); the estimator is "
              "unbiased and its std_error tracks the true error.\n\n");
  std::printf("Batched: ComputeAll on engine-mix's sampled request "
              "(Avg o tau_id o Q_xyy, median of reps)\n");
  bench::Rule();
  const int reps = args.smoke ? 3 : 25;
  bool complete = true;
  for (ScoreKind score : {ScoreKind::kShapley, ScoreKind::kBanzhaf}) {
    complete = BatchedRow(score, reps) && complete;
  }
  bench::Rule('=');
  if (!complete) {
    std::printf("FAIL: the batched row did not score every fact\n");
    return 1;
  }
  return 0;
}
