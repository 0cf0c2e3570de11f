// All-facts attribution throughput: the batched SolverSession::ComputeAll
// vs. a per-fact loop, on generated Sum, Max, Min, CountDistinct,
// HasDuplicates, Avg and Median workloads. The per-fact loop scores each
// fact alone with the engine its batched row names
// (tests/per_fact_reference.h: ScoreViaSumK over that engine's sum_k).
// Sum, Max, Min and CountDistinct batch through the group driver on
// lineage circuits (shapley/linearity.h) while the per-fact reference runs
// the frontier DP's sum_k, so this checks the circuits against the DPs.
// HasDuplicates, Avg and Median batch through their engines' block-local
// fact sweeps (each fact re-solves only its own top-level block next to
// the fold of the others), so this also checks those sweeps against the
// per-fact sum_k path. The HasDuplicates head repeats τ-values, so its
// scores are not all zero.
//
// This is the acceptance benchmark for the batched engine scorers:
// ComputeAll must produce bitwise-identical Rational scores while sharing
// the homomorphism enumeration, answer binding, relevance splits, anchor
// sets, and DP scaffolding across facts — and, since the ScoreAllFn
// signature carries SolverOptions, sharding internally over worker
// threads. One BENCH_JSON line per workload for the trajectory.
//
// Usage: bench_compute_all [--smoke] [facts_per_relation] [domain_size]
//                          [seed]
//   defaults: 200 50 1 for Sum (≈240 endogenous facts over R, S, T; the
//   unary relations cap at domain_size+1 distinct facts, so the domain
//   must grow with the requested fact count); the Max, Min, CountDistinct
//   and HasDuplicates workloads run at a quarter of the Sum size and Avg
//   and Median at a sixteenth (their DPs are heavier per fact). --smoke
//   shrinks to CI sizes.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/session.h"
#include "shapcq/shapley/solver.h"
#include "shapcq/workload/generators.h"
#include "tests/per_fact_reference.h"

using namespace shapcq;  // NOLINT: benchmark brevity

namespace {

// Runs one (aggregate, query, database) workload through the batched
// session and the per-fact loop; returns false on a value mismatch.
bool RunWorkload(const char* label, const AggregateQuery& a,
                 const Database& db) {
  ShapleySolver solver(a);
  const std::vector<FactId> facts = db.EndogenousFacts();
  const int n = static_cast<int>(facts.size());

  std::printf("%s: %s\n", label, a.ToString().c_str());
  std::printf("facts=%d endogenous=%d\n", db.num_facts(), n);
  bench::Rule();

  // Batched: one session, shared state, the engine's score_all underneath.
  // Pinned to one worker so the reported speedup is the algorithmic
  // sharing alone (comparable across machines); pass --threads through
  // shapcq_cli to see the additional thread-sharding win.
  SolverOptions one_thread;
  one_thread.num_threads = 1;
  std::vector<std::pair<FactId, SolveResult>> batched;
  bench::AllocDelta batched_alloc;
  double batched_ms = bench::TimeMs([&] {
    batched_alloc = bench::MeasureAlloc([&] {
      auto results = solver.ComputeAll(db, one_thread);
      if (!results.ok()) {
        std::fprintf(stderr, "ComputeAll failed: %s\n",
                     results.status().ToString().c_str());
        std::exit(1);
      }
      batched = std::move(results).value();
    });
  });
  std::printf("batched ComputeAll  : %10.1f ms  (%.1f facts/s)\n", batched_ms,
              1000.0 * n / batched_ms);

  // Per-fact: each fact scored alone by the engine its batched row names —
  // every fact rebuilds everything.
  std::vector<std::pair<FactId, SolveResult>> per_fact;
  per_fact.reserve(facts.size());
  double per_fact_ms = bench::TimeMs([&] {
    for (const auto& [fact, row] : batched) {
      auto result = PerFactReference(a, db, fact, row.algorithm, one_thread);
      if (!result.ok()) {
        std::fprintf(stderr, "per-fact %s failed: %s\n",
                     row.algorithm.c_str(),
                     result.status().ToString().c_str());
        std::exit(1);
      }
      per_fact.emplace_back(fact, std::move(result).value());
    }
  });
  std::printf("per-fact reference  : %10.1f ms  (%.1f facts/s)\n", per_fact_ms,
              1000.0 * n / per_fact_ms);

  // Bitwise equality of the exact rational scores.
  bool identical = batched.size() == per_fact.size();
  for (size_t i = 0; identical && i < batched.size(); ++i) {
    identical = batched[i].first == per_fact[i].first &&
                batched[i].second.is_exact && per_fact[i].second.is_exact &&
                batched[i].second.exact == per_fact[i].second.exact;
  }
  int nonzero = 0;
  for (const auto& [fact, result] : batched) {
    nonzero += result.is_exact && !result.exact.is_zero();
  }
  double speedup = batched_ms > 0 ? per_fact_ms / batched_ms : 0.0;
  bench::Rule();
  std::printf("nonzero scores: %d of %d\n", nonzero, n);
  std::printf("speedup: %.2fx   identical results: %s\n\n", speedup,
              identical ? "yes" : "NO — BUG");
  bench::JsonLine("compute_all")
      .Str("query", a.query.ToString())
      .Str("agg", a.alpha.ToString())
      .Int("facts", db.num_facts())
      .Int("endogenous", n)
      .Int("batched_threads", 1)
      .Num("per_fact_ms", per_fact_ms)
      .Num("batched_ms", batched_ms)
      .Num("per_fact_facts_per_sec", 1000.0 * n / per_fact_ms)
      .Num("batched_facts_per_sec", 1000.0 * n / batched_ms)
      .Num("speedup", speedup)
      .Bool("identical", identical)
      .Int("nonzero_scores", nonzero)
      .Int("batched_alloc_bytes", static_cast<long long>(batched_alloc.bytes))
      .Int("batched_alloc_calls", static_cast<long long>(batched_alloc.calls))
      .Int("peak_rss_bytes", static_cast<long long>(bench::PeakRssBytes()))
      .Emit();
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::ParseArgs(argc, argv);
  int facts_per_relation = args.Int(0, args.smoke ? 24 : 200);
  int domain_size = args.Int(1, args.smoke ? 8 : 50);
  uint64_t seed = static_cast<uint64_t>(args.Int64(2, 1));

  const int quarter =
      facts_per_relation >= 4 ? facts_per_relation / 4 : facts_per_relation;
  bool ok = true;

  {
    // ∃-hierarchical (not all-hierarchical): the Sum frontier's home turf.
    ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x), S(x, y), T(y)");
    RandomDatabaseOptions options;
    options.facts_per_relation = facts_per_relation;
    options.domain_size = domain_size;
    options.endogenous_percent = 80;
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
    ok = RunWorkload("compute-all throughput (Sum)", a, db) && ok;
  }

  {
    // All-hierarchical with a localized τ: the threshold group games. A
    // quarter of the Sum size — each per-fact step runs the Min/Max DP
    // twice over the whole database.
    ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
    RandomDatabaseOptions options;
    options.facts_per_relation = quarter;
    options.domain_size = domain_size;
    options.endogenous_percent = 80;
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery a{q, MakeTauId(0), AggregateFunction::Max()};
    ok = RunWorkload("compute-all throughput (Max)", a, db) && ok;
  }

  {
    // The mirror image of Max: descending thresholds, negative steps.
    ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
    RandomDatabaseOptions options;
    options.facts_per_relation = quarter;
    options.domain_size = domain_size;
    options.endogenous_percent = 80;
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery a{q, MakeTauId(0), AggregateFunction::Min()};
    ok = RunWorkload("compute-all throughput (Min)", a, db) && ok;
  }

  {
    // All-hierarchical, localized τ: the Boolean reduction per τ-value.
    ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
    RandomDatabaseOptions options;
    options.facts_per_relation = quarter;
    options.domain_size = domain_size;
    options.endogenous_percent = 80;
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery a{q, MakeTauId(0), AggregateFunction::CountDistinct()};
    ok = RunWorkload("compute-all throughput (CountDistinct)", a, db) && ok;
  }

  {
    // sq-hierarchical: the has-duplicates DP. Answers (x, y) sharing x
    // share τ = x; a domain of a third of the R facts makes x repeat, so
    // duplicates form and the scores are not all zero.
    ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(x)");
    RandomDatabaseOptions options;
    options.facts_per_relation = quarter;
    options.domain_size = std::max(3, quarter / 3);
    options.endogenous_percent = 80;
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery a{q, MakeTauId(0), AggregateFunction::HasDuplicates()};
    ok = RunWorkload("compute-all throughput (HasDuplicates)", a, db) && ok;
  }

  {
    // q-hierarchical: the quintuple DP, the heaviest per fact.
    ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(x)");
    RandomDatabaseOptions options;
    options.facts_per_relation =
        facts_per_relation >= 64 ? facts_per_relation / 16 : 4;
    options.domain_size = domain_size;
    options.endogenous_percent = 80;
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery a{q, MakeTauId(0), AggregateFunction::Avg()};
    ok = RunWorkload("compute-all throughput (Avg)", a, db) && ok;
  }

  {
    // q-hierarchical Qnt_1/2: one block per y, τ on the inner root x.
    ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
    RandomDatabaseOptions options;
    options.facts_per_relation =
        facts_per_relation >= 64 ? facts_per_relation / 16 : 4;
    options.domain_size = domain_size;
    options.endogenous_percent = 80;
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    AggregateQuery a{q, MakeTauId(0), AggregateFunction::Median()};
    ok = RunWorkload("compute-all throughput (Median)", a, db) && ok;
  }

  return ok ? 0 : 1;
}
