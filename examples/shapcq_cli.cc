// shapcq_cli: command-line Shapley attribution over CSV data.
//
// Usage:
//   shapcq_cli --query 'Q(p, s) <- Earns(p, s), Took(p, c)'
//              --agg avg --tau id:2
//              --endo Took=took.csv --exo Earns=earns.csv
//              [--score banzhaf] [--method auto|exact|brute|mc]
//              [--threads <n>]    (worker threads for the all-facts batch;
//                                  0 = hardware concurrency)
//              [--expected <p>]   (also print E[A] over the uniform
//                                  tuple-independent DB with probability p)
//              [--explain]        (print the compiled AttributionPlan:
//                                  canonical fingerprint, hierarchy class,
//                                  engine chain with batched-scorer
//                                  availability, PlanCache counters, and
//                                  lineage-circuit telemetry)
//              [--repeat <n>]     (serving loop: run the all-facts solve n
//                                  times, re-fetching the plan from the
//                                  PlanCache each round to exercise the
//                                  warm path; prints the initial plan
//                                  compile/fetch time and the average warm
//                                  round)
//
// Aggregates: sum count cdist min max avg median qnt:<a>/<b> dup
// Value functions: id:<i>  relu:<i>  gt:<i>:<b>  const:<c>   (i is 1-based)
//                  plus:<i>,<j>,...  maxof:<i>,...  minof:<i>,...
//
// Prints the classification of the query, the tractability verdict, the
// attribution of every endogenous fact, and a plan-provenance footer.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/spec.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/csv.h"
#include "shapcq/data/database.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/lineage/stats.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/shapley/report.h"
#include "shapcq/shapley/session.h"
#include "shapcq/shapley/solver.h"

using namespace shapcq;  // NOLINT: example brevity

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "shapcq_cli: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string query_text;
  std::string agg_text = "sum";
  std::string tau_text = "const:1";
  std::string score_text = "shapley";
  std::string method_text = "auto";
  std::string expected_text;
  int threads = 0;
  bool explain = false;
  int repeat = 1;
  std::vector<std::pair<std::string, bool>> loads;  // "Rel=path", endogenous
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--query") {
      const char* v = next();
      if (v == nullptr) return Fail("--query needs a value");
      query_text = v;
    } else if (arg == "--agg") {
      const char* v = next();
      if (v == nullptr) return Fail("--agg needs a value");
      agg_text = v;
    } else if (arg == "--tau") {
      const char* v = next();
      if (v == nullptr) return Fail("--tau needs a value");
      tau_text = v;
    } else if (arg == "--endo" || arg == "--exo") {
      const char* v = next();
      if (v == nullptr) return Fail(arg + " needs Rel=path");
      loads.emplace_back(v, arg == "--endo");
    } else if (arg == "--score") {
      const char* v = next();
      if (v == nullptr) return Fail("--score needs a value");
      score_text = v;
    } else if (arg == "--method") {
      const char* v = next();
      if (v == nullptr) return Fail("--method needs a value");
      method_text = v;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return Fail("--threads needs a count");
      char* end = nullptr;
      long parsed = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || parsed < 0 || parsed > 4096) {
        return Fail("--threads needs a count in [0, 4096], got: " +
                    std::string(v));
      }
      threads = static_cast<int>(parsed);
    } else if (arg == "--expected") {
      const char* v = next();
      if (v == nullptr) return Fail("--expected needs a probability");
      expected_text = v;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--repeat") {
      const char* v = next();
      if (v == nullptr) return Fail("--repeat needs a count");
      char* end = nullptr;
      long parsed = std::strtol(v, &end, 10);
      if (end == v || *end != '\0' || parsed < 1 || parsed > 1000000) {
        return Fail("--repeat needs a count in [1, 1000000], got: " +
                    std::string(v));
      }
      repeat = static_cast<int>(parsed);
    } else {
      return Fail("unknown argument: " + arg);
    }
  }
  if (query_text.empty()) return Fail("--query is required");

  StatusOr<ConjunctiveQuery> query = ParseQuery(query_text);
  if (!query.ok()) return Fail(query.status().ToString());
  StatusOr<AggregateFunction> alpha = ParseAggregateSpec(agg_text);
  if (!alpha.ok()) return Fail(alpha.status().ToString());
  StatusOr<ValueFunctionPtr> tau = ParseTauSpec(tau_text);
  if (!tau.ok()) return Fail(tau.status().ToString());
  StatusOr<AggregateQuery> built = MakeAggregateQuery(*query, *tau, *alpha);
  if (!built.ok()) return Fail(built.status().ToString());
  const AggregateQuery& a = *built;

  Database db;
  for (const auto& [spec, endogenous] : loads) {
    size_t eq = spec.find('=');
    if (eq == std::string::npos) return Fail("expected Rel=path: " + spec);
    Status loaded = LoadCsvFileIntoDatabase(&db, spec.substr(0, eq),
                                            spec.substr(eq + 1), endogenous);
    if (!loaded.ok()) return Fail(loaded.ToString());
  }
  if (db.num_endogenous() == 0) return Fail("no endogenous facts loaded");

  SolverOptions options;
  if (score_text == "banzhaf") {
    options.score = ScoreKind::kBanzhaf;
  } else if (score_text != "shapley") {
    return Fail("unknown score: " + score_text);
  }
  std::map<std::string, SolveMethod> methods = {
      {"auto", SolveMethod::kAuto},
      {"exact", SolveMethod::kExactOnly},
      {"brute", SolveMethod::kBruteForce},
      {"mc", SolveMethod::kMonteCarlo},
  };
  auto method = methods.find(method_text);
  if (method == methods.end()) return Fail("unknown method: " + method_text);
  options.method = method->second;
  options.num_threads = threads;

  // The one plan acquisition of this process: timed, and its hit/miss is
  // what the provenance footer reports.
  bool cache_hit = false;
  auto plan_start = std::chrono::steady_clock::now();
  auto plan = PlanCache::Global().GetOrCompile(a, options.score, &cache_hit);
  double plan_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - plan_start)
                       .count();
  std::printf("aggregate query : %s\n", a.ToString().c_str());
  std::printf("query class     : %s\n",
              HierarchyClassName(plan->classification()));
  std::printf("frontier verdict: %s\n\n",
              FrontierVerdictName(plan->inside_frontier()));
  if (explain) {
    std::fputs(plan->Explain().c_str(), stdout);
    std::putchar('\n');
  }
  std::printf("A(D) = %s\n\n", a.Evaluate(db).ToString().c_str());

  ShapleySolver solver(a);
  if (!expected_text.empty()) {
    StatusOr<Rational> p = Rational::FromString(expected_text);
    if (!p.ok()) return Fail(p.status().ToString());
    if (*p < Rational(0) || *p > Rational(1)) {
      return Fail("--expected probability must be in [0, 1]");
    }
    auto series = solver.ComputeSumKSeries(db);
    if (!series.ok()) return Fail(series.status().ToString());
    Rational expected = ExpectedValueFromSumK(*series, *p);
    std::printf("E[A] over uniform TID with p = %s: %s (= %.6f)\n\n",
                p->ToString().c_str(), expected.ToString().c_str(),
                expected.ToDouble());
  }

  // The serving loop: every round re-fetches the plan from the cache
  // (warm — the compile above was this process's only miss) and binds a
  // fresh session, like one request in a compile-once/execute-many
  // deployment.
  StatusOr<std::vector<std::pair<FactId, SolveResult>>> results =
      UnsupportedError("no round ran");
  double rounds_ms = 0;
  for (int round = 0; round < repeat; ++round) {
    auto start = std::chrono::steady_clock::now();
    SolverSession session(
        PlanCache::Global().GetOrCompile(a, options.score), db);
    results = session.ComputeAll(options);
    rounds_ms += std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    if (!results.ok()) return Fail(results.status().ToString());
  }
  if (repeat > 1) {
    std::printf(
        "serving loop    : plan %s in %.3f ms; %d warm rounds, "
        "avg %.3f ms\n\n",
        cache_hit ? "cached" : "compiled", plan_ms, repeat,
        rounds_ms / repeat);
  }

  ReportOptions report;
  report.show_relation_totals = true;
  std::fputs(FormatAttributionReport(db, *results, report).c_str(), stdout);
  std::printf("\n%s\n", SummarizeAttribution(db, *results).c_str());
  std::putchar('\n');
  // The footer gets the solve options (Monte Carlo seed for the CI line)
  // and the lineage-circuit telemetry accumulated by this process.
  LineageStatsSnapshot lineage = LineageStats::Global().Snapshot();
  std::fputs(
      FormatPlanProvenance(*plan, *results, cache_hit, &options, &lineage)
          .c_str(),
      stdout);
  if (explain) {
    PlanCache::Stats stats = PlanCache::Global().stats();
    std::printf("plan cache      : %llu hits, %llu misses, %llu plans\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.entries));
    std::printf(
        "lineage stats   : %llu circuits, %llu nodes, %llu/%llu compiler "
        "cache hits, %llu budget fallbacks\n",
        static_cast<unsigned long long>(lineage.circuits_compiled),
        static_cast<unsigned long long>(lineage.circuit_nodes),
        static_cast<unsigned long long>(lineage.cache_hits),
        static_cast<unsigned long long>(lineage.cache_lookups),
        static_cast<unsigned long long>(lineage.budget_fallbacks));
  }
  return 0;
}
