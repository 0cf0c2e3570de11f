// Cross-tenant circuit cache + artifact store benchmark.
//
// A fleet of tenants holding renamed copies of the same data (the
// SaaS-serving shape: one schema, per-tenant constants) runs a
// non-hierarchical query, so every exact answer goes through the
// lineage-circuit engine. Three measurements:
//
//   1. cross-tenant sharing — tenant 0 compiles, tenants 1..N-1 hit the
//      canonical-form cache (>0 hits is a hard gate);
//   2. artifact save/load — snapshot the warm cache to disk, drop it,
//      reload (timed, with bytes);
//   3. restart-to-first-answer — cold restart (empty caches, compile
//      everything) vs warm restart (artifact load + serve), both timed to
//      the first tenant's first answer and through the full sweep.
//
// Every path is checked bitwise-identical against an unshared baseline;
// the binary exits non-zero on a mismatch or zero cross-tenant hits.
//
// Usage: bench_artifact_cache [--smoke] [tenants] [facts_per_relation]
//                             [seed]
//   defaults: 32 tenants, 12 facts/relation; --smoke shrinks to CI sizes.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/engines/lineage_engine.h"
#include "shapcq/lineage/circuit_cache.h"
#include "shapcq/persist/artifact.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/rational.h"
#include "shapcq/workload/generators.h"

using namespace shapcq;  // NOLINT: benchmark brevity

namespace {

using Scores = std::vector<std::pair<FactId, Rational>>;

// Tenant t holds the base database with every integer constant shifted
// into a disjoint range: identical lineage shape, zero shared constants.
Database ShiftedCopy(const Database& base, int64_t shift) {
  Database copy;
  for (FactId id = 0; id < base.num_facts(); ++id) {
    const Fact& fact = base.fact(id);
    Tuple args;
    args.reserve(fact.args.size());
    for (const Value& v : fact.args) {
      args.push_back(v.kind() == Value::Kind::kInt ? Value(v.AsInt() + shift)
                                                   : v);
    }
    copy.AddFact(fact.relation, std::move(args), fact.endogenous);
  }
  return copy;
}

Scores MustScoreAll(const AggregateQuery& a, const Database& db,
                    bool share_circuits) {
  SolverOptions options;
  options.num_threads = 1;  // timing compilation, not pool scheduling
  options.lineage.share_circuits = share_circuits;
  auto scores = LineageCircuitScoreAll(a, db, options);
  if (!scores.ok()) {
    std::fprintf(stderr, "LineageCircuitScoreAll failed: %s\n",
                 scores.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(scores).value();
}

bool Identical(const Scores& a, const Scores& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first || a[i].second != b[i].second) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::ParseArgs(argc, argv);
  const int tenants = args.Int(0, args.smoke ? 8 : 32);
  const int facts_per_relation = args.Int(1, args.smoke ? 6 : 12);
  const uint64_t seed = static_cast<uint64_t>(args.Int64(2, 1));
  const std::string artifact_dir =
      "/tmp/shapcq_bench_artifacts_" + std::to_string(seed);

  // Non-hierarchical (the atoms of x and y overlap on R without
  // containment): the tractable DPs refuse it, so attribution runs on
  // compiled circuits — the state this cache and store exist for.
  ConjunctiveQuery q = MustParseQuery("Q() <- R(x, y), S(y), T(x)");
  AggregateQuery a{q, MakeConstantTau(Rational(1)), AggregateFunction::Count()};

  RandomDatabaseOptions db_options;
  db_options.facts_per_relation = facts_per_relation;
  db_options.endogenous_percent = 90;
  db_options.seed = seed;
  Database base = RandomDatabaseForQuery(q, db_options);

  std::vector<Database> fleet;
  fleet.reserve(static_cast<size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    fleet.push_back(ShiftedCopy(base, static_cast<int64_t>(t) * 1000000));
  }
  std::printf("artifact cache bench: %s\n", a.ToString().c_str());
  std::printf("tenants=%d facts/relation=%d endogenous/tenant=%d\n", tenants,
              facts_per_relation, base.num_endogenous());
  bench::Rule();

  // Unshared baseline: the bitwise oracle for every cached/persisted path.
  std::vector<Scores> baseline(static_cast<size_t>(tenants));
  for (int t = 0; t < tenants; ++t) {
    baseline[static_cast<size_t>(t)] =
        MustScoreAll(a, fleet[static_cast<size_t>(t)], false);
  }

  // --- Phase 1: cross-tenant sharing --------------------------------------
  CircuitCache::Global().Clear();
  bool identical = true;
  double first_tenant_ms = bench::TimeMs([&] {
    identical = Identical(MustScoreAll(a, fleet[0], true), baseline[0]);
  });
  CircuitCache::Stats after_first = CircuitCache::Global().stats();
  double rest_ms = bench::TimeMs([&] {
    for (int t = 1; t < tenants; ++t) {
      identical = Identical(MustScoreAll(a, fleet[static_cast<size_t>(t)],
                                         true),
                            baseline[static_cast<size_t>(t)]) &&
                  identical;
    }
  });
  CircuitCache::Stats shared = CircuitCache::Global().stats();
  const unsigned long long cross_tenant_hits = shared.hits;
  std::printf("tenant 0 (compiles) : %8.2f ms\n", first_tenant_ms);
  std::printf("tenants 1..%-3d      : %8.2f ms  (%.2f ms/tenant, "
              "%llu cache hits)\n",
              tenants - 1, rest_ms, rest_ms / (tenants > 1 ? tenants - 1 : 1),
              cross_tenant_hits);

  // --- Phase 2: artifact save/load ----------------------------------------
  ArtifactWriter writer(artifact_dir);
  StatusOr<ArtifactWriteStats> written = InvalidArgumentError("unset");
  double save_ms = bench::TimeMs([&] {
    written = writer.WriteCircuits(CircuitCache::Global().Snapshot());
  });
  if (!written.ok()) {
    std::fprintf(stderr, "WriteCircuits failed: %s\n",
                 written.status().ToString().c_str());
    return 1;
  }
  CircuitCache::Global().Clear();
  ArtifactReader reader(artifact_dir);
  StatusOr<ArtifactLoadStats> loaded = InvalidArgumentError("unset");
  double load_ms = bench::TimeMs([&] {
    loaded = reader.ReadCircuits(&CircuitCache::Global());
  });
  if (!loaded.ok() || !loaded->found || loaded->circuits == 0) {
    std::fprintf(stderr, "ReadCircuits failed or loaded nothing\n");
    return 1;
  }
  std::printf("artifact save       : %8.2f ms  (%llu circuits, %llu bytes)\n",
              save_ms, static_cast<unsigned long long>(written->circuits),
              static_cast<unsigned long long>(written->bytes));
  std::printf("artifact load       : %8.2f ms  (%llu circuits, %llu skipped)\n",
              load_ms, static_cast<unsigned long long>(loaded->circuits),
              static_cast<unsigned long long>(loaded->skipped));

  // --- Phase 3: restart-to-first-answer, cold vs warm ---------------------
  CircuitCache::Global().Clear();
  double cold_first_ms = bench::TimeMs([&] {
    identical = Identical(MustScoreAll(a, fleet[0], true), baseline[0]) &&
                identical;
  });
  double cold_sweep_ms = cold_first_ms + bench::TimeMs([&] {
    for (int t = 1; t < tenants; ++t) {
      MustScoreAll(a, fleet[static_cast<size_t>(t)], true);
    }
  });

  CircuitCache::Global().Clear();
  double warm_first_ms = bench::TimeMs([&] {
    StatusOr<ArtifactLoadStats> reloaded =
        reader.ReadCircuits(&CircuitCache::Global());
    if (!reloaded.ok()) std::exit(1);
    identical = Identical(MustScoreAll(a, fleet[0], true), baseline[0]) &&
                identical;
  });
  double warm_sweep_ms = warm_first_ms + bench::TimeMs([&] {
    for (int t = 1; t < tenants; ++t) {
      MustScoreAll(a, fleet[static_cast<size_t>(t)], true);
    }
  });
  double first_speedup =
      warm_first_ms > 0 ? cold_first_ms / warm_first_ms : 0.0;
  double sweep_speedup =
      warm_sweep_ms > 0 ? cold_sweep_ms / warm_sweep_ms : 0.0;
  bench::Rule();
  std::printf("restart to first answer: cold %8.2f ms   warm %8.2f ms "
              "(%.2fx)\n",
              cold_first_ms, warm_first_ms, first_speedup);
  std::printf("restart to full sweep  : cold %8.2f ms   warm %8.2f ms "
              "(%.2fx)\n",
              cold_sweep_ms, warm_sweep_ms, sweep_speedup);
  std::printf("cross-tenant hits: %llu   identical results: %s\n\n",
              cross_tenant_hits, identical ? "yes" : "NO — BUG");

  bench::JsonLine("artifact_cache")
      .Str("query", q.ToString())
      .Int("tenants", tenants)
      .Int("facts_per_relation", facts_per_relation)
      .Int("endogenous_per_tenant", base.num_endogenous())
      .Num("first_tenant_ms", first_tenant_ms)
      .Num("shared_rest_ms", rest_ms)
      .Int("cross_tenant_hits",
           static_cast<long long>(cross_tenant_hits))
      .Int("cache_inserts", static_cast<long long>(after_first.inserts))
      .Num("save_ms", save_ms)
      .Num("load_ms", load_ms)
      .Int("artifact_bytes", static_cast<long long>(written->bytes))
      .Int("circuits_persisted", static_cast<long long>(written->circuits))
      .Int("circuits_loaded", static_cast<long long>(loaded->circuits))
      .Num("cold_first_answer_ms", cold_first_ms)
      .Num("warm_first_answer_ms", warm_first_ms)
      .Num("first_answer_speedup", first_speedup)
      .Num("cold_sweep_ms", cold_sweep_ms)
      .Num("warm_sweep_ms", warm_sweep_ms)
      .Num("sweep_speedup", sweep_speedup)
      .Bool("identical", identical)
      .Int("peak_rss_bytes", static_cast<long long>(bench::PeakRssBytes()))
      .Emit();

  std::remove((artifact_dir + "/" + kCircuitArtifactFile).c_str());
  // A shared-shape fleet that never shares, or a cached path that changes
  // any bit of any score, is a regression this binary exists to catch.
  if (cross_tenant_hits == 0) {
    std::fprintf(stderr, "FAIL: zero cross-tenant cache hits\n");
    return 1;
  }
  return identical ? 0 : 1;
}
