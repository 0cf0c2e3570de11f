// Tests for the cross-tenant circuit cache (lineage/circuit_cache.h).
//
// The load-bearing property is bitwise safety: scores computed through a
// cached circuit must be identical — exact Rational equality, not epsilon —
// to scores computed with sharing disabled. Everything else (canonical
// form invariance, budget gating, FIFO bounds) supports that contract.

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/engines/lineage_engine.h"
#include "shapcq/lineage/circuit.h"
#include "shapcq/lineage/circuit_cache.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/rational.h"

namespace shapcq {
namespace {

// --- Canonical form --------------------------------------------------------

TEST(CanonicalizeClausesTest, InvariantUnderMonotoneRenaming) {
  // The same minimized formula under two monotone labellings: dense player
  // indices and (shifted, sparse) FactIds — labellings over players and
  // over a database's FactIds.
  std::vector<std::vector<int>> dense = {{0, 1}, {1, 2}, {0, 2}};
  std::vector<std::vector<int>> sparse = {{10, 17}, {17, 40}, {10, 40}};
  CanonicalClauseForm a = CanonicalizeClauses(dense);
  CanonicalClauseForm b = CanonicalizeClauses(sparse);
  EXPECT_EQ(a.clauses, b.clauses);
  EXPECT_EQ(a.num_vars, b.num_vars);
  EXPECT_EQ(CanonicalClauseHash(a.clauses), CanonicalClauseHash(b.clauses));
  // The remap tables translate canonical slots back to each caller's own
  // literals.
  ASSERT_EQ(a.to_input.size(), b.to_input.size());
  std::map<int, int> dense_to_sparse = {{0, 10}, {1, 17}, {2, 40}};
  for (size_t v = 0; v < a.to_input.size(); ++v) {
    EXPECT_EQ(dense_to_sparse[a.to_input[v]], b.to_input[v]);
  }
}

TEST(CanonicalizeClausesTest, CanonicalFormIsAFixpoint) {
  std::vector<std::vector<int>> minimized = {{7, 3}, {3, 9, 11}, {2}};
  // CanonicalizeClauses wants sorted-clause minimized input.
  MinimizeClauses(&minimized);
  CanonicalClauseForm once = CanonicalizeClauses(minimized);
  CanonicalClauseForm twice = CanonicalizeClauses(once.clauses);
  EXPECT_EQ(once.clauses, twice.clauses);
  EXPECT_EQ(once.num_vars, twice.num_vars);
  // Re-canonicalizing an already-canonical set is the identity relabelling.
  for (int v = 0; v < twice.num_vars; ++v) {
    EXPECT_EQ(twice.to_input[static_cast<size_t>(v)], v);
  }
}

TEST(CanonicalizeClausesTest, DistinctShapesStayDistinct) {
  CanonicalClauseForm chain = CanonicalizeClauses({{0, 1}, {1, 2}});
  CanonicalClauseForm star = CanonicalizeClauses({{0, 1}, {0, 2}});
  // A chain and a star on three variables are non-isomorphic formulas;
  // sharing between them would be unsound, so they must not collide.
  EXPECT_NE(chain.clauses, star.clauses);
}

// --- Differential: cached vs uncached scoring ------------------------------

Database TenantDatabase(int64_t shift) {
  Database db;
  auto v = [shift](int64_t x) { return Value(x + shift); };
  // Two x-groups sharing S facts: per-answer lineages with real structure.
  db.AddEndogenous("R", {v(1), v(10)});
  db.AddEndogenous("R", {v(1), v(11)});
  db.AddEndogenous("R", {v(2), v(10)});
  db.AddEndogenous("R", {v(2), v(12)});
  db.AddEndogenous("S", {v(10)});
  db.AddEndogenous("S", {v(11)});
  db.AddEndogenous("S", {v(12)});
  return db;
}

AggregateQuery TenantQuery() {
  return AggregateQuery{MustParseQuery("Q(x) <- R(x, y), S(y)"), MakeTauId(0),
                        AggregateFunction::Count()};
}

using Scores = std::vector<std::pair<FactId, Rational>>;

Scores MustScoreAll(const AggregateQuery& a, const Database& db,
                    bool share_circuits,
                    CircuitCacheCounters* counters = nullptr) {
  SolverOptions options;
  options.lineage.share_circuits = share_circuits;
  options.lineage.cache_counters = counters;
  StatusOr<Scores> scores = LineageCircuitScoreAll(a, db, options);
  EXPECT_TRUE(scores.ok()) << scores.status().ToString();
  return scores.ok() ? *scores : Scores{};
}

TEST(CircuitCacheTest, CachedScoresBitwiseIdenticalToUncached) {
  CircuitCache::Global().Clear();
  AggregateQuery a = TenantQuery();
  Database db = TenantDatabase(0);

  Scores baseline = MustScoreAll(a, db, /*share_circuits=*/false);
  ASSERT_FALSE(baseline.empty());

  // Cold pass populates the cache, warm pass is served from it; both must
  // match the share-disabled baseline exactly.
  Scores cold = MustScoreAll(a, db, /*share_circuits=*/true);
  CircuitCache::Stats after_cold = CircuitCache::Global().stats();
  EXPECT_GT(after_cold.inserts, 0u);
  Scores warm = MustScoreAll(a, db, /*share_circuits=*/true);
  CircuitCache::Stats after_warm = CircuitCache::Global().stats();
  EXPECT_GT(after_warm.hits, after_cold.hits);

  ASSERT_EQ(cold.size(), baseline.size());
  ASSERT_EQ(warm.size(), baseline.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(cold[i].first, baseline[i].first);
    EXPECT_EQ(cold[i].second, baseline[i].second);
    EXPECT_EQ(warm[i].first, baseline[i].first);
    EXPECT_EQ(warm[i].second, baseline[i].second);
  }
}

TEST(CircuitCacheTest, CrossTenantShiftedCopiesShareCircuits) {
  CircuitCache::Global().Clear();
  AggregateQuery a = TenantQuery();
  Database tenant_a = TenantDatabase(0);
  Database tenant_b = TenantDatabase(1000);  // same shape, disjoint constants

  MustScoreAll(a, tenant_a, /*share_circuits=*/true);
  CircuitCache::Stats after_a = CircuitCache::Global().stats();

  // Tenant B's lineages are a renaming of tenant A's: every circuit must
  // come from the cache, and the scores must still equal an unshared solve.
  CircuitCacheCounters counters;
  Scores shared = MustScoreAll(a, tenant_b, /*share_circuits=*/true,
                               &counters);
  CircuitCache::Stats after_b = CircuitCache::Global().stats();
  EXPECT_GT(after_b.hits, after_a.hits);
  EXPECT_EQ(after_b.inserts, after_a.inserts);  // nothing new to compile
  EXPECT_GT(counters.hits.load(), 0u);
  EXPECT_EQ(counters.misses.load(), 0u);

  Scores baseline = MustScoreAll(a, tenant_b, /*share_circuits=*/false);
  ASSERT_EQ(shared.size(), baseline.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(shared[i].first, baseline[i].first);
    EXPECT_EQ(shared[i].second, baseline[i].second);
  }
}

// --- Budget gating ---------------------------------------------------------

std::shared_ptr<CircuitCacheEntry> MakeEntry(
    std::vector<std::vector<int>> clauses) {
  MinimizeClauses(&clauses);
  CanonicalClauseForm canonical = CanonicalizeClauses(clauses);
  auto entry = std::make_shared<CircuitCacheEntry>();
  entry->clauses = canonical.clauses;
  entry->num_vars = canonical.num_vars;
  StatusOr<LineageCircuit> circuit =
      CompileDnf(entry->clauses, entry->num_vars);
  EXPECT_TRUE(circuit.ok());
  entry->circuit = std::move(*circuit);
  Combinatorics comb;
  entry->counts = CountModelsBySize(entry->circuit, &comb);
  return entry;
}

TEST(CircuitCacheTest, LookupEnforcesCallerBudget) {
  CircuitCache cache;
  auto entry = MakeEntry({{0, 1}, {1, 2}, {0, 2}});
  std::vector<std::vector<int>> key = entry->clauses;
  cache.Insert(std::move(entry));

  CircuitBudget roomy;
  EXPECT_NE(cache.Lookup(key, roomy), nullptr);

  // A caller whose budget the resident circuit exceeds must observe a miss
  // (its own compile would fail with UNSUPPORTED; serving the big circuit
  // would silently widen its budget).
  CircuitBudget tight_nodes;
  tight_nodes.max_nodes = 1;
  EXPECT_EQ(cache.Lookup(key, tight_nodes), nullptr);
  CircuitBudget tight_vars;
  tight_vars.max_vars = 2;
  EXPECT_EQ(cache.Lookup(key, tight_vars), nullptr);
  CircuitBudget tight_clauses;
  tight_clauses.max_clauses = 2;
  EXPECT_EQ(cache.Lookup(key, tight_clauses), nullptr);

  CircuitCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
}

// --- Bounds and eviction ---------------------------------------------------

TEST(CircuitCacheTest, FifoEvictionRespectsEntryBound) {
  CircuitCache cache(/*max_entries=*/2, CircuitCache::kDefaultMaxBytes);
  auto first = MakeEntry({{0}});
  auto second = MakeEntry({{0, 1}});
  auto third = MakeEntry({{0}, {1}});
  std::vector<std::vector<int>> first_key = first->clauses;
  std::vector<std::vector<int>> second_key = second->clauses;
  std::vector<std::vector<int>> third_key = third->clauses;
  cache.Insert(std::move(first));
  cache.Insert(std::move(second));
  cache.Insert(std::move(third));

  CircuitCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_GT(stats.bytes, 0u);

  // FIFO: the oldest entry went, the newer two stayed.
  CircuitBudget budget;
  EXPECT_EQ(cache.Lookup(first_key, budget), nullptr);
  EXPECT_NE(cache.Lookup(second_key, budget), nullptr);
  EXPECT_NE(cache.Lookup(third_key, budget), nullptr);
  EXPECT_EQ(cache.Snapshot().size(), 2u);
}

TEST(CircuitCacheTest, OversizedEntryIsReturnedButNotResident) {
  // A byte budget smaller than any entry: Insert hands the entry back to
  // the caller (who still needs its circuit) without evicting the world.
  CircuitCache cache(/*max_entries=*/8, /*max_bytes=*/1);
  auto entry = MakeEntry({{0, 1}});
  std::vector<std::vector<int>> key = entry->clauses;
  std::shared_ptr<const CircuitCacheEntry> returned =
      cache.Insert(std::move(entry));
  ASSERT_NE(returned, nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup(key, CircuitBudget{}), nullptr);
}

TEST(CircuitCacheTest, FirstInsertWins) {
  CircuitCache cache;
  auto first = MakeEntry({{0, 1}, {1, 2}});
  auto second = MakeEntry({{0, 1}, {1, 2}});
  std::shared_ptr<const CircuitCacheEntry> resident =
      cache.Insert(std::move(first));
  std::shared_ptr<const CircuitCacheEntry> duplicate =
      cache.Insert(std::move(second));
  // Concurrent compilers of one formula all converge on a single resident
  // entry; the duplicate is dropped.
  EXPECT_EQ(resident.get(), duplicate.get());
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
}

}  // namespace
}  // namespace shapcq
