// Compiled attribution plans: the database-independent layer of a solve.
//
// The paper's dichotomies (Figure 1; Theorems 4.1, 5.1, 6.1) are properties
// of the query alone — classification, frontier verdict, and engine choice
// never look at the database. An AttributionPlan captures that layer once
// per aggregate query:
//
//   * the canonical fingerprint (PlanFingerprint below),
//   * the hierarchy class and tractability-frontier verdict,
//   * the ordered engine-provider chain from the EngineRegistry,
//   * the query-side structural analysis the engines re-derive today
//     (τ localization atoms, root variables, connected components,
//     self-join flag),
//
// and a SolverSession (session.h) binds the plan to a Database to execute.
// Plans are immutable and shared via shared_ptr, so a serving loop that
// answers the same query against thousands of per-tenant databases compiles
// once and executes many times.
//
// PlanCache is the thread-safe fingerprint-keyed cache behind
// ShapleySolver, the CLI, and the serving benchmark. The fingerprint is
// variable-renaming-invariant and sensitive to constants, atom structure,
// the aggregate α (including quantile parameters), τ (via
// ValueFunction::FingerprintToken — opaque callbacks never share plans),
// and the score kind; see CanonicalQueryKey (query/cq.h) for the query
// part. Concurrent GetOrCompile calls are safe: compilation runs outside
// the cache lock and the first inserted plan wins, so every caller of one
// fingerprint observes the same plan object. Engines registered with
// EngineRegistry::Global() after a plan was compiled are not retrofitted
// into it; call Clear() to recompile against the grown registry.

#ifndef SHAPCQ_SHAPLEY_PLAN_H_
#define SHAPCQ_SHAPLEY_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/util/status.h"

namespace shapcq {

// Canonical fingerprint of (A, score): equal fingerprints mean the compiled
// plans are interchangeable. Format (human-readable by design):
//   Q<canonical query key>|alpha=<α>|tau=<τ token>|score=<shapley|banzhaf>
std::string PlanFingerprint(const AggregateQuery& a, ScoreKind score);

// "shapley" / "banzhaf".
const char* ScoreKindName(ScoreKind score);

// The user-visible frontier verdict, shared by Explain() and the CLI:
// "inside (PTIME for every localized tau)" / "outside (...)".
const char* FrontierVerdictName(bool inside_frontier);

class AttributionPlan {
 public:
  // Compiles the database-independent layer. Never fails: a query no exact
  // engine supports still compiles (empty chain; execution falls back to
  // brute force / Monte Carlo), and a query ValidateAggregateQuery refuses
  // compiles to an invalid plan that keeps the refusal in status().
  static std::shared_ptr<const AttributionPlan> Compile(
      AggregateQuery a, ScoreKind score = ScoreKind::kShapley);

  const AggregateQuery& aggregate_query() const { return a_; }
  // The score kind the plan was keyed under. Purely a cache discriminator
  // today (every engine chain serves both kinds; options.score selects at
  // execution time), kept in the fingerprint so kind-specific chains can
  // diverge later without invalidating cached plans.
  ScoreKind score_kind() const { return score_; }
  const std::string& fingerprint() const { return fingerprint_; }
  // OK, or the INVALID_ARGUMENT of ValidateAggregateQuery; an invalid plan
  // has no engines and no τ analysis, and sessions refuse to execute it.
  const Status& status() const { return status_; }

  // Hierarchy class of the query (Figure 1).
  HierarchyClass classification() const { return classification_; }
  // Whether the query lies inside the aggregate's tractability frontier.
  bool inside_frontier() const { return inside_frontier_; }
  bool has_self_join() const { return has_self_join_; }

  // Applicable engine providers, in preference order. Pointers stay valid
  // for the registry's lifetime.
  const std::vector<const EngineProvider*>& engines() const {
    return engines_;
  }
  // Name of the exact engine tried first, if any.
  StatusOr<std::string> ExactAlgorithmName() const;

  // Indices of the atoms τ is localized on (agg/value_function.h); empty
  // means τ is not localized and only the linearity/brute-force paths can
  // apply.
  const std::vector<int>& localization_atoms() const {
    return localization_atoms_;
  }
  // Variables occurring in every atom (the DP recursion roots).
  const std::vector<std::string>& root_variables() const {
    return root_variables_;
  }
  // Atom indices grouped into connected components of the join graph.
  const std::vector<std::vector<int>>& connected_components() const {
    return connected_components_;
  }

  // Human-readable rendering: fingerprint, hierarchy class, frontier
  // verdict, structural analysis, and the engine chain with each
  // provider's entry points (batched / per-fact / sum_k).
  std::string Explain() const;

 private:
  friend class PlanCache;  // reuses its already-computed fingerprint

  AttributionPlan(AggregateQuery a, ScoreKind score)
      : a_(std::move(a)), score_(score) {}

  // Compile with the fingerprint precomputed by the caller, sparing the
  // second canonicalization pass on every cache miss.
  static std::shared_ptr<const AttributionPlan> CompileWithFingerprint(
      AggregateQuery a, ScoreKind score, std::string fingerprint);

  AggregateQuery a_;
  ScoreKind score_;
  std::string fingerprint_;
  Status status_;
  HierarchyClass classification_ = HierarchyClass::kGeneral;
  bool inside_frontier_ = false;
  bool has_self_join_ = false;
  std::vector<int> localization_atoms_;
  std::vector<std::string> root_variables_;
  std::vector<std::vector<int>> connected_components_;
  std::vector<const EngineProvider*> engines_;
};

// Thread-safe fingerprint-keyed plan cache, bounded by FIFO eviction so a
// serving workload whose queries embed per-request constants (distinct
// fingerprints forever) cannot grow it without limit. Evicted plans stay
// alive through any outstanding shared_ptrs.
class PlanCache {
 public:
  static constexpr size_t kDefaultMaxEntries = 1024;

  // The process-wide cache used by ShapleySolver, SolverSession's
  // (query, db) constructor, and the CLI.
  static PlanCache& Global();

  explicit PlanCache(size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  // The cached plan for PlanFingerprint(a, score), compiling on miss.
  // `cache_hit`, if non-null, receives whether the plan was reused. Safe to
  // call concurrently; a lost compile race still returns the winning plan
  // (and counts as a miss — the compile work happened). A τ without a
  // canonical fingerprint (opaque callbacks) compiles fresh and is never
  // inserted: its identity-based key could not be looked up again, and
  // per-request callback τs must not grow the cache without bound.
  std::shared_ptr<const AttributionPlan> GetOrCompile(
      const AggregateQuery& a, ScoreKind score = ScoreKind::kShapley,
      bool* cache_hit = nullptr);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t entries = 0;
    uint64_t evictions = 0;
  };
  Stats stats() const;

  // The cached plans in insertion (FIFO) order — the order eviction would
  // drop them, so a bounded persistence pass that writes front-to-back and
  // truncates keeps the entries that would survive longest. Snapshot, not a
  // view: concurrent GetOrCompile/Clear calls do not invalidate the result.
  std::vector<std::shared_ptr<const AttributionPlan>> Snapshot() const;

  // Drops every cached plan and resets the counters. Outstanding
  // shared_ptrs keep their plans alive.
  void Clear();

 private:
  const size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const AttributionPlan>>
      plans_;
  // Insertion order of the fingerprints in plans_, the FIFO eviction queue.
  std::deque<std::string> insertion_order_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_PLAN_H_
