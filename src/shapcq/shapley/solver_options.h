// Options shared by the solver façade, SolverSession, and the batched
// engine scorers.
//
// SolverOptions used to live in session.h, but the batched ScoreAllFn
// entry points (engine_registry.h) now receive the session's options so
// engines can parallelize internally (num_threads) without the registry
// depending on the session layer. This header is the dependency-free
// meeting point: engine_registry.h and session.h both include it.

#ifndef SHAPCQ_SHAPLEY_SOLVER_OPTIONS_H_
#define SHAPCQ_SHAPLEY_SOLVER_OPTIONS_H_

#include <atomic>
#include <cstdint>
#include <functional>

#include "shapcq/shapley/monte_carlo.h"
#include "shapcq/shapley/score.h"

namespace shapcq {

class TraceContext;  // obs/trace.h — forward-declared to stay dependency-free

enum class SolveMethod {
  kAuto,        // exact DP, else brute force (small), else Monte Carlo
  kExactOnly,   // exact DP or error
  kBruteForce,  // force subset enumeration
  kMonteCarlo,  // force sampling
};

// Per-request circuit-cache attribution sink (lineage/circuit_cache.h).
// The group driver shards groups over a thread pool, so a request that
// wants its own hit/miss split (the daemon's per-tenant metrics) passes a
// pointer here and the shards add into it with relaxed atomics.
struct CircuitCacheCounters {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
};

// Compilation budget of the group games' lineage circuits
// (shapley/linearity.h). Exceeding any limit fails the offending group
// with UNSUPPORTED: an engine with an exact DP (sum-count, min-max,
// count-distinct) falls back to it, and lineage-circuit fails so the
// session falls through to brute force (small instances) or Monte Carlo —
// approximate, but never wrong.
struct LineageOptions {
  // Maximum decision-DNNF nodes per group circuit.
  int64_t max_circuit_nodes = int64_t{1} << 17;
  // Maximum lineage variables (endogenous facts) per group.
  int max_answer_vars = 256;
  // Maximum DNF clauses (minimal supports) per group before compilation.
  int64_t max_answer_clauses = 8192;
  // Consult the process-wide cross-tenant CircuitCache for each group's
  // compiled circuit (scores are bitwise-identical either way; off means
  // every group compiles privately).
  bool share_circuits = true;
  // Optional per-request hit/miss sink; null means only the cache's own
  // global counters record the traffic. Borrowed, not owned.
  CircuitCacheCounters* cache_counters = nullptr;
};

struct SolverOptions {
  ScoreKind score = ScoreKind::kShapley;
  SolveMethod method = SolveMethod::kAuto;
  MonteCarloOptions monte_carlo;
  LineageOptions lineage;
  // Worker threads for the engine batches — the groups of the group driver
  // (linearity.h), the facts of the fact-level driver (score.h), the blocks
  // of the block sweeps — for the mask chunks of the brute-force sweep
  // (brute_force.h) and for the Monte Carlo sample blocks; < 1 means
  // hardware concurrency. Exact results are bitwise-identical regardless
  // of the thread count.
  int num_threads = 0;
  // Cooperative cancellation for serving deadlines (serve/server.h). When
  // set, the session polls it on the solving thread at coarse phase
  // boundaries — before every engine of the chain and before the
  // brute-force/Monte-Carlo fallback — and both batch drivers poll it from
  // their workers: the group driver (ScoreGroupsByLinearity, linearity.h)
  // before every group and the fact-level scorer (ScoreFactsByIdentity,
  // score.h) before every fact. So does the brute-force sweep
  // (brute_force.h) before every chunk of 2^8 masks, whichever way it is
  // reached (kBruteForce, kAuto's fallback, ComputeSumKSeries). The hook
  // must be thread-safe. A true return makes the call fail with
  // StatusCode::kDeadlineExceeded instead of starting the next phase; a
  // cancelled batch is abandoned whole (it never triggers an engine's
  // budget fallback), so results that do complete stay
  // bitwise-deterministic. The full-database DP run that precedes a
  // fact-level batch is not polled. Null means never cancelled.
  std::function<bool()> cancelled;
  // Optional per-request trace sink (obs/trace.h). Borrowed, not owned,
  // and NOT thread-safe: span sites record on the calling thread only —
  // batch workers record no spans, and ScoreAllViaSumK strips this pointer
  // from the options of the engine runs inside its workers — so tracing
  // can never race or perturb results. Null means no span collection (one
  // pointer test per site).
  TraceContext* trace = nullptr;
};

// True when options carry a cancellation hook and it reports expiry.
inline bool SolveCancelled(const SolverOptions& options) {
  return options.cancelled && options.cancelled();
}

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_SOLVER_OPTIONS_H_
