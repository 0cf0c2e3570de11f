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
// The lineage engine shards answers over a thread pool, so a request that
// wants its own hit/miss split (the daemon's per-tenant metrics) passes a
// pointer here and the shards add into it with relaxed atomics.
struct CircuitCacheCounters {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
};

// Compilation budget of the lineage-circuit engine (lineage/engine.h).
// Exceeding any limit makes the engine fail with UNSUPPORTED for the
// offending computation, and the session falls through to brute force
// (small instances) or Monte Carlo — approximate, but never wrong.
struct LineageOptions {
  // Maximum decision-DNNF nodes per answer circuit.
  int64_t max_circuit_nodes = int64_t{1} << 17;
  // Maximum lineage variables (endogenous facts) per answer.
  int max_answer_vars = 256;
  // Maximum DNF clauses (homomorphisms) per answer before compilation.
  int64_t max_answer_clauses = 8192;
  // Consult the process-wide cross-tenant CircuitCache for each answer's
  // compiled circuit (scores are bitwise-identical either way; off means
  // every answer compiles privately).
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
  // Worker threads for batched computations: the per-fact fan-out in
  // ComputeAll and the internal sharding of the batched engine scorers
  // (ScoreAllFn); < 1 means hardware concurrency. Exact results are
  // bitwise-identical regardless of the thread count.
  int num_threads = 0;
  // Cooperative cancellation for serving deadlines (serve/server.h). When
  // set, the session polls it on the solving thread at coarse phase
  // boundaries — before the exact sweep, between engines, and before the
  // brute-force/Monte-Carlo fallback — and the fact-level batch scorer
  // (ScoreFactsByIdentity, score.h) polls it from its workers before every
  // fact, so the hook must be thread-safe. A true return makes the call
  // fail with StatusCode::kDeadlineExceeded instead of starting the next
  // phase; a cancelled batch is abandoned whole, so results that do
  // complete stay bitwise-deterministic. Other batches (per-answer
  // linearity, lineage circuits) run to completion. Null means never
  // cancelled.
  std::function<bool()> cancelled;
  // Optional per-request trace sink (obs/trace.h). Borrowed, not owned,
  // and NOT thread-safe: span sites record on the calling thread only —
  // the session strips this pointer from the option copies it hands to
  // per-fact ParallelFor shards, so tracing can never race or perturb
  // results. Null means no span collection (one pointer test per site).
  TraceContext* trace = nullptr;
};

// True when options carry a cancellation hook and it reports expiry.
inline bool SolveCancelled(const SolverOptions& options) {
  return options.cancelled && options.cancelled();
}

}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_SOLVER_OPTIONS_H_
