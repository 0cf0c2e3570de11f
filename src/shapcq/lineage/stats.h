// Process-wide lineage-circuit telemetry: the LineageStats counters and
// their plain snapshot.
//
// Split from engine.h so the circuit counter (shapley/linearity.h) and
// light consumers (the session's engine spans, report.h's provenance
// footer) can record and name these counters without pulling the whole
// engine — registry, providers — into every includer.

#ifndef SHAPCQ_LINEAGE_STATS_H_
#define SHAPCQ_LINEAGE_STATS_H_

#include <atomic>
#include <cstdint>

namespace shapcq {

class LineageCircuit;  // lineage/circuit.h

// Process-wide lineage telemetry (monotone counters; see
// LineageStats::Snapshot()). Surfaced by the CLI's --explain and the
// plan-provenance footer.
struct LineageStatsSnapshot {
  uint64_t circuits_compiled = 0;
  uint64_t circuit_nodes = 0;     // total nodes across compiled circuits
  uint64_t cache_lookups = 0;     // compiler formula-cache lookups
  uint64_t cache_hits = 0;        // ... of which hits
  uint64_t budget_fallbacks = 0;  // compilations aborted by the budget
};

// The process-wide counters behind LineageStatsSnapshot, updated with
// relaxed atomics — safe from sharded scorers.
class LineageStats {
 public:
  static LineageStats& Global();

  void RecordCircuit(const LineageCircuit& circuit);
  void RecordBudgetFallback();
  LineageStatsSnapshot Snapshot() const;
  void Reset();

 private:
  std::atomic<uint64_t> circuits_compiled_{0};
  std::atomic<uint64_t> circuit_nodes_{0};
  std::atomic<uint64_t> cache_lookups_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> budget_fallbacks_{0};
};

// Counter delta between two snapshots of the same monotone counters
// (`after` taken later than `before`): what one request / one replay pass
// contributed. Used by the replay harness and the daemon's per-interval
// reporting; the /metrics endpoint exports the raw cumulative counters.
inline LineageStatsSnapshot LineageStatsDelta(
    const LineageStatsSnapshot& after, const LineageStatsSnapshot& before) {
  LineageStatsSnapshot delta;
  delta.circuits_compiled = after.circuits_compiled - before.circuits_compiled;
  delta.circuit_nodes = after.circuit_nodes - before.circuit_nodes;
  delta.cache_lookups = after.cache_lookups - before.cache_lookups;
  delta.cache_hits = after.cache_hits - before.cache_hits;
  delta.budget_fallbacks = after.budget_fallbacks - before.budget_fallbacks;
  return delta;
}

}  // namespace shapcq

#endif  // SHAPCQ_LINEAGE_STATS_H_
