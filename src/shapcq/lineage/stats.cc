#include "shapcq/lineage/stats.h"

#include "shapcq/lineage/circuit.h"

namespace shapcq {

LineageStats& LineageStats::Global() {
  static LineageStats* stats = new LineageStats();
  return *stats;
}

void LineageStats::RecordCircuit(const LineageCircuit& circuit) {
  circuits_compiled_.fetch_add(1, std::memory_order_relaxed);
  circuit_nodes_.fetch_add(static_cast<uint64_t>(circuit.num_nodes()),
                           std::memory_order_relaxed);
  cache_lookups_.fetch_add(static_cast<uint64_t>(circuit.cache_lookups),
                           std::memory_order_relaxed);
  cache_hits_.fetch_add(static_cast<uint64_t>(circuit.cache_hits),
                        std::memory_order_relaxed);
}

void LineageStats::RecordBudgetFallback() {
  budget_fallbacks_.fetch_add(1, std::memory_order_relaxed);
}

LineageStatsSnapshot LineageStats::Snapshot() const {
  LineageStatsSnapshot snapshot;
  snapshot.circuits_compiled =
      circuits_compiled_.load(std::memory_order_relaxed);
  snapshot.circuit_nodes = circuit_nodes_.load(std::memory_order_relaxed);
  snapshot.cache_lookups = cache_lookups_.load(std::memory_order_relaxed);
  snapshot.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  snapshot.budget_fallbacks =
      budget_fallbacks_.load(std::memory_order_relaxed);
  return snapshot;
}

void LineageStats::Reset() {
  circuits_compiled_.store(0, std::memory_order_relaxed);
  circuit_nodes_.store(0, std::memory_order_relaxed);
  cache_lookups_.store(0, std::memory_order_relaxed);
  cache_hits_.store(0, std::memory_order_relaxed);
  budget_fallbacks_.store(0, std::memory_order_relaxed);
}

}  // namespace shapcq
