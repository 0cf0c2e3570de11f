// Daemon telemetry and its Prometheus rendering.
//
// DaemonMetrics is the single sink every server thread writes into:
// atomic counters for request outcomes, gauges for queue/in-flight
// depth, lock-free latency histograms (util/histogram.h), and a small
// mutexed map counting solved facts per engine (the "engine mix" —
// which algorithm actually scored each fact). RenderPrometheus folds in
// the process-wide PlanCache and lineage counters and emits standard
// text exposition format: every series is documented in
// docs/METRICS.md.

#ifndef SHAPCQ_SERVE_METRICS_H_
#define SHAPCQ_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "shapcq/lineage/circuit_cache.h"
#include "shapcq/lineage/stats.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/util/histogram.h"

namespace shapcq {

class DaemonMetrics {
 public:
  // Request outcomes (one per solve request).
  std::atomic<uint64_t> requests_ok{0};
  std::atomic<uint64_t> requests_error{0};     // parse/build/solve errors
  std::atomic<uint64_t> requests_rejected{0};  // admission control
  std::atomic<uint64_t> requests_degraded{0};  // deadline -> Monte Carlo

  // Connection lifecycle.
  std::atomic<uint64_t> connections_opened{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> accept_errors{0};  // accept() failures (EMFILE...)

  std::atomic<uint64_t> journal_records{0};
  // Admitted requests whose journal append failed: they were served but
  // are missing from the journal, so replay is no longer a complete
  // trace. Nonzero here means the journal cannot prove parity.
  std::atomic<uint64_t> journal_errors{0};

  // Mutation path (insert_fact / delete_fact ops).
  std::atomic<uint64_t> mutations_insert{0};
  std::atomic<uint64_t> mutations_delete{0};
  std::atomic<uint64_t> mutation_errors{0};
  // Dirty-answer telemetry: the summed (and the latest) dirty-set size of
  // mutations that carried a "query" probe — how much recomputation each
  // delta implies versus a full answer-set sweep.
  std::atomic<uint64_t> dirty_answers_total{0};
  std::atomic<int64_t> dirty_answers_last{-1};
  std::atomic<uint64_t> compactions{0};

  // Compiled-artifact persistence (persist/artifact.h). Loads happen at
  // Start, saves at Stop and on SIGHUP; a load error means the server
  // degraded to cold compilation, never that it served from a corrupt
  // artifact.
  std::atomic<uint64_t> artifact_load_errors{0};
  std::atomic<uint64_t> artifact_save_errors{0};
  std::atomic<uint64_t> artifact_plans_loaded{0};
  std::atomic<uint64_t> artifact_circuits_loaded{0};
  std::atomic<uint64_t> artifact_entries_skipped{0};  // per-entry rejects
  std::atomic<uint64_t> artifact_bytes_loaded{0};
  std::atomic<uint64_t> artifact_bytes_persisted{0};
  std::atomic<uint64_t> artifact_snapshots{0};  // successful SaveArtifacts

  // Instantaneous depths (mirrors AdmissionController totals; kept as
  // gauges here so the metrics endpoint needs no lock ordering with the
  // admission mutex).
  std::atomic<int64_t> queue_depth{0};
  std::atomic<int64_t> in_flight{0};

  LatencyHistogram queue_wait;  // admission -> worker dequeue
  LatencyHistogram solve;       // ComputeAll wall time
  LatencyHistogram total;       // admission -> response written

  // Counts facts scored per engine name (SolveResult.algorithm).
  void CountEngineFacts(const std::string& engine, uint64_t facts);
  std::map<std::string, uint64_t> EngineMix() const;

  // --- Per-stage latency histograms (obs/trace.h span names) --------------
  //
  // Fed from completed request traces: one histogram per stage name
  // (queue_wait, plan, solve, engine:<name>, lineage_compile, ...). The
  // vocabulary is fixed by the span sites in the code, so cardinality is
  // bounded by construction. Rendered as shapcq_stage_seconds{stage=...}.
  void RecordStage(const std::string& stage, uint64_t micros);
  std::map<std::string, LatencyHistogram::Snapshot> StageMix() const;

  // --- Per-tenant series (bounded label cardinality) ----------------------
  //
  // The first kMaxTenantLabels distinct tenant names get their own label;
  // every later tenant folds into "__other__" (a literal "__other__"
  // tenant folds too — the fold slot is never addressable as a real
  // tenant, and it does not count toward the cap).
  static constexpr size_t kMaxTenantLabels = 32;

  struct TenantCounters {
    uint64_t ok = 0;
    uint64_t error = 0;
    uint64_t rejected = 0;
    int64_t queue_depth = 0;
    // Staleness gauges, updated on every mutation/solve touch:
    uint64_t epoch = 0;       // Database::epoch()
    uint64_t tombstones = 0;  // dead rows awaiting compaction
    // Cross-tenant circuit-cache traffic attributed to this tenant's
    // solves (lineage/circuit_cache.h).
    uint64_t circuit_hits = 0;
    uint64_t circuit_misses = 0;
  };

  enum class Outcome { kOk, kError, kRejected };
  void CountTenantRequest(const std::string& tenant, Outcome outcome);
  void TenantQueueDelta(const std::string& tenant, int64_t delta);
  void SetTenantStaleness(const std::string& tenant, uint64_t epoch,
                          uint64_t tombstones);
  void AddTenantCircuitCache(const std::string& tenant, uint64_t hits,
                             uint64_t misses);
  std::map<std::string, TenantCounters> TenantMix() const;

 private:
  // The tenant's own slot when it has (or can still claim) a real label;
  // nullptr when the name folds — it is the "__other__" literal, or the
  // real-label population already reached kMaxTenantLabels. Callers hold
  // tenant_mu_.
  TenantCounters* OwnSlot(const std::string& tenant);
  // The slot for `tenant`: its own, else the "__other__" fold slot.
  TenantCounters& TenantSlot(const std::string& tenant);

  mutable std::mutex engine_mu_;
  std::map<std::string, uint64_t> engine_facts_;
  mutable std::mutex tenant_mu_;
  std::map<std::string, TenantCounters> tenant_counters_;
  mutable std::mutex stage_mu_;
  // unique_ptr because LatencyHistogram (an array of atomics) is neither
  // copyable nor movable; recording hits the histogram lock-free after
  // one locked map lookup.
  std::map<std::string, std::unique_ptr<LatencyHistogram>> stage_latency_;
};

// `value` as a Prometheus label value: escapes backslash, double quote,
// and newline per the text exposition format.
std::string EscapeLabel(const std::string& value);

// Renders the full exposition text: daemon counters/gauges/histograms
// plus the plan-cache, circuit-cache, and lineage counters passed in
// (callers snapshot PlanCache::Global().stats(),
// CircuitCache::Global().stats(), and LineageStats::Global().Snapshot()).
std::string RenderPrometheus(const DaemonMetrics& metrics,
                             const PlanCache::Stats& plan_cache,
                             const CircuitCache::Stats& circuit_cache,
                             const LineageStatsSnapshot& lineage);

}  // namespace shapcq

#endif  // SHAPCQ_SERVE_METRICS_H_
