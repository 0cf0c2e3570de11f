#include "shapcq/serve/metrics.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace shapcq {

namespace {

constexpr const char kOtherLabel[] = "__other__";

void Line(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, static_cast<size_t>(n));
  out->push_back('\n');
}

void Counter(std::string* out, const char* name, const char* help,
             uint64_t value) {
  Line(out, "# HELP %s %s", name, help);
  Line(out, "# TYPE %s counter", name);
  Line(out, "%s %" PRIu64, name, value);
}

void Gauge(std::string* out, const char* name, const char* help,
           double value) {
  Line(out, "# HELP %s %s", name, help);
  Line(out, "# TYPE %s gauge", name);
  Line(out, "%s %.9g", name, value);
}

void Histogram(std::string* out, const char* name, const char* help,
               const LatencyHistogram::Snapshot& snap) {
  Line(out, "# HELP %s %s", name, help);
  Line(out, "# TYPE %s histogram", name);
  uint64_t cumulative = 0;
  for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
    cumulative += snap.counts[static_cast<size_t>(b)];
    if (b == LatencyHistogram::kBuckets - 1) {
      Line(out, "%s_bucket{le=\"+Inf\"} %" PRIu64, name, cumulative);
    } else {
      double le = static_cast<double>(LatencyHistogram::BucketUpperMicros(b)) /
                  1e6;
      Line(out, "%s_bucket{le=\"%.9g\"} %" PRIu64, name, le, cumulative);
    }
  }
  Line(out, "%s_sum %.9g", name,
       static_cast<double>(snap.sum_micros) / 1e6);
  Line(out, "%s_count %" PRIu64, name, snap.count);
}

void QuantileGauges(std::string* out, const char* base,
                    const LatencyHistogram::Snapshot& snap) {
  char name[128];
  std::snprintf(name, sizeof(name), "%s_p50_seconds", base);
  Gauge(out, name, "estimated p50 latency (bucket upper bound)",
        static_cast<double>(snap.QuantileMicros(0.50)) / 1e6);
  std::snprintf(name, sizeof(name), "%s_p99_seconds", base);
  Gauge(out, name, "estimated p99 latency (bucket upper bound)",
        static_cast<double>(snap.QuantileMicros(0.99)) / 1e6);
}

}  // namespace

void DaemonMetrics::CountEngineFacts(const std::string& engine,
                                     uint64_t facts) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  engine_facts_[engine] += facts;
}

std::map<std::string, uint64_t> DaemonMetrics::EngineMix() const {
  std::lock_guard<std::mutex> lock(engine_mu_);
  return engine_facts_;
}

void DaemonMetrics::RecordStage(const std::string& stage, uint64_t micros) {
  LatencyHistogram* histogram;
  {
    std::lock_guard<std::mutex> lock(stage_mu_);
    std::unique_ptr<LatencyHistogram>& slot = stage_latency_[stage];
    if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
    histogram = slot.get();
  }
  // Histograms are never erased, so the pointer stays valid outside the
  // lock; Record itself is lock-free.
  histogram->Record(micros);
}

std::map<std::string, LatencyHistogram::Snapshot> DaemonMetrics::StageMix()
    const {
  std::lock_guard<std::mutex> lock(stage_mu_);
  std::map<std::string, LatencyHistogram::Snapshot> out;
  for (const auto& [stage, histogram] : stage_latency_) {
    out.emplace(stage, histogram->snapshot());
  }
  return out;
}

DaemonMetrics::TenantCounters* DaemonMetrics::OwnSlot(
    const std::string& tenant) {
  // A literal "__other__" tenant must never claim the fold slot as its
  // own label — it would alias every post-cap tenant's traffic.
  if (tenant == kOtherLabel) return nullptr;
  auto it = tenant_counters_.find(tenant);
  if (it != tenant_counters_.end()) return &it->second;
  // The fold slot does not count toward the cap: exactly kMaxTenantLabels
  // real labels can exist, plus "__other__" — never kMaxTenantLabels + 1
  // real ones (the old size-based check let the fold's presence admit one
  // extra real label, a transient unbounded-cardinality hole).
  const size_t real_labels =
      tenant_counters_.size() - tenant_counters_.count(kOtherLabel);
  if (real_labels >= kMaxTenantLabels) return nullptr;
  return &tenant_counters_[tenant];
}

DaemonMetrics::TenantCounters& DaemonMetrics::TenantSlot(
    const std::string& tenant) {
  TenantCounters* own = OwnSlot(tenant);
  return own != nullptr ? *own : tenant_counters_[kOtherLabel];
}

void DaemonMetrics::CountTenantRequest(const std::string& tenant,
                                       Outcome outcome) {
  std::lock_guard<std::mutex> lock(tenant_mu_);
  TenantCounters& slot = TenantSlot(tenant);
  switch (outcome) {
    case Outcome::kOk: ++slot.ok; break;
    case Outcome::kError: ++slot.error; break;
    case Outcome::kRejected: ++slot.rejected; break;
  }
}

void DaemonMetrics::TenantQueueDelta(const std::string& tenant,
                                     int64_t delta) {
  std::lock_guard<std::mutex> lock(tenant_mu_);
  TenantSlot(tenant).queue_depth += delta;
}

void DaemonMetrics::SetTenantStaleness(const std::string& tenant,
                                       uint64_t epoch, uint64_t tombstones) {
  std::lock_guard<std::mutex> lock(tenant_mu_);
  // Staleness is a per-tenant gauge: on the shared fold slot it would be
  // last-writer-wins noise (two post-cap tenants racing to clobber each
  // other's epoch), so folded tenants simply don't report it. Their
  // additive counters (requests, circuit-cache) still fold fine.
  TenantCounters* own = OwnSlot(tenant);
  if (own == nullptr) return;
  own->epoch = epoch;
  own->tombstones = tombstones;
}

void DaemonMetrics::AddTenantCircuitCache(const std::string& tenant,
                                          uint64_t hits, uint64_t misses) {
  if (hits == 0 && misses == 0) return;
  std::lock_guard<std::mutex> lock(tenant_mu_);
  TenantCounters& slot = TenantSlot(tenant);
  slot.circuit_hits += hits;
  slot.circuit_misses += misses;
}

std::map<std::string, DaemonMetrics::TenantCounters> DaemonMetrics::TenantMix()
    const {
  std::lock_guard<std::mutex> lock(tenant_mu_);
  return tenant_counters_;
}

std::string EscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string RenderPrometheus(const DaemonMetrics& metrics,
                             const PlanCache::Stats& plan_cache,
                             const CircuitCache::Stats& circuit_cache,
                             const LineageStatsSnapshot& lineage) {
  std::string out;
  out.reserve(4096);

  // Request outcomes, labelled like a real multi-status counter.
  Line(&out, "# HELP shapcq_requests_total solve requests by outcome");
  Line(&out, "# TYPE shapcq_requests_total counter");
  Line(&out, "shapcq_requests_total{status=\"ok\"} %" PRIu64,
       metrics.requests_ok.load(std::memory_order_relaxed));
  Line(&out, "shapcq_requests_total{status=\"error\"} %" PRIu64,
       metrics.requests_error.load(std::memory_order_relaxed));
  Line(&out, "shapcq_requests_total{status=\"rejected\"} %" PRIu64,
       metrics.requests_rejected.load(std::memory_order_relaxed));

  Counter(&out, "shapcq_degraded_total",
          "requests degraded exact -> Monte Carlo by a deadline",
          metrics.requests_degraded.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_connections_opened_total",
          "client connections accepted",
          metrics.connections_opened.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_connections_closed_total",
          "client connections closed",
          metrics.connections_closed.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_accept_errors_total",
          "accept() failures (e.g. fd exhaustion)",
          metrics.accept_errors.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_journal_records_total",
          "requests appended to the journal",
          metrics.journal_records.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_journal_errors_total",
          "journal append failures (requests served but not journaled)",
          metrics.journal_errors.load(std::memory_order_relaxed));

  // Mutation path.
  Line(&out, "# HELP shapcq_mutations_total applied fact mutations by op");
  Line(&out, "# TYPE shapcq_mutations_total counter");
  Line(&out, "shapcq_mutations_total{op=\"insert\"} %" PRIu64,
       metrics.mutations_insert.load(std::memory_order_relaxed));
  Line(&out, "shapcq_mutations_total{op=\"delete\"} %" PRIu64,
       metrics.mutations_delete.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_mutation_errors_total",
          "rejected or failed fact mutations",
          metrics.mutation_errors.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_dirty_answers_total",
          "summed dirty-answer-set sizes of query-probed mutations",
          metrics.dirty_answers_total.load(std::memory_order_relaxed));
  Gauge(&out, "shapcq_dirty_answers_last",
        "dirty-answer-set size of the latest probed mutation (-1: none)",
        static_cast<double>(
            metrics.dirty_answers_last.load(std::memory_order_relaxed)));
  Counter(&out, "shapcq_compactions_total",
          "tombstone compactions triggered by the mutation path",
          metrics.compactions.load(std::memory_order_relaxed));

  Gauge(&out, "shapcq_queue_depth", "requests waiting for a worker",
        static_cast<double>(
            metrics.queue_depth.load(std::memory_order_relaxed)));
  Gauge(&out, "shapcq_in_flight", "requests being solved",
        static_cast<double>(
            metrics.in_flight.load(std::memory_order_relaxed)));

  // Per-tenant series (cardinality capped at kMaxTenantLabels +
  // "__other__"; see DaemonMetrics::TenantSlot).
  std::map<std::string, DaemonMetrics::TenantCounters> tenants =
      metrics.TenantMix();
  Line(&out, "# HELP shapcq_tenant_requests_total "
             "solve requests by tenant and outcome");
  Line(&out, "# TYPE shapcq_tenant_requests_total counter");
  for (const auto& [tenant, t] : tenants) {
    Line(&out,
         "shapcq_tenant_requests_total{tenant=\"%s\",status=\"ok\"} %" PRIu64,
         EscapeLabel(tenant).c_str(), t.ok);
    Line(&out,
         "shapcq_tenant_requests_total{tenant=\"%s\",status=\"error\"} "
         "%" PRIu64,
         EscapeLabel(tenant).c_str(), t.error);
    Line(&out,
         "shapcq_tenant_requests_total{tenant=\"%s\",status=\"rejected\"} "
         "%" PRIu64,
         EscapeLabel(tenant).c_str(), t.rejected);
  }
  Line(&out, "# HELP shapcq_tenant_queue_depth "
             "queued requests by tenant");
  Line(&out, "# TYPE shapcq_tenant_queue_depth gauge");
  for (const auto& [tenant, t] : tenants) {
    Line(&out, "shapcq_tenant_queue_depth{tenant=\"%s\"} %lld",
         EscapeLabel(tenant).c_str(), static_cast<long long>(t.queue_depth));
  }
  // Staleness: the tenant's mutation epoch and its dead rows awaiting
  // compaction (how far the columnar store has drifted from its last
  // sealed shape).
  Line(&out, "# HELP shapcq_tenant_epoch database mutation epoch by tenant");
  Line(&out, "# TYPE shapcq_tenant_epoch gauge");
  for (const auto& [tenant, t] : tenants) {
    Line(&out, "shapcq_tenant_epoch{tenant=\"%s\"} %" PRIu64, EscapeLabel(tenant).c_str(),
         t.epoch);
  }
  Line(&out, "# HELP shapcq_tenant_tombstones "
             "dead rows awaiting compaction by tenant");
  Line(&out, "# TYPE shapcq_tenant_tombstones gauge");
  for (const auto& [tenant, t] : tenants) {
    Line(&out, "shapcq_tenant_tombstones{tenant=\"%s\"} %" PRIu64,
         EscapeLabel(tenant).c_str(), t.tombstones);
  }
  // Cross-tenant circuit-cache traffic attributed per tenant: a hit means
  // this tenant's answer reused a circuit some tenant (possibly another
  // one) compiled earlier.
  Line(&out, "# HELP shapcq_tenant_circuit_cache_total "
             "circuit-cache lookups by tenant and result");
  Line(&out, "# TYPE shapcq_tenant_circuit_cache_total counter");
  for (const auto& [tenant, t] : tenants) {
    Line(&out,
         "shapcq_tenant_circuit_cache_total{tenant=\"%s\",result=\"hit\"} "
         "%" PRIu64,
         EscapeLabel(tenant).c_str(), t.circuit_hits);
    Line(&out,
         "shapcq_tenant_circuit_cache_total{tenant=\"%s\",result=\"miss\"} "
         "%" PRIu64,
         EscapeLabel(tenant).c_str(), t.circuit_misses);
  }

  // Engine mix: facts scored per engine across all ok responses.
  Line(&out, "# HELP shapcq_engine_facts_total facts scored per engine");
  Line(&out, "# TYPE shapcq_engine_facts_total counter");
  for (const auto& [engine, facts] : metrics.EngineMix()) {
    Line(&out, "shapcq_engine_facts_total{engine=\"%s\"} %" PRIu64,
         EscapeLabel(engine).c_str(), facts);
  }

  // Plan cache (process-wide, shared with any in-process CLI usage).
  Counter(&out, "shapcq_plan_cache_hits_total", "plan-cache hits",
          plan_cache.hits);
  Counter(&out, "shapcq_plan_cache_misses_total",
          "plan-cache misses (compilations)", plan_cache.misses);
  Gauge(&out, "shapcq_plan_cache_entries", "plans currently cached",
        static_cast<double>(plan_cache.entries));
  Counter(&out, "shapcq_plan_cache_evictions_total",
          "plans evicted (FIFO)", plan_cache.evictions);
  double lookups = static_cast<double>(plan_cache.hits + plan_cache.misses);
  Gauge(&out, "shapcq_plan_cache_hit_ratio",
        "hits / (hits + misses), 0 before any lookup",
        lookups > 0 ? static_cast<double>(plan_cache.hits) / lookups : 0.0);

  // Cross-tenant circuit cache (process-wide; lineage/circuit_cache.h).
  Counter(&out, "shapcq_circuit_cache_hits_total",
          "compiled-circuit cache hits (answers served without compiling)",
          circuit_cache.hits);
  Counter(&out, "shapcq_circuit_cache_misses_total",
          "compiled-circuit cache misses", circuit_cache.misses);
  Counter(&out, "shapcq_circuit_cache_inserts_total",
          "circuits inserted into the cache", circuit_cache.inserts);
  Gauge(&out, "shapcq_circuit_cache_entries", "circuits currently cached",
        static_cast<double>(circuit_cache.entries));
  Gauge(&out, "shapcq_circuit_cache_bytes",
        "approximate resident bytes of cached circuits",
        static_cast<double>(circuit_cache.bytes));
  Counter(&out, "shapcq_circuit_cache_evictions_total",
          "circuits evicted (FIFO, entry/byte bounds)",
          circuit_cache.evictions);
  double circuit_lookups =
      static_cast<double>(circuit_cache.hits + circuit_cache.misses);
  Gauge(&out, "shapcq_circuit_cache_hit_ratio",
        "hits / (hits + misses), 0 before any lookup",
        circuit_lookups > 0
            ? static_cast<double>(circuit_cache.hits) / circuit_lookups
            : 0.0);

  // Compiled-artifact persistence (persist/artifact.h).
  Counter(&out, "shapcq_artifact_load_errors_total",
          "artifact files rejected at load (corrupt/stale -> cold start)",
          metrics.artifact_load_errors.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_artifact_save_errors_total",
          "artifact snapshot write failures",
          metrics.artifact_save_errors.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_artifact_plans_loaded_total",
          "plans warm-started from persisted artifacts",
          metrics.artifact_plans_loaded.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_artifact_circuits_loaded_total",
          "circuits warm-started from persisted artifacts",
          metrics.artifact_circuits_loaded.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_artifact_entries_skipped_total",
          "persisted entries rejected by per-entry validation",
          metrics.artifact_entries_skipped.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_artifact_bytes_loaded_total",
          "artifact bytes read at warm start",
          metrics.artifact_bytes_loaded.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_artifact_bytes_persisted_total",
          "artifact bytes written by snapshots",
          metrics.artifact_bytes_persisted.load(std::memory_order_relaxed));
  Counter(&out, "shapcq_artifact_snapshots_total",
          "successful artifact snapshots (shutdown and SIGHUP)",
          metrics.artifact_snapshots.load(std::memory_order_relaxed));

  // Lineage-circuit telemetry (process-wide monotone counters).
  Counter(&out, "shapcq_lineage_circuits_compiled_total",
          "lineage circuits compiled", lineage.circuits_compiled);
  Counter(&out, "shapcq_lineage_circuit_nodes_total",
          "total nodes across compiled circuits", lineage.circuit_nodes);
  Counter(&out, "shapcq_lineage_cache_lookups_total",
          "compiler formula-cache lookups", lineage.cache_lookups);
  Counter(&out, "shapcq_lineage_cache_hits_total",
          "compiler formula-cache hits", lineage.cache_hits);
  Counter(&out, "shapcq_lineage_budget_fallbacks_total",
          "compilations aborted by the node budget",
          lineage.budget_fallbacks);

  // Latency histograms + quantile gauges.
  LatencyHistogram::Snapshot queue_snap = metrics.queue_wait.snapshot();
  LatencyHistogram::Snapshot solve_snap = metrics.solve.snapshot();
  LatencyHistogram::Snapshot total_snap = metrics.total.snapshot();
  Histogram(&out, "shapcq_queue_wait_seconds",
            "admission to worker dequeue", queue_snap);
  Histogram(&out, "shapcq_solve_seconds", "solver wall time", solve_snap);
  Histogram(&out, "shapcq_request_latency_seconds",
            "admission to response written", total_snap);
  QuantileGauges(&out, "shapcq_request_latency", total_snap);
  QuantileGauges(&out, "shapcq_solve", solve_snap);

  // Per-stage latency histograms from request traces (obs/trace.h). One
  // metric family, one {stage=...} label per span-site name; absent
  // entirely while tracing is off.
  std::map<std::string, LatencyHistogram::Snapshot> stages =
      metrics.StageMix();
  if (!stages.empty()) {
    Line(&out, "# HELP shapcq_stage_seconds "
               "per-request stage latency from traces");
    Line(&out, "# TYPE shapcq_stage_seconds histogram");
    for (const auto& [stage, snap] : stages) {
      const std::string label = EscapeLabel(stage);
      uint64_t cumulative = 0;
      for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
        cumulative += snap.counts[static_cast<size_t>(b)];
        if (b == LatencyHistogram::kBuckets - 1) {
          Line(&out,
               "shapcq_stage_seconds_bucket{stage=\"%s\",le=\"+Inf\"} %" PRIu64,
               label.c_str(), cumulative);
        } else {
          double le =
              static_cast<double>(LatencyHistogram::BucketUpperMicros(b)) /
              1e6;
          Line(&out,
               "shapcq_stage_seconds_bucket{stage=\"%s\",le=\"%.9g\"} %" PRIu64,
               label.c_str(), le, cumulative);
        }
      }
      Line(&out, "shapcq_stage_seconds_sum{stage=\"%s\"} %.9g", label.c_str(),
           static_cast<double>(snap.sum_micros) / 1e6);
      Line(&out, "shapcq_stage_seconds_count{stage=\"%s\"} %" PRIu64,
           label.c_str(), snap.count);
    }
  }

  return out;
}

}  // namespace shapcq
