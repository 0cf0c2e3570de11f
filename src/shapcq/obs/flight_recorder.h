// Fixed-capacity flight recorder for completed request traces.
//
// Two bounded pools, both fed at the end of the daemon's RunJob when
// tracing is on:
//   - "slowest": the N slowest successful requests seen so far (min-heap
//     by total latency — a new trace evicts the fastest retained one);
//   - "incidents": a ring of the most recent degraded-or-errored
//     requests (every one is retained until the ring wraps).
// Memory is bounded by capacity × rendered-trace size regardless of
// traffic volume. The daemon serves RenderJson() at GET /debug/traces
// on the metrics port and dumps it to stderr on SIGUSR1.

#ifndef SHAPCQ_OBS_FLIGHT_RECORDER_H_
#define SHAPCQ_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace shapcq {

// A completed request's trace, flattened for retention (the live
// TraceContext dies with the request; the recorder keeps copies).
struct TraceRecord {
  uint64_t trace_id = 0;
  std::string tenant;
  uint64_t request_id = 0;
  std::string outcome;  // "ok" | "degraded" | "error"
  uint64_t total_micros = 0;
  std::string json;  // TraceContext::RenderJson() output, set by Record
};

class FlightRecorder {
 public:
  FlightRecorder(size_t slowest_capacity, size_t incident_capacity)
      : slowest_capacity_(slowest_capacity),
        incident_capacity_(incident_capacity) {}

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Routes by outcome: "ok" competes for a slowest slot; anything else
  // is an incident. `render_json` fills record.json; it runs outside the
  // lock and only when the record would be kept, so a trace that would be
  // dropped is never rendered. Thread-safe.
  void Record(TraceRecord record,
              const std::function<std::string()>& render_json);

  // {"slowest":[...],"incidents":[...]} — each entry carries trace_id,
  // tenant, request id, outcome, total_us, and the full span dump as a
  // nested "trace" string (same JSON-quoted transport the protocol uses
  // for /metrics text). Incidents are listed oldest first.
  std::string RenderJson() const;

  size_t slowest_size() const;
  size_t incident_size() const;

 private:
  // Whether Record would retain `record` now; mu_ must be held.
  bool KeepsLocked(const TraceRecord& record) const;
  // Index of the fastest retained slowest-pool record; mu_ must be held
  // and the pool non-empty.
  size_t FastestSlowestLocked() const;

  const size_t slowest_capacity_;
  const size_t incident_capacity_;

  mutable std::mutex mu_;
  std::vector<TraceRecord> slowest_;    // unordered; linear min scan
  std::vector<TraceRecord> incidents_;  // ring once full
  size_t incident_next_ = 0;            // ring write cursor once full
};

}  // namespace shapcq

#endif  // SHAPCQ_OBS_FLIGHT_RECORDER_H_
