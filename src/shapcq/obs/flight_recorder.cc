#include "shapcq/obs/flight_recorder.h"

#include <utility>

#include "shapcq/obs/trace.h"
#include "shapcq/serve/json.h"

namespace shapcq {

size_t FlightRecorder::FastestSlowestLocked() const {
  // Capacities are small (tens); a linear scan for the fastest retained
  // trace beats maintaining a heap over move-heavy records.
  size_t fastest = 0;
  for (size_t i = 1; i < slowest_.size(); ++i) {
    if (slowest_[i].total_micros < slowest_[fastest].total_micros) {
      fastest = i;
    }
  }
  return fastest;
}

bool FlightRecorder::KeepsLocked(const TraceRecord& record) const {
  if (record.outcome != "ok") return incident_capacity_ > 0;
  if (slowest_capacity_ == 0) return false;
  return slowest_.size() < slowest_capacity_ ||
         record.total_micros >
             slowest_[FastestSlowestLocked()].total_micros;
}

void FlightRecorder::Record(TraceRecord record,
                            const std::function<std::string()>& render_json) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!KeepsLocked(record)) return;
  }
  // Rendered outside the lock; a record that a concurrent slower one
  // outran meanwhile is dropped below.
  record.json = render_json();
  std::lock_guard<std::mutex> lock(mu_);
  if (!KeepsLocked(record)) return;
  if (record.outcome == "ok") {
    if (slowest_.size() < slowest_capacity_) {
      slowest_.push_back(std::move(record));
    } else {
      slowest_[FastestSlowestLocked()] = std::move(record);
    }
    return;
  }
  if (incidents_.size() < incident_capacity_) {
    incidents_.push_back(std::move(record));
    return;
  }
  incidents_[incident_next_] = std::move(record);
  incident_next_ = (incident_next_ + 1) % incident_capacity_;
}

namespace {

void WriteRecord(JsonWriter* w, const TraceRecord& r) {
  w->BeginObjectInArray();
  w->Str("trace_id", TraceIdHex(r.trace_id));
  w->Str("tenant", r.tenant);
  w->Uint("id", r.request_id);
  w->Str("outcome", r.outcome);
  w->Uint("total_us", r.total_micros);
  w->Str("trace", r.json);
  w->EndObject();
}

}  // namespace

std::string FlightRecorder::RenderJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w;
  w.BeginObject();
  w.BeginArray("slowest");
  // Slowest first for the reader; the pool itself is unordered.
  std::vector<const TraceRecord*> ordered;
  ordered.reserve(slowest_.size());
  for (const TraceRecord& r : slowest_) ordered.push_back(&r);
  for (size_t i = 0; i < ordered.size(); ++i) {
    for (size_t j = i + 1; j < ordered.size(); ++j) {
      if (ordered[j]->total_micros > ordered[i]->total_micros) {
        std::swap(ordered[i], ordered[j]);
      }
    }
  }
  for (const TraceRecord* r : ordered) WriteRecord(&w, *r);
  w.EndArray();
  w.BeginArray("incidents");
  // Once the ring is full the oldest entry sits at the write cursor
  // (incident_next_ is 0 until the first overwrite, so this also covers
  // the just-filled case); before that, insertion order is age order.
  for (size_t i = 0; i < incidents_.size(); ++i) {
    WriteRecord(&w, incidents_[(incident_next_ + i) % incidents_.size()]);
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

size_t FlightRecorder::slowest_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slowest_.size();
}

size_t FlightRecorder::incident_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return incidents_.size();
}

}  // namespace shapcq
