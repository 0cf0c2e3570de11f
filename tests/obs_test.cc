// Tests for the observability layer (src/shapcq/obs): trace contexts
// and RAII spans, trace-id generation, the rendered span JSON, the
// engine-decision explanation builder, the flight recorder's retention
// policy, and the structured logger's level gate. End-to-end behaviour
// (traced daemon responses, /debug/traces) lives in daemon_smoke.cc.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/obs/flight_recorder.h"
#include "shapcq/obs/log.h"
#include "shapcq/obs/trace.h"
#include "shapcq/serve/json.h"

namespace shapcq {
namespace {

// ---------------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------------

TEST(TraceIdTest, NonZeroAndUnique) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t id = NextTraceId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate trace id";
  }
}

TEST(TraceIdTest, HexIsFixedWidthLowercase) {
  EXPECT_EQ(TraceIdHex(1), "0000000000000001");
  EXPECT_EQ(TraceIdHex(0xDEADBEEFull), "00000000deadbeef");
  EXPECT_EQ(TraceIdHex(UINT64_MAX), "ffffffffffffffff");
  EXPECT_EQ(TraceIdHex(NextTraceId()).size(), 16u);
}

TEST(TraceLevelTest, ParseRoundTrip) {
  TraceLevel level;
  ASSERT_TRUE(ParseTraceLevel("off", &level));
  EXPECT_EQ(level, TraceLevel::kOff);
  ASSERT_TRUE(ParseTraceLevel("on", &level));
  EXPECT_EQ(level, TraceLevel::kOn);
  ASSERT_TRUE(ParseTraceLevel("full", &level));
  EXPECT_EQ(level, TraceLevel::kFull);
  EXPECT_FALSE(ParseTraceLevel("verbose", &level));
  EXPECT_STREQ(TraceLevelName(TraceLevel::kFull), "full");
}

// ---------------------------------------------------------------------------
// TraceContext / Span
// ---------------------------------------------------------------------------

TEST(TraceContextTest, SpansRecordStagesAndAnnotations) {
  TraceContext trace(42);
  {
    Span span(&trace, "solve");
    span.Annotate("players", static_cast<int64_t>(7));
    span.Annotate("hierarchy", std::string("hierarchical"));
  }
  ASSERT_EQ(trace.spans().size(), 1u);
  const TraceSpan& span = trace.spans()[0];
  EXPECT_EQ(span.stage, "solve");
  EXPECT_GE(span.end_ns, span.start_ns);
  ASSERT_EQ(span.annotations.size(), 2u);
  EXPECT_FALSE(span.annotations[0].is_text);
  EXPECT_EQ(span.annotations[0].number, 7);
  EXPECT_TRUE(span.annotations[1].is_text);
  EXPECT_EQ(span.annotations[1].text, "hierarchical");
}

TEST(TraceContextTest, NullTraceIsSafeEverywhere) {
  Span span(nullptr, "anything");
  span.Annotate("k", static_cast<int64_t>(1));
  span.Annotate("k", std::string("v"));
  span.End();
  span.End();  // idempotent
}

TEST(TraceContextTest, ExplicitEndIsIdempotent) {
  TraceContext trace(1);
  Span span(&trace, "stage");
  span.End();
  uint64_t first_end = trace.spans()[0].end_ns;
  span.End();  // no-op: already detached
  EXPECT_EQ(trace.spans()[0].end_ns, first_end);
}

TEST(TraceContextTest, AddSpanKeepsCallerBounds) {
  TraceContext trace(1);
  trace.AddSpan("queue_wait", 1000000, 4000000);
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.spans()[0].duration_micros(), 3000u);
}

TEST(TraceContextTest, RenderJsonParsesAndCarriesAnnotations) {
  TraceContext trace(0xABC);
  {
    Span span(&trace, "engine:frontier");
    span.Annotate("facts_solved", static_cast<int64_t>(12));
    span.Annotate("reject", std::string("non-hierarchical \"shape\""));
  }
  auto parsed = ParseJson(trace.RenderJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("trace_id"), TraceIdHex(0xABC));
  const JsonValue* spans = parsed->Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->array.size(), 1u);
  EXPECT_EQ(spans->array[0].GetString("stage"), "engine:frontier");
  EXPECT_EQ(spans->array[0].GetInt64("facts_solved"), 12);
  EXPECT_EQ(spans->array[0].GetString("reject"),
            "non-hierarchical \"shape\"");
}

// ---------------------------------------------------------------------------
// Engine-decision explanations
// ---------------------------------------------------------------------------

TEST(ExplanationTest, EmptyTraceSaysSo) {
  TraceContext trace(1);
  EXPECT_EQ(BuildEngineExplanation(trace), "no solve recorded");
}

TEST(ExplanationTest, NarratesSolveContextAndEngineChain) {
  TraceContext trace(1);
  {
    Span solve(&trace, "solve");
    solve.Annotate("players", static_cast<int64_t>(9));
    solve.Annotate("hierarchy", std::string("general"));
    solve.Annotate("method", std::string("auto"));
    Span frontier(&trace, "engine:frontier");
    frontier.Annotate("facts_solved", static_cast<int64_t>(0));
    frontier.Annotate("facts_open", static_cast<int64_t>(9));
    frontier.Annotate("reject", std::string("query is not hierarchical"));
    frontier.End();
    Span circuit(&trace, "engine:lineage-circuit");
    circuit.Annotate("facts_solved", static_cast<int64_t>(9));
    circuit.Annotate("facts_open", static_cast<int64_t>(0));
    circuit.Annotate("circuit_nodes", static_cast<int64_t>(311));
    circuit.End();
  }
  std::string text = BuildEngineExplanation(trace);
  EXPECT_NE(text.find("solve: 9 players class=general method=auto"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("frontier rejected: query is not hierarchical"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lineage-circuit scored 9 facts (311 circuit nodes)"),
            std::string::npos)
      << text;
}

TEST(ExplanationTest, DegradedSolveNamesTheReason) {
  TraceContext trace(1);
  {
    Span solve(&trace, "solve");
    solve.Annotate("degrade_reason", std::string("deadline expired in queue"));
    Span mc(&trace, "monte_carlo");
    mc.Annotate("facts", static_cast<int64_t>(4));
    mc.Annotate("samples", static_cast<int64_t>(10000));
    mc.End();
  }
  std::string text = BuildEngineExplanation(trace);
  EXPECT_NE(text.find("degraded(deadline expired in queue)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("monte_carlo scored 4 facts (10000 samples/fact)"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TraceRecord MakeRecord(uint64_t id, const std::string& outcome,
                       uint64_t total_micros) {
  TraceRecord record;
  record.trace_id = id;
  record.tenant = "acme";
  record.request_id = id;
  record.outcome = outcome;
  record.total_micros = total_micros;
  return record;
}

// Records a request whose trace holds one solve span; `renders` counts the
// calls of the render callback.
void RecordRequest(FlightRecorder* recorder, uint64_t id,
                   const std::string& outcome, uint64_t total_micros,
                   int* renders = nullptr) {
  recorder->Record(MakeRecord(id, outcome, total_micros), [&]() {
    if (renders != nullptr) ++*renders;
    TraceContext trace(id);
    trace.AddSpan("solve", 0, total_micros * 1000);
    return trace.RenderJson();
  });
}

TEST(FlightRecorderTest, KeepsTheSlowestOkRequests) {
  FlightRecorder recorder(3, 3);
  // 10 ok requests, total latency 1..10: only the three slowest survive.
  for (uint64_t i = 1; i <= 10; ++i) {
    RecordRequest(&recorder, i, "ok", i * 100);
  }
  EXPECT_EQ(recorder.slowest_size(), 3u);
  EXPECT_EQ(recorder.incident_size(), 0u);
  auto parsed = ParseJson(recorder.RenderJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* slowest = parsed->Find("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_EQ(slowest->array.size(), 3u);
  // Rendered slowest-first.
  EXPECT_EQ(slowest->array[0].GetInt64("total_us"), 1000);
  EXPECT_EQ(slowest->array[1].GetInt64("total_us"), 900);
  EXPECT_EQ(slowest->array[2].GetInt64("total_us"), 800);
  // The nested trace is itself valid JSON.
  auto nested = ParseJson(slowest->array[0].GetString("trace"));
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->GetString("trace_id"), TraceIdHex(10));
}

TEST(FlightRecorderTest, IncidentRingKeepsTheMostRecent) {
  FlightRecorder recorder(2, 3);
  for (uint64_t i = 1; i <= 5; ++i) {
    RecordRequest(&recorder, i, i % 2 == 0 ? "error" : "degraded", i);
  }
  EXPECT_EQ(recorder.incident_size(), 3u);
  auto parsed = ParseJson(recorder.RenderJson());
  ASSERT_TRUE(parsed.ok());
  const JsonValue* incidents = parsed->Find("incidents");
  ASSERT_NE(incidents, nullptr);
  ASSERT_EQ(incidents->array.size(), 3u);
  // Oldest-first after the ring wrapped: records 3, 4, 5 remain.
  EXPECT_EQ(incidents->array[0].GetString("trace_id"), TraceIdHex(3));
  EXPECT_EQ(incidents->array[1].GetString("trace_id"), TraceIdHex(4));
  EXPECT_EQ(incidents->array[2].GetString("trace_id"), TraceIdHex(5));
  EXPECT_EQ(incidents->array[0].GetString("outcome"), "degraded");
  EXPECT_EQ(incidents->array[1].GetString("outcome"), "error");
}

TEST(FlightRecorderTest, RendersOnlyTheRecordsItKeeps) {
  FlightRecorder recorder(2, 1);
  int renders = 0;
  RecordRequest(&recorder, 1, "ok", 500, &renders);
  RecordRequest(&recorder, 2, "ok", 600, &renders);
  EXPECT_EQ(renders, 2);
  // The slowest pool is full: a faster ok record is dropped unrendered.
  RecordRequest(&recorder, 3, "ok", 100, &renders);
  EXPECT_EQ(renders, 2);
  EXPECT_EQ(recorder.slowest_size(), 2u);
  // A slower one evicts the fastest and is rendered once.
  RecordRequest(&recorder, 4, "ok", 700, &renders);
  EXPECT_EQ(renders, 3);
  // Every incident is kept, so every incident is rendered.
  RecordRequest(&recorder, 5, "error", 50, &renders);
  EXPECT_EQ(renders, 4);
  auto parsed = ParseJson(recorder.RenderJson());
  ASSERT_TRUE(parsed.ok());
  const JsonValue* slowest = parsed->Find("slowest");
  ASSERT_EQ(slowest->array.size(), 2u);
  EXPECT_EQ(slowest->array[0].GetString("trace_id"), TraceIdHex(4));
  EXPECT_EQ(slowest->array[1].GetString("trace_id"), TraceIdHex(2));
  auto nested = ParseJson(slowest->array[0].GetString("trace"));
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->GetString("trace_id"), TraceIdHex(4));
}

TEST(FlightRecorderTest, EmptyRecorderRendersWellFormedJson) {
  FlightRecorder recorder(4, 4);
  auto parsed = ParseJson(recorder.RenderJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("slowest")->array.size(), 0u);
  EXPECT_EQ(parsed->Find("incidents")->array.size(), 0u);
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

TEST(LogTest, ParseAndNames) {
  LogLevel level;
  ASSERT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  ASSERT_TRUE(ParseLogLevel("off", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("chatty", &level));
  EXPECT_STREQ(LogLevelName(LogLevel::kWarn), "warn");
}

TEST(LogTest, ThresholdGatesLowerLevels) {
  LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  EXPECT_FALSE(LogEnabled(LogLevel::kDebug));
  EXPECT_FALSE(LogEnabled(LogLevel::kInfo));
  EXPECT_TRUE(LogEnabled(LogLevel::kWarn));
  EXPECT_TRUE(LogEnabled(LogLevel::kError));
  SetLogLevel(LogLevel::kOff);
  EXPECT_FALSE(LogEnabled(LogLevel::kError));
  SetLogLevel(before);
}

}  // namespace
}  // namespace shapcq
