// Tests for the serving stack: JSON, protocol, journal, histogram,
// admission control, deadline cancellation, and the live server
// (sockets on loopback, ephemeral ports). The heavier end-to-end pass —
// daemon + journal replay + bitwise parity — lives in daemon_smoke.cc.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/spec.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/db_io.h"
#include "shapcq/query/parser.h"
#include "shapcq/serve/admission.h"
#include "shapcq/serve/client.h"
#include "shapcq/serve/journal.h"
#include "shapcq/serve/json.h"
#include "shapcq/serve/metrics.h"
#include "shapcq/serve/protocol.h"
#include "shapcq/serve/replay.h"
#include "shapcq/serve/server.h"
#include "shapcq/shapley/session.h"
#include "shapcq/util/histogram.h"

namespace shapcq {
namespace {

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(JsonTest, ParsesScalarsAndStructure) {
  auto parsed = ParseJson(
      R"({"a":1,"b":-2.5,"c":"x\ny","d":true,"e":null,"f":[1,2],"g":{}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetInt64("a"), 1);
  EXPECT_DOUBLE_EQ(parsed->GetNumber("b"), -2.5);
  EXPECT_EQ(parsed->GetString("c"), "x\ny");
  EXPECT_TRUE(parsed->GetBool("d"));
  ASSERT_NE(parsed->Find("f"), nullptr);
  EXPECT_EQ(parsed->Find("f")->array.size(), 2u);
}

TEST(JsonTest, Uint64SurvivesRoundTrip) {
  JsonWriter w;
  w.BeginObject().Uint("seed", UINT64_MAX).EndObject();
  auto parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetUint64("seed"), UINT64_MAX);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
}

TEST(JsonTest, DecodesSurrogatePairsAsUtf8) {
  // \ud83d\ude00 is U+1F600 (😀): one 4-byte UTF-8 sequence, not two
  // 3-byte CESU-8 halves.
  auto parsed = ParseJson("{\"s\":\"\\ud83d\\ude00\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("s"), "\xF0\x9F\x98\x80");

  // Lone or mismatched surrogates are rejected rather than emitted as
  // invalid UTF-8.
  EXPECT_FALSE(ParseJson("{\"s\":\"\\ud83d\"}").ok());        // lone high
  EXPECT_FALSE(ParseJson("{\"s\":\"\\ud83dx\"}").ok());       // high + text
  EXPECT_FALSE(ParseJson("{\"s\":\"\\ud83d\\u0041\"}").ok()); // high + BMP
  EXPECT_FALSE(ParseJson("{\"s\":\"\\ude00\"}").ok());        // lone low
}

TEST(JsonTest, DoubleRoundTripsBitwise) {
  double value = 0.1 + 0.2;  // not representable exactly
  JsonWriter w;
  w.BeginObject().Num("v", value).EndObject();
  auto parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetNumber("v"), value);  // %.17g is lossless
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, QuantilesBracketSamples) {
  LatencyHistogram h;
  for (uint64_t i = 0; i < 100; ++i) h.Record(100);  // bucket le=128
  h.Record(1000000);                                 // one outlier
  auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 101u);
  EXPECT_EQ(snap.QuantileMicros(0.5), 128u);
  EXPECT_GE(snap.QuantileMicros(0.999), 1000000u);
}

TEST(HistogramTest, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.snapshot().QuantileMicros(0.99), 0u);
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ProtocolTest, SolveRequestRoundTrips) {
  SolveRequest request;
  request.id = 42;
  request.tenant = "acme";
  request.query = "Q(x) <- R(x, y), S(y)";
  request.method = "mc";
  request.samples = 500;
  request.seed = 99;
  request.deadline_ms = 250;
  auto parsed = ParseRequestLine(SerializeSolveRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->op, RequestEnvelope::Op::kSolve);
  EXPECT_EQ(parsed->solve.id, 42u);
  EXPECT_EQ(parsed->solve.tenant, "acme");
  EXPECT_EQ(parsed->solve.query, request.query);
  EXPECT_EQ(parsed->solve.method, "mc");
  EXPECT_EQ(parsed->solve.samples, 500);
  EXPECT_EQ(parsed->solve.seed, 99u);
  EXPECT_EQ(parsed->solve.deadline_ms, 250);
}

TEST(ProtocolTest, ValidatesRequests) {
  EXPECT_FALSE(ParseRequestLine(R"({"op":"solve","tenant":"t"})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"js({"op":"solve","query":"Q() <- R(x)"})js").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"op":"warp"})").ok());
  EXPECT_FALSE(
      ParseRequestLine(
          R"({"op":"solve","tenant":"t","query":"q","samples":0})")
          .ok());
  EXPECT_FALSE(
      ParseRequestLine(
          R"({"op":"solve","tenant":"t","query":"q","deadline_ms":-1})")
          .ok());
}

TEST(ProtocolTest, RejectsThreadsThatNarrowIntoRange) {
  // Both values narrow to int 1; the range check must see the int64.
  for (const char* threads : {"4294967297", "-4294967295"}) {
    auto parsed = ParseRequestLine(
        std::string(R"({"op":"solve","tenant":"t","query":"q","threads":)") +
        threads + "}");
    ASSERT_FALSE(parsed.ok()) << threads;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << threads;
  }
  auto fits = ParseRequestLine(
      R"({"op":"solve","tenant":"t","query":"q","threads":4096})");
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits->solve.threads, 4096);
}

TEST(ProtocolTest, BuildsQueryAndOptions) {
  SolveRequest request;
  request.tenant = "t";
  request.query = "Q(x) <- R(x, y), S(y)";
  request.agg = "count";
  request.score = "banzhaf";
  request.method = "exact";
  auto query = BuildAggregateQuery(request);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto options = BuildSolverOptions(request);
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->score, ScoreKind::kBanzhaf);
  EXPECT_EQ(options->method, SolveMethod::kExactOnly);

  request.agg = "frobnicate";
  EXPECT_FALSE(BuildAggregateQuery(request).ok());
  request.agg = "max";
  request.tau = "plus:1,2";  // the head has one position
  EXPECT_FALSE(BuildAggregateQuery(request).ok());
  request.tau = "id:1";
  request.agg = "sum";
  request.method = "warp";
  EXPECT_FALSE(BuildSolverOptions(request).ok());
}

TEST(ProtocolTest, ResponseRoundTrips) {
  SolveResponse response;
  response.id = 7;
  response.status = "ok";
  response.degraded = true;
  response.fingerprint = "fp";
  FactScore fact;
  fact.fact = 3;
  fact.fact_text = "R(1, 2)";
  fact.exact = true;
  fact.exact_value = "1/3";
  fact.value = 1.0 / 3.0;
  fact.algorithm = "test-engine";
  response.results.push_back(fact);
  auto parsed = ParseResponseLine(SerializeResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, 7u);
  EXPECT_TRUE(parsed->degraded);
  ASSERT_EQ(parsed->results.size(), 1u);
  EXPECT_EQ(parsed->results[0].fact, 3);
  EXPECT_EQ(parsed->results[0].exact_value, "1/3");
  EXPECT_EQ(parsed->results[0].value, 1.0 / 3.0);  // bitwise via %.17g
}

TEST(ProtocolTest, MutationRequestsRoundTrip) {
  auto insert = ParseRequestLine(
      SerializeInsertFact(4, "acme", "+R(3, 4)", "Q(x) <- R(x, y)"));
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_EQ(insert->op, RequestEnvelope::Op::kInsertFact);
  EXPECT_EQ(insert->id, 4u);
  EXPECT_EQ(insert->tenant, "acme");
  EXPECT_EQ(insert->fact, "+R(3, 4)");
  EXPECT_EQ(insert->dirty_query, "Q(x) <- R(x, y)");

  auto del = ParseRequestLine(SerializeDeleteFact(5, "acme", "R(3, 4)"));
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  EXPECT_EQ(del->op, RequestEnvelope::Op::kDeleteFact);
  EXPECT_EQ(del->fact, "R(3, 4)");
  EXPECT_EQ(del->fact_id, -1);
  EXPECT_EQ(del->dirty_query, "");

  auto by_id = ParseRequestLine(
      R"({"op":"delete_fact","id":6,"tenant":"acme","fact_id":8})");
  ASSERT_TRUE(by_id.ok()) << by_id.status().ToString();
  EXPECT_EQ(by_id->fact_id, 8);

  // tenant and a fact (or fact_id) are mandatory.
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"insert_fact","tenant":"acme"})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"js({"op":"insert_fact","fact":"+R(1)"})js").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"delete_fact","tenant":"acme"})").ok());
}

TEST(ProtocolTest, MutationResponseRoundTrips) {
  SolveResponse response;
  response.id = 9;
  response.status = "ok";
  response.mutation = true;
  response.fact_id = 42;
  response.epoch = 7;
  response.tombstones = 3;
  response.dirty_answers = 2;
  response.compacted = true;
  auto parsed = ParseResponseLine(SerializeResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->mutation);
  EXPECT_EQ(parsed->fact_id, 42);
  EXPECT_EQ(parsed->epoch, 7u);
  EXPECT_EQ(parsed->tombstones, 3);
  EXPECT_EQ(parsed->dirty_answers, 2);
  EXPECT_TRUE(parsed->compacted);
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/shapcq_" + name + "_" +
         std::to_string(::getpid());
}

JournalRecord MakeRecord(uint64_t id, const std::string& tenant) {
  JournalRecord record;
  record.timestamp_ns = 123456789 + id;
  record.fingerprint = "fp-" + std::to_string(id);
  record.request.id = id;
  record.request.tenant = tenant;
  record.request.query = "Q(x) <- R(x, y), S(y)";
  record.request.samples = 1000;
  record.request.seed = id * 17;
  record.request.deadline_ms = 50;
  return record;
}

TEST(JournalTest, RoundTripsRecords) {
  std::string path = TempPath("journal_roundtrip");
  {
    auto writer = JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE((*writer)->Append(MakeRecord(i, "acme")).ok());
    }
    EXPECT_EQ((*writer)->records_written(), 5u);
  }
  auto records = ReadJournal(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    const JournalRecord& record = (*records)[i];
    EXPECT_EQ(record.sequence, i);
    EXPECT_EQ(record.request.id, i);
    EXPECT_EQ(record.fingerprint, "fp-" + std::to_string(i));
    EXPECT_EQ(record.request.seed, i * 17);
    EXPECT_EQ(record.request.deadline_ms, 50);
  }
  std::remove(path.c_str());
}

TEST(JournalTest, ReportsTruncationWithOffset) {
  std::string path = TempPath("journal_truncated");
  {
    auto writer = JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(MakeRecord(0, "acme")).ok());
    ASSERT_TRUE((*writer)->Append(MakeRecord(1, "acme")).ok());
  }
  // Chop the tail off the second record.
  std::FILE* file = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  long size = std::ftell(file);
  ASSERT_EQ(::ftruncate(fileno(file), size - 5), 0);
  std::fclose(file);

  auto records = ReadJournal(path);
  ASSERT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(records.status().message().find("1 intact records"),
            std::string::npos)
      << records.status().message();
  std::remove(path.c_str());
}

TEST(JournalTest, RejectsBadMagic) {
  std::string path = TempPath("journal_magic");
  std::FILE* file = std::fopen(path.c_str(), "wb");
  std::fputs("not a journal at all", file);
  std::fclose(file);
  EXPECT_FALSE(ReadJournal(path).ok());
  std::remove(path.c_str());
}

TEST(JournalTest, MutationRecordsRoundTrip) {
  std::string path = TempPath("journal_mutations");
  {
    auto writer = JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    JournalRecord insert = MakeRecord(0, "acme");
    insert.op = JournalOp::kInsertFact;
    insert.fact = "+R(7, 'x')";
    ASSERT_TRUE((*writer)->Append(insert).ok());
    JournalRecord del = MakeRecord(1, "acme");
    del.op = JournalOp::kDeleteFact;
    del.fact = "R(7, 'x')";
    ASSERT_TRUE((*writer)->Append(del).ok());
    ASSERT_TRUE((*writer)->Append(MakeRecord(2, "acme")).ok());
  }
  auto records = ReadJournal(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].op, JournalOp::kInsertFact);
  EXPECT_EQ((*records)[0].fact, "+R(7, 'x')");
  EXPECT_EQ((*records)[1].op, JournalOp::kDeleteFact);
  EXPECT_EQ((*records)[1].fact, "R(7, 'x')");
  EXPECT_EQ((*records)[2].op, JournalOp::kSolve);
  EXPECT_EQ((*records)[2].fact, "");
  std::remove(path.c_str());
}

TEST(JournalTest, RotatesBySizeAndChainReadsAllSegments) {
  std::string path = TempPath("journal_rotation");
  constexpr uint64_t kMaxSegmentBytes = 200;
  uint64_t segments = 0;
  {
    auto writer = JournalWriter::Open(path, kMaxSegmentBytes);
    ASSERT_TRUE(writer.ok());
    for (uint64_t i = 0; i < 12; ++i) {
      ASSERT_TRUE((*writer)->Append(MakeRecord(i, "acme")).ok());
    }
    segments = (*writer)->segments();
    EXPECT_GT(segments, 1u) << "journal never rotated";
  }
  // Each segment individually is a valid journal whose sequences continue
  // where the previous segment stopped...
  uint64_t next_sequence = 0;
  for (uint64_t segment = 0; segment < segments; ++segment) {
    std::string segment_path =
        segment == 0 ? path : path + "." + std::to_string(segment);
    auto part = ReadJournal(segment_path);
    ASSERT_TRUE(part.ok()) << part.status().ToString();
    ASSERT_FALSE(part->empty()) << "empty segment " << segment;
    EXPECT_EQ(part->front().sequence, next_sequence);
    next_sequence = part->back().sequence + 1;
  }
  EXPECT_EQ(next_sequence, 12u);
  // ...and the chain reader stitches them back into one contiguous run.
  auto all = ReadJournalChain(path);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 12u);
  for (uint64_t i = 0; i < 12; ++i) {
    EXPECT_EQ((*all)[i].sequence, i);
    EXPECT_EQ((*all)[i].request.id, i);
  }
  for (uint64_t segment = 0; segment < segments; ++segment) {
    std::string segment_path =
        segment == 0 ? path : path + "." + std::to_string(segment);
    std::remove(segment_path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(AdmissionTest, RejectsOverQueueLimit) {
  AdmissionController admission(TenantLimits{2, 3});
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(admission.TryAdmit("acme").ok()) << i;
  }
  Status rejected = admission.TryAdmit("acme");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  // Structured like ExactUnavailableStatus: names the tenant, the
  // observed depths, the limits, and what to do about it.
  EXPECT_NE(rejected.message().find("'acme'"), std::string::npos);
  EXPECT_NE(rejected.message().find("3 queued (limit 3)"),
            std::string::npos);
  EXPECT_NE(rejected.message().find("retry with backoff"),
            std::string::npos);

  // Other tenants are unaffected.
  EXPECT_TRUE(admission.TryAdmit("globex").ok());
}

TEST(AdmissionTest, CompletionFreesCapacity) {
  AdmissionController admission(TenantLimits{1, 1});
  ASSERT_TRUE(admission.TryAdmit("t").ok());
  admission.OnDequeue("t");  // queued 0, in flight 1
  ASSERT_TRUE(admission.TryAdmit("t").ok());  // queued 1
  EXPECT_FALSE(admission.TryAdmit("t").ok());
  admission.OnDequeue("t");
  admission.OnComplete("t");
  admission.OnComplete("t");
  auto depths = admission.TenantDepths("t");
  EXPECT_EQ(depths.queued, 0);
  EXPECT_EQ(depths.in_flight, 0);
  EXPECT_TRUE(admission.TryAdmit("t").ok());
}

// ---------------------------------------------------------------------------
// Deadline cancellation in the session
// ---------------------------------------------------------------------------

AggregateQuery TestQuery() {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  return AggregateQuery{q, MakeTauId(0), AggregateFunction::Sum()};
}

Database TestDatabase() {
  auto db = ParseDatabase("+R(1, 2)\n+R(2, 3)\n+S(2)\n+S(3)\n");
  SHAPCQ_CHECK(db.ok());
  return std::move(db).value();
}

TEST(DeadlineTest, FiredCancellationReturnsDeadlineExceeded) {
  Database db = TestDatabase();
  SolverSession session(TestQuery(), db);
  SolverOptions options;
  options.cancelled = [] { return true; };
  auto results = session.ComputeAll(options);
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(results.status().message().find("retry with method=mc"),
            std::string::npos);
}

TEST(DeadlineTest, UnfiredCancellationIsHarmless) {
  Database db = TestDatabase();
  SolverSession session(TestQuery(), db);
  SolverOptions plain;
  auto expected = session.ComputeAll(plain);
  ASSERT_TRUE(expected.ok());

  SolverOptions cancellable;
  cancellable.cancelled = [] { return false; };
  auto actual = session.ComputeAll(cancellable);
  ASSERT_TRUE(actual.ok());
  ASSERT_EQ(actual->size(), expected->size());
  for (size_t i = 0; i < actual->size(); ++i) {
    EXPECT_EQ((*actual)[i].second.exact, (*expected)[i].second.exact);
  }
}

TEST(DeadlineTest, DegradedMonteCarloIsDeterministic) {
  Database db = TestDatabase();
  SolverSession session(TestQuery(), db);
  SolverOptions mc;
  mc.method = SolveMethod::kMonteCarlo;
  mc.monte_carlo.num_samples = 200;
  auto first = session.ComputeAll(mc);
  auto second = session.ComputeAll(mc);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].second.approximation,
              (*second)[i].second.approximation);
    EXPECT_EQ((*first)[i].second.std_error, (*second)[i].second.std_error);
  }
}

// ---------------------------------------------------------------------------
// Live server
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    server_ = std::make_unique<AttributionServer>(std::move(options));
    server_->RegisterTenant("acme", TestDatabase());
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  SolveResponse MustRoundTrip(LineClient& client, const std::string& line) {
    auto reply = client.RoundTrip(line);
    EXPECT_TRUE(reply.ok()) << reply.status().ToString();
    auto response = ParseResponseLine(*reply);
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return std::move(response).value();
  }

  std::unique_ptr<AttributionServer> server_;
};

TEST_F(ServerTest, ServesSolvePingMetricsAndErrors) {
  StartServer(ServerOptions{});
  auto client = LineClient::Connect(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  SolveResponse pong = MustRoundTrip(*client, SerializePing(1));
  EXPECT_TRUE(pong.pong);

  SolveRequest request;
  request.id = 2;
  request.tenant = "acme";
  request.query = "Q(x) <- R(x, y), S(y)";
  SolveResponse solved =
      MustRoundTrip(*client, SerializeSolveRequest(request));
  EXPECT_EQ(solved.status, "ok");
  EXPECT_FALSE(solved.degraded);
  EXPECT_FALSE(solved.results.empty());
  EXPECT_TRUE(solved.results[0].exact);
  EXPECT_NE(solved.fingerprint.find("score=shapley"), std::string::npos);
  EXPECT_NE(solved.footer.find("plan provenance"), std::string::npos);

  // Same request again: the plan cache serves it.
  request.id = 3;
  SolveResponse again =
      MustRoundTrip(*client, SerializeSolveRequest(request));
  EXPECT_TRUE(again.plan_cache_hit);
  ASSERT_EQ(again.results.size(), solved.results.size());
  for (size_t i = 0; i < again.results.size(); ++i) {
    EXPECT_EQ(again.results[i].exact_value, solved.results[i].exact_value);
  }

  request.id = 4;
  request.tenant = "nobody";
  SolveResponse missing =
      MustRoundTrip(*client, SerializeSolveRequest(request));
  EXPECT_EQ(missing.status, "error");
  EXPECT_EQ(missing.code, "NOT_FOUND");

  SolveResponse garbage = MustRoundTrip(*client, "this is not json");
  EXPECT_EQ(garbage.status, "error");
  EXPECT_EQ(garbage.code, "INVALID_ARGUMENT");

  SolveResponse metrics = MustRoundTrip(*client, SerializeMetricsRequest(5));
  EXPECT_NE(metrics.metrics.find("shapcq_requests_total"),
            std::string::npos);

  // HTTP endpoint agrees.
  auto scraped = HttpGet(server_->metrics_port(), "/metrics");
  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  EXPECT_NE(scraped->find("shapcq_requests_total{status=\"ok\"} 2"),
            std::string::npos)
      << *scraped;
  EXPECT_NE(scraped->find("shapcq_engine_facts_total"), std::string::npos);
  EXPECT_NE(scraped->find("shapcq_request_latency_p99_seconds"),
            std::string::npos);
  auto health = HttpGet(server_->metrics_port(), "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_FALSE(HttpGet(server_->metrics_port(), "/nope").ok());
}

TEST_F(ServerTest, OversizedTauHeadIndexIsAnErrorResponse) {
  StartServer(ServerOptions{});
  auto client = LineClient::Connect(server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  SolveRequest request;
  request.id = 1;
  request.tenant = "acme";
  request.query = "Q(x) <- R(x, y), S(y)";
  request.tau = "id:3000000000";
  SolveResponse rejected =
      MustRoundTrip(*client, SerializeSolveRequest(request));
  EXPECT_EQ(rejected.status, "error");
  EXPECT_EQ(rejected.code, "INVALID_ARGUMENT");
  // The daemon is still up and serves the next request.
  request.id = 2;
  request.tau = "id:1";
  SolveResponse solved =
      MustRoundTrip(*client, SerializeSolveRequest(request));
  EXPECT_EQ(solved.status, "ok");
  EXPECT_FALSE(solved.results.empty());
}

TEST_F(ServerTest, DisconnectedClientsAreReaped) {
  // A long-running daemon must reclaim the fd and reader thread of
  // every disconnected client, not hold them until Stop().
  StartServer(ServerOptions{});
  for (int i = 0; i < 4; ++i) {
    auto client = LineClient::Connect(server_->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    SolveResponse pong = MustRoundTrip(*client, SerializePing(1));
    EXPECT_TRUE(pong.pong);
  }  // ~LineClient closes the socket; the reader notices and exits.
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->live_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->live_connections(), 0u);
  EXPECT_EQ(server_->metrics().connections_opened.load(), 4u);
  EXPECT_EQ(server_->metrics().connections_closed.load(), 4u);
}

TEST_F(ServerTest, LoadTenantOverTheWire) {
  StartServer(ServerOptions{});
  auto client = LineClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());

  SolveResponse loaded = MustRoundTrip(
      *client, SerializeLoadTenant(1, "globex", "+R(7, 8)\n+S(8)\n"));
  EXPECT_EQ(loaded.status, "ok");

  SolveRequest request;
  request.id = 2;
  request.tenant = "globex";
  request.query = "Q(x) <- R(x, y), S(y)";
  SolveResponse solved =
      MustRoundTrip(*client, SerializeSolveRequest(request));
  EXPECT_EQ(solved.status, "ok");
  ASSERT_EQ(solved.results.size(), 2u);
  EXPECT_EQ(solved.results[0].exact_value, "1/2");

  SolveResponse bad = MustRoundTrip(
      *client, SerializeLoadTenant(3, "broken", "not a database"));
  EXPECT_EQ(bad.status, "error");

  // A relation used at two arities is an error response, and the daemon
  // keeps serving.
  SolveResponse conflict = MustRoundTrip(
      *client, SerializeLoadTenant(4, "broken", "+R(1, 2)\n+R(1)\n"));
  EXPECT_EQ(conflict.status, "error");
  EXPECT_EQ(conflict.code, "INVALID_ARGUMENT");
  EXPECT_TRUE(MustRoundTrip(*client, SerializePing(5)).pong);
}

TEST_F(ServerTest, SaturatedTenantIsRejectedStructurally) {
  // One worker, capacity 1+1. The hook holds the worker on the first
  // request until the test has observed the rejection, making the
  // saturation deterministic.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> entered{0};
  ServerOptions options;
  options.worker_threads = 1;
  options.limits = TenantLimits{1, 1};
  options.pre_solve_hook = [&] {
    if (entered.fetch_add(1) == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
  };
  StartServer(std::move(options));
  auto client = LineClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());

  SolveRequest request;
  request.tenant = "acme";
  request.query = "Q(x) <- R(x, y), S(y)";

  // First request: admitted, dequeued, parked in the hook.
  request.id = 1;
  ASSERT_TRUE(client->SendLine(SerializeSolveRequest(request)).ok());
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Second request: fills the queue (the only worker is parked).
  request.id = 2;
  ASSERT_TRUE(client->SendLine(SerializeSolveRequest(request)).ok());
  while (server_->admission().TenantDepths("acme").queued < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Third request: over the queue limit — rejected immediately.
  request.id = 3;
  auto reply = client->RoundTrip(SerializeSolveRequest(request));
  ASSERT_TRUE(reply.ok());
  auto rejected = ParseResponseLine(*reply);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->id, 3u);
  EXPECT_EQ(rejected->status, "error");
  EXPECT_EQ(rejected->code, "RESOURCE_EXHAUSTED");
  EXPECT_NE(rejected->error.find("'acme'"), std::string::npos);
  EXPECT_NE(rejected->error.find("retry with backoff"), std::string::npos);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  // The parked requests complete normally.
  for (int i = 0; i < 2; ++i) {
    auto line = client->ReadLine();
    ASSERT_TRUE(line.ok());
    auto response = ParseResponseLine(*line);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->status, "ok") << response->error;
  }
  EXPECT_EQ(server_->metrics().requests_rejected.load(), 1u);
}

TEST_F(ServerTest, ExpiredDeadlineDegradesDeterministically) {
  // The hook outlives the 1 ms deadline, so by solve time the deadline
  // has passed and the server goes straight to bounded Monte Carlo.
  ServerOptions options;
  options.worker_threads = 1;
  options.pre_solve_hook = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  StartServer(std::move(options));
  auto client = LineClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());

  SolveRequest request;
  request.tenant = "acme";
  request.query = "Q(x) <- R(x, y), S(y)";
  request.deadline_ms = 1;
  request.samples = 300;
  request.seed = 7;

  request.id = 1;
  SolveResponse first = MustRoundTrip(*client, SerializeSolveRequest(request));
  EXPECT_EQ(first.status, "ok");
  EXPECT_TRUE(first.degraded);
  ASSERT_FALSE(first.results.empty());
  EXPECT_FALSE(first.results[0].exact);
  EXPECT_GT(first.results[0].samples, 0);
  // The degraded response still reports its uncertainty (the CI line).
  EXPECT_NE(first.footer.find("95% CI half-width"), std::string::npos)
      << first.footer;

  // Degradation is deterministic: same request, same estimates, bitwise.
  request.id = 2;
  SolveResponse second =
      MustRoundTrip(*client, SerializeSolveRequest(request));
  EXPECT_TRUE(second.degraded);
  ASSERT_EQ(second.results.size(), first.results.size());
  for (size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(second.results[i].value, first.results[i].value);
    EXPECT_EQ(second.results[i].std_error, first.results[i].std_error);
  }
  EXPECT_GE(server_->metrics().requests_degraded.load(), 2u);
}

TEST_F(ServerTest, MidSolveDeadlineDegradesViaCancellation) {
  // No hook delay: the deadline is wired into options.cancelled and a
  // 0 ms... actually 1 ms deadline fires at a phase boundary mid-solve
  // (or before the sweep), and the server reruns as Monte Carlo either
  // way. Exercised mainly under TSan for the cancellation plumbing.
  StartServer(ServerOptions{});
  auto client = LineClient::Connect(server_->port());
  ASSERT_TRUE(client.ok());

  SolveRequest request;
  request.id = 1;
  request.tenant = "acme";
  request.query = "Q(x) <- R(x, y), S(y)";
  request.deadline_ms = 1;
  request.samples = 100;
  // Let the deadline pass before the server even dequeues: send a burst
  // so later requests expire in the queue.
  std::vector<uint64_t> ids;
  for (uint64_t i = 1; i <= 8; ++i) {
    request.id = i;
    ids.push_back(i);
    ASSERT_TRUE(client->SendLine(SerializeSolveRequest(request)).ok());
  }
  int ok_count = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto line = client->ReadLine();
    ASSERT_TRUE(line.ok());
    auto response = ParseResponseLine(*line);
    ASSERT_TRUE(response.ok());
    if (response->status == "ok") ++ok_count;
  }
  EXPECT_EQ(ok_count, 8);
}

TEST(ReplayTest, RoundTripsThroughJournalFile) {
  std::string path = TempPath("replay_journal");
  {
    auto writer = JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    for (uint64_t i = 0; i < 3; ++i) {
      JournalRecord record;
      record.timestamp_ns = i;
      record.request.id = i + 1;
      record.request.tenant = "acme";
      record.request.query = "Q(x) <- R(x, y), S(y)";
      auto a = BuildAggregateQuery(record.request);
      ASSERT_TRUE(a.ok());
      record.fingerprint = PlanFingerprint(*a, ScoreKind::kShapley);
      ASSERT_TRUE((*writer)->Append(record).ok());
    }
  }
  auto records = ReadJournal(path);
  ASSERT_TRUE(records.ok());
  std::map<std::string, std::shared_ptr<const Database>> tenants;
  tenants["acme"] = std::make_shared<const Database>(TestDatabase());
  auto replay = ReplayJournal(*records, tenants);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records, 3u);
  EXPECT_EQ(replay->plan_cache_hits, 2u);  // one compile, two hits
  EXPECT_EQ(replay->fingerprint_matches, 3u);
  ASSERT_EQ(replay->results.size(), 3u);
  std::remove(path.c_str());
}

TEST(ReplayTest, MissingTenantIsNotFound) {
  JournalRecord record;
  record.request.tenant = "ghost";
  record.request.query = "Q(x) <- R(x, y), S(y)";
  auto replay = ReplayJournal({record}, {});
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace shapcq
