// End-to-end daemon smoke: the acceptance loop from ISSUE 7 as a ctest.
//
// Starts the attribution server with journaling on, issues solve
// requests over the wire (three queries, mixed tenants, one Monte Carlo
// request), scrapes /metrics over HTTP, stops the server, replays the
// journal with ReplayJournal (warm + cold passes, bitwise-checked
// internally), and finally asserts the wire responses are bitwise
// identical to the replayed scores — daemon, journal, and direct
// SolverSession::ComputeAll all agree on every bit.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/data/db_io.h"
#include "shapcq/lineage/circuit_cache.h"
#include "shapcq/obs/trace.h"
#include "shapcq/serve/client.h"
#include "shapcq/serve/journal.h"
#include "shapcq/serve/json.h"
#include "shapcq/serve/protocol.h"
#include "shapcq/serve/replay.h"
#include "shapcq/serve/server.h"
#include "shapcq/shapley/plan.h"

namespace shapcq {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Database MustParseDb(const char* text) {
  auto db = ParseDatabase(text);
  SHAPCQ_CHECK(db.ok());
  return std::move(db).value();
}

TEST(DaemonSmokeTest, ServeScrapeReplayBitwiseParity) {
  const std::string journal_path = ::testing::TempDir() +
                                   "/daemon_smoke_journal_" +
                                   std::to_string(::getpid());

  const char* acme_text = "+R(1, 2)\n+R(2, 3)\n+S(2)\n+S(3)\n-S(4)\n";
  const char* globex_text = "+R(5, 6)\n+R(6, 6)\n+S(6)\n+T(5)\n";

  ServerOptions options;
  options.journal_path = journal_path;
  options.worker_threads = 2;
  AttributionServer server(options);
  server.RegisterTenant("acme", MustParseDb(acme_text));
  server.RegisterTenant("globex", MustParseDb(globex_text));
  Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  auto client = LineClient::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::vector<SolveRequest> requests;
  {
    SolveRequest request;
    request.id = 1;
    request.tenant = "acme";
    request.query = "Q(x) <- R(x, y), S(y)";
    requests.push_back(request);
    request.id = 2;
    request.tenant = "globex";
    request.query = "Q() <- R(x, y), S(y), T(x)";
    request.agg = "count";
    requests.push_back(request);
    request = SolveRequest{};
    request.id = 3;
    request.tenant = "acme";
    request.query = "Q(x) <- R(x, y), S(y)";
    request.method = "mc";
    request.samples = 250;
    request.seed = 11;
    requests.push_back(request);
  }

  std::map<uint64_t, SolveResponse> responses;
  for (const SolveRequest& request : requests) {
    auto reply = client->RoundTrip(SerializeSolveRequest(request));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto response = ParseResponseLine(*reply);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, "ok") << response->error;
    responses[request.id] = std::move(response).value();
  }

  // The daemon observed everything it served.
  auto metrics = HttpGet(server.metrics_port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("shapcq_requests_total{status=\"ok\"} 3"),
            std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("shapcq_journal_records_total 3"),
            std::string::npos);
  EXPECT_NE(metrics->find("shapcq_engine_facts_total"), std::string::npos);
  EXPECT_NE(metrics->find("shapcq_plan_cache_hits_total"),
            std::string::npos);
  EXPECT_NE(metrics->find("shapcq_request_latency_p50_seconds"),
            std::string::npos);
  EXPECT_NE(metrics->find("shapcq_request_latency_p99_seconds"),
            std::string::npos);

  server.Stop();

  // Replay the journal against the same tenant data.
  auto records = ReadJournal(journal_path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), requests.size());

  std::map<std::string, std::shared_ptr<const Database>> tenants;
  tenants["acme"] = std::make_shared<const Database>(MustParseDb(acme_text));
  tenants["globex"] =
      std::make_shared<const Database>(MustParseDb(globex_text));
  auto replay = ReplayJournal(*records, tenants);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records, requests.size());
  EXPECT_EQ(replay->fingerprint_matches, requests.size());

  // Wire responses vs. replayed scores: bitwise, field by field.
  for (size_t i = 0; i < records->size(); ++i) {
    const JournalRecord& record = (*records)[i];
    auto it = responses.find(record.request.id);
    ASSERT_NE(it, responses.end());
    const std::vector<FactScore>& wire = it->second.results;
    const auto& replayed = replay->results[i];
    ASSERT_EQ(wire.size(), replayed.size()) << "record " << i;
    EXPECT_EQ(it->second.fingerprint, record.fingerprint);
    for (size_t f = 0; f < replayed.size(); ++f) {
      const auto& [fact, result] = replayed[f];
      EXPECT_EQ(wire[f].fact, fact);
      EXPECT_EQ(wire[f].exact, result.is_exact);
      EXPECT_TRUE(SameBits(wire[f].value, result.approximation))
          << "record " << i << " fact " << fact;
      if (result.is_exact) {
        EXPECT_EQ(wire[f].exact_value, result.exact.ToString());
      } else {
        EXPECT_TRUE(SameBits(wire[f].std_error, result.std_error));
        EXPECT_EQ(wire[f].samples, result.samples);
      }
      EXPECT_EQ(wire[f].algorithm, result.algorithm);
    }
  }
  std::remove(journal_path.c_str());
}

// A Section 7.3 monoid value function over the wire: Max(x + z) over a
// Cartesian product is served by the Min/Max DP (not brute force or Monte
// Carlo), and the journal replays it bitwise.
TEST(DaemonSmokeTest, MonoidTauSolveIsExactAndReplaysBitwise) {
  const std::string journal_path = ::testing::TempDir() +
                                   "/daemon_monoid_journal_" +
                                   std::to_string(::getpid());
  const char* fleet_text =
      "+R(1, 12)\n+R(2, 30)\n+R(3, 5)\n-R(4, 18)\n+T(1, 40)\n+T(2, 25)\n";

  ServerOptions options;
  options.journal_path = journal_path;
  AttributionServer server(options);
  server.RegisterTenant("fleet", MustParseDb(fleet_text));
  Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();
  auto client = LineClient::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  SolveRequest request;
  request.id = 1;
  request.tenant = "fleet";
  request.query = "Q(x, z) <- R(i, x), T(j, z)";
  request.agg = "max";
  request.tau = "plus:1,2";
  auto reply = client->RoundTrip(SerializeSolveRequest(request));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto response = ParseResponseLine(*reply);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, "ok") << response->error;
  EXPECT_NE(response->fingerprint.find("tau=tau_plus^1,2"), std::string::npos)
      << response->fingerprint;
  ASSERT_EQ(response->results.size(), 5u);
  for (const FactScore& score : response->results) {
    EXPECT_TRUE(score.exact);
    EXPECT_EQ(score.algorithm, "min-max/all-hierarchical-dp");
  }
  server.Stop();

  auto records = ReadJournal(journal_path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1u);
  std::map<std::string, std::shared_ptr<const Database>> tenants;
  tenants["fleet"] = std::make_shared<const Database>(MustParseDb(fleet_text));
  auto replay = ReplayJournal(*records, tenants);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->fingerprint_matches, 1u);
  const auto& replayed = replay->results[0];
  ASSERT_EQ(replayed.size(), response->results.size());
  for (size_t f = 0; f < replayed.size(); ++f) {
    const auto& [fact, result] = replayed[f];
    EXPECT_EQ(response->results[f].fact, fact);
    EXPECT_EQ(response->results[f].exact_value, result.exact.ToString());
    EXPECT_TRUE(SameBits(response->results[f].value, result.approximation));
    EXPECT_EQ(response->results[f].algorithm, result.algorithm);
  }
  std::remove(journal_path.c_str());
}

// Concurrent mutation parity: several client threads hammer one tenant
// with insert_fact / delete_fact (each interleaved with solves whose
// responses are deliberately not compared — a concurrent solve races the
// mutations it overlaps), the journal rotates across size-bounded
// segments while they run, and afterwards the FINAL solve — issued once
// every mutation has been acknowledged — must match a ReadJournalChain +
// ReplayJournal reconstruction of the journal bit for bit. Runs under
// the TSan CI leg: the tenant shared_mutex, journal lock, and per-tenant
// metric counters all get real contention here.
TEST(DaemonSmokeTest, ConcurrentMutationsReplayBitwiseParity) {
  const std::string journal_path = ::testing::TempDir() +
                                   "/daemon_mutation_journal_" +
                                   std::to_string(::getpid());
  const char* seed_text = "+R(1, 2)\n+R(2, 3)\n+S(2)\n+S(3)\n";
  const std::string query = "Q(x) <- R(x, y), S(y)";

  ServerOptions options;
  options.journal_path = journal_path;
  options.journal_max_segment_bytes = 512;  // force rotation mid-run
  options.worker_threads = 2;
  AttributionServer server(options);
  server.RegisterTenant("acme", MustParseDb(seed_text));
  Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  constexpr int kThreads = 3;
  constexpr int kFactsPerThread = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = LineClient::Connect(server.port());
      if (!client.ok()) {
        failures.fetch_add(100);
        return;
      }
      uint64_t id = 1000 + static_cast<uint64_t>(t) * 100;
      for (int k = 0; k < kFactsPerThread; ++k) {
        // Unique per-thread facts: inserts never collide across threads.
        std::string fact_body =
            "R(" + std::to_string(100 + t * 10 + k) + ", 2)";
        auto reply = client->RoundTrip(
            SerializeInsertFact(++id, "acme", "+" + fact_body, query));
        auto response = reply.ok() ? ParseResponseLine(*reply)
                                   : StatusOr<SolveResponse>(reply.status());
        if (!response.ok() || response->status != "ok" ||
            !response->mutation || response->fact_id < 0 ||
            response->dirty_answers < 0) {
          failures.fetch_add(1);
        }
        // A solve raced against the other threads' mutations; only its
        // transport success is checked.
        SolveRequest solve;
        solve.id = ++id;
        solve.tenant = "acme";
        solve.query = query;
        if (!client->RoundTrip(SerializeSolveRequest(solve)).ok()) {
          failures.fetch_add(1);
        }
        if (k % 2 == 1) {
          auto del = client->RoundTrip(
              SerializeDeleteFact(++id, "acme", fact_body));
          auto del_response =
              del.ok() ? ParseResponseLine(*del)
                       : StatusOr<SolveResponse>(del.status());
          if (!del_response.ok() || del_response->status != "ok" ||
              !del_response->mutation) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // The final-state solve: every mutation above has been acknowledged, so
  // this is the last journal record and replays against the fully mutated
  // database.
  auto client = LineClient::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  SolveRequest final_solve;
  final_solve.id = 7777;
  final_solve.tenant = "acme";
  final_solve.query = query;
  auto final_reply = client->RoundTrip(SerializeSolveRequest(final_solve));
  ASSERT_TRUE(final_reply.ok()) << final_reply.status().ToString();
  auto final_response = ParseResponseLine(*final_reply);
  ASSERT_TRUE(final_response.ok()) << final_response.status().ToString();
  ASSERT_EQ(final_response->status, "ok") << final_response->error;

  auto metrics = HttpGet(server.metrics_port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("shapcq_mutations_total{op=\"insert\"} 12"),
            std::string::npos)
      << *metrics;
  EXPECT_NE(metrics->find("shapcq_mutations_total{op=\"delete\"} 6"),
            std::string::npos);
  EXPECT_NE(metrics->find("shapcq_dirty_answers_last"), std::string::npos);
  EXPECT_NE(metrics->find("shapcq_tenant_requests_total{tenant=\"acme\""),
            std::string::npos);
  EXPECT_NE(metrics->find("shapcq_tenant_epoch{tenant=\"acme\"}"),
            std::string::npos);

  server.Stop();

  // The journal rotated: the base segment plus at least one numbered one.
  {
    FILE* segment = std::fopen((journal_path + ".1").c_str(), "rb");
    EXPECT_NE(segment, nullptr) << "journal never rotated";
    if (segment != nullptr) std::fclose(segment);
  }

  auto records = ReadJournalChain(journal_path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_FALSE(records->empty());
  EXPECT_EQ(records->back().op, JournalOp::kSolve);
  EXPECT_EQ(records->back().request.id, final_solve.id);

  std::map<std::string, std::shared_ptr<const Database>> tenants;
  tenants["acme"] = std::make_shared<const Database>(MustParseDb(seed_text));
  auto replay = ReplayJournal(*records, tenants);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->mutations,
            static_cast<uint64_t>(kThreads * (kFactsPerThread +
                                              kFactsPerThread / 2)));

  // Final wire response == replayed final record, bit for bit.
  const std::vector<FactScore>& wire = final_response->results;
  const auto& replayed = replay->results.back();
  ASSERT_EQ(wire.size(), replayed.size());
  for (size_t f = 0; f < replayed.size(); ++f) {
    const auto& [fact, result] = replayed[f];
    EXPECT_EQ(wire[f].fact, fact);
    EXPECT_EQ(wire[f].exact, result.is_exact);
    EXPECT_TRUE(SameBits(wire[f].value, result.approximation))
        << "fact " << fact;
    if (result.is_exact) {
      EXPECT_EQ(wire[f].exact_value, result.exact.ToString());
    }
    EXPECT_EQ(wire[f].algorithm, result.algorithm);
  }

  for (int segment = 0;; ++segment) {
    std::string path =
        segment == 0 ? journal_path
                     : journal_path + "." + std::to_string(segment);
    if (std::remove(path.c_str()) != 0) break;
  }
}

// Warm-restart parity: server A (cold, --artifact-dir set) serves a
// non-hierarchical workload across two tenants whose databases are
// renamed copies of each other, snapshots its compiled state on Stop;
// server B boots against the populated artifact directory, and the same
// requests — replayed from A's journal tail — must come back bitwise
// identical to A's cold answers, with every circuit served from the
// warm cache (zero misses) and zero artifact load errors.
TEST(DaemonSmokeTest, WarmRestartServesBitwiseIdenticalAnswers) {
  const std::string suffix = std::to_string(::getpid());
  const std::string artifact_dir =
      ::testing::TempDir() + "/daemon_artifacts_" + suffix;
  const std::string journal_a =
      ::testing::TempDir() + "/daemon_warm_journal_a_" + suffix;
  const std::string journal_b =
      ::testing::TempDir() + "/daemon_warm_journal_b_" + suffix;

  // Q() <- R(x, y), S(y), T(x) is non-hierarchical: the linearity DP
  // refuses it, so every exact answer goes through the lineage-circuit
  // engine — the compiled state the artifact store persists. Globex is
  // acme shifted by 100: same lineage shape, disjoint constants.
  const std::string query = "Q() <- R(x, y), S(y), T(x)";
  const char* acme_text =
      "+R(1, 2)\n+R(2, 3)\n+S(2)\n+S(3)\n+T(1)\n+T(2)\n";
  const char* globex_text =
      "+R(101, 102)\n+R(102, 103)\n+S(102)\n+S(103)\n+T(101)\n+T(102)\n";

  std::vector<SolveRequest> requests;
  for (const char* tenant : {"acme", "globex"}) {
    SolveRequest request;
    request.id = requests.size() + 1;
    request.tenant = tenant;
    request.query = query;
    request.agg = "count";
    requests.push_back(request);
  }

  auto run_server = [&](const std::string& journal_path,
                        std::map<uint64_t, SolveResponse>* responses,
                        std::string* metrics_text) {
    ServerOptions options;
    options.journal_path = journal_path;
    options.artifact_dir = artifact_dir;
    options.worker_threads = 2;
    AttributionServer server(options);
    server.RegisterTenant("acme", MustParseDb(acme_text));
    server.RegisterTenant("globex", MustParseDb(globex_text));
    Status started = server.Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    auto client = LineClient::Connect(server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (const SolveRequest& request : requests) {
      auto reply = client->RoundTrip(SerializeSolveRequest(request));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      auto response = ParseResponseLine(*reply);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->status, "ok") << response->error;
      (*responses)[request.id] = std::move(response).value();
    }
    auto metrics = HttpGet(server.metrics_port(), "/metrics");
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    *metrics_text = std::move(metrics).value();
    server.Stop();  // snapshots the caches into artifact_dir
  };

  // Cold pass: compiles everything, persists on Stop.
  std::map<uint64_t, SolveResponse> cold;
  std::string cold_metrics;
  run_server(journal_a, &cold, &cold_metrics);
  ASSERT_EQ(cold.size(), requests.size());
  // The second tenant's circuits were shared from the first one's even on
  // the cold pass (renamed copy ⇒ same canonical clause sets).
  EXPECT_NE(cold_metrics.find("shapcq_circuit_cache_hits_total"),
            std::string::npos);

  // Simulate a fresh process: the caches the artifact store exists to
  // repopulate start empty.
  PlanCache::Global().Clear();
  CircuitCache::Global().Clear();

  // Warm pass: same tenants, same requests (the journal tail of A).
  std::map<uint64_t, SolveResponse> warm;
  std::string warm_metrics;
  run_server(journal_b, &warm, &warm_metrics);
  ASSERT_EQ(warm.size(), requests.size());

  EXPECT_NE(warm_metrics.find("shapcq_artifact_load_errors_total 0"),
            std::string::npos)
      << warm_metrics;
  EXPECT_EQ(warm_metrics.find("shapcq_artifact_circuits_loaded_total 0"),
            std::string::npos)
      << "warm boot loaded no circuits:\n" << warm_metrics;
  EXPECT_EQ(warm_metrics.find("shapcq_artifact_plans_loaded_total 0"),
            std::string::npos)
      << "warm boot loaded no plans:\n" << warm_metrics;
  // Every circuit the warm pass needed was already resident: zero misses.
  EXPECT_NE(warm_metrics.find("shapcq_circuit_cache_misses_total 0"),
            std::string::npos)
      << warm_metrics;

  // Warm answers == cold answers, bit for bit.
  for (const SolveRequest& request : requests) {
    const SolveResponse& a = cold[request.id];
    const SolveResponse& b = warm[request.id];
    EXPECT_EQ(a.fingerprint, b.fingerprint) << "request " << request.id;
    ASSERT_EQ(a.results.size(), b.results.size()) << "request " << request.id;
    for (size_t f = 0; f < a.results.size(); ++f) {
      EXPECT_EQ(a.results[f].fact, b.results[f].fact);
      EXPECT_EQ(a.results[f].exact, b.results[f].exact);
      EXPECT_TRUE(SameBits(a.results[f].value, b.results[f].value))
          << "request " << request.id << " fact " << a.results[f].fact;
      EXPECT_EQ(a.results[f].exact_value, b.results[f].exact_value);
    }
  }

  // And both agree with a direct replay of A's journal (cold oracle).
  auto records = ReadJournal(journal_a);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  std::map<std::string, std::shared_ptr<const Database>> tenants;
  tenants["acme"] = std::make_shared<const Database>(MustParseDb(acme_text));
  tenants["globex"] =
      std::make_shared<const Database>(MustParseDb(globex_text));
  auto replay = ReplayJournal(*records, tenants);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->fingerprint_matches, records->size());

  std::remove(journal_a.c_str());
  std::remove(journal_b.c_str());
  std::remove((artifact_dir + "/plans.shapcq").c_str());
  std::remove((artifact_dir + "/circuits.shapcq").c_str());
}

// Tracing parity: the same traffic — including a request whose deadline
// burns out in the queue and degrades to Monte Carlo — served once with
// tracing off and once at full verbosity must produce bitwise-identical
// scores. The full server's responses additionally carry trace ids,
// engine explanations, and a parseable span dump; /debug/traces returns
// well-formed JSON whose incident ring contains the degraded request;
// and the v3 journal round-trips every trace id through ReplayJournal
// (which can rebuild the explanations offline).
TEST(DaemonSmokeTest, TracingParityAndFlightRecorder) {
  const std::string suffix = std::to_string(::getpid());
  const char* acme_text = "+R(1, 2)\n+R(2, 3)\n+S(2)\n+S(3)\n-S(4)\n";
  const char* globex_text = "+R(5, 6)\n+R(6, 6)\n+S(6)\n+T(5)\n";

  std::vector<SolveRequest> requests;
  {
    SolveRequest request;
    request.id = 1;
    request.tenant = "acme";
    request.query = "Q(x) <- R(x, y), S(y)";
    requests.push_back(request);
    request = SolveRequest{};
    request.id = 2;
    request.tenant = "globex";
    request.query = "Q() <- R(x, y), S(y), T(x)";  // lineage-circuit path
    request.agg = "count";
    requests.push_back(request);
    request = SolveRequest{};
    request.id = 3;
    request.tenant = "acme";
    request.query = "Q(x) <- R(x, y), S(y)";
    request.method = "mc";
    request.samples = 250;
    request.seed = 11;
    requests.push_back(request);
    // The pre_solve_hook below outsleeps this deadline, so it expires in
    // the queue and the server degrades to the (deterministic) sampled
    // estimate on both servers.
    request = SolveRequest{};
    request.id = 4;
    request.tenant = "acme";
    request.query = "Q(x) <- R(x, y), S(y)";
    request.samples = 500;
    request.seed = 7;
    request.deadline_ms = 1;
    requests.push_back(request);
    // Per-request opt-in: asks for the trace summary even when the
    // server's level is off. Must not change the scores.
    request = SolveRequest{};
    request.id = 5;
    request.tenant = "acme";
    request.query = "Q(x) <- R(x, y), S(y)";
    request.trace = true;
    requests.push_back(request);
  }

  auto run_server = [&](TraceLevel level, const std::string& journal_path,
                        std::map<uint64_t, SolveResponse>* responses,
                        std::string* metrics_text, std::string* debug_json) {
    ServerOptions options;
    options.journal_path = journal_path;
    options.worker_threads = 1;  // keeps the deadline request queued
    options.trace_level = level;
    options.pre_solve_hook = [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    };
    AttributionServer server(options);
    server.RegisterTenant("acme", MustParseDb(acme_text));
    server.RegisterTenant("globex", MustParseDb(globex_text));
    Status started = server.Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    auto client = LineClient::Connect(server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (const SolveRequest& request : requests) {
      auto reply = client->RoundTrip(SerializeSolveRequest(request));
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      auto response = ParseResponseLine(*reply);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->status, "ok") << response->error;
      (*responses)[request.id] = std::move(response).value();
    }
    auto metrics = HttpGet(server.metrics_port(), "/metrics");
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    *metrics_text = std::move(metrics).value();
    auto debug = HttpGet(server.metrics_port(), "/debug/traces");
    ASSERT_TRUE(debug.ok()) << debug.status().ToString();
    *debug_json = std::move(debug).value();
    server.Stop();
  };

  const std::string journal_off =
      ::testing::TempDir() + "/daemon_trace_off_" + suffix;
  const std::string journal_full =
      ::testing::TempDir() + "/daemon_trace_full_" + suffix;
  std::map<uint64_t, SolveResponse> off, full;
  std::string off_metrics, full_metrics, off_debug, full_debug;
  run_server(TraceLevel::kOff, journal_off, &off, &off_metrics, &off_debug);
  run_server(TraceLevel::kFull, journal_full, &full, &full_metrics,
             &full_debug);
  ASSERT_EQ(off.size(), requests.size());
  ASSERT_EQ(full.size(), requests.size());

  // Scores are bitwise-identical with tracing off vs full.
  for (const SolveRequest& request : requests) {
    const SolveResponse& a = off[request.id];
    const SolveResponse& b = full[request.id];
    EXPECT_EQ(a.degraded, b.degraded) << "request " << request.id;
    ASSERT_EQ(a.results.size(), b.results.size()) << "request " << request.id;
    for (size_t f = 0; f < a.results.size(); ++f) {
      EXPECT_EQ(a.results[f].fact, b.results[f].fact);
      EXPECT_EQ(a.results[f].exact, b.results[f].exact);
      EXPECT_EQ(a.results[f].exact_value, b.results[f].exact_value);
      EXPECT_TRUE(SameBits(a.results[f].value, b.results[f].value))
          << "request " << request.id << " fact " << a.results[f].fact;
      EXPECT_TRUE(SameBits(a.results[f].std_error, b.results[f].std_error));
      EXPECT_EQ(a.results[f].samples, b.results[f].samples);
      EXPECT_EQ(a.results[f].algorithm, b.results[f].algorithm);
    }
  }
  ASSERT_TRUE(full[4].degraded) << "deadline_ms=1 request did not degrade";

  // Full-verbosity responses: trace id, explanation, parseable span dump.
  for (const SolveRequest& request : requests) {
    const SolveResponse& response = full[request.id];
    EXPECT_EQ(response.trace_id.size(), 16u) << "request " << request.id;
    EXPECT_FALSE(response.explain.empty()) << "request " << request.id;
    auto spans = ParseJson(response.trace);
    ASSERT_TRUE(spans.ok()) << response.trace;
    EXPECT_EQ(spans->GetString("trace_id"), response.trace_id);
    EXPECT_FALSE(spans->Find("spans")->array.empty());
  }
  EXPECT_NE(full[4].explain.find("degraded("), std::string::npos)
      << full[4].explain;
  // The circuit request's explanation names the engine that scored it.
  EXPECT_NE(full[2].explain.find("scored"), std::string::npos)
      << full[2].explain;
  // Tracing-off responses carry no span payloads unless asked: request 5
  // opted in and gets the explanation even at level off.
  EXPECT_TRUE(off[1].explain.empty());
  EXPECT_TRUE(off[1].trace.empty());
  EXPECT_FALSE(off[5].explain.empty());
  ASSERT_TRUE(ParseJson(off[5].trace).ok()) << off[5].trace;

  // Per-stage histograms only exist where tracing ran.
  EXPECT_NE(full_metrics.find("shapcq_stage_seconds_bucket{stage=\"solve\""),
            std::string::npos);
  EXPECT_NE(full_metrics.find("stage=\"queue_wait\""), std::string::npos);

  // /debug/traces: well-formed JSON; the degraded request is an incident.
  auto flight = ParseJson(full_debug);
  ASSERT_TRUE(flight.ok()) << full_debug;
  const JsonValue* incidents = flight->Find("incidents");
  ASSERT_NE(incidents, nullptr);
  bool found_degraded = false;
  for (const JsonValue& entry : incidents->array) {
    if (entry.GetString("trace_id") == full[4].trace_id) {
      found_degraded = true;
      EXPECT_EQ(entry.GetString("outcome"), "degraded");
      EXPECT_EQ(entry.GetString("tenant"), "acme");
      ASSERT_TRUE(ParseJson(entry.GetString("trace")).ok());
    }
  }
  EXPECT_TRUE(found_degraded) << full_debug;
  EXPECT_FALSE(flight->Find("slowest")->array.empty());

  // Journal v3: every record carries the id its response carried, and
  // replay rebuilds the explanations offline.
  auto records = ReadJournal(journal_full);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), requests.size());
  for (const JournalRecord& record : *records) {
    ASSERT_NE(record.trace_id, 0u);
    EXPECT_EQ(TraceIdHex(record.trace_id),
              full[record.request.id].trace_id);
  }
  std::map<std::string, std::shared_ptr<const Database>> tenants;
  tenants["acme"] = std::make_shared<const Database>(MustParseDb(acme_text));
  tenants["globex"] =
      std::make_shared<const Database>(MustParseDb(globex_text));
  ReplayOptions replay_options;
  replay_options.collect_explanations = true;
  auto replay = ReplayJournal(*records, tenants, replay_options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->explanations.size(), records->size());
  for (const std::string& explanation : replay->explanations) {
    EXPECT_FALSE(explanation.empty());
    EXPECT_NE(explanation, "no solve recorded");
  }

  std::remove(journal_off.c_str());
  std::remove(journal_full.c_str());
}

// Backward compatibility: a version-2 journal (no trace ids) — encoded
// byte-for-byte here the way the PR 8 writer laid it out — still reads
// (trace_id decodes as 0) and still replays, explanations included (a
// pre-v3 record gets a fresh id).
TEST(DaemonSmokeTest, JournalV2ReadCompat) {
  const std::string path = ::testing::TempDir() + "/daemon_v2_journal_" +
                           std::to_string(::getpid());
  const char* acme_text = "+R(1, 2)\n+R(2, 3)\n+S(2)\n+S(3)\n";

  SolveRequest request;
  request.id = 9;
  request.tenant = "acme";
  request.query = "Q(x) <- R(x, y), S(y)";
  auto query = BuildAggregateQuery(request);
  ASSERT_TRUE(query.ok());
  auto solver = BuildSolverOptions(request);
  ASSERT_TRUE(solver.ok());
  const std::string fingerprint = PlanFingerprint(*query, solver->score);

  // The v2 layout: length-prefixed little-endian payload of
  //   sequence, timestamp, id, fingerprint, tenant, query, agg, tau,
  //   score, method, threads, samples, seed, deadline_ms, op, fact
  // — and nothing after `fact` (v3 appended the trace id there).
  std::string payload;
  auto put_u32 = [&](std::string* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
  };
  auto put_u64 = [&](std::string* out, uint64_t v) {
    for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
  };
  auto put_str = [&](std::string* out, const std::string& s) {
    put_u32(out, static_cast<uint32_t>(s.size()));
    out->append(s);
  };
  put_u64(&payload, 0);    // sequence
  put_u64(&payload, 123);  // timestamp_ns
  put_u64(&payload, request.id);
  put_str(&payload, fingerprint);
  put_str(&payload, request.tenant);
  put_str(&payload, request.query);
  put_str(&payload, request.agg);
  put_str(&payload, request.tau);
  put_str(&payload, request.score);
  put_str(&payload, request.method);
  put_u32(&payload, static_cast<uint32_t>(request.threads));
  put_u64(&payload, static_cast<uint64_t>(request.samples));
  put_u64(&payload, request.seed);
  put_u64(&payload, static_cast<uint64_t>(request.deadline_ms));
  put_u32(&payload, 0);      // op = kSolve
  put_str(&payload, "");     // fact
  std::string file_bytes = "SHAPCQJL";
  put_u32(&file_bytes, 2);   // version 2
  put_u32(&file_bytes, static_cast<uint32_t>(payload.size()));
  file_bytes += payload;
  {
    FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(file_bytes.data(), 1, file_bytes.size(), file),
              file_bytes.size());
    std::fclose(file);
  }

  auto records = ReadJournal(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].trace_id, 0u);  // "no trace id"
  EXPECT_EQ((*records)[0].op, JournalOp::kSolve);
  EXPECT_EQ((*records)[0].request.query, request.query);
  EXPECT_EQ((*records)[0].fingerprint, fingerprint);

  std::map<std::string, std::shared_ptr<const Database>> tenants;
  tenants["acme"] = std::make_shared<const Database>(MustParseDb(acme_text));
  ReplayOptions replay_options;
  replay_options.collect_explanations = true;
  auto replay = ReplayJournal(*records, tenants, replay_options);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->results.size(), 1u);
  EXPECT_FALSE(replay->results[0].empty());
  ASSERT_EQ(replay->explanations.size(), 1u);
  EXPECT_NE(replay->explanations[0], "no solve recorded");

  std::remove(path.c_str());
}

}  // namespace
}  // namespace shapcq
