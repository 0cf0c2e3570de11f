// Seeded mutation fuzzing of every reader that takes bytes from outside
// the process: the wire (JSON, request and response lines, the query, fact
// and aggregate/τ spec grammars), the request journal, and the compiled
// plan and circuit artifacts.
//
// Each input class starts from a corpus of valid inputs and applies a few
// deterministic mutations per case (insert, delete, replace, or duplicate
// a span), drawn from fixed seeds, so a failure reproduces exactly. The
// property is that no input aborts, reads out of bounds, or trips UB: a
// reader returns a value or an error Status. The ASan and UBSan builds of
// this test are where that property has teeth. Where a reader does
// accept a mutated input, the checks below assert the invariants its
// callers rely on.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/spec.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/data/db_io.h"
#include "shapcq/engines/lineage_engine.h"
#include "shapcq/lineage/circuit_cache.h"
#include "shapcq/persist/artifact.h"
#include "shapcq/query/parser.h"
#include "shapcq/serve/journal.h"
#include "shapcq/serve/json.h"
#include "shapcq/serve/protocol.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/rational.h"

namespace shapcq {
namespace {

// Fragments a mutation may insert or substitute: JSON structure, number
// shapes that stress integer narrowing, escapes, and grammar punctuation.
const std::vector<std::string>& Dictionary() {
  static const std::vector<std::string> kTokens = {
      "\"", "{", "}", "[", "]", ":", ",", "\\", "\\u", "\\ud800", "-", "+",
      "0", "1", "9", "e9", ".5", "4294967297", "2147483648", "3000000000",
      "99999999999999999999999", "-4294967295", "null", "true", "(", ")",
      "<-", "'", "^", "/", "id:", "gt:", "relu:", "plus:", "qnt:", "\n",
      std::string(1, '\0'), "\xff", "\xc3\xa9"};
  return kTokens;
}

// One random fragment: a dictionary token or 1-4 arbitrary bytes.
std::string RandomFragment(std::mt19937_64& rng) {
  if (rng() % 2 == 0) {
    const std::vector<std::string>& dict = Dictionary();
    return dict[rng() % dict.size()];
  }
  std::string bytes(1 + rng() % 4, '\0');
  for (char& c : bytes) c = static_cast<char>(rng() % 256);
  return bytes;
}

// Applies one to four mutations, each an insert, delete, replace, or
// duplicate of a span of at most eight bytes.
std::string Mutate(std::string text, std::mt19937_64& rng) {
  const int mutations = 1 + static_cast<int>(rng() % 4);
  for (int m = 0; m < mutations; ++m) {
    const size_t at = rng() % (text.size() + 1);
    const size_t span = std::min<size_t>(1 + rng() % 8, text.size() - at);
    switch (rng() % 4) {
      case 0:  // insert
        text.insert(at, RandomFragment(rng));
        break;
      case 1:  // delete
        text.erase(at, span);
        break;
      case 2:  // replace
        text.replace(at, span, RandomFragment(rng));
        break;
      default:  // duplicate
        text.insert(at, text.substr(at, span));
        break;
    }
  }
  return text;
}

// ---------------------------------------------------------------------------
// Wire lines and spec grammars
// ---------------------------------------------------------------------------

SolveRequest Solve(const std::string& agg, const std::string& tau) {
  SolveRequest request;
  request.id = 11;
  request.tenant = "acme";
  request.query = "Q(x, y) <- R(x, y), S(y)";
  request.agg = agg;
  request.tau = tau;
  return request;
}

std::vector<std::string> RequestCorpus() {
  std::vector<std::string> lines;
  const std::vector<std::pair<std::string, std::string>> agg_taus = {
      {"sum", "id:1"},          {"qnt:1/3", "id:2"},
      {"max", "plus:1,2"},      {"min", "minof:2,1"},
      {"count", "gt:2:5"},      {"avg", "relu:1"},
      {"cdist", "maxof:1"},     {"dup", "const:7/2"},
      {"median", "id:3000000000"}, {"sum", "gt:4294967297:1"},
      {"sum", "id:99999999999999999999999"}};
  for (const auto& [agg, tau] : agg_taus) {
    lines.push_back(SerializeSolveRequest(Solve(agg, tau)));
  }
  SolveRequest sampled = Solve("sum", "id:1");
  sampled.score = "banzhaf";
  sampled.method = "mc";
  sampled.samples = 500;
  sampled.seed = 7;
  sampled.deadline_ms = 25;
  sampled.threads = 4;
  sampled.trace = true;
  lines.push_back(SerializeSolveRequest(sampled));
  lines.push_back(SerializeInsertFact(3, "acme", "+R(3, 'x')",
                                      "Q(x) <- R(x, y)"));
  lines.push_back(SerializeInsertFact(4, "acme", "-S(2.5)"));
  lines.push_back(SerializeDeleteFact(5, "acme", "R(3, 'x')"));
  lines.push_back(
      R"({"op":"delete_fact","id":6,"tenant":"acme","fact_id":8})");
  lines.push_back(
      SerializeLoadTenant(7, "acme", "+R(1, 2)\n+R(2, 3)\n-S(2)\n+S(3)\n"));
  lines.push_back(SerializePing(8));
  lines.push_back(SerializeMetricsRequest(9));
  return lines;
}

std::vector<std::string> ResponseCorpus() {
  SolveResponse solved;
  solved.id = 7;
  solved.status = "ok";
  solved.fingerprint = "fp";
  solved.trace_id = "00000000000000ab";
  FactScore fact;
  fact.fact = 3;
  fact.fact_text = "R(1, 2)";
  fact.exact = true;
  fact.exact_value = "1/3";
  fact.value = 1.0 / 3.0;
  fact.algorithm = "sum-count/linearity";
  solved.results.push_back(fact);
  SolveResponse error;
  error.id = 8;
  error.status = "error";
  error.code = "INVALID_ARGUMENT";
  error.error = "bad head index in tau token";
  SolveResponse mutation;
  mutation.id = 9;
  mutation.status = "ok";
  mutation.mutation = true;
  mutation.fact_id = 42;
  mutation.dirty_answers = 2;
  return {SerializeResponse(solved), SerializeResponse(error),
          SerializeResponse(mutation)};
}

// Feeds one line through every wire-side reader, checking the invariants
// that a successful parse promises its caller.
void FeedWireLine(const std::string& line) {
  (void)ParseJson(line);
  (void)ParseResponseLine(line);
  StatusOr<RequestEnvelope> envelope = ParseRequestLine(line);
  if (!envelope.ok()) return;
  switch (envelope->op) {
    case RequestEnvelope::Op::kSolve: {
      const SolveRequest& solve = envelope->solve;
      EXPECT_GE(solve.threads, 0);
      EXPECT_LE(solve.threads, 4096);
      (void)BuildSolverOptions(solve);
      StatusOr<AggregateQuery> query = BuildAggregateQuery(solve);
      if (query.ok()) {
        for (int position : query->tau->DependsOn()) {
          EXPECT_GE(position, 0) << line;
          EXPECT_LT(position, query->query.arity()) << line;
        }
      }
      break;
    }
    case RequestEnvelope::Op::kInsertFact:
    case RequestEnvelope::Op::kDeleteFact:
      (void)ParseFactLine(envelope->fact);
      (void)ParseQuery(envelope->dirty_query);
      break;
    case RequestEnvelope::Op::kLoadTenant:
      (void)ParseDatabase(envelope->db_text);
      break;
    default:
      break;
  }
}

TEST(ParserFuzzTest, CorpusParses) {
  for (const std::string& line : RequestCorpus()) {
    EXPECT_TRUE(ParseRequestLine(line).ok()) << line;
  }
  for (const std::string& line : ResponseCorpus()) {
    EXPECT_TRUE(ParseResponseLine(line).ok()) << line;
  }
}

TEST(ParserFuzzTest, MutatedWireLinesNeverAbort) {
  std::vector<std::string> corpus = RequestCorpus();
  for (const std::string& line : ResponseCorpus()) corpus.push_back(line);
  std::mt19937_64 rng(17);
  for (int round = 0; round < 1500; ++round) {
    for (const std::string& line : corpus) {
      const std::string mutated = Mutate(line, rng);
      SCOPED_TRACE(mutated);
      FeedWireLine(mutated);
    }
  }
}

TEST(ParserFuzzTest, MutatedSpecsAndTextNeverAbort) {
  const std::vector<std::string> specs = {
      "sum", "count", "cdist", "min", "max", "avg", "median", "dup",
      "qnt:1/3", "id:1", "relu:2", "gt:1:40000", "gt:2:-7/3", "const:5",
      "plus:1,3", "maxof:2,1", "minof:3", "id:3000000000",
      "gt:3000000000:5", "id:99999999999999999999999", "relu:4294967297",
      "id:2147483648", "tau_>5^2", "tau_plus^1,3", "tau_ReLU^1",
      "const(7/2)"};
  const std::vector<std::string> texts = {
      "Q(x, y) <- R(x, y), S(y)", "Q() <- R(x, 'a'), S('a')",
      "Q(x) <- T(x, x), U(2.5)", "+R(1, 2)", "-S('a b')", "R(-3, 1.5e3)"};
  std::mt19937_64 rng(7);
  for (int round = 0; round < 3000; ++round) {
    for (const std::string& spec : specs) {
      const std::string mutated = Mutate(spec, rng);
      (void)ParseAggregateSpec(mutated);
      StatusOr<ValueFunctionPtr> tau = ParseTauSpec(mutated);
      if (tau.ok()) {
        for (int position : (*tau)->DependsOn()) {
          EXPECT_GE(position, 0) << mutated;
        }
      }
      (void)ParseCanonicalTauToken(mutated);
    }
    for (const std::string& text : texts) {
      const std::string mutated = Mutate(text, rng);
      (void)ParseQuery(mutated);
      (void)ParseFactLine(mutated);
    }
  }
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "shapcq_fuzz_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ParserFuzzTest, MutatedJournalsNeverAbort) {
  const std::string dir = FreshDir("journal");
  const std::string path = dir + "/journal.bin";
  {
    StatusOr<std::unique_ptr<JournalWriter>> writer = JournalWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    JournalRecord solve;
    solve.timestamp_ns = 123;
    solve.trace_id = 0xab;
    solve.fingerprint = "fp-0";
    solve.request = Solve("qnt:1/3", "gt:2:5");
    ASSERT_TRUE((*writer)->Append(solve).ok());
    JournalRecord insert;
    insert.op = JournalOp::kInsertFact;
    insert.fact = "+R(7, 'x')";
    insert.request.tenant = "acme";
    ASSERT_TRUE((*writer)->Append(insert).ok());
    JournalRecord del = insert;
    del.op = JournalOp::kDeleteFact;
    del.fact = "R(7, 'x')";
    ASSERT_TRUE((*writer)->Append(del).ok());
  }
  const std::string journal = ReadFileBytes(path);
  StatusOr<std::vector<JournalRecord>> intact = ReadJournal(path);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  ASSERT_EQ(intact->size(), 3u);

  std::mt19937_64 rng(4711);
  for (int round = 0; round < 2000; ++round) {
    WriteFileBytes(path, Mutate(journal, rng));
    StatusOr<std::vector<JournalRecord>> records = ReadJournal(path);
    if (records.ok()) {
      for (size_t i = 1; i < records->size(); ++i) {
        EXPECT_EQ((*records)[i].sequence, (*records)[i - 1].sequence + 1);
      }
    } else {
      EXPECT_EQ(records.status().code(), StatusCode::kInvalidArgument)
          << records.status().ToString();
    }
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

// Artifact header: 8-byte magic, u32 version, u64 payload length, u64
// FNV-1a checksum of the payload; all little-endian.
constexpr size_t kArtifactHeaderBytes = 8 + 4 + 8 + 8;

void PutU64At(std::string* bytes, size_t at, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + static_cast<size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

// Mutates an artifact's payload and rewrites the length and checksum
// fields to match, so the decoder, not the frame check, sees the bytes.
std::string MutatePayload(const std::string& artifact, std::mt19937_64& rng) {
  std::string out = artifact.substr(0, kArtifactHeaderBytes) +
                    Mutate(artifact.substr(kArtifactHeaderBytes), rng);
  const std::string payload = out.substr(kArtifactHeaderBytes);
  uint64_t checksum = 1469598103934665603ull;
  for (char c : payload) {
    checksum ^= static_cast<unsigned char>(c);
    checksum *= 1099511628211ull;
  }
  PutU64At(&out, 12, payload.size());
  PutU64At(&out, 20, checksum);
  return out;
}

TEST(ParserFuzzTest, MutatedPlanArtifactsNeverAbort) {
  const std::string dir = FreshDir("plans");
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  PlanCache source;
  source.GetOrCompile(
      AggregateQuery{q, MakeTauId(0), AggregateFunction::Sum()});
  source.GetOrCompile(
      AggregateQuery{q, MakeTauGreaterThan(1, Rational(3, 2)),
                     AggregateFunction::Quantile(Rational(1, 3))},
      ScoreKind::kBanzhaf);
  source.GetOrCompile(AggregateQuery{
      q, MakeMonoidTau(MonoidKind::kPlus, {0, 1}), AggregateFunction::Max()});
  ASSERT_TRUE(ArtifactWriter(dir).WritePlans(source.Snapshot()).ok());
  const std::string path = dir + "/" + kPlanArtifactFile;
  const std::string artifact = ReadFileBytes(path);
  ASSERT_GT(artifact.size(), kArtifactHeaderBytes);

  std::mt19937_64 rng(99);
  for (int round = 0; round < 2000; ++round) {
    WriteFileBytes(path, MutatePayload(artifact, rng));
    PlanCache cache;
    StatusOr<ArtifactLoadStats> loaded = ArtifactReader(dir).ReadPlans(&cache);
    if (loaded.ok()) {
      EXPECT_EQ(cache.Snapshot().size(), loaded->plans);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(ParserFuzzTest, MutatedCircuitArtifactsNeverAbort) {
  const std::string dir = FreshDir("circuits");
  Database db;
  db.AddEndogenous("R", {Value(1), Value(10)});
  db.AddEndogenous("R", {Value(1), Value(11)});
  db.AddEndogenous("R", {Value(2), Value(10)});
  db.AddEndogenous("S", {Value(10)});
  db.AddEndogenous("S", {Value(11)});
  SolverOptions options;
  options.lineage.share_circuits = true;
  CircuitCache::Global().Clear();
  ASSERT_TRUE(
      LineageCircuitScoreAll(
          AggregateQuery{MustParseQuery("Q(x) <- R(x, y), S(y)"),
                         MakeTauId(0), AggregateFunction::Count()},
          db, options)
          .ok());
  ASSERT_TRUE(ArtifactWriter(dir)
                  .WriteCircuits(CircuitCache::Global().Snapshot())
                  .ok());
  CircuitCache::Global().Clear();
  const std::string path = dir + "/" + kCircuitArtifactFile;
  const std::string artifact = ReadFileBytes(path);
  ASSERT_GT(artifact.size(), kArtifactHeaderBytes);

  std::mt19937_64 rng(1234);
  for (int round = 0; round < 2000; ++round) {
    WriteFileBytes(path, MutatePayload(artifact, rng));
    CircuitCache cache;
    StatusOr<ArtifactLoadStats> loaded =
        ArtifactReader(dir).ReadCircuits(&cache);
    if (loaded.ok()) {
      EXPECT_EQ(cache.stats().entries, loaded->circuits);
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace shapcq
