// Tests for the persistent compiled-artifact store (persist/artifact.h).
//
// Two properties carry the feature:
//   * round trip — a warm-started cache serves scores bitwise-identical to
//     cold compilation, and reloaded plans keep their fingerprints;
//   * fail-safety — a missing file is a clean first boot, and every flavor
//     of corruption (truncation, flipped payload byte, wrong version,
//     wrong magic, trailing garbage) is rejected with an error the caller
//     can count and ignore, leaving the caches empty, the process alive.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/engines/lineage_engine.h"
#include "shapcq/lineage/circuit_cache.h"
#include "shapcq/persist/artifact.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/rational.h"

namespace shapcq {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "shapcq_artifact_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

Database WorkloadDatabase() {
  Database db;
  auto v = [](int64_t x) { return Value(x); };
  db.AddEndogenous("R", {v(1), v(10)});
  db.AddEndogenous("R", {v(1), v(11)});
  db.AddEndogenous("R", {v(2), v(10)});
  db.AddEndogenous("R", {v(2), v(12)});
  db.AddEndogenous("S", {v(10)});
  db.AddEndogenous("S", {v(11)});
  db.AddEndogenous("S", {v(12)});
  return db;
}

AggregateQuery WorkloadQuery() {
  return AggregateQuery{MustParseQuery("Q(x) <- R(x, y), S(y)"), MakeTauId(0),
                        AggregateFunction::Count()};
}

using Scores = std::vector<std::pair<FactId, Rational>>;

Scores MustScoreAll(const AggregateQuery& a, const Database& db,
                    bool share_circuits) {
  SolverOptions options;
  options.lineage.share_circuits = share_circuits;
  StatusOr<Scores> scores = LineageCircuitScoreAll(a, db, options);
  EXPECT_TRUE(scores.ok()) << scores.status().ToString();
  return scores.ok() ? *scores : Scores{};
}

// --- Round trip ------------------------------------------------------------

TEST(ArtifactTest, CircuitRoundTripServesBitwiseIdenticalScores) {
  const std::string dir = FreshDir("circuit_roundtrip");
  AggregateQuery a = WorkloadQuery();
  Database db = WorkloadDatabase();
  Scores baseline = MustScoreAll(a, db, /*share_circuits=*/false);
  ASSERT_FALSE(baseline.empty());

  // Populate, snapshot, persist.
  CircuitCache::Global().Clear();
  MustScoreAll(a, db, /*share_circuits=*/true);
  auto snapshot = CircuitCache::Global().Snapshot();
  ASSERT_FALSE(snapshot.empty());
  ArtifactWriter writer(dir);
  StatusOr<ArtifactWriteStats> written = writer.WriteCircuits(snapshot);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written->circuits, snapshot.size());
  EXPECT_GT(written->bytes, 0u);

  // Cold process: reload and verify every entry survives validation.
  CircuitCache::Global().Clear();
  ArtifactReader reader(dir);
  StatusOr<ArtifactLoadStats> loaded =
      reader.ReadCircuits(&CircuitCache::Global());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->found);
  EXPECT_EQ(loaded->circuits, snapshot.size());
  EXPECT_EQ(loaded->skipped, 0u);

  // The warm cache must serve everything (no new compilation) and the
  // scores must equal the share-disabled baseline bit for bit.
  CircuitCache::Stats before = CircuitCache::Global().stats();
  Scores warm = MustScoreAll(a, db, /*share_circuits=*/true);
  CircuitCache::Stats after = CircuitCache::Global().stats();
  EXPECT_EQ(after.inserts, before.inserts);
  EXPECT_GT(after.hits, before.hits);
  ASSERT_EQ(warm.size(), baseline.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(warm[i].first, baseline[i].first);
    EXPECT_EQ(warm[i].second, baseline[i].second);
  }
}

TEST(ArtifactTest, PlanRoundTripPreservesFingerprints) {
  const std::string dir = FreshDir("plan_roundtrip");
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  PlanCache source;
  source.GetOrCompile(
      AggregateQuery{q, MakeTauId(0), AggregateFunction::Sum()});
  source.GetOrCompile(
      AggregateQuery{q, MakeTauId(0), AggregateFunction::Count()},
      ScoreKind::kBanzhaf);
  source.GetOrCompile(AggregateQuery{
      q, MakeTauGreaterThan(0, Rational(3, 2)), AggregateFunction::Sum()});
  source.GetOrCompile(
      AggregateQuery{q, MakeTauReLU(0), AggregateFunction::Median()});
  source.GetOrCompile(AggregateQuery{
      q, MakeConstantTau(Rational(7)), AggregateFunction::Max()});
  source.GetOrCompile(AggregateQuery{
      q, MakeMonoidTau(MonoidKind::kPlus, {0}), AggregateFunction::Max()});
  auto plans = source.Snapshot();
  ASSERT_EQ(plans.size(), 6u);

  ArtifactWriter writer(dir);
  StatusOr<ArtifactWriteStats> written = writer.WritePlans(plans);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written->plans, plans.size());

  PlanCache restored;
  ArtifactReader reader(dir);
  StatusOr<ArtifactLoadStats> loaded = reader.ReadPlans(&restored);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->found);
  EXPECT_EQ(loaded->plans, plans.size());
  EXPECT_EQ(loaded->skipped, 0u);

  // Reconstructed plans recompiled from text carry the same fingerprints —
  // the loader's own verification, double-checked here from the outside.
  std::set<std::string> want, got;
  for (const auto& plan : plans) want.insert(plan->fingerprint());
  for (const auto& plan : restored.Snapshot()) got.insert(plan->fingerprint());
  EXPECT_EQ(want, got);
}

// --- Fail-safety -----------------------------------------------------------

TEST(ArtifactTest, MissingFilesAreACleanFirstBoot) {
  ArtifactReader reader(FreshDir("missing"));
  PlanCache plans;
  CircuitCache circuits;
  StatusOr<ArtifactLoadStats> p = reader.ReadPlans(&plans);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_FALSE(p->found);
  EXPECT_EQ(p->plans, 0u);
  StatusOr<ArtifactLoadStats> c = reader.ReadCircuits(&circuits);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_FALSE(c->found);
  EXPECT_EQ(c->circuits, 0u);
}

// Writes a valid circuits artifact and returns its path.
std::string WriteCircuitArtifact(const std::string& dir) {
  CircuitCache::Global().Clear();
  AggregateQuery a = WorkloadQuery();
  Database db = WorkloadDatabase();
  MustScoreAll(a, db, /*share_circuits=*/true);
  ArtifactWriter writer(dir);
  StatusOr<ArtifactWriteStats> written =
      writer.WriteCircuits(CircuitCache::Global().Snapshot());
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  return dir + "/" + kCircuitArtifactFile;
}

// Asserts a corrupted circuits file is rejected with an error and loads
// nothing.
void ExpectRejected(const std::string& dir, const std::string& what) {
  CircuitCache cache;
  ArtifactReader reader(dir);
  StatusOr<ArtifactLoadStats> loaded = reader.ReadCircuits(&cache);
  EXPECT_FALSE(loaded.ok()) << what << ": corruption must surface as an error";
  EXPECT_EQ(cache.stats().entries, 0u) << what;
}

TEST(ArtifactTest, TruncatedFileIsRejected) {
  const std::string dir = FreshDir("truncated");
  const std::string path = WriteCircuitArtifact(dir);
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 40u);

  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  ExpectRejected(dir, "mid-payload truncation");
  WriteFileBytes(path, bytes.substr(0, 10));
  ExpectRejected(dir, "mid-header truncation");
}

TEST(ArtifactTest, FlippedPayloadByteIsRejected) {
  const std::string dir = FreshDir("flipped");
  const std::string path = WriteCircuitArtifact(dir);
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() - 1] ^= 0x01;  // checksum no longer matches
  WriteFileBytes(path, bytes);
  ExpectRejected(dir, "flipped payload byte");
}

TEST(ArtifactTest, WrongVersionIsRejected) {
  const std::string dir = FreshDir("version");
  const std::string path = WriteCircuitArtifact(dir);
  std::string bytes = ReadFileBytes(path);
  bytes[8] ^= 0x7f;  // the u32 version field follows the 8-byte magic
  WriteFileBytes(path, bytes);
  ExpectRejected(dir, "future format version");
}

TEST(ArtifactTest, WrongMagicIsRejected) {
  const std::string dir = FreshDir("magic");
  const std::string path = WriteCircuitArtifact(dir);
  std::string bytes = ReadFileBytes(path);
  bytes[0] ^= 0xff;
  WriteFileBytes(path, bytes);
  ExpectRejected(dir, "foreign magic");
}

TEST(ArtifactTest, TrailingGarbageIsRejected) {
  const std::string dir = FreshDir("trailing");
  const std::string path = WriteCircuitArtifact(dir);
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes + "extra");
  ExpectRejected(dir, "trailing garbage");
}

TEST(ArtifactTest, CorruptPlansFileIsRejectedIndependently) {
  // Plans and circuits are independent files: a rotten plans.shapcq must
  // not poison circuit loading.
  const std::string dir = FreshDir("independent");
  WriteCircuitArtifact(dir);
  WriteFileBytes(dir + "/" + kPlanArtifactFile, "not an artifact");

  CircuitCache circuits;
  PlanCache plans;
  ArtifactReader reader(dir);
  EXPECT_FALSE(reader.ReadPlans(&plans).ok());
  StatusOr<ArtifactLoadStats> c = reader.ReadCircuits(&circuits);
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_GT(c->circuits, 0u);
}

// --- Canonical τ token parser ----------------------------------------------

TEST(ParseCanonicalTauTokenTest, RoundTripsTheBuiltins) {
  std::vector<ValueFunctionPtr> taus = {
      MakeConstantTau(Rational(7)),
      MakeConstantTau(Rational(-3, 4)),
      MakeTauId(0),
      MakeTauId(2),
      MakeTauGreaterThan(1, Rational(5, 2)),
      MakeTauReLU(1),
      MakeMonoidTau(MonoidKind::kPlus, {0, 1}),
      MakeMonoidTau(MonoidKind::kMax, {2, 0}),
      MakeMonoidTau(MonoidKind::kMin, {1}),
  };
  Tuple sample = {Value(int64_t{-2}), Value(int64_t{3}), Value(int64_t{11})};
  for (const ValueFunctionPtr& tau : taus) {
    ASSERT_TRUE(tau->HasCanonicalFingerprint()) << tau->ToString();
    StatusOr<ValueFunctionPtr> parsed =
        ParseCanonicalTauToken(tau->FingerprintToken());
    ASSERT_TRUE(parsed.ok())
        << tau->FingerprintToken() << ": " << parsed.status().ToString();
    // Same token (so the same plan-cache key) and same semantics.
    EXPECT_EQ((*parsed)->FingerprintToken(), tau->FingerprintToken());
    EXPECT_EQ((*parsed)->Evaluate(sample), tau->Evaluate(sample));
    EXPECT_EQ((*parsed)->DependsOn(), tau->DependsOn());
  }
}

TEST(ParseCanonicalTauTokenTest, RejectsMalformedTokens) {
  const char* bad[] = {
      "",          "garbage",    "tau_id^0",  "tau_id^",    "tau_id^x",
      "const(1",   "const()",    "tau_>^2",   "tau_>1",     "tau_ReLU^-1",
      "tau_id^999999999",        "callback:anything#7",
      "tau_plus^",  "tau_plus^1,", "tau_maxof^0,1", "tau_minof^1;2",
  };
  for (const char* token : bad) {
    EXPECT_FALSE(ParseCanonicalTauToken(token).ok()) << token;
  }
}

}  // namespace
}  // namespace shapcq
