// Differential tests for the interned + columnar data layer.
//
// The seed implementation indexed facts with per-(relation, position,
// value) hash maps; the column store replaces them with interned ValueIds,
// position-major columns, and dense posting lists. These tests rebuild the
// seed-style hash index from the raw facts and check the new layer against
// it — including mutation after interning (AddFact / SetEndogenous once
// queries have already interned values) — plus the galloping posting-list
// intersection and the id join against the naive oracle.

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/column_store.h"
#include "shapcq/data/database.h"
#include "shapcq/data/value_pool.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/sum_count.h"
#include "shapcq/workload/generators.h"
#include "tests/naive_join.h"

namespace shapcq {
namespace {

// Seed-style reference index: relation -> position -> value -> ascending
// fact ids, rebuilt by scanning the facts.
using ReferenceIndex =
    std::map<std::string,
             std::vector<std::map<Value, std::vector<FactId>>>>;

ReferenceIndex BuildReferenceIndex(const Database& db) {
  ReferenceIndex index;
  for (FactId id = 0; id < db.num_facts(); ++id) {
    const Fact& fact = db.fact(id);
    auto& by_position = index[fact.relation];
    if (by_position.size() < fact.args.size()) {
      by_position.resize(fact.args.size());
    }
    for (size_t position = 0; position < fact.args.size(); ++position) {
      by_position[position][fact.args[position]].push_back(id);
    }
  }
  return index;
}

void ExpectMatchesReference(const Database& db) {
  ReferenceIndex reference = BuildReferenceIndex(db);
  for (const auto& [relation, by_position] : reference) {
    RelationId relation_id = db.relation_id(relation);
    ASSERT_NE(relation_id, kNoRelationId);
    for (size_t position = 0; position < by_position.size(); ++position) {
      for (const auto& [value, expected] : by_position[position]) {
        // Value-based shim.
        EXPECT_EQ(db.FactsWith(relation, static_cast<int>(position), value),
                  expected)
            << relation << "[" << position << "] = " << value.ToString();
        // Id-based probe through the pool.
        ValueId value_id = db.pool().Find(value);
        ASSERT_NE(value_id, kNoValueId);
        EXPECT_EQ(
            db.FactsWith(relation_id, static_cast<int>(position), value_id),
            expected);
      }
    }
  }
}

Database MixedKindDb() {
  Database db;
  db.AddEndogenous("R", {Value(1), Value("a")});
  db.AddEndogenous("R", {Value(1), Value("b")});
  db.AddEndogenous("R", {Value(2.5), Value("a")});
  db.AddExogenous("R", {Value(-3), Value("c")});
  db.AddEndogenous("S", {Value("a")});
  db.AddEndogenous("S", {Value("c")});
  db.AddExogenous("T", {Value(2.5), Value(2.5)});
  db.AddEndogenous("T", {Value(1), Value(2.5)});
  return db;
}

TEST(ColumnStoreTest, FactsWithMatchesSeedHashIndex) {
  ExpectMatchesReference(MixedKindDb());
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y), T(y, z)");
  for (uint64_t seed : {1u, 7u, 23u}) {
    RandomDatabaseOptions options;
    options.facts_per_relation = 40;
    options.domain_size = 9;
    options.seed = seed;
    ExpectMatchesReference(RandomDatabaseForQuery(q, options));
  }
}

TEST(ColumnStoreTest, ProbesForAbsentValuesAreEmpty) {
  Database db = MixedKindDb();
  EXPECT_TRUE(db.FactsWith("R", 0, Value(999)).empty());
  EXPECT_TRUE(db.FactsWith("R", 1, Value("zzz")).empty());
  EXPECT_TRUE(db.FactsWith("Unknown", 0, Value(1)).empty());
  // Value interned elsewhere but not present in this column.
  EXPECT_TRUE(db.FactsWith("S", 0, Value("b")).empty());
}

TEST(ColumnStoreTest, InternCollapsesEqualNumericsAcrossKinds) {
  Database db;
  FactId int_fact = db.AddEndogenous("R", {Value(2)});
  db.AddEndogenous("R", {Value(3.5)});
  // int 2 and double 2.0 are equal Values, hence one interned id and the
  // same posting list.
  EXPECT_EQ(db.pool().Find(Value(2)), db.pool().Find(Value(2.0)));
  EXPECT_EQ(db.FactsWith("R", 0, Value(2.0)),
            (std::vector<FactId>{int_fact}));
}

TEST(ColumnStoreTest, PostingListsStaySortedAndDense) {
  Database db;
  for (int i = 0; i < 50; ++i) {
    db.AddFact("R", {Value(i % 5), Value(i)}, /*endogenous=*/i % 2 == 0);
  }
  for (int v = 0; v < 5; ++v) {
    const std::vector<FactId>& list = db.FactsWith("R", 0, Value(v));
    EXPECT_EQ(list.size(), 10u);
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
  }
}

TEST(IntersectPostingsTest, MatchesSetIntersection) {
  std::vector<FactId> a = {1, 4, 6, 9, 12, 40, 41, 42, 90};
  std::vector<FactId> b = {0, 4, 9, 10, 40, 42, 50, 60, 70, 80, 90, 100};
  std::vector<FactId> c = {4, 40, 90, 200};
  std::vector<FactId> expected_ab;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(expected_ab));
  EXPECT_EQ(IntersectPostings({&a, &b}), expected_ab);
  std::vector<FactId> expected_abc;
  std::set_intersection(expected_ab.begin(), expected_ab.end(), c.begin(),
                        c.end(), std::back_inserter(expected_abc));
  EXPECT_EQ(IntersectPostings({&a, &b, &c}), expected_abc);
  // Skewed sizes exercise the galloping path.
  std::vector<FactId> dense;
  for (FactId i = 0; i < 2000; ++i) dense.push_back(i);
  std::vector<FactId> sparse = {0, 777, 1234, 1999};
  EXPECT_EQ(IntersectPostings({&dense, &sparse}), sparse);
  std::vector<FactId> empty;
  EXPECT_TRUE(IntersectPostings({&dense, &empty}).empty());
}

// Oracle for IntersectPostings: std::set_intersection folded over the
// lists in the given order.
std::vector<FactId> SetIntersectionOracle(
    const std::vector<const std::vector<FactId>*>& lists) {
  std::vector<FactId> expected = *lists.front();
  for (size_t i = 1; i < lists.size(); ++i) {
    std::vector<FactId> next;
    std::set_intersection(expected.begin(), expected.end(),
                          lists[i]->begin(), lists[i]->end(),
                          std::back_inserter(next));
    expected = std::move(next);
  }
  return expected;
}

// Checks IntersectPostings against the set_intersection oracle, and
// IntersectPostingsLive against the oracle minus a tombstone set: no
// tombstones, every third id dead, and a bitset that ends mid-range (ids
// past its end are live).
void ExpectIntersectionsMatchOracle(
    const std::vector<const std::vector<FactId>*>& lists,
    const std::string& label) {
  const std::vector<FactId> expected = SetIntersectionOracle(lists);
  const std::vector<FactId> got = IntersectPostings(lists);
  EXPECT_EQ(got, expected) << label;
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << label;

  FactId max_id = 0;
  for (const std::vector<FactId>* list : lists) {
    if (!list->empty()) max_id = std::max(max_id, list->back());
  }
  std::vector<char> every_third(static_cast<size_t>(max_id) + 1, 0);
  for (size_t id = 0; id < every_third.size(); id += 3) every_third[id] = 1;
  std::vector<char> half(every_third.begin(),
                         every_third.begin() +
                             static_cast<long>(every_third.size() / 2));
  const std::vector<char> none;
  for (const std::vector<char>* dead :
       std::vector<const std::vector<char>*>{&none, &every_third, &half}) {
    std::vector<FactId> live;
    for (FactId id : expected) {
      const bool is_dead = static_cast<size_t>(id) < dead->size() &&
                           (*dead)[static_cast<size_t>(id)] != 0;
      if (!is_dead) live.push_back(id);
    }
    EXPECT_EQ(IntersectPostingsLive(lists, *dead), live)
        << label << " (tombstones: " << dead->size() << ")";
  }
}

// Adversarial shapes, each stressing a different step of the galloping
// intersection: skewed lengths, dense runs, empty and singleton lists,
// all-match and no-match, and interleavings that alternate which stream
// advances. Every result is checked against std::set_intersection and,
// through IntersectPostingsLive, against a tombstone set.
TEST(IntersectPostingsTest, AdversarialShapesMatchSetIntersection) {
  std::vector<FactId> empty;
  std::vector<FactId> singleton = {7};
  std::vector<FactId> dense;
  for (FactId i = 0; i < 4096; ++i) dense.push_back(i);
  std::vector<FactId> evens;
  for (FactId i = 0; i < 4096; i += 2) evens.push_back(i);
  std::vector<FactId> odds;
  for (FactId i = 1; i < 4096; i += 2) odds.push_back(i);
  // Heavily skewed: 3 probes into 4096 elements.
  std::vector<FactId> sparse = {5, 2047, 4095};
  // Moderate skew (1:31) around a ragged tail.
  std::vector<FactId> mid;
  for (FactId i = 0; i < 4096; i += 31) mid.push_back(i);
  // Runs: long stretches present in both, separated by disjoint gaps.
  std::vector<FactId> runs_a;
  std::vector<FactId> runs_b;
  for (FactId block = 0; block < 16; ++block) {
    for (FactId i = 0; i < 64; ++i) {
      const FactId v = block * 256 + i;
      if (block % 2 == 0) runs_a.push_back(v);
      if (block % 3 != 1) runs_b.push_back(v);
    }
  }

  ExpectIntersectionsMatchOracle({&empty, &dense}, "empty vs dense");
  ExpectIntersectionsMatchOracle({&singleton, &dense}, "singleton hit");
  ExpectIntersectionsMatchOracle({&singleton, &odds}, "singleton miss");
  ExpectIntersectionsMatchOracle({&dense, &dense}, "all-match identical");
  ExpectIntersectionsMatchOracle({&evens, &odds}, "no-match interleaved");
  ExpectIntersectionsMatchOracle({&sparse, &dense}, "skewed 3 vs 4096");
  ExpectIntersectionsMatchOracle({&mid, &dense},
                                 "moderate skew, ragged tail");
  ExpectIntersectionsMatchOracle({&runs_a, &runs_b}, "dense runs with gaps");
  ExpectIntersectionsMatchOracle({&evens, &dense, &mid}, "three-way");
  ExpectIntersectionsMatchOracle({&sparse, &evens, &runs_b, &dense},
                                 "four-way mixed skew");

  // Randomized sweep over short and long lengths.
  std::mt19937 rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    auto random_list = [&rng](size_t max_len, int stride) {
      std::vector<FactId> list;
      FactId next = static_cast<FactId>(rng() % 8);
      const size_t len = rng() % (max_len + 1);
      for (size_t i = 0; i < len; ++i) {
        list.push_back(next);
        next += 1 + static_cast<FactId>(rng() % stride);
      }
      return list;
    };
    std::vector<FactId> a = random_list(rng() % 2 ? 9 : 600, 3);
    std::vector<FactId> b = random_list(600, 7);
    ExpectIntersectionsMatchOracle({&a, &b},
                                   "trial " + std::to_string(trial));
  }
}

// Lengths around 4 and 8 and matches at every position of a short
// prefix: edge cases for any cursor that advances in fixed-size steps,
// kept so the one intersection path stays covered at those boundaries.
TEST(IntersectPostingsTest, BlockBoundaryShapesMatchSetIntersection) {
  // One match per position of the first eight elements.
  for (FactId lane = 0; lane < 8; ++lane) {
    std::vector<FactId> b;
    for (FactId i = 0; i < 24; ++i) b.push_back(i * 2);
    std::vector<FactId> a = {static_cast<FactId>(lane * 2)};
    ExpectIntersectionsMatchOracle({&a, &b}, "single match per lane");
  }
  // Lengths 1..26 cover |b| mod 8 in every residue.
  for (size_t len = 1; len <= 26; ++len) {
    std::vector<FactId> b;
    for (size_t i = 0; i < len; ++i) b.push_back(static_cast<FactId>(3 * i));
    std::vector<FactId> a;
    for (size_t i = 0; i < len; ++i) a.push_back(static_cast<FactId>(2 * i));
    ExpectIntersectionsMatchOracle({&a, &b},
                                   "length sweep across residues");
  }
  // Match exactly at the sixteenth and at the seventeenth element.
  std::vector<FactId> b17;
  for (FactId i = 0; i < 17; ++i) b17.push_back(i * 5);
  std::vector<FactId> at15 = {b17[15]};
  std::vector<FactId> at16 = {b17[16]};
  ExpectIntersectionsMatchOracle({&at15, &b17}, "match at element 16");
  ExpectIntersectionsMatchOracle({&at16, &b17}, "match at element 17");
}

TEST(ColumnStoreTest, SetEndogenousAfterInterningKeepsIndexes) {
  Database db = MixedKindDb();
  // Force interned lookups first.
  ExpectMatchesReference(db);
  std::vector<FactId> before = db.FactsWith("R", 0, Value(1));
  int endo_before = db.num_endogenous();
  db.SetEndogenous(0, false);
  EXPECT_EQ(db.num_endogenous(), endo_before - 1);
  // Posting lists are orthogonal to the endogenous flag.
  EXPECT_EQ(db.FactsWith("R", 0, Value(1)), before);
  std::vector<FactId> endo = db.EndogenousFacts();
  EXPECT_TRUE(std::find(endo.begin(), endo.end(), 0) == endo.end());
  db.SetEndogenous(0, true);
  EXPECT_EQ(db.num_endogenous(), endo_before);
  ExpectMatchesReference(db);
}

TEST(ColumnStoreTest, MutationAfterInternExtendsPostings) {
  Database db = MixedKindDb();
  // Interning happened; now add facts re-using old values and introducing
  // new ones, then re-check everything against the reference index.
  uint32_t pool_before = db.pool().size();
  EXPECT_EQ(db.FactsWith("R", 0, Value(1)).size(), 2u);
  FactId added = db.AddEndogenous("R", {Value(1), Value("zz")});
  EXPECT_EQ(db.pool().size(), pool_before + 1);  // only "zz" is new
  const std::vector<FactId>& probed = db.FactsWith("R", 0, Value(1));
  ASSERT_EQ(probed.size(), 3u);
  EXPECT_EQ(probed.back(), added);
  EXPECT_TRUE(std::is_sorted(probed.begin(), probed.end()));
  // A brand-new relation after queries ran.
  db.AddEndogenous("U", {Value("zz")});
  EXPECT_EQ(db.FactsWith("U", 0, Value("zz")).size(), 1u);
  ExpectMatchesReference(db);
}

// Canonical form of a homomorphism set for order-insensitive comparison.
std::set<std::pair<Tuple, std::vector<FactId>>> Canonical(
    const std::vector<Homomorphism>& homs) {
  std::set<std::pair<Tuple, std::vector<FactId>>> out;
  for (const Homomorphism& hom : homs) {
    out.emplace(hom.answer, hom.used_facts);
  }
  return out;
}

TEST(IdJoinTest, MatchesNaiveOracleOnMixedKindsAndConstants) {
  Database db = MixedKindDb();
  for (const char* text : {
           "Q(x) <- R(x, y), S(y)",
           "Q(x, z) <- R(x, y), S(y), T(x, z)",
           "Q(y) <- R(1, y)",            // constant probe
           "Q(x) <- T(x, x)",            // repeated variable in one atom
           "Q() <- R(x, 'a'), S('a')",   // string constants
           "Q(x) <- R(x, y), S('never')",  // constant absent from the pool
       }) {
    ConjunctiveQuery q = MustParseQuery(text);
    EXPECT_EQ(Canonical(EnumerateHomomorphisms(q, db)),
              Canonical(EnumerateHomomorphismsNaive(q, db)))
        << text;
  }
}

TEST(IdJoinTest, MatchesNaiveOracleOnRandomDatabases) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y), T(y)");
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomDatabaseOptions options;
    options.facts_per_relation = 30;
    options.domain_size = 6;
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    EXPECT_EQ(Canonical(EnumerateHomomorphisms(q, db)),
              Canonical(EnumerateHomomorphismsNaive(q, db)))
        << "seed " << seed;
  }
}

TEST(IdJoinDeathTest, AbortsOnAtomArityConflictLikeTheNaiveJoin) {
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x)");
  EXPECT_DEATH(EnumerateHomomorphisms(q, db), "arity");
  EXPECT_DEATH(SplitRelevant(q, AllFacts(db)), "arity");
  EXPECT_DEATH(SplitRelevantIndexed(q, db), "arity");
}

TEST(IdJoinTest, SeesFactsAddedAfterInterning) {
  Database db = MixedKindDb();
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  size_t before = EnumerateHomomorphisms(q, db).size();
  db.AddEndogenous("R", {Value(7), Value("c")});  // joins with S('c')
  std::vector<Homomorphism> after = EnumerateHomomorphisms(q, db);
  EXPECT_EQ(after.size(), before + 1);
  EXPECT_EQ(Canonical(after), Canonical(EnumerateHomomorphismsNaive(q, db)));
}

TEST(SplitRelevantIndexedTest, MatchesScanningSplit) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y), T(y)");
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RandomDatabaseOptions options;
    options.facts_per_relation = 25;
    options.domain_size = 5;
    options.seed = seed;
    Database db = RandomDatabaseForQuery(q, options);
    for (const Tuple& answer : Evaluate(q, db)) {
      ConjunctiveQuery q_t = q.Bind(q.head()[0], answer[0]);
      RelevanceSplit scan = SplitRelevant(q_t, AllFacts(db));
      RelevanceSplit indexed = SplitRelevantIndexed(q_t, db);
      EXPECT_EQ(indexed.relevant.facts, scan.relevant.facts);
      EXPECT_EQ(indexed.irrelevant_endogenous, scan.irrelevant_endogenous);
      EXPECT_EQ(indexed.irrelevant_exogenous, scan.irrelevant_exogenous);
    }
  }
}

TEST(SumCountScoreAllTest, UnchangedByEndogenousFlagCycle) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 20;
  options.domain_size = 5;
  options.seed = 3;
  Database db = RandomDatabaseForQuery(q, options);
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
  auto before = SumCountScoreAll(a, db);
  ASSERT_TRUE(before.ok());
  // Mutate flags after interning, then restore: scores must be identical.
  FactId f = db.EndogenousFacts().front();
  db.SetEndogenous(f, false);
  db.SetEndogenous(f, true);
  auto after = SumCountScoreAll(a, db);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->size(), after->size());
  for (size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*before)[i].first, (*after)[i].first);
    EXPECT_EQ((*before)[i].second, (*after)[i].second);
  }
}

}  // namespace
}  // namespace shapcq
