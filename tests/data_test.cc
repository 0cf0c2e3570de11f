#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/data/csv.h"
#include "shapcq/data/database.h"
#include "shapcq/data/db_io.h"
#include "shapcq/data/value.h"

namespace shapcq {
namespace {

TEST(ValueTest, KindsAndAccessors) {
  Value i(42);
  Value d(2.5);
  Value s("hello");
  EXPECT_EQ(i.kind(), Value::Kind::kInt);
  EXPECT_EQ(d.kind(), Value::Kind::kDouble);
  EXPECT_EQ(s.kind(), Value::Kind::kString);
  EXPECT_EQ(i.AsInt(), 42);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 2.5);
  EXPECT_EQ(s.AsString(), "hello");
  EXPECT_TRUE(i.is_numeric());
  EXPECT_TRUE(d.is_numeric());
  EXPECT_FALSE(s.is_numeric());
}

TEST(ValueTest, CrossKindNumericEquality) {
  EXPECT_EQ(Value(2), Value(2.0));
  EXPECT_NE(Value(2), Value(2.5));
  EXPECT_EQ(Value(2).Hash(), Value(2.0).Hash());
}

TEST(ValueTest, TotalOrder) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value(1.5), Value(2));
  EXPECT_LT(Value(-1), Value("a"));  // numbers before strings
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value(1000000), Value("0"));
}

TEST(ValueTest, AsRationalExact) {
  EXPECT_EQ(Value(7).AsRational(), Rational(7));
  EXPECT_EQ(Value(0.5).AsRational(), Rational(BigInt(1), BigInt(2)));
  EXPECT_EQ(Value(-3).AsRational(), Rational(-3));
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value(5).ToString(), "5");
  EXPECT_EQ(Value("x").ToString(), "'x'");
  EXPECT_EQ(TupleToString({Value(1), Value("a")}), "(1, 'a')");
}

TEST(DatabaseTest, AddAndLookup) {
  Database db;
  FactId f1 = db.AddEndogenous("R", {Value(1), Value(2)});
  FactId f2 = db.AddExogenous("S", {Value(3)});
  EXPECT_EQ(db.num_facts(), 2);
  EXPECT_EQ(db.num_endogenous(), 1);
  EXPECT_EQ(db.fact(f1).relation, "R");
  EXPECT_TRUE(db.fact(f1).endogenous);
  EXPECT_FALSE(db.fact(f2).endogenous);
  EXPECT_TRUE(db.Contains("R", {Value(1), Value(2)}));
  EXPECT_FALSE(db.Contains("R", {Value(1), Value(3)}));
  EXPECT_FALSE(db.Contains("T", {Value(1)}));
  auto found = db.FindFact("S", {Value(3)});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, f2);
}

TEST(DatabaseTest, RelationIndexesAndArity) {
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  db.AddEndogenous("R", {Value(2), Value(3)});
  db.AddEndogenous("S", {Value(5)});
  EXPECT_EQ(db.FactsOf("R").size(), 2u);
  EXPECT_EQ(db.FactsOf("S").size(), 1u);
  EXPECT_TRUE(db.FactsOf("T").empty());
  EXPECT_EQ(db.Arity("R"), 2);
  EXPECT_EQ(db.Arity("S"), 1);
  std::vector<std::string> names = db.relation_names();
  EXPECT_EQ(names, (std::vector<std::string>{"R", "S"}));
}

TEST(DatabaseTest, EndogenousExogenousPartition) {
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddExogenous("R", {Value(2)});
  db.AddEndogenous("R", {Value(3)});
  std::vector<FactId> endo = db.EndogenousFacts();
  std::vector<FactId> exo = db.ExogenousFacts();
  EXPECT_EQ(endo.size(), 2u);
  EXPECT_EQ(exo.size(), 1u);
  std::unordered_set<FactId> all(endo.begin(), endo.end());
  all.insert(exo.begin(), exo.end());
  EXPECT_EQ(all.size(), 3u);
}

TEST(DatabaseTest, WithFactExogenousPreservesIds) {
  Database db;
  FactId f = db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("R", {Value(2)});
  Database modified = db.WithFactExogenous(f);
  EXPECT_EQ(modified.num_endogenous(), 1);
  EXPECT_FALSE(modified.fact(f).endogenous);
  EXPECT_EQ(modified.fact(f).args, db.fact(f).args);
  // Original untouched.
  EXPECT_TRUE(db.fact(f).endogenous);
}

TEST(DatabaseTest, WithoutFactRemapsIds) {
  Database db;
  FactId a = db.AddEndogenous("R", {Value(1)});
  FactId b = db.AddEndogenous("R", {Value(2)});
  FactId c = db.AddExogenous("S", {Value(3)});
  std::vector<FactId> old_to_new;
  Database without = db.WithoutFact(b, &old_to_new);
  EXPECT_EQ(without.num_facts(), 2);
  EXPECT_EQ(old_to_new[static_cast<size_t>(b)], -1);
  EXPECT_EQ(without.fact(old_to_new[static_cast<size_t>(a)]).args,
            db.fact(a).args);
  EXPECT_EQ(without.fact(old_to_new[static_cast<size_t>(c)]).relation, "S");
  EXPECT_FALSE(without.Contains("R", {Value(2)}));
}

TEST(DatabaseTest, FactToString) {
  Database db;
  FactId f = db.AddEndogenous("Earns", {Value("ann"), Value(100)});
  EXPECT_EQ(db.fact(f).ToString(), "Earns('ann', 100)");
}

TEST(CsvTest, ParsesTypedFields) {
  auto rows = ParseCsv("1,2.5,hello\n-3,x,\"quoted, comma\"\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0], Value(1));
  EXPECT_EQ((*rows)[0][1], Value(2.5));
  EXPECT_EQ((*rows)[0][2], Value("hello"));
  EXPECT_EQ((*rows)[1][0], Value(-3));
  EXPECT_EQ((*rows)[1][2], Value("quoted, comma"));
}

TEST(CsvTest, SkipsCommentsAndBlankLines) {
  auto rows = ParseCsv("# header comment\n1,2\n\n3,4\n");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(CsvTest, QuotedEscapes) {
  auto row = ParseCsvLine("\"he said \"\"hi\"\"\",2");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0], Value("he said \"hi\""));
  EXPECT_EQ((*row)[1], Value(2));
}

TEST(CsvTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCsv("1,2\n3\n").ok());          // ragged rows
  EXPECT_FALSE(ParseCsvLine("\"unterminated").ok());
  EXPECT_FALSE(ParseCsvLine("\"x\" garbage").ok());
}

TEST(CsvTest, NumericParsingIsRestrictedToFiniteDecimalForms) {
  // strtod extensions must stay strings: a NaN Value would break Value
  // equality and therefore ValuePool interning and fact deduplication.
  auto row = ParseCsvLine(
      "nan,NaN,inf,Infinity,-inf,0x10,0X1p4,1e999,-1e999,1e-999,nan(0x1)");
  ASSERT_TRUE(row.ok());
  for (const Value& v : *row) {
    EXPECT_EQ(v.kind(), Value::Kind::kString) << v.ToString();
  }
  // Finite decimal forms still parse to numbers.
  auto numeric = ParseCsvLine("-7,+42,3.25,.5,2.,1e3,-2.5E-2,+0.125e+1");
  ASSERT_TRUE(numeric.ok());
  EXPECT_EQ((*numeric)[0], Value(-7));
  EXPECT_EQ((*numeric)[1], Value(42));
  EXPECT_EQ((*numeric)[2], Value(3.25));
  EXPECT_EQ((*numeric)[3], Value(0.5));
  EXPECT_EQ((*numeric)[4], Value(2.0));
  EXPECT_EQ((*numeric)[5], Value(1000.0));
  EXPECT_EQ((*numeric)[6], Value(-0.025));
  EXPECT_EQ((*numeric)[7], Value(1.25));
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ((*numeric)[i].kind(), Value::Kind::kInt);
  }
  for (size_t i = 2; i < numeric->size(); ++i) {
    EXPECT_EQ((*numeric)[i].kind(), Value::Kind::kDouble);
  }
}

TEST(CsvTest, OverflowingIntegersFallBackToFiniteDoubles) {
  // Beyond int64 but still a finite decimal literal: keep the numeric
  // interpretation as a double instead of routing through strtod's
  // anything-goes parsing.
  auto row = ParseCsvLine("99999999999999999999999,-99999999999999999999999");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].kind(), Value::Kind::kDouble);
  EXPECT_EQ((*row)[1].kind(), Value::Kind::kDouble);
  EXPECT_DOUBLE_EQ((*row)[0].AsDouble(), 1e23);
  EXPECT_DOUBLE_EQ((*row)[1].AsDouble(), -1e23);
  // Malformed near-numbers stay strings.
  auto strings = ParseCsvLine("1.2.3,1e,e5,+,-,.,++3,12a");
  ASSERT_TRUE(strings.ok());
  for (const Value& v : *strings) {
    EXPECT_EQ(v.kind(), Value::Kind::kString) << v.ToString();
  }
}

TEST(CsvTest, NanFieldsInternSafelyIntoADatabase) {
  // The regression this guards: "nan" fields became NaN doubles, and
  // NaN != NaN poisoned the value pool's equality-based interning —
  // lookups of a just-inserted fact missed, and duplicate detection never
  // fired.
  Database db;
  Status s = LoadCsvIntoDatabase(&db, "R", "nan,1\nnan,2\ninf,3\n",
                                 /*endogenous=*/true);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(db.Contains("R", {Value("nan"), Value(1)}));
  EXPECT_TRUE(db.Contains("R", {Value("inf"), Value(3)}));
  EXPECT_EQ(db.FactsWith("R", 0, Value("nan")).size(), 2u);
}

TEST(CsvTest, LoadsIntoDatabase) {
  Database db;
  Status s = LoadCsvIntoDatabase(&db, "Earns", "ann,100\nbob,90\n",
                                 /*endogenous=*/false);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(db.FactsOf("Earns").size(), 2u);
  EXPECT_TRUE(db.Contains("Earns", {Value("ann"), Value(100)}));
  EXPECT_EQ(db.num_endogenous(), 0);
}

TEST(DatabaseMutationTest, InsertValidatesAndBumpsEpoch) {
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  uint64_t epoch = db.epoch();

  auto inserted = db.InsertFact("R", {Value(3), Value(4)});
  ASSERT_TRUE(inserted.ok());
  EXPECT_GT(db.epoch(), epoch);
  EXPECT_TRUE(db.live(*inserted));

  // Duplicate live fact and arity conflicts are structured errors, not
  // aborts (AddFact's contract), and a failed insert leaves epoch alone.
  epoch = db.epoch();
  EXPECT_EQ(db.InsertFact("R", {Value(3), Value(4)}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.InsertFact("R", {Value(1)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.epoch(), epoch);
}

TEST(DatabaseMutationTest, DeleteTombstonesAndIdsNeverComeBack) {
  Database db;
  FactId a = db.AddEndogenous("R", {Value(1)});
  FactId b = db.AddEndogenous("R", {Value(2)});

  ASSERT_TRUE(db.DeleteFact(a).ok());
  EXPECT_FALSE(db.live(a));
  EXPECT_TRUE(db.live(b));
  EXPECT_EQ(db.num_live(), 1);
  EXPECT_EQ(db.num_facts(), 2);
  EXPECT_TRUE(db.has_tombstones());
  // Deleting again (or out of range) is NOT_FOUND.
  EXPECT_EQ(db.DeleteFact(a).code(), StatusCode::kNotFound);
  EXPECT_EQ(db.DeleteFact(99).code(), StatusCode::kNotFound);
  // The content key is free again, but under a FRESH id: ids ascend
  // forever, and the dead id stays dead.
  auto again = db.InsertFact("R", {Value(1)});
  ASSERT_TRUE(again.ok());
  EXPECT_GT(*again, b);
  EXPECT_FALSE(db.live(a));
  // FindFact resolves live content only.
  auto found = db.FindFact("R", {Value(1)});
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *again);
}

TEST(DatabaseMutationTest, CompactionPreservesIdsAndContents) {
  Database db;
  std::vector<FactId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(db.AddEndogenous("R", {Value(i), Value(i + 1)}));
  }
  ASSERT_TRUE(db.DeleteFact(ids[2]).ok());
  ASSERT_TRUE(db.DeleteFact(ids[5]).ok());
  uint64_t epoch = db.epoch();

  db.CompactTombstones();
  EXPECT_GT(db.epoch(), epoch);
  EXPECT_FALSE(db.has_tombstones() && db.num_live() != db.num_facts() - 2);
  for (int i = 0; i < 8; ++i) {
    bool deleted = i == 2 || i == 5;
    EXPECT_EQ(db.live(ids[i]), !deleted) << "fact " << i;
    if (!deleted) {
      EXPECT_EQ(db.fact(ids[i]).args[0], Value(i));
    }
  }
  // Posting lists no longer carry the dead rows.
  EXPECT_EQ(db.FactsWith("R", 0, Value(2)).size(), 0u);
  EXPECT_EQ(db.FactsWith("R", 0, Value(3)).size(), 1u);
}

TEST(DatabaseMutationTest, SetEndogenousBumpsEpochOnlyOnARealFlip) {
  // The endogenous partition is semantic state: flipping a flag bumps the
  // epoch by exactly one, each way; re-asserting the current flag does not.
  Database db;
  db.AddEndogenous("R", {Value(1), Value(10)});
  db.AddEndogenous("S", {Value(10)});
  db.AddExogenous("S", {Value(12)});

  uint64_t before = db.epoch();
  db.SetEndogenous(0, false);
  EXPECT_EQ(db.epoch(), before + 1);
  EXPECT_FALSE(db.fact(0).endogenous);
  EXPECT_EQ(db.num_endogenous(), 1);

  before = db.epoch();
  db.SetEndogenous(0, true);
  EXPECT_EQ(db.epoch(), before + 1);
  EXPECT_EQ(db.num_endogenous(), 2);

  before = db.epoch();
  db.SetEndogenous(0, true);
  db.SetEndogenous(2, false);
  EXPECT_EQ(db.epoch(), before);
  EXPECT_EQ(db.num_endogenous(), 2);
}

TEST(ParseFactLineTest, MarkerIsOptionalAndDefaultsEndogenous) {
  auto endo = ParseFactLine("+R(1, 'a')");
  ASSERT_TRUE(endo.ok());
  EXPECT_TRUE(endo->endogenous);
  auto exo = ParseFactLine("-R(1, 'a')");
  ASSERT_TRUE(exo.ok());
  EXPECT_FALSE(exo->endogenous);
  auto bare = ParseFactLine("R(2, 'b')");
  ASSERT_TRUE(bare.ok());
  EXPECT_TRUE(bare->endogenous);
  EXPECT_EQ(bare->relation, "R");
  ASSERT_EQ(bare->args.size(), 2u);
  EXPECT_EQ(bare->args[0], Value(2));
  EXPECT_FALSE(ParseFactLine("").ok());
  EXPECT_FALSE(ParseFactLine("R(x)").ok());  // not ground
}

}  // namespace
}  // namespace shapcq
