#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/spec.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/parser.h"

namespace shapcq {
namespace {

Rational R(int64_t n) { return Rational(n); }
Rational R(int64_t n, int64_t d) { return Rational(BigInt(n), BigInt(d)); }

// ---------------------------------------------------------------------------
// Aggregate functions on explicit bags
// ---------------------------------------------------------------------------

TEST(AggregateTest, EmptyBagIsZeroForAllAggregates) {
  std::vector<Rational> empty;
  for (AggregateFunction alpha :
       {AggregateFunction::Sum(), AggregateFunction::Count(),
        AggregateFunction::CountDistinct(), AggregateFunction::Min(),
        AggregateFunction::Max(), AggregateFunction::Avg(),
        AggregateFunction::Median(), AggregateFunction::HasDuplicates()}) {
    EXPECT_TRUE(alpha.Apply(empty).is_zero()) << alpha.ToString();
  }
}

TEST(AggregateTest, SumCountBasics) {
  std::vector<Rational> bag = {R(1), R(2), R(2), R(5)};
  EXPECT_EQ(AggregateFunction::Sum().Apply(bag), R(10));
  EXPECT_EQ(AggregateFunction::Count().Apply(bag), R(4));
  EXPECT_EQ(AggregateFunction::CountDistinct().Apply(bag), R(3));
}

TEST(AggregateTest, MinMaxIncludingNegative) {
  std::vector<Rational> bag = {R(-3), R(7), R(0)};
  EXPECT_EQ(AggregateFunction::Min().Apply(bag), R(-3));
  EXPECT_EQ(AggregateFunction::Max().Apply(bag), R(7));
}

TEST(AggregateTest, AvgIsExact) {
  std::vector<Rational> bag = {R(1), R(2)};
  EXPECT_EQ(AggregateFunction::Avg().Apply(bag), R(3, 2));
}

TEST(AggregateTest, MedianOddAndEven) {
  EXPECT_EQ(AggregateFunction::Median().Apply({R(3), R(1), R(2)}), R(2));
  EXPECT_EQ(AggregateFunction::Median().Apply({R(4), R(1), R(2), R(3)}),
            R(5, 2));
  EXPECT_EQ(AggregateFunction::Median().Apply({R(9)}), R(9));
}

TEST(AggregateTest, GeneralQuantiles) {
  std::vector<Rational> bag = {R(10), R(20), R(30), R(40)};
  // q = 1/4: ⌈1⌉ = 1st, ⌊2⌋ = 2nd smallest -> (10+20)/2.
  EXPECT_EQ(AggregateFunction::Quantile(R(1, 4)).Apply(bag), R(15));
  // q = 3/4: ⌈3⌉ = 3rd, ⌊4⌋ = 4th -> (30+40)/2.
  EXPECT_EQ(AggregateFunction::Quantile(R(3, 4)).Apply(bag), R(35));
  // Non-integral q|B|: q = 1/3 on 4 elements: ⌈4/3⌉ = 2, ⌊7/3⌋ = 2 -> 20.
  EXPECT_EQ(AggregateFunction::Quantile(R(1, 3)).Apply(bag), R(20));
}

TEST(AggregateTest, HasDuplicates) {
  EXPECT_EQ(AggregateFunction::HasDuplicates().Apply({R(1), R(2)}), R(0));
  EXPECT_EQ(AggregateFunction::HasDuplicates().Apply({R(1), R(2), R(1)}),
            R(1));
  EXPECT_EQ(AggregateFunction::HasDuplicates().Apply({R(5)}), R(0));
}

TEST(AggregateTest, ConstantPerSingletonProperty) {
  EXPECT_TRUE(AggregateFunction::Min().IsConstantPerSingleton());
  EXPECT_TRUE(AggregateFunction::Max().IsConstantPerSingleton());
  EXPECT_TRUE(AggregateFunction::CountDistinct().IsConstantPerSingleton());
  EXPECT_TRUE(AggregateFunction::Avg().IsConstantPerSingleton());
  EXPECT_TRUE(AggregateFunction::Median().IsConstantPerSingleton());
  EXPECT_FALSE(AggregateFunction::Sum().IsConstantPerSingleton());
  EXPECT_FALSE(AggregateFunction::Count().IsConstantPerSingleton());
  EXPECT_FALSE(AggregateFunction::HasDuplicates().IsConstantPerSingleton());
}

// ---------------------------------------------------------------------------
// Value functions
// ---------------------------------------------------------------------------

TEST(ValueFunctionTest, BuiltinsMatchPaperDefinitions) {
  Tuple t = {Value(-2), Value(5)};
  EXPECT_EQ(MakeTauId(0)->Evaluate(t), R(-2));
  EXPECT_EQ(MakeTauId(1)->Evaluate(t), R(5));
  EXPECT_EQ(MakeTauReLU(0)->Evaluate(t), R(0));
  EXPECT_EQ(MakeTauReLU(1)->Evaluate(t), R(5));
  EXPECT_EQ(MakeTauGreaterThan(1, R(4))->Evaluate(t), R(1));
  EXPECT_EQ(MakeTauGreaterThan(1, R(5))->Evaluate(t), R(0));
  EXPECT_EQ(MakeConstantTau(R(7))->Evaluate(t), R(7));
}

TEST(ValueFunctionTest, DependsOnDeclarations) {
  EXPECT_TRUE(MakeConstantTau(R(1))->DependsOn().empty());
  EXPECT_EQ(MakeTauId(1)->DependsOn(), (std::vector<int>{1}));
  EXPECT_EQ(MakeTauReLU(0)->DependsOn(), (std::vector<int>{0}));
}

TEST(ValueFunctionTest, ComposedTau) {
  auto doubled = MakeComposedTau(
      [](const Rational& v) { return v * R(2); }, MakeTauId(0), "double");
  EXPECT_EQ(doubled->Evaluate({Value(21)}), R(42));
  EXPECT_EQ(doubled->DependsOn(), (std::vector<int>{0}));
}

TEST(ValueFunctionTest, LocalizationAtoms) {
  // Q(x, y) <- R(x, y), S(y): tau_id^1 (on x) localized on R only;
  // tau_id^2 (on y) localized on both; constants on both.
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  EXPECT_EQ(LocalizationAtoms(q, *MakeTauId(0)), (std::vector<int>{0}));
  EXPECT_EQ(LocalizationAtoms(q, *MakeTauId(1)), (std::vector<int>{0, 1}));
  EXPECT_EQ(LocalizationAtoms(q, *MakeConstantTau(R(3))),
            (std::vector<int>{0, 1}));
}

TEST(ValueFunctionTest, EvaluateTauOnFact) {
  ConjunctiveQuery q = MustParseQuery("Q(x, y) <- R(x, y), S(y)");
  // R-fact (7, 9): tau_id^1 reads x -> 7.
  EXPECT_EQ(EvaluateTauOnFact(q, 0, *MakeTauId(0), {Value(7), Value(9)}),
            R(7));
  // S-fact (9): tau_id^2 reads y -> 9.
  EXPECT_EQ(EvaluateTauOnFact(q, 1, *MakeTauId(1), {Value(9)}), R(9));
  EXPECT_EQ(EvaluateTauOnFact(q, 1, *MakeConstantTau(R(5)), {Value(9)}),
            R(5));
}

// ---------------------------------------------------------------------------
// End-to-end aggregate query evaluation (Example 2.2 flavor)
// ---------------------------------------------------------------------------

TEST(ValueFunctionTest, MonoidSpecsParseToCanonicalFolds) {
  Tuple t = {Value(3), Value(-1), Value(7)};
  auto plus = ParseTauSpec("plus:1,3");
  ASSERT_TRUE(plus.ok()) << plus.status().ToString();
  EXPECT_EQ((*plus)->Evaluate(t), Rational(10));
  EXPECT_EQ((*plus)->DependsOn(), (std::vector<int>{0, 2}));
  EXPECT_EQ((*plus)->FingerprintToken(), "tau_plus^1,3");
  EXPECT_EQ((*plus)->monoid(), MonoidKind::kPlus);
  auto maxof = ParseTauSpec("maxof:2,1");
  ASSERT_TRUE(maxof.ok());
  EXPECT_EQ((*maxof)->Evaluate(t), Rational(3));
  auto minof = ParseTauSpec("minof:3");
  ASSERT_TRUE(minof.ok());
  EXPECT_EQ((*minof)->Evaluate(t), Rational(7));
  EXPECT_EQ(MakeTauId(0)->monoid(), std::nullopt);
  for (const char* bad : {"plus:", "plus:0", "plus:1,", "maxof:a", "sum:1,2"}) {
    EXPECT_FALSE(ParseTauSpec(bad).ok()) << bad;
  }
}

// Head indexes in id:/relu:/gt: specs go through the bounded token parser:
// an index past int range, or one that narrows to a small int, is
// INVALID_ARGUMENT rather than an abort or a silently different τ.
TEST(ValueFunctionTest, TauSpecsRejectOversizedHeadIndexes) {
  for (const char* bad :
       {"id:3000000000", "gt:3000000000:5", "id:99999999999999999999999",
        "id:4294967297", "relu:4294967297", "gt:4294967297:1",
        "id:2147483648", "relu:100000001", "id:0", "id:-1", "gt:-2:1",
        "id:", "gt::1", "id:+1"}) {
    StatusOr<ValueFunctionPtr> tau = ParseTauSpec(bad);
    ASSERT_FALSE(tau.ok()) << bad << " parsed as " << (*tau)->ToString();
    EXPECT_EQ(tau.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  StatusOr<ValueFunctionPtr> largest = ParseTauSpec("id:100000000");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ((*largest)->DependsOn(), (std::vector<int>{99999999}));
  StatusOr<ValueFunctionPtr> gt = ParseTauSpec("gt:2:5");
  ASSERT_TRUE(gt.ok()) << gt.status().ToString();
  EXPECT_EQ((*gt)->FingerprintToken(), "tau_>5^2");
}

TEST(AggregateQueryTest, AverageSalaryExample) {
  // Schema of Example 2.2: Earns(person, salary), Course(name, number),
  // Took(person, course).
  Database db;
  db.AddExogenous("Earns", {Value("ann"), Value(100)});
  db.AddExogenous("Earns", {Value("bob"), Value(50)});
  db.AddExogenous("Earns", {Value("eve"), Value(200)});
  db.AddEndogenous("Course", {Value("db"), Value(1)});
  db.AddEndogenous("Course", {Value("ai"), Value(2)});
  db.AddExogenous("Took", {Value("ann"), Value(1)});
  db.AddExogenous("Took", {Value("ann"), Value(2)});
  db.AddExogenous("Took", {Value("bob"), Value(1)});
  AggregateQuery avg_salary{
      MustParseQuery("Q(p, s) <- Earns(p, s), Took(p, c), Course(n, c)"),
      MakeTauId(1), AggregateFunction::Avg()};
  // ann (100) and bob (50) took courses; ann counted once despite 2 courses.
  EXPECT_EQ(avg_salary.Evaluate(db), R(75));
}

TEST(AggregateQueryTest, EvaluateHandlesEmptyResult) {
  Database db;
  db.AddEndogenous("R", {Value(1)});
  AggregateQuery a{MustParseQuery("Q(x) <- R(x), S(x)"), MakeTauId(0),
                   AggregateFunction::Sum()};
  EXPECT_TRUE(a.Evaluate(db).is_zero());
}

TEST(AggregateQueryTest, ToStringIsInformative) {
  AggregateQuery a{MustParseQuery("Q(x) <- R(x, y), S(y)"), MakeTauReLU(0),
                   AggregateFunction::Median()};
  EXPECT_EQ(a.ToString(), "Qnt_1/2 o tau_ReLU^1 o Q(x) <- R(x, y), S(y)");
}

TEST(AggregateQueryTest, MakeAggregateQueryRejectsTauPastTheHead) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y)");
  StatusOr<AggregateQuery> fits =
      MakeAggregateQuery(q, MakeTauId(0), AggregateFunction::Sum());
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits->ToString(), "Sum o tau_id^1 o Q(x) <- R(x, y)");
  // Head indexes are 0-based here: id:3 in spec text is MakeTauId(2).
  for (const char* spec : {"id:3", "plus:1,2", "gt:2:5"}) {
    StatusOr<ValueFunctionPtr> tau = ParseTauSpec(spec);
    ASSERT_TRUE(tau.ok()) << spec;
    StatusOr<AggregateQuery> a =
        MakeAggregateQuery(q, *tau, AggregateFunction::Sum());
    ASSERT_FALSE(a.ok()) << spec;
    EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  StatusOr<AggregateQuery> a = MakeAggregateQuery(
      q, *ParseTauSpec("id:3"), AggregateFunction::Sum());
  EXPECT_EQ(a.status().message(), "tau reads head position 3 of a query with 1");
  // A τ reading no position fits any head, the Boolean one included.
  EXPECT_TRUE(MakeAggregateQuery(MustParseQuery("Q() <- R(x, y)"),
                                 MakeConstantTau(R(1)),
                                 AggregateFunction::Count())
                  .ok());
}

}  // namespace
}  // namespace shapcq
