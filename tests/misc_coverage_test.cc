// Coverage for smaller public APIs: Schema, database serialization,
// per-answer membership scores, the (ε,δ) Monte Carlo wrapper, parser and
// CSV edge cases.

#include <string>

#include <gtest/gtest.h>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/csv.h"
#include "shapcq/data/database.h"
#include "shapcq/data/db_io.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/membership.h"
#include "shapcq/shapley/monte_carlo.h"
#include "shapcq/shapley/solver.h"
#include "shapcq/workload/generators.h"

namespace shapcq {
namespace {

Rational R(int64_t n) { return Rational(n); }

TEST(SchemaTest, BasicOperations) {
  Schema schema({{"R", 2}, {"S", 1}});
  EXPECT_TRUE(schema.HasRelation("R"));
  EXPECT_FALSE(schema.HasRelation("T"));
  EXPECT_EQ(schema.Arity("R"), 2);
  EXPECT_EQ(schema.relations().size(), 2u);
  schema.AddRelation("T", 3);
  EXPECT_EQ(schema.Arity("T"), 3);
}

TEST(DbIoTest, RoundTripPreservesEverything) {
  Database db;
  db.AddEndogenous("R", {Value(1), Value("hello world")});
  db.AddExogenous("S", {Value(-5)});
  db.AddEndogenous("R", {Value(2), Value("x")});
  std::string text = SerializeDatabase(db);
  auto reloaded = ParseDatabase(text);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->num_facts(), 3);
  EXPECT_EQ(reloaded->num_endogenous(), 2);
  for (FactId id = 0; id < db.num_facts(); ++id) {
    EXPECT_EQ(reloaded->fact(id).relation, db.fact(id).relation);
    EXPECT_EQ(reloaded->fact(id).args, db.fact(id).args);
    EXPECT_EQ(reloaded->fact(id).endogenous, db.fact(id).endogenous);
  }
  // Serialize again: byte-identical.
  EXPECT_EQ(SerializeDatabase(*reloaded), text);
}

TEST(DbIoTest, ParsesCommentsAndRejectsGarbage) {
  auto ok = ParseDatabase("# header\n+R(1)\n\n-S('a')\n");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->num_facts(), 2);
  // A bare fact (no +/- marker) parses as endogenous — the relaxation
  // the daemon's delete_fact journal records rely on.
  auto bare = ParseDatabase("R(1)\n");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->num_endogenous(), 1);
  EXPECT_FALSE(ParseDatabase("+R(x)\n").ok());          // variable
  EXPECT_FALSE(ParseDatabase("+R(1)\n+R(1)\n").ok());   // duplicate
  EXPECT_FALSE(ParseDatabase("+R(1, 2)\n+R(1)\n").ok());  // arity conflict
  EXPECT_FALSE(ParseDatabase("+R(1\n").ok());           // malformed
}

TEST(DbIoTest, FileRoundTrip) {
  Database db;
  db.AddEndogenous("R", {Value(42)});
  std::string path = ::testing::TempDir() + "/shapcq_dbio_test.txt";
  ASSERT_TRUE(SaveDatabaseToFile(db, path).ok());
  auto reloaded = LoadDatabaseFromFile(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded->Contains("R", {Value(42)}));
  EXPECT_FALSE(LoadDatabaseFromFile("/nonexistent/nope.txt").ok());
}

TEST(AnswerMembershipTest, MatchesBooleanGamePerAnswer) {
  // Contribution of facts to a SPECIFIC answer (the paper's "membership").
  Database db;
  FactId r1 = db.AddEndogenous("R", {Value(1), Value(10)});
  FactId r2 = db.AddEndogenous("R", {Value(2), Value(10)});
  FactId s = db.AddEndogenous("S", {Value(10)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  // Answer (1): supported by {r1, s}; r2 is a null player for it.
  auto score_r1 = AnswerMembershipScore(q, db, {Value(1)}, r1);
  auto score_r2 = AnswerMembershipScore(q, db, {Value(1)}, r2);
  auto score_s = AnswerMembershipScore(q, db, {Value(1)}, s);
  ASSERT_TRUE(score_r1.ok());
  EXPECT_EQ(*score_r1, Rational(BigInt(1), BigInt(2)));
  EXPECT_TRUE(score_r2->is_zero());
  EXPECT_EQ(*score_s, Rational(BigInt(1), BigInt(2)));
  // Cross-check against the brute-force membership game for answer (2).
  ConjunctiveQuery bound = q.Bind("x", Value(2));
  AggregateQuery boolean_game{bound, MakeConstantTau(R(1)),
                              AggregateFunction::Max()};
  for (FactId f : db.EndogenousFacts()) {
    EXPECT_EQ(*AnswerMembershipScore(q, db, {Value(2)}, f),
              *BruteForceScore(boolean_game, db, f));
  }
}

TEST(AnswerMembershipTest, RejectsArityMismatch) {
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y)");
  EXPECT_FALSE(AnswerMembershipScore(q, db, {Value(1), Value(2)}, 0).ok());
}

TEST(MonteCarloGuaranteeTest, RunsHoeffdingManySamples) {
  Database db;
  db.AddEndogenous("R", {Value(5)});
  db.AddEndogenous("R", {Value(3)});
  db.AddEndogenous("R", {Value(2)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x)");
  AggregateQuery a{q, MakeTauGreaterThan(0, R(0)), AggregateFunction::Max()};
  // Marginal contributions in [-1, 1]; ask for eps = 0.1, delta = 0.1.
  auto result = MonteCarloShapleyWithGuarantee(a, db, 0, /*range=*/1.0,
                                               /*epsilon=*/0.1,
                                               /*delta=*/0.1, /*seed=*/3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->samples, HoeffdingSampleCount(1.0, 0.1, 0.1));
  double exact = BruteForceScore(a, db, 0)->ToDouble();
  EXPECT_NEAR(result->estimate, exact, 0.1);
}

TEST(ParserEdgeTest, WhitespaceAndIdentifiers) {
  auto q = ParseQuery("  Q_1 ( x1 , y_2 )   :-   R2 ( x1 ,y_2 ) ");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->name(), "Q_1");
  EXPECT_EQ(q->head(), (std::vector<std::string>{"x1", "y_2"}));
  EXPECT_EQ(q->atoms()[0].relation, "R2");
}

TEST(ParserEdgeTest, BothQuoteStyles) {
  auto q = ParseQuery("Q() <- R(\"double\", 'single')");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atoms()[0].terms[0].constant(), Value("double"));
  EXPECT_EQ(q->atoms()[0].terms[1].constant(), Value("single"));
}

TEST(CsvEdgeTest, NoTrailingNewlineAndSpaces) {
  auto rows = ParseCsv(" 1 , 2.5 ,  text");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value(1));
  EXPECT_EQ((*rows)[0][1], Value(2.5));
  EXPECT_EQ((*rows)[0][2], Value("text"));
}

TEST(ValueEdgeTest, MixedKindOrderingInContainers) {
  std::vector<Value> values = {Value("b"), Value(3), Value(1.5), Value("a"),
                               Value(-2)};
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values[0], Value(-2));
  EXPECT_EQ(values[1], Value(1.5));
  EXPECT_EQ(values[2], Value(3));
  EXPECT_EQ(values[3], Value("a"));
  EXPECT_EQ(values[4], Value("b"));
}

TEST(EdgeComboTest, RepeatedHeadVariablesThroughEveryEngine) {
  // Q(x, x) <- R(x, y): sq-hierarchical with a duplicated head variable;
  // the head-binding machinery must fill both positions.
  ConjunctiveQuery q = MustParseQuery("Q(x, x) <- R(x, y)");
  Database db;
  db.AddEndogenous("R", {Value(1), Value(10)});
  db.AddEndogenous("R", {Value(1), Value(20)});
  db.AddEndogenous("R", {Value(-2), Value(10)});
  db.AddEndogenous("R", {Value(3), Value(30)});
  for (int position : {0, 1}) {
    for (AggregateFunction alpha :
         {AggregateFunction::Max(), AggregateFunction::Avg(),
          AggregateFunction::Median(), AggregateFunction::CountDistinct(),
          AggregateFunction::HasDuplicates(), AggregateFunction::Sum()}) {
      AggregateQuery a{q, MakeTauId(position), alpha};
      ShapleySolver solver(a);
      SolverOptions exact_only;
      exact_only.method = SolveMethod::kExactOnly;
      for (FactId f : db.EndogenousFacts()) {
        auto exact = solver.Compute(db, f, exact_only);
        ASSERT_TRUE(exact.ok())
            << alpha.ToString() << " pos " << position << ": "
            << exact.status().ToString();
        auto bf = BruteForceScore(a, db, f);
        EXPECT_EQ(exact->exact, *bf)
            << alpha.ToString() << " position " << position;
      }
    }
  }
}

TEST(EdgeComboTest, StringJoinColumnsWithNumericTau) {
  // Join on strings, aggregate over numbers: Q(n, v) <- R(n, v), S(n).
  ConjunctiveQuery q = MustParseQuery("Q(n, v) <- R(n, v), S(n)");
  Database db;
  db.AddEndogenous("R", {Value("alpha"), Value(4)});
  db.AddEndogenous("R", {Value("beta"), Value(7)});
  db.AddEndogenous("R", {Value("gamma"), Value(-1)});
  db.AddEndogenous("S", {Value("alpha")});
  db.AddEndogenous("S", {Value("beta")});
  for (AggregateFunction alpha :
       {AggregateFunction::Max(), AggregateFunction::Avg(),
        AggregateFunction::Median()}) {
    AggregateQuery a{q, MakeTauId(1), alpha};
    ShapleySolver solver(a);
    SolverOptions exact_only;
    exact_only.method = SolveMethod::kExactOnly;
    for (FactId f : db.EndogenousFacts()) {
      auto exact = solver.Compute(db, f, exact_only);
      ASSERT_TRUE(exact.ok()) << alpha.ToString();
      EXPECT_EQ(exact->exact, *BruteForceScore(a, db, f)) << alpha.ToString();
    }
  }
}

TEST(EdgeComboTest, AllExogenousRelationWithConstants) {
  // Constants in atoms + a relation that is entirely exogenous.
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, 'tag'), S(x)");
  Database db;
  db.AddExogenous("R", {Value(1), Value("tag")});
  db.AddExogenous("R", {Value(2), Value("other")});
  db.AddEndogenous("S", {Value(1)});
  db.AddEndogenous("S", {Value(2)});
  AggregateQuery a{q, MakeTauId(0), AggregateFunction::Max()};
  ShapleySolver solver(a);
  SolverOptions exact_only;
  exact_only.method = SolveMethod::kExactOnly;
  for (FactId f : db.EndogenousFacts()) {
    auto exact = solver.Compute(db, f, exact_only);
    ASSERT_TRUE(exact.ok());
    EXPECT_EQ(exact->exact, *BruteForceScore(a, db, f));
  }
}

TEST(GeneratorEdgeTest, EndogenousFractionRespectedRoughly) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  RandomDatabaseOptions options;
  options.facts_per_relation = 50;
  options.endogenous_percent = 0;
  options.seed = 4;
  Database all_exo = RandomDatabaseForQuery(q, options);
  EXPECT_EQ(all_exo.num_endogenous(), 0);
  options.endogenous_percent = 100;
  Database all_endo = RandomDatabaseForQuery(q, options);
  EXPECT_EQ(all_endo.num_endogenous(), all_endo.num_facts());
}

}  // namespace
}  // namespace shapcq
