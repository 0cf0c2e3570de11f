#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shapcq/data/database.h"
#include "shapcq/query/cq.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/query/parser.h"

namespace shapcq {
namespace {

// ---------------------------------------------------------------------------
// Parser and representation
// ---------------------------------------------------------------------------

TEST(ParserTest, ParsesSimpleQuery) {
  auto q = ParseQuery("Q(x) <- R(x, y), S(y)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->name(), "Q");
  EXPECT_EQ(q->head(), (std::vector<std::string>{"x"}));
  ASSERT_EQ(q->atoms().size(), 2u);
  EXPECT_EQ(q->atoms()[0].relation, "R");
  EXPECT_EQ(q->atoms()[1].relation, "S");
  EXPECT_EQ(q->ToString(), "Q(x) <- R(x, y), S(y)");
}

TEST(ParserTest, ParsesBooleanAndConstantForms) {
  auto q = ParseQuery("Q() :- R(x, 'blue'), S(3), T(2.5, x)");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->is_boolean());
  EXPECT_EQ(q->atoms()[0].terms[1].constant(), Value("blue"));
  EXPECT_EQ(q->atoms()[1].terms[0].constant(), Value(3));
  EXPECT_EQ(q->atoms()[2].terms[0].constant(), Value(2.5));
}

TEST(ParserTest, ParsesNegativeNumbers) {
  auto q = ParseQuery("Q() <- R(-5, x)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->atoms()[0].terms[0].constant(), Value(-5));
}

TEST(ParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("Q(x)").ok());                 // no body
  EXPECT_FALSE(ParseQuery("Q(x) <- ").ok());             // empty body
  EXPECT_FALSE(ParseQuery("Q(x) <- R(x) garbage").ok()); // trailing junk
  EXPECT_FALSE(ParseQuery("Q(x) <- R(y)").ok());         // unsafe head
  EXPECT_FALSE(ParseQuery("Q(x <- R(x)").ok());          // broken head
  EXPECT_FALSE(ParseQuery("Q(x) <- R('unterminated)").ok());
}

TEST(CqTest, VariableAccessors) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x, y), S(y), T(z)");
  EXPECT_EQ(q.free_variables(), (std::vector<std::string>{"x", "z"}));
  EXPECT_EQ(q.existential_variables(), (std::vector<std::string>{"y"}));
  EXPECT_EQ(q.variables().size(), 3u);
  EXPECT_TRUE(q.IsFreeVariable("x"));
  EXPECT_FALSE(q.IsFreeVariable("y"));
  EXPECT_TRUE(q.HasVariable("y"));
  EXPECT_FALSE(q.HasVariable("w"));
}

TEST(CqTest, AtomsContaining) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y), T(x)");
  EXPECT_EQ(q.AtomsContaining("x"), (std::vector<int>{0, 2}));
  EXPECT_EQ(q.AtomsContaining("y"), (std::vector<int>{0, 1}));
}

TEST(CqTest, SelfJoinDetection) {
  EXPECT_TRUE(MustParseQuery("Q() <- R(x), R(y)").HasSelfJoin());
  EXPECT_FALSE(MustParseQuery("Q() <- R(x), S(y)").HasSelfJoin());
}

TEST(CqTest, AsBoolean) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y)").AsBoolean();
  EXPECT_TRUE(q.is_boolean());
  EXPECT_EQ(q.existential_variables().size(), 2u);
}

TEST(CqTest, BindFreeVariable) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x, y), S(y), T(z)");
  ConjunctiveQuery bound = q.Bind("x", Value(7));
  EXPECT_EQ(bound.head(), (std::vector<std::string>{"z"}));
  EXPECT_EQ(bound.atoms()[0].terms[0].constant(), Value(7));
  EXPECT_FALSE(bound.HasVariable("x"));
}

TEST(CqTest, BindExistentialVariable) {
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  ConjunctiveQuery bound = q.Bind("y", Value("b"));
  EXPECT_EQ(bound.head(), (std::vector<std::string>{"x"}));
  EXPECT_EQ(bound.atoms()[0].terms[1].constant(), Value("b"));
  EXPECT_EQ(bound.atoms()[1].terms[0].constant(), Value("b"));
}

TEST(CqTest, RepeatedHeadVariables) {
  auto q = ParseQuery("Q(x, x) <- R(x)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->arity(), 2);
  EXPECT_EQ(q->free_variables(), (std::vector<std::string>{"x"}));
}

TEST(CqTest, ProjectSubquery) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x, y), S(y), T(z)");
  std::vector<int> kept;
  ConjunctiveQuery sub = q.Project({0, 1}, &kept);
  EXPECT_EQ(sub.head(), (std::vector<std::string>{"x"}));
  EXPECT_EQ(kept, (std::vector<int>{0}));
  EXPECT_EQ(sub.atoms().size(), 2u);
  ConjunctiveQuery sub2 = q.Project({2}, &kept);
  EXPECT_EQ(sub2.head(), (std::vector<std::string>{"z"}));
  EXPECT_EQ(kept, (std::vector<int>{1}));
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

Database MakeSimpleDb() {
  Database db;
  db.AddEndogenous("R", {Value(1), Value(10)});
  db.AddEndogenous("R", {Value(2), Value(10)});
  db.AddEndogenous("R", {Value(2), Value(20)});
  db.AddEndogenous("S", {Value(10)});
  db.AddExogenous("S", {Value(30)});
  return db;
}

TEST(EvaluatorTest, BasicJoin) {
  Database db = MakeSimpleDb();
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  std::vector<Tuple> answers = Evaluate(q, db);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0], (Tuple{Value(1)}));
  EXPECT_EQ(answers[1], (Tuple{Value(2)}));
}

TEST(EvaluatorTest, BooleanQuery) {
  Database db = MakeSimpleDb();
  ConjunctiveQuery q = MustParseQuery("Q() <- R(x, y), S(y)");
  std::vector<Tuple> answers = Evaluate(q, db);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers[0].empty());
}

TEST(EvaluatorTest, ConstantsInAtoms) {
  Database db = MakeSimpleDb();
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, 10)");
  std::vector<Tuple> answers = Evaluate(q, db);
  ASSERT_EQ(answers.size(), 2u);
}

TEST(EvaluatorTest, RepeatedVariablesInAtom) {
  Database db;
  db.AddEndogenous("R", {Value(1), Value(1)});
  db.AddEndogenous("R", {Value(1), Value(2)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, x)");
  std::vector<Tuple> answers = Evaluate(q, db);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], (Tuple{Value(1)}));
}

TEST(EvaluatorTest, CrossProductQuery) {
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("R", {Value(2)});
  db.AddEndogenous("T", {Value(7)});
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x), T(z)");
  std::vector<Tuple> answers = Evaluate(q, db);
  EXPECT_EQ(answers.size(), 2u);
}

TEST(EvaluatorTest, NoAnswersWhenJoinEmpty) {
  Database db;
  db.AddEndogenous("R", {Value(1), Value(99)});
  db.AddEndogenous("S", {Value(10)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  EXPECT_TRUE(Evaluate(q, db).empty());
}

TEST(EvaluatorTest, HomomorphismsTrackUsedFacts) {
  Database db = MakeSimpleDb();
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  std::vector<Homomorphism> homs = EnumerateHomomorphisms(q, db);
  ASSERT_EQ(homs.size(), 2u);
  for (const Homomorphism& hom : homs) {
    ASSERT_EQ(hom.used_facts.size(), 2u);
    EXPECT_EQ(db.fact(hom.used_facts[0]).relation, "R");
    EXPECT_EQ(db.fact(hom.used_facts[1]).relation, "S");
    EXPECT_EQ(hom.answer.size(), 1u);
  }
}

TEST(EvaluatorTest, SubsetEvaluatorMatchesFullEvaluation) {
  Database db = MakeSimpleDb();
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  SubsetEvaluator eval(q, db);
  ASSERT_EQ(eval.num_players(), 4);
  // Full mask: all endogenous facts present -> same as Evaluate.
  uint64_t full = (uint64_t{1} << 4) - 1;
  EXPECT_EQ(eval.AnswersFor(full).size(), 2u);
  // Empty mask: only exogenous S(30) is present; no R facts -> no answers.
  EXPECT_TRUE(eval.AnswersFor(0).empty());
}

TEST(EvaluatorTest, SubsetEvaluatorRespectsSupports) {
  Database db;
  FactId r1 = db.AddEndogenous("R", {Value(1), Value(10)});
  db.AddEndogenous("R", {Value(2), Value(10)});
  FactId s = db.AddEndogenous("S", {Value(10)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  SubsetEvaluator eval(q, db);
  uint64_t mask = (uint64_t{1} << eval.PlayerIndex(r1)) |
                  (uint64_t{1} << eval.PlayerIndex(s));
  std::vector<Tuple> answers = eval.AnswersFor(mask);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], (Tuple{Value(1)}));
}

// ---------------------------------------------------------------------------
// Decomposition
// ---------------------------------------------------------------------------

TEST(DecompositionTest, RootVariables) {
  EXPECT_EQ(RootVariables(MustParseQuery("Q(x) <- R(x, y), S(y)")),
            (std::vector<std::string>{"y"}));
  EXPECT_EQ(RootVariables(MustParseQuery("Q(x) <- R(x, y), S(x)")),
            (std::vector<std::string>{"x"}));
  EXPECT_TRUE(RootVariables(MustParseQuery("Q() <- R(x), S(y)")).empty());
  // Ground atom blocks all root variables.
  EXPECT_TRUE(RootVariables(MustParseQuery("Q() <- R(x), S(3)")).empty());
  EXPECT_EQ(RootVariables(MustParseQuery("Q(x, y) <- R(x, y)")).size(), 2u);
}

TEST(DecompositionTest, ConnectedComponents) {
  ConjunctiveQuery q = MustParseQuery("Q(x, z) <- R(x, y), S(y), T(z)");
  std::vector<std::vector<int>> components = ConnectedComponents(q);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(components[1], (std::vector<int>{2}));
}

TEST(DecompositionTest, GroundAtomsAreSingletonComponents) {
  ConjunctiveQuery q = MustParseQuery("Q() <- R(x), S(3), T(x)");
  std::vector<std::vector<int>> components = ConnectedComponents(q);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], (std::vector<int>{0, 2}));
  EXPECT_EQ(components[1], (std::vector<int>{1}));
}

TEST(DecompositionTest, CandidateValuesIntersectColumns) {
  Database db;
  db.AddEndogenous("R", {Value(1), Value(10)});
  db.AddEndogenous("R", {Value(2), Value(20)});
  db.AddEndogenous("S", {Value(10)});
  db.AddEndogenous("S", {Value(30)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  std::vector<Value> values = CandidateValues(q, "y", AllFacts(db));
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], Value(10));
  std::vector<Value> xs = CandidateValues(q, "x", AllFacts(db));
  EXPECT_EQ(xs.size(), 2u);
}

TEST(DecompositionTest, FactsConsistentWithBinding) {
  Database db;
  FactId r1 = db.AddEndogenous("R", {Value(1), Value(10)});
  db.AddEndogenous("R", {Value(2), Value(20)});
  FactId s1 = db.AddEndogenous("S", {Value(10)});
  db.AddEndogenous("S", {Value(20)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  std::vector<FactId> consistent =
      FactsConsistentWith(q, "y", Value(10), AllFacts(db));
  EXPECT_EQ(consistent, (std::vector<FactId>{r1, s1}));
}

TEST(DecompositionTest, SplitRelevantFiltersConstantMismatches) {
  Database db;
  FactId good = db.AddEndogenous("R", {Value(1), Value("blue")});
  db.AddEndogenous("R", {Value(2), Value("red")});   // constant mismatch
  db.AddEndogenous("T", {Value(5)});                  // relation not in Q
  db.AddExogenous("U", {Value(6)});                   // relation not in Q
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, 'blue')");
  RelevanceSplit split = SplitRelevant(q, AllFacts(db));
  EXPECT_EQ(split.relevant.facts, (std::vector<FactId>{good}));
  EXPECT_EQ(split.irrelevant_endogenous, 2);
  EXPECT_EQ(split.irrelevant_exogenous, 1);
}

TEST(DecompositionTest, RepeatedVariableInAtomFiltersFacts) {
  Database db;
  FactId diag = db.AddEndogenous("R", {Value(3), Value(3)});
  db.AddEndogenous("R", {Value(3), Value(4)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, x)");
  RelevanceSplit split = SplitRelevant(q, AllFacts(db));
  EXPECT_EQ(split.relevant.facts, (std::vector<FactId>{diag}));
  EXPECT_EQ(split.irrelevant_endogenous, 1);
}

TEST(DecompositionTest, FactsOfQueryRelations) {
  Database db;
  db.AddEndogenous("R", {Value(1)});
  db.AddEndogenous("T", {Value(2)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x)");
  FactSubset subset = FactsOfQueryRelations(q, AllFacts(db));
  EXPECT_EQ(subset.facts.size(), 1u);
  EXPECT_EQ(db.fact(subset.facts[0]).relation, "R");
}

TEST(DecompositionTest, IsGround) {
  EXPECT_TRUE(IsGround(MustParseQuery("Q() <- R(1), S('a')")));
  EXPECT_FALSE(IsGround(MustParseQuery("Q() <- R(x)")));
}

// ---------------------------------------------------------------------------
// AnswersTouching (the daemon's dirty-answer count for a mutation)
// ---------------------------------------------------------------------------

// Reference: the distinct answers with at least one homomorphism using
// `fact`, straight from the full homomorphism list.
std::vector<Tuple> TouchingByEnumeration(const ConjunctiveQuery& q,
                                         const Database& db, FactId fact) {
  std::vector<Tuple> touching;
  for (const Homomorphism& hom : EnumerateHomomorphisms(q, db)) {
    if (std::find(hom.used_facts.begin(), hom.used_facts.end(), fact) !=
        hom.used_facts.end()) {
      touching.push_back(hom.answer);
    }
  }
  std::sort(touching.begin(), touching.end());
  touching.erase(std::unique(touching.begin(), touching.end()),
                 touching.end());
  return touching;
}

TEST(AnswersTouchingTest, MatchesHomomorphismReference) {
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  db.AddEndogenous("R", {Value(1), Value(3)});
  db.AddEndogenous("R", {Value(4), Value(2)});
  db.AddEndogenous("S", {Value(2)});
  db.AddEndogenous("S", {Value(3)});
  db.AddExogenous("S", {Value(5)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  for (FactId fact = 0; fact < db.num_facts(); ++fact) {
    EXPECT_EQ(AnswersTouching(q, db, fact),
              TouchingByEnumeration(q, db, fact))
        << "fact " << db.fact(fact).ToString();
  }
}

TEST(AnswersTouchingTest, SelfJoinPinsEveryAtomOccurrence) {
  // R appears twice: a fact can touch an answer through either atom.
  Database db;
  db.AddEndogenous("R", {Value(1), Value(2)});
  db.AddEndogenous("R", {Value(2), Value(3)});
  db.AddEndogenous("R", {Value(2), Value(2)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), R(y, z)");
  for (FactId fact = 0; fact < db.num_facts(); ++fact) {
    EXPECT_EQ(AnswersTouching(q, db, fact),
              TouchingByEnumeration(q, db, fact))
        << "fact " << db.fact(fact).ToString();
  }
}

TEST(AnswersTouchingTest, OneFactTouchesStrictlyFewerThanAllAnswers) {
  // With many disjoint answers, a single fact's dirty set must not sweep
  // the whole answer space.
  Database db;
  for (int i = 0; i < 10; ++i) {
    db.AddEndogenous("R", {Value(i), Value(100 + i)});
    db.AddEndogenous("S", {Value(100 + i)});
  }
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  size_t all = Evaluate(q, db).size();
  ASSERT_EQ(all, 10u);
  std::vector<Tuple> dirty = AnswersTouching(q, db, /*fact=*/0);
  EXPECT_EQ(dirty.size(), 1u);
  EXPECT_LT(dirty.size(), all);
}

TEST(AnswersTouchingTest, OneInsertDirtiesFewerThanAllAnswersWithAHub) {
  // The daemon's dirty_answers for a 1-fact insert: n mostly-disjoint
  // answers (x = i joins its private S value) plus a hub value every fourth
  // R row also joins, so some answers carry two homomorphisms.
  constexpr int n = 64;
  Database db;
  for (int i = 0; i < n; ++i) {
    db.AddEndogenous("R", {Value(i), Value(1000 + i)});
    db.AddEndogenous("S", {Value(1000 + i)});
    if (i % 4 == 0) db.AddEndogenous("R", {Value(i), Value(2000)});
  }
  db.AddEndogenous("S", {Value(2000)});
  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  StatusOr<FactId> inserted =
      db.InsertFact("R", {Value(n + 1), Value(1000 + (n + 1) % n)});
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  std::vector<Tuple> dirty = AnswersTouching(q, db, *inserted);
  EXPECT_FALSE(dirty.empty());
  EXPECT_LT(dirty.size(), Evaluate(q, db).size());
}

}  // namespace
}  // namespace shapcq
