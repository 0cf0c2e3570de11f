#include "shapcq/shapley/closed_forms.h"

#include <map>
#include <set>

#include "shapcq/agg/value_function.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/check.h"
#include "shapcq/util/combinatorics.h"

namespace shapcq {

namespace {

Status CheckShape(const AggregateQuery& a, const Database& db) {
  if (!ClosedFormApplies(a, db)) {
    return UnsupportedError(
        "closed form requires Q(x...) <- R(x...) with all facts endogenous");
  }
  return Status::Ok();
}

// τ-values of all live facts, dense by fact id (tombstoned ids keep a
// default Rational that no live-guarded loop reads).
std::vector<Rational> FactValues(const AggregateQuery& a, const Database& db) {
  std::vector<Rational> values(static_cast<size_t>(db.num_facts()));
  for (FactId id = 0; id < db.num_facts(); ++id) {
    if (!db.live(id)) continue;
    values[static_cast<size_t>(id)] = a.tau->Evaluate(db.fact(id).args);
  }
  return values;
}

}  // namespace

bool ClosedFormQueryShape(const ConjunctiveQuery& q) {
  if (q.atoms().size() != 1) return false;
  const Atom& atom = q.atoms()[0];
  // All terms are distinct variables and the head repeats them verbatim.
  std::set<std::string> seen;
  std::vector<std::string> atom_vars;
  for (const Term& term : atom.terms) {
    if (!term.is_variable()) return false;
    if (!seen.insert(term.variable()).second) return false;
    atom_vars.push_back(term.variable());
  }
  return q.head() == atom_vars;
}

bool ClosedFormApplies(const AggregateQuery& a, const Database& db) {
  const ConjunctiveQuery& q = a.query;
  if (!ClosedFormQueryShape(q)) return false;
  // All live facts endogenous and of that relation.
  if (db.num_endogenous() != db.num_live()) return false;
  for (FactId id = 0; id < db.num_facts(); ++id) {
    if (!db.live(id)) continue;
    if (db.fact(id).relation != q.atoms()[0].relation) return false;
  }
  return db.num_live() > 0;
}

StatusOr<Rational> ClosedFormCountDistinct(const AggregateQuery& a,
                                           const Database& db, FactId fact) {
  Status shape = CheckShape(a, db);
  if (!shape.ok()) return shape;
  std::vector<Rational> values = FactValues(a, db);
  const Rational& mine = values[static_cast<size_t>(fact)];
  int64_t same = 0;
  for (FactId id = 0; id < db.num_facts(); ++id) {
    if (db.live(id) && values[static_cast<size_t>(id)] == mine) ++same;
  }
  return Rational(BigInt(1), BigInt(same));
}

StatusOr<Rational> ClosedFormMax(const AggregateQuery& a, const Database& db,
                                 FactId fact) {
  Status shape = CheckShape(a, db);
  if (!shape.ok()) return shape;
  std::vector<Rational> values = FactValues(a, db);
  const Rational& mine = values[static_cast<size_t>(fact)];
  int64_t n = db.num_live();
  Combinatorics comb;
  // Distinct values below τ(t) with their cumulative fact counts.
  std::map<Rational, int64_t> multiplicity;
  for (FactId id = 0; id < db.num_facts(); ++id) {
    if (db.live(id)) ++multiplicity[values[static_cast<size_t>(id)]];
  }
  Rational result = mine / Rational(n);
  int64_t below = 0;  // #facts with τ < a, maintained over ascending a
  for (const auto& [value, count] : multiplicity) {
    if (value >= mine) break;
    int64_t le = below + count;  // m[≤ a]
    Rational weight;
    for (int64_t k = 1; k <= n - 1; ++k) {
      BigInt delta = comb.Binomial(le, k) - comb.Binomial(below, k);
      if (!delta.is_zero()) {
        weight += comb.ShapleyCoefficient(n, k) * Rational(delta);
      }
    }
    result += (mine - value) * weight;
    below = le;
  }
  return result;
}

StatusOr<Rational> ClosedFormMin(const AggregateQuery& a, const Database& db,
                                 FactId fact) {
  // Min(B) = −Max(−B): negate the value function, reuse Prop. 4.4.
  AggregateQuery negated{
      a.query,
      MakeComposedTau([](const Rational& v) { return -v; }, a.tau, "negate"),
      AggregateFunction::Max()};
  StatusOr<Rational> result = ClosedFormMax(negated, db, fact);
  if (!result.ok()) return result.status();
  return -*result;
}

StatusOr<Rational> ClosedFormAvg(const AggregateQuery& a, const Database& db,
                                 FactId fact) {
  Status shape = CheckShape(a, db);
  if (!shape.ok()) return shape;
  std::vector<Rational> values = FactValues(a, db);
  int64_t n = db.num_live();
  Combinatorics comb;
  Rational harmonic = comb.Harmonic(n);
  Rational result =
      harmonic / Rational(n) * values[static_cast<size_t>(fact)];
  if (n > 1) {
    Rational others;
    for (FactId id = 0; id < db.num_facts(); ++id) {
      if (id != fact && db.live(id)) others += values[static_cast<size_t>(id)];
    }
    result -= (harmonic - Rational(1)) / Rational(n * (n - 1)) * others;
  }
  return result;
}

StatusOr<std::vector<std::pair<FactId, Rational>>> ClosedFormScoreAll(
    const AggregateQuery& a, const Database& db, const SolverOptions& options) {
  if (options.score != ScoreKind::kShapley) {
    return UnsupportedError("closed forms cover the Shapley value only");
  }
  const AggKind kind = a.alpha.kind();
  if (kind != AggKind::kCountDistinct && kind != AggKind::kMax &&
      kind != AggKind::kMin && kind != AggKind::kAvg) {
    return UnsupportedError("no closed form for this aggregate");
  }
  Status shape = CheckShape(a, db);
  if (!shape.ok()) return shape;
  // Every live fact is an endogenous fact of the one relation.
  const std::vector<FactId> facts = db.EndogenousFacts();
  const int64_t n = static_cast<int64_t>(facts.size());
  std::vector<Rational> values;
  values.reserve(facts.size());
  for (FactId id : facts) {
    Rational value = a.tau->Evaluate(db.fact(id).args);
    // Min(B) = −Max(−B): negate the values here and the scores below.
    values.push_back(kind == AggKind::kMin ? -value : std::move(value));
  }
  std::vector<std::pair<FactId, Rational>> scores;
  scores.reserve(facts.size());
  if (kind == AggKind::kAvg) {
    // Prop. 5.2 from H(n) and Σ τ.
    Combinatorics comb;
    const Rational harmonic = comb.Harmonic(n);
    Rational total;
    for (const Rational& value : values) total += value;
    const Rational own = harmonic / Rational(n);
    const Rational others = n > 1 ? (harmonic - Rational(1)) /
                                        Rational(n * (n - 1))
                                  : Rational();
    for (size_t i = 0; i < facts.size(); ++i) {
      scores.emplace_back(facts[i],
                          own * values[i] - others * (total - values[i]));
    }
    return scores;
  }
  std::map<Rational, int64_t> multiplicity;
  for (const Rational& value : values) ++multiplicity[value];
  // One score per distinct value, shared by its ties.
  std::map<Rational, Rational> score_of;
  if (kind == AggKind::kCountDistinct) {
    // Prop. 4.2: 1 over the multiplicity of τ(t).
    for (const auto& [value, count] : multiplicity) {
      score_of[value] = Rational(BigInt(1), BigInt(count));
    }
  } else {
    // Prop. 4.4 over ascending values a:
    //   τ(t)/n + Σ_{a < τ(t)} (τ(t) − a)·w_a,
    //   w_a = Σ_k c(n, k)·(C(m[≤ a], k) − C(m[< a], k)),
    // evaluated as τ(t)/n + τ(t)·Σ w_a − Σ a·w_a from prefix sums over the
    // values below τ(t).
    Combinatorics comb;
    Rational weight_below;    // Σ_{a < τ(t)} w_a
    Rational weighted_below;  // Σ_{a < τ(t)} a·w_a
    int64_t below = 0;        // #facts with τ < the current value
    for (const auto& [value, count] : multiplicity) {
      Rational score =
          value / Rational(n) + value * weight_below - weighted_below;
      score_of[value] = kind == AggKind::kMin ? -score : score;
      const int64_t le = below + count;  // m[≤ a]
      Rational weight;
      for (int64_t k = 1; k <= n - 1; ++k) {
        BigInt delta = comb.Binomial(le, k) - comb.Binomial(below, k);
        if (!delta.is_zero()) {
          weight += comb.ShapleyCoefficient(n, k) * Rational(delta);
        }
      }
      weighted_below += value * weight;
      weight_below += weight;
      below = le;
    }
  }
  for (size_t i = 0; i < facts.size(); ++i) {
    scores.emplace_back(facts[i], score_of.at(values[i]));
  }
  return scores;
}

void RegisterClosedFormEngines(EngineRegistry& registry) {
  EngineProvider provider;
  provider.name = "closed-form/single-relation";
  provider.priority = 5;  // fast path: tried before the dynamic programs
  provider.applies = [](const AggregateQuery& a) {
    switch (a.alpha.kind()) {
      case AggKind::kCountDistinct:
      case AggKind::kMax:
      case AggKind::kMin:
      case AggKind::kAvg:
        return ClosedFormQueryShape(a.query);
      default:
        return false;
    }
  };
  provider.score_all = ClosedFormScoreAll;
  registry.Register(std::move(provider));
}

}  // namespace shapcq
