#include "shapcq/shapley/min_max.h"

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "shapcq/agg/value_function.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/shapley/dp_util.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/linearity.h"
#include "shapcq/shapley/membership.h"
#include "shapcq/util/check.h"
#include "shapcq/util/combinatorics.h"

namespace shapcq {

namespace {

// The τ-value of an answer as far as a sub-problem determines it: the fold
// of the τ-groups already bound, nullopt (the monoid identity) while none
// is.
using Key = std::optional<Rational>;

// The paper's P[Q', D']: per attained key (ascending), the per-size counts
// of subsets whose maximum over the answers equals that key. Every row has
// length num_endogenous + 1 and is non-zero; subsets with an empty answer
// set are implicit: C(m, k) − Σ rows.
struct MaxStructure {
  std::map<Key, std::vector<BigInt>> rows;
  int num_endogenous = 0;
};

// The leave-one-out bundle of one sub-problem: the structure of the full
// fact subset plus, for every endogenous fact f in it, the structure with
// f exogenous (the derived database F_f, one row narrower). At each
// combine node a variant reuses the prefix/suffix-combined siblings, so it
// costs one combine per ancestor instead of a full re-solve. Combines count
// subsets with exact integers, so any grouping yields the identical
// structure. All n variants are resident at once.
struct MaxLOO {
  MaxStructure full;
  std::unordered_map<FactId, MaxStructure> minus;
};

// A part of τ whose value is known once its variables are bound: the
// whole of a localized τ, or one position of a monoid fold.
struct TauGroup {
  std::vector<std::string> variables;
  ValueFunctionPtr tau;
};

// What the gates decided: τ split into groups folded by `fold`, with every
// group value negated for Min.
struct MinMaxSetup {
  std::vector<TauGroup> groups;
  MonoidKind fold = MonoidKind::kMax;
  bool negate = false;
  bool localized = false;  // one group holding the whole of τ
};

Key Fold(MonoidKind kind, const Key& a, const Key& b) {
  if (!a.has_value()) return b;
  if (!b.has_value()) return a;
  return ApplyMonoid(kind, *a, *b);
}

bool IsNonZero(const std::vector<BigInt>& row) {
  for (const BigInt& v : row) {
    if (!v.is_zero()) return true;
  }
  return false;
}

// Adds `pad` endogenous facts that never affect the answers.
MaxStructure Pad(MaxStructure s, int pad, Combinatorics* comb) {
  if (pad == 0) return s;
  for (auto& [key, row] : s.rows) row = PadCounts(row, pad, comb);
  s.num_endogenous += pad;
  return s;
}

// Counts of the subsets whose answer set is empty.
std::vector<BigInt> NoAnswerCounts(const MaxStructure& s, Combinatorics* comb) {
  std::vector<BigInt> out = BinomialVector(s.num_endogenous, comb);
  for (const auto& [key, row] : s.rows) {
    for (size_t k = 0; k < out.size(); ++k) out[k] -= row[k];
  }
  return out;
}

void AddInto(std::vector<BigInt>& acc, const std::vector<BigInt>& add) {
  for (size_t k = 0; k < add.size(); ++k) acc[k] += add[k];
}

class MaxSolver {
 public:
  // The group variables still unbound in a sub-problem.
  using Scope = std::set<std::string>;

  MaxSolver(const ConjunctiveQuery& q, const MinMaxSetup& setup,
            Combinatorics* comb)
      : setup_(setup), comb_(comb), head_arity_(q.arity()) {
    for (int position = 0; position < q.arity(); ++position) {
      positions_of_head_var_[q.head()[static_cast<size_t>(position)]]
          .push_back(position);
    }
    for (size_t g = 0; g < setup_.groups.size(); ++g) {
      for (const std::string& variable : setup_.groups[g].variables) {
        groups_of_var_[variable].push_back(g);
      }
    }
  }

  // The structure of `facts` under q, plus every endogenous fact's
  // F-variant when `loo_db` is set: it must be the mutable database the
  // fact subsets point into, and leaf variants are transient flag flips on
  // it (every flag is restored before returning).
  MaxLOO SolveTop(const ConjunctiveQuery& q, const FactSubset& facts,
                  Database* loo_db) {
    loo_db_ = loo_db;
    Scope scope;
    Key acc;
    const Tuple head(static_cast<size_t>(head_arity_), Value(0));
    for (const TauGroup& group : setup_.groups) {
      scope.insert(group.variables.begin(), group.variables.end());
      if (group.variables.empty()) {
        acc = Fold(setup_.fold, acc, GroupValue(group, head));
      }
    }
    MaxLOO out = Solve(q, facts, scope, head, acc);
    loo_db_ = nullptr;
    return out;
  }

  // sum_k series of a padded top-level structure: Σ key · count, summed
  // over the keys' common denominator so only integers accumulate, and
  // negated back for Min.
  SumKSeries Series(const MaxStructure& top) const {
    BigInt den(1);
    for (const auto& [key, row] : top.rows) {
      SHAPCQ_CHECK(key.has_value());  // every group is bound by a leaf
      den = den / BigInt::Gcd(den, key->denominator()) * key->denominator();
    }
    std::vector<BigInt> sums(static_cast<size_t>(top.num_endogenous) + 1);
    for (const auto& [key, row] : top.rows) {
      const BigInt scaled = key->numerator() * (den / key->denominator());
      for (size_t k = 0; k < sums.size(); ++k) sums[k] += scaled * row[k];
    }
    SumKSeries series;
    series.reserve(sums.size());
    for (BigInt& sum : sums) {
      if (setup_.negate) sum.Negate();
      series.emplace_back(std::move(sum), den);
    }
    return series;
  }

 private:
  Rational GroupValue(const TauGroup& group, const Tuple& head) const {
    Rational value = group.tau->Evaluate(head);
    return setup_.negate ? -value : value;
  }

  MaxLOO Solve(const ConjunctiveQuery& q, const FactSubset& facts,
               const Scope& scope, const Tuple& head, const Key& acc) {
    if (scope.empty()) return SolveLeaf(q, facts, acc);
    std::vector<std::string> roots = RootVariables(q);
    if (!roots.empty()) return SolveRoot(q, roots[0], facts, scope, head, acc);
    std::vector<std::vector<int>> components = ConnectedComponents(q);
    SHAPCQ_CHECK(components.size() > 1);
    return SolveCrossProduct(q, components, facts, scope, head, acc);
  }

  // Every group in scope is bound: all answers carry the value `acc`, so
  // the structure is the satisfaction counts under that one key. A fact's
  // variant is a direct re-count with its flag flipped — the one place
  // the leave-one-out pass still recomputes.
  MaxLOO SolveLeaf(const ConjunctiveQuery& q, const FactSubset& facts,
                   const Key& acc) {
    auto leaf = [&] {
      MaxStructure s;
      std::vector<BigInt> sat = SatisfactionCountsOnSubset(q, facts, comb_);
      s.num_endogenous = static_cast<int>(sat.size()) - 1;
      if (IsNonZero(sat)) s.rows.emplace(acc, std::move(sat));
      return s;
    };
    MaxLOO out;
    out.full = leaf();
    if (loo_db_ == nullptr) return out;
    for (FactId f : facts.EndogenousFacts()) {
      loo_db_->SetEndogenous(f, false);
      out.minus.emplace(f, leaf());
      loo_db_->SetEndogenous(f, true);
    }
    return out;
  }

  // Root split: the branches partition the facts (self-join-free
  // consistency), so the result is their union; binding x folds the value
  // of every group it completes into the branch's accumulator. A fact's
  // variant is prefix ∪ variant-branch ∪ suffix; uncovered endogenous
  // facts are pure padding, one padding row fewer.
  MaxLOO SolveRoot(const ConjunctiveQuery& q, const std::string& x,
                   const FactSubset& facts, const Scope& scope,
                   const Tuple& head, const Key& acc) {
    Scope child_scope = scope;
    const bool binds_group = child_scope.erase(x) > 0;
    auto positions = positions_of_head_var_.find(x);
    std::vector<MaxLOO> branches;
    int covered_endogenous = 0;
    for (const Value& a : CandidateValues(q, x, facts)) {
      FactSubset sub;
      sub.db = facts.db;
      sub.facts = FactsConsistentWith(q, x, a, facts);
      covered_endogenous += sub.CountEndogenous();
      Tuple child_head = head;
      if (positions != positions_of_head_var_.end()) {
        for (int p : positions->second) child_head[static_cast<size_t>(p)] = a;
      }
      Key child_acc = acc;
      if (binds_group) {
        for (size_t g : groups_of_var_.at(x)) {
          if (Bound(setup_.groups[g], child_scope)) {
            child_acc = Fold(setup_.fold, child_acc,
                             GroupValue(setup_.groups[g], child_head));
          }
        }
      }
      branches.push_back(
          Solve(q.Bind(x, a), sub, child_scope, child_head, child_acc));
    }
    const int pad = facts.CountEndogenous() - covered_endogenous;
    const size_t num_branches = branches.size();
    std::vector<MaxStructure> prefix(num_branches + 1);
    for (size_t i = 0; i < num_branches; ++i) {
      prefix[i + 1] = CombineUnion(prefix[i], branches[i].full);
    }
    MaxLOO out;
    out.full = Pad(prefix[num_branches], pad, comb_);
    if (loo_db_ == nullptr) return out;
    std::vector<MaxStructure> suffix(num_branches + 1);
    for (size_t i = num_branches; i-- > 0;) {
      suffix[i] = CombineUnion(branches[i].full, suffix[i + 1]);
    }
    for (size_t i = 0; i < num_branches; ++i) {
      for (const auto& [f, variant] : branches[i].minus) {
        out.minus.emplace(
            f, Pad(CombineUnion(CombineUnion(prefix[i], variant),
                                suffix[i + 1]),
                   pad, comb_));
      }
    }
    if (pad > 0) {
      for (FactId f : facts.EndogenousFacts()) {
        if (out.minus.count(f) == 0) {
          out.minus.emplace(f, Pad(prefix[num_branches], pad - 1, comb_));
        }
      }
    }
    return out;
  }

  // Cross product: each component solves its share of the scope, and the
  // products fold their keys. The outer accumulator enters through the
  // first component — a monotone shift of its keys, equal to shifting the
  // folded product by associativity.
  MaxLOO SolveCrossProduct(const ConjunctiveQuery& q,
                           const std::vector<std::vector<int>>& components,
                           const FactSubset& facts, const Scope& scope,
                           const Tuple& head, const Key& acc) {
    std::vector<MaxLOO> parts;
    int covered_endogenous = 0;
    for (const std::vector<int>& component : components) {
      ConjunctiveQuery sub_q = q.Project(component, nullptr);
      FactSubset sub = FactsOfQueryRelations(sub_q, facts);
      covered_endogenous += sub.CountEndogenous();
      Scope sub_scope;
      for (const std::string& variable : scope) {
        if (sub_q.HasVariable(variable)) sub_scope.insert(variable);
      }
      parts.push_back(
          Solve(sub_q, sub, sub_scope, head, parts.empty() ? acc : Key()));
    }
    SHAPCQ_CHECK(covered_endogenous == facts.CountEndogenous());
    // One "answer" with the identity value over zero facts.
    MaxStructure unit;
    unit.rows.emplace(Key(), std::vector<BigInt>{BigInt(1)});
    const size_t num_parts = parts.size();
    std::vector<MaxStructure> prefix(num_parts + 1);
    prefix[0] = unit;
    for (size_t i = 0; i < num_parts; ++i) {
      prefix[i + 1] = CombineCross(prefix[i], parts[i].full);
    }
    MaxLOO out;
    out.full = prefix[num_parts];
    if (loo_db_ == nullptr) return out;
    std::vector<MaxStructure> suffix(num_parts + 1);
    suffix[num_parts] = unit;
    for (size_t i = num_parts; i-- > 0;) {
      suffix[i] = CombineCross(parts[i].full, suffix[i + 1]);
    }
    for (size_t i = 0; i < num_parts; ++i) {
      for (const auto& [f, variant] : parts[i].minus) {
        MaxStructure combined =
            i == 0 ? variant : CombineCross(prefix[i], variant);
        if (i + 1 < num_parts) combined = CombineCross(combined, suffix[i + 1]);
        out.minus.emplace(f, std::move(combined));
      }
    }
    return out;
  }

  // combine_∪ (Appendix C): over disjoint sub-databases, the union's
  // maximum is a iff one side attains a and the other is ≤ a or empty.
  MaxStructure CombineUnion(const MaxStructure& lhs,
                            const MaxStructure& rhs) const {
    MaxStructure out;
    out.num_endogenous = lhs.num_endogenous + rhs.num_endogenous;
    // Running counts of "max below the current key, or no answer".
    std::vector<BigInt> lhs_below = NoAnswerCounts(lhs, comb_);
    std::vector<BigInt> rhs_below = NoAnswerCounts(rhs, comb_);
    auto l = lhs.rows.begin();
    auto r = rhs.rows.begin();
    while (l != lhs.rows.end() || r != rhs.rows.end()) {
      const bool at_l = r == rhs.rows.end() ||
                        (l != lhs.rows.end() && l->first <= r->first);
      const bool at_r = l == lhs.rows.end() ||
                        (r != rhs.rows.end() && r->first <= l->first);
      const Key key = at_l ? l->first : r->first;
      std::vector<BigInt> row(static_cast<size_t>(out.num_endogenous) + 1);
      // (lhs < key or empty, rhs = key) + (lhs = key, rhs ≤ key or empty).
      if (at_r) {
        AddInto(row, Convolve(lhs_below, r->second));
        AddInto(rhs_below, r->second);
      }
      if (at_l) {
        AddInto(row, Convolve(l->second, rhs_below));
        AddInto(lhs_below, l->second);
      }
      if (IsNonZero(row)) {
        out.rows.emplace_hint(out.rows.end(), key, std::move(row));
      }
      if (at_l) ++l;
      if (at_r) ++r;
    }
    return out;
  }

  // combine_× (Section 7.3): every pair of factor maxima folds into the
  // product's maximum; an empty factor empties the product.
  MaxStructure CombineCross(const MaxStructure& lhs,
                            const MaxStructure& rhs) const {
    MaxStructure out;
    out.num_endogenous = lhs.num_endogenous + rhs.num_endogenous;
    for (const auto& [lkey, lrow] : lhs.rows) {
      for (const auto& [rkey, rrow] : rhs.rows) {
        std::vector<BigInt> product = Convolve(lrow, rrow);
        auto [it, inserted] =
            out.rows.try_emplace(Fold(setup_.fold, lkey, rkey));
        if (inserted) {
          it->second = std::move(product);
        } else {
          AddInto(it->second, product);
        }
      }
    }
    return out;
  }

  static bool Bound(const TauGroup& group, const Scope& scope) {
    for (const std::string& variable : group.variables) {
      if (scope.count(variable) > 0) return false;
    }
    return true;
  }

  const MinMaxSetup& setup_;
  Combinatorics* comb_;
  int head_arity_;
  std::unordered_map<std::string, std::vector<int>> positions_of_head_var_;
  std::unordered_map<std::string, std::vector<size_t>> groups_of_var_;
  // Set only during a leave-one-out SolveTop: the mutable database the
  // fact subsets point into, used for transient leaf flag flips.
  Database* loo_db_ = nullptr;
};

// The gates of both entry points, in one order so the batch fails exactly
// where the per-fact path would, and the grouping of τ they settle on.
StatusOr<MinMaxSetup> SetUp(const AggregateQuery& a) {
  const AggKind kind = a.alpha.kind();
  if (kind != AggKind::kMin && kind != AggKind::kMax) {
    return UnsupportedError("MinMaxSumK handles Min and Max only");
  }
  if (a.query.HasSelfJoin()) {
    return UnsupportedError("Min/Max requires a self-join-free CQ");
  }
  if (!IsAllHierarchical(a.query)) {
    return UnsupportedError("Min/Max requires an all-hierarchical CQ: " +
                            a.query.ToString());
  }
  const bool is_max = kind == AggKind::kMax;
  auto head_var = [&a](int position) {
    return a.query.head()[static_cast<size_t>(position)];
  };
  MinMaxSetup setup;
  setup.negate = !is_max;
  if (!LocalizationAtoms(a.query, *a.tau).empty()) {
    setup.localized = true;
    TauGroup group{{}, a.tau};
    for (int position : a.tau->DependsOn()) {
      group.variables.push_back(head_var(position));
    }
    setup.groups.push_back(std::move(group));
    return setup;
  }
  const std::optional<MonoidKind> monoid = a.tau->monoid();
  if (!monoid.has_value()) {
    return UnsupportedError("value function is not localized on any atom of " +
                            a.query.ToString());
  }
  if (is_max && *monoid == MonoidKind::kMin) {
    return UnsupportedError("Max aggregation needs a non-decreasing monoid");
  }
  if (!is_max && *monoid == MonoidKind::kMax) {
    return UnsupportedError("Min aggregation needs a non-increasing monoid");
  }
  // Negation turns min-folds into max-folds and keeps plus-folds.
  setup.fold = *monoid == MonoidKind::kMin ? MonoidKind::kMax : *monoid;
  for (int position : a.tau->DependsOn()) {
    setup.groups.push_back({{head_var(position)}, MakeTauId(position)});
  }
  return setup;
}

}  // namespace

StatusOr<SumKSeries> MinMaxSumK(const AggregateQuery& a, const Database& db,
                                const SolverOptions& /*options*/) {
  StatusOr<MinMaxSetup> setup = SetUp(a);
  if (!setup.ok()) return setup.status();
  Combinatorics comb;
  MaxSolver solver(a.query, *setup, &comb);
  RelevanceSplit split = SplitRelevant(a.query, AllFacts(db));
  MaxStructure top = Pad(solver.SolveTop(a.query, split.relevant, nullptr).full,
                         split.irrelevant_endogenous, &comb);
  SHAPCQ_CHECK(top.num_endogenous == db.num_endogenous());
  return solver.Series(top);
}

// A localized τ scores through the threshold group games (linearity.h):
// Max = Σ_i w_i·[some answer has τ ≥ v_i] is the same game as the DP's, so
// the exact values coincide. A threshold group past options.lineage's
// compile budget, and every monoid τ, take the leave-one-out DP instead.
//
// Equivalence of the DP with per-fact ScoreViaSumK(MinMaxSumK): F_f (f
// exogenous) has exactly the facts of D, so its relevance split coincides
// with D's, and its structure is the leave-one-out variant of f — exact
// subset counting, the integers a from-scratch solve of F_f would produce.
// ScoreFactsByIdentity derives G_f and scores the null players.
StatusOr<std::vector<std::pair<FactId, Rational>>> MinMaxScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options) {
  StatusOr<MinMaxSetup> setup = SetUp(a);
  if (!setup.ok()) return setup.status();
  if (db.num_endogenous() == 0) {
    return std::vector<std::pair<FactId, Rational>>{};
  }
  if (setup->localized) {
    StatusOr<std::vector<std::pair<FactId, Rational>>> scores =
        ScoreGroupsOnCircuits(a, db, GroupHomomorphismsByAnswer(a.query, db),
                              options);
    if (scores.ok() || scores.status().code() != StatusCode::kUnsupported) {
      return scores;
    }
  }
  Database work = db;
  Combinatorics comb;
  MaxSolver solver(a.query, *setup, &comb);
  FactSubset relevant;
  relevant.db = &work;
  relevant.facts = SplitRelevantIndexed(a.query, db).relevant.facts;
  const MaxLOO loo = solver.SolveTop(a.query, relevant, &work);
  return ScoreFactsByIdentity(
      a, db, solver.Series(loo.full),
      [&]() -> ExogenousSeriesFn {
        return [&](FactId f) -> StatusOr<SumKSeries> {
          auto it = loo.minus.find(f);
          SHAPCQ_CHECK(it != loo.minus.end());
          return solver.Series(it->second);
        };
      },
      options);
}

void RegisterMinMaxEngine(EngineRegistry& registry) {
  EngineProvider provider;
  provider.name = "min-max/all-hierarchical-dp";
  provider.priority = 10;
  provider.applies = [](const AggregateQuery& a) {
    return a.alpha.kind() == AggKind::kMin || a.alpha.kind() == AggKind::kMax;
  };
  provider.sum_k = MinMaxSumK;
  provider.score_all = MinMaxScoreAll;
  registry.Register(std::move(provider));
}

}  // namespace shapcq
