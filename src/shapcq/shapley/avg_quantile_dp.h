// The Avg / Qnt_q quintuple DP (Section 5) behind AvgQuantileSumK,
// templated on its counting representation.
//
// avg_quantile.cc instantiates it on CountValue, the production path. The
// template lives in this header so a test can instantiate it on pure
// BigInt counts as a differential oracle without that second
// instantiation shipping in the library; nothing else should include it.

#ifndef SHAPCQ_SHAPLEY_AVG_QUANTILE_DP_H_
#define SHAPCQ_SHAPLEY_AVG_QUANTILE_DP_H_

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/shapley/answer_counts.h"
#include "shapcq/shapley/avg_quantile.h"
#include "shapcq/shapley/score.h"
#include "shapcq/util/check.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/fixed_int.h"
#include "shapcq/util/status.h"

namespace shapcq {
namespace avg_quantile_dp {

// The counting representation behind the DP. CountValue (fixed-width,
// escaping to BigInt on overflow) is the production path; a test can
// specialize CountOps for BigInt and instantiate AvgQuantileSumKImpl on
// it as the differential oracle — both are exact, so their series agree
// bitwise.
template <typename Count>
struct CountOps;

template <>
struct CountOps<CountValue> {
  static CountValue FromBigInt(const BigInt& value) {
    return CountValue(value);
  }
  static void AddProduct(CountValue& acc, const CountValue& a,
                         const CountValue& b) {
    acc.AddProduct(a, b);
  }
  static void AddProductBig(CountValue& acc, const CountValue& a,
                            const BigInt& b) {
    acc.AddProduct(a, b);
  }
  static CountValue Binomial(Combinatorics* comb, int64_t n, int64_t k) {
    return comb->CountRow(n)[static_cast<size_t>(k)];
  }
  static BigInt ToBigInt(const CountValue& value) { return value.ToBigInt(); }
};

// (k, ℓ<, ℓ=, ℓ>) -> count, sparse.
template <typename Count>
using QuintupleMap = std::map<std::array<int, 4>, Count>;

// The R-side structure: one quintuple map per anchor.
template <typename Count>
struct AvgQntStructure {
  std::vector<QuintupleMap<Count>> by_anchor;
  int num_endogenous = 0;
};

template <typename Count>
class AvgQntSolver {
 public:
  using Ops = CountOps<Count>;
  using Structure = AvgQntStructure<Count>;

  AvgQntSolver(const ConjunctiveQuery& original, const ValueFunction& tau,
               const std::string& relation, std::vector<Rational> anchors,
               Combinatorics* comb)
      : tau_(tau), relation_(relation), anchors_(std::move(anchors)),
        comb_(comb), head_arity_(original.arity()) {
    for (int position = 0; position < original.arity(); ++position) {
      positions_of_head_var_[original.head()[static_cast<size_t>(position)]]
          .push_back(position);
    }
    depends_on_ = tau_.DependsOn();
  }

  using PartialHead = std::vector<std::optional<Value>>;

  PartialHead EmptyHead() const {
    return PartialHead(static_cast<size_t>(head_arity_));
  }

  Structure Solve(const ConjunctiveQuery& q, const FactSubset& facts,
                  const PartialHead& head) {
    SHAPCQ_CHECK(AtomIndexOf(q, relation_) >= 0);
    if (AllDependedBound(head)) return SolveValueFixed(q, facts, head);
    // A depended head variable is still unbound, so q is non-Boolean; pick a
    // free root variable if connected, else split the cross product.
    std::vector<std::string> free_roots;
    for (const std::string& root : RootVariables(q)) {
      if (q.IsFreeVariable(root)) free_roots.push_back(root);
    }
    if (!free_roots.empty()) return SolveRoot(q, free_roots[0], facts, head);
    std::vector<std::vector<int>> components = ConnectedComponents(q);
    SHAPCQ_CHECK(components.size() > 1 &&
                 "q-hierarchy guarantees a free root for connected "
                 "non-Boolean sub-queries");
    return SolveCrossProduct(q, components, facts, head);
  }

  Structure Pad(Structure s, int pad) const {
    if (pad == 0) return s;
    std::vector<Count> row;
    row.reserve(static_cast<size_t>(pad) + 1);
    for (int extra = 0; extra <= pad; ++extra) {
      row.push_back(Ops::Binomial(comb_, pad, extra));
    }
    for (QuintupleMap<Count>& per_anchor : s.by_anchor) {
      QuintupleMap<Count> padded;
      for (const auto& [key, count] : per_anchor) {
        for (int extra = 0; extra <= pad; ++extra) {
          Ops::AddProduct(
              padded[{key[0] + extra, key[1], key[2], key[3]}], count,
              row[static_cast<size_t>(extra)]);
        }
      }
      per_anchor = std::move(padded);
    }
    s.num_endogenous += pad;
    return s;
  }

 private:
  bool AllDependedBound(const PartialHead& head) const {
    for (int position : depends_on_) {
      if (!head[static_cast<size_t>(position)].has_value()) return false;
    }
    return true;
  }

  int AnchorIndexOf(const Rational& value) const {
    auto it = std::lower_bound(anchors_.begin(), anchors_.end(), value);
    if (it == anchors_.end() || *it != value) return -1;
    return static_cast<int>(it - anchors_.begin());
  }

  // All τ-relevant positions bound: every answer of this sub-problem has the
  // same τ-value a0, so the structure is determined by the answer-count
  // distribution: ℓ answers put ℓ in the component of a0's comparison.
  Structure SolveValueFixed(const ConjunctiveQuery& q, const FactSubset& facts,
                            const PartialHead& head) {
    Tuple answer(static_cast<size_t>(head_arity_), Value(0));
    for (int position : depends_on_) {
      answer[static_cast<size_t>(position)] =
          *head[static_cast<size_t>(position)];
    }
    Rational value = tau_.Evaluate(answer);
    AnswerCountMap counts = AnswerCountDistribution(q, facts, comb_);
    Structure out;
    out.num_endogenous = facts.CountEndogenous();
    out.by_anchor.assign(anchors_.size(), QuintupleMap<Count>());
    int anchor = AnchorIndexOf(value);
    if (anchor < 0) {
      // Never realized in the full database: no subset can have answers.
      for (const auto& [key, count] : counts) {
        SHAPCQ_CHECK(key.second == 0);
        (void)count;
      }
    }
    for (size_t i = 0; i < anchors_.size(); ++i) {
      int comparison =
          anchor < 0 ? 0 : Rational::Compare(value, anchors_[i]);
      for (const auto& [key, count] : counts) {
        int k = key.first;
        int answers = key.second;
        std::array<int, 4> quintuple = {k, 0, 0, 0};
        if (comparison < 0) {
          quintuple[1] = answers;
        } else if (comparison == 0) {
          quintuple[2] = answers;
        } else {
          quintuple[3] = answers;
        }
        out.by_anchor[i][quintuple] += Ops::FromBigInt(count);
      }
    }
    return out;
  }

  Structure SolveRoot(const ConjunctiveQuery& q, const std::string& x,
                      const FactSubset& facts, const PartialHead& head) {
    int total_endogenous = facts.CountEndogenous();
    Structure acc;
    acc.num_endogenous = 0;
    acc.by_anchor.assign(anchors_.size(), QuintupleMap<Count>());
    for (QuintupleMap<Count>& per_anchor : acc.by_anchor) {
      per_anchor[{0, 0, 0, 0}] = Count(1);
    }
    int covered_endogenous = 0;
    for (const Value& a : CandidateValues(q, x, facts)) {
      FactSubset sub;
      sub.db = facts.db;
      sub.facts = FactsConsistentWith(q, x, a, facts);
      covered_endogenous += sub.CountEndogenous();
      PartialHead sub_head = head;
      auto it = positions_of_head_var_.find(x);
      if (it != positions_of_head_var_.end()) {
        for (int position : it->second) {
          sub_head[static_cast<size_t>(position)] = a;
        }
      }
      acc = CombineUnion(acc, Solve(q.Bind(x, a), sub, sub_head));
    }
    return Pad(std::move(acc), total_endogenous - covered_endogenous);
  }

  // combine_∪ at a free root: disjoint answer sets, quintuples add.
  Structure CombineUnion(const Structure& lhs, const Structure& rhs) const {
    Structure out;
    out.num_endogenous = lhs.num_endogenous + rhs.num_endogenous;
    out.by_anchor.assign(anchors_.size(), QuintupleMap<Count>());
    for (size_t i = 0; i < anchors_.size(); ++i) {
      for (const auto& [lkey, lcount] : lhs.by_anchor[i]) {
        for (const auto& [rkey, rcount] : rhs.by_anchor[i]) {
          Ops::AddProduct(
              out.by_anchor[i][{lkey[0] + rkey[0], lkey[1] + rkey[1],
                                lkey[2] + rkey[2], lkey[3] + rkey[3]}],
              lcount, rcount);
        }
      }
    }
    return out;
  }

  // combine_×: the R-side bag is replicated once per answer of the other
  // components (multiplicities multiply; an empty side empties the bag).
  Structure SolveCrossProduct(const ConjunctiveQuery& q,
                              const std::vector<std::vector<int>>& components,
                              const FactSubset& facts,
                              const PartialHead& head) {
    int r_atom = AtomIndexOf(q, relation_);
    Structure value_side;
    AnswerCountMap other = {{{0, 1}, BigInt(1)}};
    int covered_endogenous = 0;
    bool found = false;
    for (const std::vector<int>& component : components) {
      ConjunctiveQuery sub_q = q.Project(component, nullptr);
      FactSubset sub = FactsOfQueryRelations(sub_q, facts);
      covered_endogenous += sub.CountEndogenous();
      bool holds_r = std::find(component.begin(), component.end(), r_atom) !=
                     component.end();
      if (holds_r) {
        found = true;
        value_side = Solve(sub_q, sub, head);
      } else {
        // Fold the component into the partner answer-count distribution.
        AnswerCountMap dist = AnswerCountDistribution(sub_q, sub, comb_);
        AnswerCountMap folded;
        for (const auto& [lkey, lcount] : other) {
          for (const auto& [rkey, rcount] : dist) {
            folded[{lkey.first + rkey.first, lkey.second * rkey.second}] +=
                lcount * rcount;
          }
        }
        other = std::move(folded);
      }
    }
    SHAPCQ_CHECK(found);
    SHAPCQ_CHECK(covered_endogenous == facts.CountEndogenous());
    Structure out;
    out.num_endogenous = facts.CountEndogenous();
    out.by_anchor.assign(anchors_.size(), QuintupleMap<Count>());
    for (size_t i = 0; i < anchors_.size(); ++i) {
      for (const auto& [lkey, lcount] : value_side.by_anchor[i]) {
        bool value_empty = lkey[1] == 0 && lkey[2] == 0 && lkey[3] == 0;
        for (const auto& [rkey, rcount] : other) {
          int multiplier = rkey.second;
          std::array<int, 4> key;
          if (value_empty || multiplier == 0) {
            key = {lkey[0] + rkey.first, 0, 0, 0};
          } else {
            key = {lkey[0] + rkey.first, lkey[1] * multiplier,
                   lkey[2] * multiplier, lkey[3] * multiplier};
          }
          Ops::AddProductBig(out.by_anchor[i][key], lcount, rcount);
        }
      }
    }
    return out;
  }

  const ValueFunction& tau_;
  const std::string& relation_;
  std::vector<Rational> anchors_;  // ascending
  Combinatorics* comb_;
  int head_arity_;
  std::vector<int> depends_on_;
  std::unordered_map<std::string, std::vector<int>> positions_of_head_var_;
};

// sum_k series of a quintuple structure: the paper's Avg / Qnt_q
// formulas, accumulated in ascending anchor order. The count-to-Rational
// conversion goes through the canonical ToBigInt, so every Count
// instantiation produces the same bits.
template <typename Count>
SumKSeries SeriesFromAvgQntStructure(const AvgQntStructure<Count>& top,
                                     const std::vector<Rational>& anchors,
                                     const AggregateFunction& alpha) {
  SumKSeries series(static_cast<size_t>(top.num_endogenous) + 1);
  const bool is_avg = alpha.kind() == AggKind::kAvg;
  for (size_t i = 0; i < anchors.size(); ++i) {
    for (const auto& [key, count] : top.by_anchor[i]) {
      int k = key[0];
      int64_t less = key[1], equal = key[2], greater = key[3];
      if (equal == 0 || count.is_zero()) continue;
      Rational weight;
      if (is_avg) {
        weight = Rational(equal) / Rational(less + equal + greater);
      } else {
        weight = QuantileContribution(alpha.quantile(), less, equal, greater);
      }
      if (weight.is_zero()) continue;
      series[static_cast<size_t>(k)] +=
          anchors[i] * weight * Rational(CountOps<Count>::ToBigInt(count));
    }
  }
  return series;
}

template <typename Count>
StatusOr<SumKSeries> AvgQuantileSumKImpl(const AggregateQuery& a,
                                         const Database& db) {
  if (a.alpha.kind() != AggKind::kAvg &&
      a.alpha.kind() != AggKind::kQuantile) {
    return UnsupportedError("AvgQuantileSumK handles Avg and Qnt_q only");
  }
  if (a.query.HasSelfJoin()) {
    return UnsupportedError("Avg/Qnt requires a self-join-free CQ");
  }
  if (!IsQHierarchical(a.query)) {
    return UnsupportedError("Avg/Qnt requires a q-hierarchical CQ: " +
                            a.query.ToString());
  }
  std::vector<int> localization = LocalizationAtoms(a.query, *a.tau);
  if (localization.empty()) {
    return UnsupportedError("value function is not localized on any atom of " +
                            a.query.ToString());
  }
  const std::string relation =
      a.query.atoms()[static_cast<size_t>(localization[0])].relation;
  std::set<Rational> anchor_set;
  for (const Tuple& answer : Evaluate(a.query, db)) {
    anchor_set.insert(a.tau->Evaluate(answer));
  }
  int n = db.num_endogenous();
  SumKSeries series(static_cast<size_t>(n) + 1);
  if (anchor_set.empty()) return series;
  std::vector<Rational> anchors(anchor_set.begin(), anchor_set.end());
  Combinatorics comb;
  AvgQntSolver<Count> solver(a.query, *a.tau, relation, anchors, &comb);
  RelevanceSplit split = SplitRelevant(a.query, AllFacts(db));
  AvgQntStructure<Count> top =
      solver.Solve(a.query, split.relevant, solver.EmptyHead());
  top = solver.Pad(std::move(top), split.irrelevant_endogenous);
  SHAPCQ_CHECK(top.num_endogenous == n);
  return SeriesFromAvgQntStructure(top, anchors, a.alpha);
}

}  // namespace avg_quantile_dp
}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_AVG_QUANTILE_DP_H_
