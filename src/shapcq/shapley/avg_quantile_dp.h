// The Avg / Qnt_q quintuple DP (Section 5) behind AvgQuantileSumK and
// AvgQuantileScoreAll, templated on its counting representation.
//
// avg_quantile.cc instantiates it on CountValue, the production path. The
// template lives in this header so a test can instantiate it on pure
// BigInt counts as a differential oracle without that second
// instantiation shipping in the library; nothing else should include it.

#ifndef SHAPCQ_SHAPLEY_AVG_QUANTILE_DP_H_
#define SHAPCQ_SHAPLEY_AVG_QUANTILE_DP_H_

#include <algorithm>
#include <array>
#include <cstddef>
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

// The same quintuples per anchor as a key-sorted vector, zero counts
// dropped: the form AvgQntSolver::Divide reads and builds.
template <typename Count>
struct FlatAvgQntStructure {
  std::vector<std::vector<std::pair<std::array<int, 4>, Count>>> by_anchor;
  int num_endogenous = 0;
};

template <typename Count>
class AvgQntSolver {
 public:
  using Ops = CountOps<Count>;
  using Structure = AvgQntStructure<Count>;
  using FlatStructure = FlatAvgQntStructure<Count>;

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
    // A depended head variable is still unbound, so q is non-Boolean; split
    // at a free root variable if connected, else split the cross product.
    if (std::optional<std::string> x = FreeRoot(q)) {
      return SolveRoot(q, *x, facts, head);
    }
    std::vector<std::vector<int>> components = ConnectedComponents(q);
    SHAPCQ_CHECK(components.size() > 1 &&
                 "q-hierarchy guarantees a free root for connected "
                 "non-Boolean sub-queries");
    return SolveCrossProduct(q, components, facts, head);
  }

  // One branch of a free-root split: the sub-problem of one root value.
  struct Block {
    ConjunctiveQuery query;  // q with the root bound
    std::vector<FactId> facts;
    PartialHead head;
  };

  // The blocks Solve(q, facts, EmptyHead()) folds at its top level, or
  // nullopt when it does not split at a free root there (τ bound from the
  // start, or a cross product). Facts in no block are padding.
  std::optional<std::vector<Block>> TopBlocks(const ConjunctiveQuery& q,
                                              const FactSubset& facts) const {
    const PartialHead head = EmptyHead();
    if (AllDependedBound(head)) return std::nullopt;
    std::optional<std::string> x = FreeRoot(q);
    if (!x.has_value()) return std::nullopt;
    return SplitAtRoot(q, *x, facts, head);
  }

  // A block's structure over `db`, the database its facts index into.
  Structure SolveBlock(const Block& block, const Database& db) {
    return Solve(block.query, FactSubset{&db, block.facts}, block.head);
  }

  // The empty fold: no facts, one empty bag per anchor.
  Structure Unit() const {
    Structure unit;
    unit.by_anchor.assign(anchors_.size(), QuintupleMap<Count>());
    for (QuintupleMap<Count>& per_anchor : unit.by_anchor) {
      per_anchor[{0, 0, 0, 0}] = Count(1);
    }
    return unit;
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

  // The structure W with CombineUnion(W, block) == s, for a block whose
  // structure is one factor of the fold s. A block's k = 0 row is its one
  // subset with no endogenous fact: a single profile ℓ0 with count 1. Every
  // larger subset's profile is ≥ ℓ0 componentwise, because answers only
  // grow with the facts, so W follows by exact long division in k:
  //   W_k = (s_k − Σ_{j≥1} block_j · W_{k−j}) with ℓ shifted down by ℓ0.
  // Every term block_j · W_{k−j} counts subsets that s_k counts too, so its
  // key is one of s_k's and the row accumulates in place.
  FlatStructure Divide(const FlatStructure& s, const Structure& block) const {
    using Key = std::array<int, 4>;
    FlatStructure out;
    out.num_endogenous = s.num_endogenous - block.num_endogenous;
    out.by_anchor.resize(anchors_.size());
    std::vector<Count> row;
    for (size_t i = 0; i < anchors_.size(); ++i) {
      // The block's entries by k, negated for k ≥ 1; its k = 0 key.
      std::vector<std::vector<std::pair<Key, Count>>> negated(
          static_cast<size_t>(block.num_endogenous) + 1);
      std::optional<Key> shift;
      for (const auto& [key, count] : block.by_anchor[i]) {
        if (count.is_zero()) continue;
        if (key[0] == 0) {
          SHAPCQ_CHECK(!shift.has_value() && count == Count(1));
          shift = key;
          continue;
        }
        Count minus;
        minus -= count;
        negated[static_cast<size_t>(key[0])].emplace_back(key,
                                                          std::move(minus));
      }
      SHAPCQ_CHECK(shift.has_value());
      const auto& s_entries = s.by_anchor[i];
      auto& w = out.by_anchor[i];
      std::vector<size_t> w_begin;  // W_k is w[w_begin[k], w_begin[k+1])
      size_t s_end = 0;
      for (int k = 0; k <= out.num_endogenous; ++k) {
        w_begin.push_back(w.size());
        // s_k is s_entries[s_begin, s_end); row accumulates W_k over it.
        const size_t s_begin = s_end;
        row.clear();
        for (; s_end < s_entries.size() && s_entries[s_end].first[0] == k;
             ++s_end) {
          row.push_back(s_entries[s_end].second);
        }
        const auto first =
            s_entries.begin() + static_cast<std::ptrdiff_t>(s_begin);
        const auto last =
            s_entries.begin() + static_cast<std::ptrdiff_t>(s_end);
        for (int j = 1; j <= std::min(k, block.num_endogenous); ++j) {
          for (size_t e = w_begin[static_cast<size_t>(k - j)];
               e < w_begin[static_cast<size_t>(k - j) + 1]; ++e) {
            for (const auto& [key, minus] : negated[static_cast<size_t>(j)]) {
              Key target;
              for (size_t d = 0; d < 4; ++d) {
                target[d] = w[e].first[d] + key[d];
              }
              auto it = std::lower_bound(
                  first, last, target, [](const auto& entry, const Key& t) {
                    return entry.first < t;
                  });
              SHAPCQ_CHECK(it != last && it->first == target);
              Ops::AddProduct(row[static_cast<size_t>(it - first)], minus,
                              w[e].second);
            }
          }
        }
        for (size_t r = 0; r < row.size(); ++r) {
          if (row[r].is_zero()) continue;
          Key key;
          for (size_t d = 0; d < 4; ++d) {
            key[d] = s_entries[s_begin + r].first[d] - (*shift)[d];
            SHAPCQ_CHECK(key[d] >= 0);
          }
          w.emplace_back(key, std::move(row[r]));
        }
      }
    }
    return out;
  }

  // s's quintuples as key-sorted vectors, zero counts dropped.
  FlatStructure Flatten(const Structure& s) const {
    FlatStructure out;
    out.num_endogenous = s.num_endogenous;
    out.by_anchor.resize(s.by_anchor.size());
    for (size_t i = 0; i < s.by_anchor.size(); ++i) {
      for (const auto& [key, count] : s.by_anchor[i]) {
        if (!count.is_zero()) out.by_anchor[i].emplace_back(key, count);
      }
    }
    return out;
  }

  // [C(pad, 0), ..., C(pad, pad)]: adding `pad` endogenous facts that
  // never affect the answers convolves the k axis with this row.
  std::vector<Count> PadRow(int pad) const {
    std::vector<Count> row;
    row.reserve(static_cast<size_t>(pad) + 1);
    for (int extra = 0; extra <= pad; ++extra) {
      row.push_back(Ops::Binomial(comb_, pad, extra));
    }
    return row;
  }

  Structure Pad(Structure s, int pad) const {
    if (pad == 0) return s;
    const std::vector<Count> row = PadRow(pad);
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

  std::optional<std::string> FreeRoot(const ConjunctiveQuery& q) const {
    for (const std::string& root : RootVariables(q)) {
      if (q.IsFreeVariable(root)) return root;
    }
    return std::nullopt;
  }

  std::vector<Block> SplitAtRoot(const ConjunctiveQuery& q,
                                 const std::string& x, const FactSubset& facts,
                                 const PartialHead& head) const {
    std::vector<Block> blocks;
    auto positions = positions_of_head_var_.find(x);
    for (const Value& a : CandidateValues(q, x, facts)) {
      Block block{q.Bind(x, a), FactsConsistentWith(q, x, a, facts), head};
      if (positions != positions_of_head_var_.end()) {
        for (int position : positions->second) {
          block.head[static_cast<size_t>(position)] = a;
        }
      }
      blocks.push_back(std::move(block));
    }
    return blocks;
  }

  Structure SolveRoot(const ConjunctiveQuery& q, const std::string& x,
                      const FactSubset& facts, const PartialHead& head) {
    Structure acc = Unit();
    for (const Block& block : SplitAtRoot(q, x, facts, head)) {
      acc = CombineUnion(acc, SolveBlock(block, *facts.db));
    }
    const int pad = facts.CountEndogenous() - acc.num_endogenous;
    return Pad(std::move(acc), pad);
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

// The two ranks of the q-quantile of a bag of `total` elements:
// ⌈q·|B|⌉ and ⌊q·|B|+1⌋.
inline std::pair<int64_t, int64_t> QuantileRanks(const Rational& q,
                                                 int64_t total) {
  const Rational qn = q * Rational(total);
  return {qn.Ceil().ToInt64(), (qn + Rational(1)).Floor().ToInt64()};
}

// 2·f_q(ℓ<, ℓ=, ℓ>): how many of the two ranks fall on the anchor's ℓ=
// copies.
inline int QuantileHalves(const std::pair<int64_t, int64_t>& ranks,
                          int64_t less, int64_t equal) {
  int halves = 0;
  for (int64_t rank : {ranks.first, ranks.second}) {
    if (less < rank && less + equal >= rank) ++halves;
  }
  return halves;
}

// The paper's series of quintuple counts,
//
//   sum_k = Σ_a Σ_ℓ a · w(ℓ<, ℓ=, ℓ>) · P(a, k, ℓ),
//
// with w = ℓ=/|B| for Avg and w = f_q (in halves) for Qnt_q. Every weight
// is an integer over |B| or 2, so counts sum as integers per (anchor, k,
// |B|) cell; each anchor's cells fold into one integer per k over the
// common denominator lcm(anchor denominators) · lcm(1..max_bag) (Avg) or
// · 2 (Qnt_q), and a series entry costs one Rational normalization. The
// sums are exact and Rationals canonical, so the bits depend neither on
// Count nor on how the counts are grouped.
template <typename Count>
class AvgQntSeries {
 public:
  using Ops = CountOps<Count>;
  using Structure = AvgQntStructure<Count>;

  // `max_bag` bounds |B|: the number of answers of Q over the database.
  AvgQntSeries(const std::vector<Rational>& anchors,
               const AggregateFunction& alpha, int max_bag)
      : is_avg_(alpha.kind() == AggKind::kAvg),
        slots_(is_avg_ ? static_cast<size_t>(max_bag) + 1 : 1) {
    BigInt anchor_lcm(1);
    for (const Rational& anchor : anchors) {
      anchor_lcm = Lcm(anchor_lcm, anchor.denominator());
    }
    BigInt bag_lcm(is_avg_ ? 1 : 2);
    for (int size = 2; is_avg_ && size <= max_bag; ++size) {
      bag_lcm = Lcm(bag_lcm, BigInt(size));
    }
    denominator_ = anchor_lcm * bag_lcm;
    for (const Rational& anchor : anchors) {
      anchor_scale_.push_back(Ops::FromBigInt(
          anchor.numerator() * (anchor_lcm / anchor.denominator())));
    }
    bag_scale_.assign(slots_, Count(1));
    for (size_t size = 1; is_avg_ && size < slots_; ++size) {
      bag_scale_[size] =
          Ops::FromBigInt(bag_lcm / BigInt(static_cast<int64_t>(size)));
    }
    for (int size = 0; !is_avg_ && size <= max_bag; ++size) {
      ranks_.push_back(QuantileRanks(alpha.quantile(), size));
    }
    unit_.by_anchor.assign(anchors.size(),
                           QuintupleMap<Count>{{{0, 0, 0, 0}, Count(1)}});
  }

  // The series of s padded by the facts that never affect the answers:
  // `pad_row` is their binomial row (AvgQntSolver::PadRow). Padding moves
  // k only, so it applies to the per-k integers, not to the structure.
  SumKSeries Of(const Structure& s, const std::vector<Count>& pad_row) const {
    return OfUnion(s, unit_, pad_row);
  }

  // Of(CombineUnion(lhs, rhs), pad_row) without materializing the union;
  // lhs is a Structure or a FlatAvgQntStructure. Each rhs count is scaled
  // by every weight numerator once, so a pair costs one product.
  template <typename Lhs>
  SumKSeries OfUnion(const Lhs& lhs, const Structure& rhs,
                     const std::vector<Count>& pad_row) const {
    Sums sums(lhs.num_endogenous + rhs.num_endogenous, slots_);
    std::vector<Count> scaled;  // rcount · numerator, by numerator
    for (size_t i = 0; i < anchor_scale_.size(); ++i) {
      for (const auto& [rkey, rcount] : rhs.by_anchor[i]) {
        if (rcount.is_zero()) continue;
        scaled.clear();
        for (const auto& [lkey, lcount] : lhs.by_anchor[i]) {
          const std::array<int, 4> key = {lkey[0] + rkey[0], lkey[1] + rkey[1],
                                          lkey[2] + rkey[2], lkey[3] + rkey[3]};
          int64_t numerator = 0;
          size_t slot = 0;
          if (lcount.is_zero() || !Weight(key, &numerator, &slot)) continue;
          while (scaled.size() <= static_cast<size_t>(numerator)) {
            Count next;
            Ops::AddProduct(next, rcount,
                            Count(static_cast<int64_t>(scaled.size())));
            scaled.push_back(std::move(next));
          }
          Ops::AddProduct(sums.cells[Cell(key[0], slot)], lcount,
                          scaled[static_cast<size_t>(numerator)]);
        }
      }
      FoldAnchor(sums, i);
    }
    return Finish(sums, pad_row);
  }

 private:
  // Per-anchor cells (k, |B| slot) and the per-k totals they fold into.
  struct Sums {
    Sums(int num_endogenous, size_t slots)
        : cells(static_cast<size_t>(num_endogenous + 1) * slots),
          totals(static_cast<size_t>(num_endogenous) + 1) {}
    std::vector<Count> cells;
    std::vector<Count> totals;
  };

  static BigInt Lcm(const BigInt& a, const BigInt& b) {
    return a / BigInt::Gcd(a, b) * b;
  }

  size_t Cell(int k, size_t slot) const {
    return static_cast<size_t>(k) * slots_ + slot;
  }

  // A quintuple's weight as a numerator over its cell's denominator (ℓ=
  // for Avg, 2·f_q for Qnt_q) and the cell's |B| slot; false when the
  // weight is zero.
  bool Weight(const std::array<int, 4>& key, int64_t* numerator,
              size_t* slot) const {
    const int64_t less = key[1], equal = key[2];
    const int64_t size = less + equal + key[3];
    if (equal == 0) return false;
    if (is_avg_) {
      SHAPCQ_CHECK(static_cast<size_t>(size) < slots_);
      *numerator = equal;
      *slot = static_cast<size_t>(size);
    } else {
      SHAPCQ_CHECK(static_cast<size_t>(size) < ranks_.size());
      *numerator =
          QuantileHalves(ranks_[static_cast<size_t>(size)], less, equal);
      *slot = 0;
    }
    return *numerator != 0;
  }

  // totals[k] += anchor · Σ_|B| cell(k, |B|) over the common denominator;
  // clears the cells for the next anchor.
  void FoldAnchor(Sums& sums, size_t i) const {
    for (size_t k = 0; k < sums.totals.size(); ++k) {
      Count scaled;
      for (size_t slot = 0; slot < slots_; ++slot) {
        Count& cell = sums.cells[k * slots_ + slot];
        if (cell.is_zero()) continue;
        Ops::AddProduct(scaled, bag_scale_[slot], cell);
        cell = Count();
      }
      if (!scaled.is_zero()) {
        Ops::AddProduct(sums.totals[k], anchor_scale_[i], scaled);
      }
    }
  }

  SumKSeries Finish(const Sums& sums,
                    const std::vector<Count>& pad_row) const {
    std::vector<Count> padded(sums.totals.size() + pad_row.size() - 1);
    for (size_t k = 0; k < sums.totals.size(); ++k) {
      if (sums.totals[k].is_zero()) continue;
      for (size_t extra = 0; extra < pad_row.size(); ++extra) {
        Ops::AddProduct(padded[k + extra], sums.totals[k], pad_row[extra]);
      }
    }
    SumKSeries series(padded.size());
    for (size_t k = 0; k < series.size(); ++k) {
      if (padded[k].is_zero()) continue;
      series[k] = Rational(Ops::ToBigInt(padded[k]), denominator_);
    }
    return series;
  }

  bool is_avg_;
  size_t slots_;                    // |B| slots per k: max_bag + 1, or 1
  BigInt denominator_;              // the common denominator
  std::vector<Count> anchor_scale_;  // anchor · denominator / bag lcm
  std::vector<Count> bag_scale_;    // bag lcm / |B| (Avg), 1 (Qnt_q)
  std::vector<std::pair<int64_t, int64_t>> ranks_;  // Qnt_q, by |B|
  Structure unit_;  // the empty fold: OfUnion(s, unit_) is s's series
};

// What AvgQuantileSumK's gates decide over (A, D): the localization
// relation, and the anchors — the distinct τ-values of Q(D), ascending.
struct AvgQntSetup {
  std::string relation;
  std::vector<Rational> anchors;
  int num_answers = 0;  // |Q(D)|, the largest bag
};

inline StatusOr<AvgQntSetup> CheckAvgQuantileShape(const AggregateQuery& a,
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
  AvgQntSetup setup;
  setup.relation =
      a.query.atoms()[static_cast<size_t>(localization[0])].relation;
  std::set<Rational> anchor_set;
  for (const Tuple& answer : Evaluate(a.query, db)) {
    anchor_set.insert(a.tau->Evaluate(answer));
    ++setup.num_answers;
  }
  setup.anchors.assign(anchor_set.begin(), anchor_set.end());
  return setup;
}

template <typename Count>
StatusOr<SumKSeries> AvgQuantileSumKImpl(const AggregateQuery& a,
                                         const Database& db) {
  StatusOr<AvgQntSetup> setup = CheckAvgQuantileShape(a, db);
  if (!setup.ok()) return setup.status();
  const int n = db.num_endogenous();
  if (setup->anchors.empty()) {
    return SumKSeries(static_cast<size_t>(n) + 1);
  }
  Combinatorics comb;
  AvgQntSolver<Count> solver(a.query, *a.tau, setup->relation,
                             setup->anchors, &comb);
  RelevanceSplit split = SplitRelevant(a.query, AllFacts(db));
  AvgQntStructure<Count> top =
      solver.Solve(a.query, split.relevant, solver.EmptyHead());
  SHAPCQ_CHECK(top.num_endogenous + split.irrelevant_endogenous == n);
  return AvgQntSeries<Count>(setup->anchors, a.alpha, setup->num_answers)
      .Of(top, solver.PadRow(split.irrelevant_endogenous));
}

}  // namespace avg_quantile_dp
}  // namespace shapcq

#endif  // SHAPCQ_SHAPLEY_AVG_QUANTILE_DP_H_
