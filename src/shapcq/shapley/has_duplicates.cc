#include "shapcq/shapley/has_duplicates.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "shapcq/agg/value_function.h"
#include "shapcq/hierarchy/classification.h"
#include "shapcq/query/decomposition.h"
#include "shapcq/shapley/answer_counts.h"
#include "shapcq/shapley/dp_util.h"
#include "shapcq/shapley/engine_registry.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/check.h"
#include "shapcq/util/combinatorics.h"

namespace shapcq {

namespace {

// P0[k] / P1[k] / m extracted from an answer-count distribution.
struct ZeroOneCounts {
  std::vector<BigInt> zero;  // exactly 0 answers
  std::vector<BigInt> one;   // exactly 1 answer
  int num_endogenous = 0;
};

ZeroOneCounts ExtractZeroOne(const ConjunctiveQuery& q,
                             const FactSubset& facts, Combinatorics* comb) {
  ZeroOneCounts out;
  out.num_endogenous = facts.CountEndogenous();
  size_t width = static_cast<size_t>(out.num_endogenous) + 1;
  out.zero.assign(width, BigInt(0));
  out.one.assign(width, BigInt(0));
  for (const auto& [key, count] : AnswerCountDistribution(q, facts, comb)) {
    if (key.second == 0) out.zero[static_cast<size_t>(key.first)] = count;
    if (key.second == 1) out.one[static_cast<size_t>(key.first)] = count;
  }
  return out;
}

class DupSolver {
 public:
  DupSolver(const AggregateQuery& a, int r_atom, Combinatorics* comb)
      : a_(a), r_atom_(r_atom), comb_(comb) {}

  // sum_k(Dup ∘ τ ∘ q, facts) over the endogenous facts of `facts`.
  std::vector<BigInt> DupCounts(const ConjunctiveQuery& q,
                                const FactSubset& facts) {
    std::vector<std::vector<int>> components = ConnectedComponents(q);
    if (components.size() == 1) return DupConnected(q, facts);
    // Identify the component holding the localization atom of the ORIGINAL
    // query; map it through: components are given by atom indices of `q`,
    // which here is always the original query.
    std::vector<int> r_component;
    std::vector<int> other_atoms;
    for (const std::vector<int>& component : components) {
      if (std::find(component.begin(), component.end(), r_atom_) !=
          component.end()) {
        r_component = component;
      } else {
        other_atoms.insert(other_atoms.end(), component.begin(),
                           component.end());
      }
    }
    SHAPCQ_CHECK(!r_component.empty());
    ConjunctiveQuery q1 = q.Project(r_component, nullptr);
    ConjunctiveQuery q2 = q.Project(other_atoms, nullptr);
    FactSubset d1 = FactsOfQueryRelations(q1, facts);
    FactSubset d2 = FactsOfQueryRelations(q2, facts);
    ZeroOneCounts p1_side = ExtractZeroOne(q1, d1, comb_);
    ZeroOneCounts p2_side = ExtractZeroOne(q2, d2, comb_);
    std::vector<BigInt> dup1 = DupConnected(q1, d1);
    int m1 = p1_side.num_endogenous;
    int m2 = p2_side.num_endogenous;
    SHAPCQ_CHECK(m1 + m2 == facts.CountEndogenous());
    std::vector<BigInt> out(static_cast<size_t>(m1 + m2) + 1, BigInt(0));
    for (int l = 0; l <= m1; ++l) {
      // Case 1: Q1 nonempty (any bag) and Q2 has at least two answers;
      // every bag element is then replicated.
      BigInt q1_nonempty =
          comb_->Binomial(m1, l) - p1_side.zero[static_cast<size_t>(l)];
      // Case 2: Q1's own bag has duplicates and Q2 has exactly one answer.
      for (int k2 = 0; k2 <= m2; ++k2) {
        BigInt q2_at_least_two = comb_->Binomial(m2, k2) -
                                 p2_side.zero[static_cast<size_t>(k2)] -
                                 p2_side.one[static_cast<size_t>(k2)];
        BigInt contribution = q1_nonempty * q2_at_least_two +
                              dup1[static_cast<size_t>(l)] *
                                  p2_side.one[static_cast<size_t>(k2)];
        if (!contribution.is_zero()) {
          out[static_cast<size_t>(l + k2)] += contribution;
        }
      }
    }
    return out;
  }

  // Figure 5: connected case. Requires every τ-relevant head variable to
  // occur in every atom of q (validated by the caller).
  std::vector<BigInt> DupConnected(const ConjunctiveQuery& q,
                                   const FactSubset& facts) {
    // No duplicates iff every value group contributes at most one answer.
    std::vector<BigInt> no_dup = {BigInt(1)};
    for (const FactSubset& group : ValueGroups(q, facts)) {
      no_dup = Convolve(no_dup, AtMostOneAnswer(q, group));
    }
    return DupFromNoDup(no_dup, facts.CountEndogenous());
  }

  // The facts partitioned by the τ-value they pin down, ascending by value.
  std::vector<FactSubset> ValueGroups(const ConjunctiveQuery& q,
                                      const FactSubset& facts) const {
    std::map<Rational, FactSubset> groups;
    for (FactId id : facts.facts) {
      const Fact& fact = facts.db->fact(id);
      int atom_index = AtomIndexOf(q, fact.relation);
      SHAPCQ_CHECK(atom_index >= 0);
      Rational value =
          EvaluateTauOnFact(q, atom_index, *a_.tau, fact.args);
      auto [it, inserted] = groups.emplace(value, FactSubset{});
      if (inserted) it->second.db = facts.db;
      it->second.facts.push_back(id);
    }
    std::vector<FactSubset> out;
    out.reserve(groups.size());
    for (auto& [value, group] : groups) out.push_back(std::move(group));
    return out;
  }

  // Per size k, the subsets of a value group with at most one answer.
  std::vector<BigInt> AtMostOneAnswer(const ConjunctiveQuery& q,
                                      const FactSubset& group) {
    ZeroOneCounts zo = ExtractZeroOne(q, group, comb_);
    std::vector<BigInt> at_most_one(zo.zero.size());
    for (size_t k = 0; k < zo.zero.size(); ++k) {
      at_most_one[k] = zo.zero[k] + zo.one[k];
    }
    return at_most_one;
  }

  // sum_k(Dup) over m endogenous facts: C(m, k) − no_dup[k].
  std::vector<BigInt> DupFromNoDup(const std::vector<BigInt>& no_dup, int m) {
    SHAPCQ_CHECK(static_cast<int>(no_dup.size()) == m + 1);
    std::vector<BigInt> out(static_cast<size_t>(m) + 1);
    for (int k = 0; k <= m; ++k) {
      out[static_cast<size_t>(k)] =
          comb_->Binomial(m, k) - no_dup[static_cast<size_t>(k)];
    }
    return out;
  }

 private:
  const AggregateQuery& a_;
  int r_atom_;
  Combinatorics* comb_;
};

// HasDuplicatesSumK's gates: the localization atom whose connected
// component holds every τ-relevant head variable in every atom.
StatusOr<int> CheckHasDuplicatesShape(const AggregateQuery& a) {
  if (a.alpha.kind() != AggKind::kHasDuplicates) {
    return UnsupportedError("HasDuplicatesSumK handles Dup only");
  }
  if (a.query.HasSelfJoin()) {
    return UnsupportedError("Dup requires a self-join-free CQ");
  }
  if (!IsQHierarchical(a.query)) {
    return UnsupportedError(
        "Dup requires (at least) a q-hierarchical CQ: " + a.query.ToString());
  }
  // Find a localization atom whose connected component contains every
  // τ-relevant head variable in every atom.
  std::vector<int> localization = LocalizationAtoms(a.query, *a.tau);
  if (localization.empty()) {
    return UnsupportedError("value function is not localized on any atom of " +
                            a.query.ToString());
  }
  std::vector<std::vector<int>> components = ConnectedComponents(a.query);
  int chosen_atom = -1;
  for (int candidate : localization) {
    const std::vector<int>* component = nullptr;
    for (const std::vector<int>& c : components) {
      if (std::find(c.begin(), c.end(), candidate) != c.end()) {
        component = &c;
        break;
      }
    }
    SHAPCQ_CHECK(component != nullptr);
    bool ok = true;
    for (int position : a.tau->DependsOn()) {
      const std::string& head_var =
          a.query.head()[static_cast<size_t>(position)];
      for (int atom_index : *component) {
        if (!a.query.atoms()[static_cast<size_t>(atom_index)]
                 .ContainsVariable(head_var)) {
          ok = false;
          break;
        }
      }
      if (!ok) break;
    }
    if (ok) {
      chosen_atom = candidate;
      break;
    }
  }
  if (chosen_atom < 0) {
    return UnsupportedError(
        "Dup requires every tau-relevant head variable in every atom of the "
        "localization component (guaranteed for sq-hierarchical CQs): " +
        a.query.ToString());
  }
  return chosen_atom;
}

SumKSeries SeriesOfCounts(const std::vector<BigInt>& counts) {
  SumKSeries series;
  series.reserve(counts.size());
  for (const BigInt& count : counts) series.push_back(Rational(count));
  return series;
}

}  // namespace

StatusOr<SumKSeries> HasDuplicatesSumK(const AggregateQuery& a,
                                       const Database& db,
                                       const SolverOptions& /*options*/) {
  StatusOr<int> chosen_atom = CheckHasDuplicatesShape(a);
  if (!chosen_atom.ok()) return chosen_atom.status();
  Combinatorics comb;
  int n = db.num_endogenous();
  RelevanceSplit split = SplitRelevant(a.query, AllFacts(db));
  DupSolver solver(a, *chosen_atom, &comb);
  std::vector<BigInt> counts = solver.DupCounts(a.query, split.relevant);
  counts = PadCounts(counts, split.irrelevant_endogenous, &comb);
  SHAPCQ_CHECK(static_cast<int>(counts.size()) == n + 1);
  return SeriesOfCounts(counts);
}

StatusOr<std::vector<std::pair<FactId, Rational>>> HasDuplicatesScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options) {
  StatusOr<int> chosen_atom = CheckHasDuplicatesShape(a);
  if (!chosen_atom.ok()) return chosen_atom.status();
  if (ConnectedComponents(a.query).size() != 1) {
    return ScoreAllViaSumK(a, db, HasDuplicatesSumK, options);
  }
  Combinatorics comb;
  RelevanceSplit split = SplitRelevant(a.query, AllFacts(db));
  DupSolver solver(a, *chosen_atom, &comb);
  // The full-database block pass, polling the deadline before each
  // block: one at-most-one polynomial per τ-value group.
  const std::vector<FactSubset> groups =
      solver.ValueGroups(a.query, split.relevant);
  std::vector<std::vector<BigInt>> at_most_one;
  at_most_one.reserve(groups.size());
  std::vector<int> group_of(static_cast<size_t>(db.num_facts()), -1);
  std::vector<BigInt> no_dup = {BigInt(1)};
  for (size_t g = 0; g < groups.size(); ++g) {
    if (SolveCancelled(options)) {
      return DeadlineExceededError("deadline exceeded while solving blocks");
    }
    at_most_one.push_back(solver.AtMostOneAnswer(a.query, groups[g]));
    no_dup = Convolve(no_dup, at_most_one.back());
    for (FactId f : groups[g].facts) {
      group_of[static_cast<size_t>(f)] = static_cast<int>(g);
    }
  }
  // Irrelevant facts pad every polynomial alike.
  no_dup = PadCounts(no_dup, split.irrelevant_endogenous, &comb);
  const int n = db.num_endogenous();
  const SumKSeries full_series =
      SeriesOfCounts(solver.DupFromNoDup(no_dup, n));
  return ScoreFactsByIdentity(
      a, db, full_series,
      [&]() -> ExogenousSeriesFn {
        // F_f re-counts f's value group with f's flag flipped on the
        // worker's own database copy, next to every other group's product:
        // no_dup divided by f's group, kept for the worker's last group.
        auto work = std::make_shared<Database>(db);
        auto work_comb = std::make_shared<Combinatorics>();
        auto work_solver =
            std::make_shared<DupSolver>(a, *chosen_atom, work_comb.get());
        auto others = std::make_shared<std::pair<int, std::vector<BigInt>>>(
            -1, std::vector<BigInt>());
        return [&, work, work_comb, work_solver, others](FactId f) {
          const int group = group_of[static_cast<size_t>(f)];
          SHAPCQ_CHECK(group >= 0);  // every relevant fact pins a value
          const std::vector<BigInt>& divisor =
              at_most_one[static_cast<size_t>(group)];
          if (others->first != group) {
            // A group whose exogenous facts alone give two answers has
            // at_most_one ≡ 0, and so has f's variant below: the other
            // groups' product is then irrelevant.
            others->second =
                divisor[0].is_zero()
                    ? std::vector<BigInt>(no_dup.size() - divisor.size() + 1)
                    : DivideCounts(no_dup, divisor);
            others->first = group;
          }
          work->SetEndogenous(f, false);
          std::vector<BigInt> variant = work_solver->AtMostOneAnswer(
              a.query,
              FactSubset{work.get(), groups[static_cast<size_t>(group)].facts});
          work->SetEndogenous(f, true);
          return StatusOr<SumKSeries>(SeriesOfCounts(work_solver->DupFromNoDup(
              Convolve(others->second, variant), n - 1)));
        };
      },
      options);
}

void RegisterHasDuplicatesEngine(EngineRegistry& registry) {
  EngineProvider provider;
  provider.name = "has-duplicates/sq-hierarchical-dp";
  provider.priority = 10;
  provider.applies = [](const AggregateQuery& a) {
    return a.alpha.kind() == AggKind::kHasDuplicates;
  };
  provider.sum_k = HasDuplicatesSumK;
  provider.score_all = HasDuplicatesScoreAll;
  registry.Register(std::move(provider));
}

}  // namespace shapcq
