#include "shapcq/shapley/linearity.h"

#include <algorithm>
#include <utility>

#include "shapcq/lineage/circuit.h"
#include "shapcq/lineage/stats.h"
#include "shapcq/util/check.h"
#include "shapcq/util/parallel.h"

namespace shapcq {

namespace {

CircuitBudget BudgetFrom(const LineageOptions& options) {
  CircuitBudget budget;
  budget.max_nodes = options.max_circuit_nodes;
  budget.max_vars = options.max_answer_vars;
  budget.max_clauses = options.max_answer_clauses;
  return budget;
}

}  // namespace

StatusOr<std::vector<AnswerGroup>> AnswerGroupsOf(
    const AggregateQuery& a, const std::vector<const Tuple*>& answers) {
  const AggKind kind = a.alpha.kind();
  std::vector<AnswerGroup> groups;
  if (kind == AggKind::kSum || kind == AggKind::kCount) {
    groups.reserve(answers.size());
    for (size_t t = 0; t < answers.size(); ++t) {
      Rational weight =
          kind == AggKind::kCount ? Rational(1) : a.tau->Evaluate(*answers[t]);
      if (weight.is_zero()) continue;
      groups.push_back(AnswerGroup{{t}, std::move(weight)});
    }
    return groups;
  }
  if (kind != AggKind::kCountDistinct && kind != AggKind::kMax &&
      kind != AggKind::kMin) {
    return UnsupportedError(
        "group games cover Sum, Count, CountDistinct, Max and Min only");
  }
  std::vector<Rational> values;
  values.reserve(answers.size());
  for (const Tuple* answer : answers) values.push_back(a.tau->Evaluate(*answer));
  std::vector<Rational> distinct = values;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  if (kind == AggKind::kCountDistinct) {
    groups.resize(distinct.size());
    for (size_t t = 0; t < values.size(); ++t) {
      const size_t g = static_cast<size_t>(
          std::lower_bound(distinct.begin(), distinct.end(), values[t]) -
          distinct.begin());
      groups[g].answers.push_back(t);
    }
    for (AnswerGroup& group : groups) group.weight = Rational(1);
    return groups;
  }
  // Thresholds: Max walks the values upward (group "τ ≥ v"), Min downward
  // (group "τ ≤ u"); each weighs its step from the previous threshold, and
  // the first its own value, so the empty bag scores 0.
  if (kind == AggKind::kMin) std::reverse(distinct.begin(), distinct.end());
  Rational previous;
  for (const Rational& threshold : distinct) {
    AnswerGroup group;
    group.weight = threshold - previous;
    previous = threshold;
    if (group.weight.is_zero()) continue;
    for (size_t t = 0; t < values.size(); ++t) {
      if (kind == AggKind::kMax ? values[t] >= threshold
                                : values[t] <= threshold) {
        group.answers.push_back(t);
      }
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

std::vector<std::pair<FactId, Rational>> ScoreGroupGame(
    const GroupGame& game, const Rational& weight, ScoreKind kind,
    Combinatorics* comb) {
  const int64_t m = static_cast<int64_t>(game.players.size());
  SHAPCQ_CHECK(game.pivots.size() == game.players.size());
  std::vector<std::pair<FactId, Rational>> contributions;
  if (m == 0) return contributions;
  contributions.reserve(game.players.size());
  // Shapley sums the numerators k!(m−1−k)!·pivots[k] over the common
  // denominator m!: one normalization per player.
  std::vector<BigInt> coefficient;
  if (kind == ScoreKind::kShapley) {
    coefficient.resize(static_cast<size_t>(m));
    for (int64_t k = 0; k < m; ++k) {
      coefficient[static_cast<size_t>(k)] =
          comb->Factorial(k) * comb->Factorial(m - 1 - k);
    }
  }
  const BigInt denominator =
      kind == ScoreKind::kShapley
          ? comb->Factorial(m)
          : BigInt::TwoPow(static_cast<uint64_t>(m > 1 ? m - 1 : 0));
  for (size_t v = 0; v < game.players.size(); ++v) {
    const std::vector<BigInt>& pivots = game.pivots[v];
    SHAPCQ_CHECK(static_cast<int64_t>(pivots.size()) == m);
    BigInt numerator;
    for (size_t k = 0; k < pivots.size(); ++k) {
      if (pivots[k].is_zero()) continue;
      numerator += kind == ScoreKind::kShapley ? coefficient[k] * pivots[k]
                                               : pivots[k];
    }
    if (numerator.is_zero()) continue;
    contributions.emplace_back(
        game.players[v], weight * Rational(std::move(numerator), denominator));
  }
  return contributions;
}

StatusOr<std::vector<std::pair<FactId, Rational>>> ScoreGroupsByLinearity(
    const Database& db, const std::vector<AnswerGroup>& groups,
    const GroupGameCounter& count, const SolverOptions& options) {
  const std::vector<FactId> endo = db.EndogenousFacts();
  std::vector<int> index(static_cast<size_t>(db.num_facts()), -1);
  for (size_t i = 0; i < endo.size(); ++i) {
    index[static_cast<size_t>(endo[i])] = static_cast<int>(i);
  }
  // Worker c owns the contiguous group chunk [c·G/C, (c+1)·G/C), a private
  // Combinatorics cache and its own per-fact sums, and stops at its first
  // failure or cancellation; chunk order is group order, so the first stop
  // over all chunks is the same for every thread count.
  const int num_chunks = EffectiveThreadCount(
      options.num_threads, static_cast<int64_t>(groups.size()));
  std::vector<std::vector<Rational>> sums(static_cast<size_t>(num_chunks));
  std::vector<Status> stops(static_cast<size_t>(num_chunks));
  ParallelFor(
      num_chunks,
      [&](int64_t c) {
        const auto [begin, end] =
            ChunkBounds(static_cast<int64_t>(groups.size()), num_chunks, c);
        std::vector<Rational>& chunk_sums = sums[static_cast<size_t>(c)];
        chunk_sums.resize(endo.size());
        Combinatorics comb;
        for (int64_t g = begin; g < end; ++g) {
          if (SolveCancelled(options)) {
            stops[static_cast<size_t>(c)] =
                DeadlineExceededError("deadline exceeded while scoring groups");
            return;
          }
          const AnswerGroup& group = groups[static_cast<size_t>(g)];
          StatusOr<GroupGame> game = count(group, &comb);
          if (!game.ok()) {
            stops[static_cast<size_t>(c)] = game.status();
            return;
          }
          for (auto& [f, contribution] :
               ScoreGroupGame(*game, group.weight, options.score, &comb)) {
            const int i = index[static_cast<size_t>(f)];
            SHAPCQ_CHECK(i >= 0);
            Rational& sum = chunk_sums[static_cast<size_t>(i)];
            if (sum.is_zero()) {
              sum = std::move(contribution);
            } else {
              sum += contribution;
            }
          }
        }
      },
      num_chunks);
  // A fired deadline wins over any other stop: it must never reach an
  // engine's budget fallback.
  for (const Status& stop : stops) {
    if (stop.code() == StatusCode::kDeadlineExceeded) return stop;
  }
  for (const Status& stop : stops) {
    if (!stop.ok()) return stop;
  }
  // Exact rational addition makes any grouping of the same terms
  // canonical, so the sums are bitwise-identical for every thread count.
  std::vector<std::pair<FactId, Rational>> scores;
  scores.reserve(endo.size());
  for (size_t i = 0; i < endo.size(); ++i) {
    Rational total = std::move(sums[0][i]);
    for (size_t c = 1; c < sums.size(); ++c) total += sums[c][i];
    scores.emplace_back(endo[i], std::move(total));
  }
  return scores;
}

std::vector<std::vector<std::vector<int>>> AnswerLineages(
    const std::vector<AnswerHomomorphisms>& answers, const Database& db) {
  std::vector<std::vector<std::vector<int>>> lineages(answers.size());
  for (size_t t = 0; t < answers.size(); ++t) {
    std::vector<std::vector<int>>& clauses = lineages[t];
    clauses.reserve(answers[t].used_facts.size());
    for (const std::vector<FactId>& used : answers[t].used_facts) {
      std::vector<int> clause;
      for (FactId id : used) {
        if (db.fact(id).endogenous) clause.push_back(id);
      }
      clauses.push_back(std::move(clause));
    }
    // Minimal supports only (MinimizeClauses also sorts and dedups each
    // clause — one homomorphism may use a fact in several atoms).
    MinimizeClauses(&clauses);
  }
  return lineages;
}

std::vector<std::vector<int>> GroupLineage(
    const std::vector<std::vector<std::vector<int>>>& lineages,
    const AnswerGroup& group) {
  std::vector<std::vector<int>> clauses;
  for (size_t t : group.answers) {
    clauses.insert(clauses.end(), lineages[t].begin(), lineages[t].end());
  }
  MinimizeClauses(&clauses);
  return clauses;
}

bool ConstantTrue(const std::vector<std::vector<int>>& minimized) {
  return minimized.size() == 1 && minimized.front().empty();
}

StatusOr<CompiledLineage> CompileLineage(
    const std::vector<std::vector<int>>& minimized,
    const LineageOptions& options, Combinatorics* comb) {
  CanonicalClauseForm canonical = CanonicalizeClauses(minimized);
  CompiledLineage compiled;
  compiled.players = std::move(canonical.to_input);
  const CircuitBudget budget = BudgetFrom(options);
  if (options.share_circuits) {
    compiled.entry = CircuitCache::Global().Lookup(canonical.clauses, budget);
    if (options.cache_counters != nullptr) {
      std::atomic<uint64_t>& counter = compiled.entry != nullptr
                                           ? options.cache_counters->hits
                                           : options.cache_counters->misses;
      counter.fetch_add(1, std::memory_order_relaxed);
    }
    if (compiled.entry != nullptr) return compiled;
  }
  StatusOr<LineageCircuit> circuit = CompileDnf(
      std::vector<std::vector<int>>(canonical.clauses), canonical.num_vars,
      budget);
  if (!circuit.ok()) {
    LineageStats::Global().RecordBudgetFallback();
    return circuit.status();
  }
  auto entry = std::make_shared<CircuitCacheEntry>();
  entry->clauses = std::move(canonical.clauses);
  entry->num_vars = canonical.num_vars;
  entry->circuit = std::move(circuit).value();
  LineageStats::Global().RecordCircuit(entry->circuit);
  entry->counts = CountModelsBySize(entry->circuit, comb);
  compiled.entry = options.share_circuits
                       ? CircuitCache::Global().Insert(std::move(entry))
                       : std::move(entry);
  return compiled;
}

StatusOr<GroupGame> CircuitGroupGame(
    const std::vector<std::vector<int>>& minimized,
    const LineageOptions& options, Combinatorics* comb) {
  GroupGame game;
  if (minimized.empty() || ConstantTrue(minimized)) return game;
  StatusOr<CompiledLineage> compiled = CompileLineage(minimized, options, comb);
  if (!compiled.ok()) return compiled.status();
  const size_t m = compiled->players.size();
  const CircuitModelCounts& counts = compiled->entry->counts;
  const std::vector<BigInt>& total = counts.by_size;
  game.players.assign(compiled->players.begin(), compiled->players.end());
  game.pivots.resize(m);
  for (size_t v = 0; v < m; ++v) {
    const std::vector<BigInt>& with_v = counts.containing[v];
    std::vector<BigInt>& pivots = game.pivots[v];
    pivots.reserve(m);
    for (size_t k = 0; k < m; ++k) {
      pivots.push_back(with_v[k + 1] - (total[k] - with_v[k]));
    }
  }
  return game;
}

StatusOr<std::vector<std::pair<FactId, Rational>>> ScoreGroupsOnCircuits(
    const AggregateQuery& a, const Database& db,
    const std::vector<AnswerHomomorphisms>& answers,
    const SolverOptions& options, const GroupGameCounter& on_budget) {
  std::vector<const Tuple*> tuples;
  tuples.reserve(answers.size());
  for (const AnswerHomomorphisms& answer : answers) {
    tuples.push_back(&answer.answer);
  }
  StatusOr<std::vector<AnswerGroup>> groups = AnswerGroupsOf(a, tuples);
  if (!groups.ok()) return groups.status();
  const std::vector<std::vector<std::vector<int>>> lineages =
      AnswerLineages(answers, db);
  auto count = [&](const AnswerGroup& group,
                   Combinatorics* comb) -> StatusOr<GroupGame> {
    // A singleton group's lineage is its answer's, already minimized.
    StatusOr<GroupGame> game =
        group.answers.size() == 1
            ? CircuitGroupGame(lineages[group.answers.front()],
                               options.lineage, comb)
            : CircuitGroupGame(GroupLineage(lineages, group), options.lineage,
                               comb);
    if (game.ok() || on_budget == nullptr ||
        game.status().code() != StatusCode::kUnsupported) {
      return game;
    }
    return on_budget(group, comb);
  };
  return ScoreGroupsByLinearity(db, *groups, count, options);
}

}  // namespace shapcq
