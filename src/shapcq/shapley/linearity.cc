#include "shapcq/shapley/linearity.h"

#include "shapcq/util/check.h"
#include "shapcq/util/parallel.h"

namespace shapcq {

std::vector<std::pair<FactId, Rational>> ScoreAnswerGame(
    const AnswerGame& game, const Rational& weight, ScoreKind kind,
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

StatusOr<std::vector<std::pair<FactId, Rational>>> ScoreAnswersByLinearity(
    const AggregateQuery& a, const Database& db,
    const std::vector<const Tuple*>& answers, const AnswerGameCounter& count,
    const SolverOptions& options) {
  SHAPCQ_CHECK(a.alpha.kind() == AggKind::kSum ||
               a.alpha.kind() == AggKind::kCount);
  // The cheap per-answer work (weights) runs serially; only answers with a
  // non-zero weight become tasks.
  struct AnswerTask {
    size_t answer;
    Rational weight;
  };
  std::vector<AnswerTask> tasks;
  tasks.reserve(answers.size());
  for (size_t t = 0; t < answers.size(); ++t) {
    Rational weight = a.alpha.kind() == AggKind::kCount
                          ? Rational(1)
                          : a.tau->Evaluate(*answers[t]);
    if (weight.is_zero()) continue;
    tasks.push_back(AnswerTask{t, std::move(weight)});
  }

  // Worker c owns the contiguous task chunk [c·T/C, (c+1)·T/C) and a
  // private Combinatorics cache; slot t holds task t's contributions (or
  // its failure), so the outcome never depends on scheduling.
  using Contributions = std::vector<std::pair<FactId, Rational>>;
  std::vector<StatusOr<Contributions>> per_task(
      tasks.size(), StatusOr<Contributions>(UnsupportedError("unset")));
  const int num_chunks = EffectiveThreadCount(
      options.num_threads, static_cast<int64_t>(tasks.size()));
  ParallelFor(
      num_chunks,
      [&](int64_t c) {
        const auto [begin, end] =
            ChunkBounds(static_cast<int64_t>(tasks.size()), num_chunks, c);
        Combinatorics comb;
        for (int64_t i = begin; i < end; ++i) {
          const AnswerTask& task = tasks[static_cast<size_t>(i)];
          StatusOr<AnswerGame> game = count(task.answer, &comb);
          per_task[static_cast<size_t>(i)] =
              game.ok() ? StatusOr<Contributions>(ScoreAnswerGame(
                              *game, task.weight, options.score, &comb))
                        : StatusOr<Contributions>(game.status());
        }
      },
      num_chunks);

  // Merge in answer order. Exact rational addition makes any grouping of
  // the same terms canonical, so the sums are bitwise-identical for every
  // thread count.
  const std::vector<FactId> endo = db.EndogenousFacts();
  std::vector<int> index(static_cast<size_t>(db.num_facts()), -1);
  for (size_t i = 0; i < endo.size(); ++i) {
    index[static_cast<size_t>(endo[i])] = static_cast<int>(i);
  }
  std::vector<std::pair<FactId, Rational>> scores;
  scores.reserve(endo.size());
  for (FactId f : endo) scores.emplace_back(f, Rational());
  for (StatusOr<Contributions>& contributions : per_task) {
    if (!contributions.ok()) return contributions.status();
    for (auto& [f, contribution] : *contributions) {
      const int i = index[static_cast<size_t>(f)];
      SHAPCQ_CHECK(i >= 0);
      scores[static_cast<size_t>(i)].second += contribution;
    }
  }
  return scores;
}

}  // namespace shapcq
