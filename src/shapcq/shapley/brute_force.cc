#include "shapcq/shapley/brute_force.h"

#include <algorithm>
#include <string>

#include "shapcq/query/evaluator.h"
#include "shapcq/util/check.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/parallel.h"

namespace shapcq {

namespace {

// The sweep polls the deadline before each chunk of 2^kChunkBits masks.
constexpr int kChunkBits = 8;

// The sweep's per-size sums (brute_force.h): row 0 is total, row r + 1 is
// `with` of facts[r].
using Rows = std::vector<std::vector<Rational>>;

// Evaluates every mask once. Worker w sums chunks w, w + W, w + 2W, …, and
// exact rational sums make the merged rows bitwise-identical for every
// thread count.
StatusOr<Rows> Sweep(const AggregateQuery& a, const Database& db,
                     const std::vector<FactId>& facts,
                     const SolverOptions& options) {
  if (db.num_endogenous() > kBruteForceMaxPlayers) {
    return UnsupportedError(
        "brute force limited to " + std::to_string(kBruteForceMaxPlayers) +
        " endogenous facts, got " + std::to_string(db.num_endogenous()));
  }
  const SubsetEvaluator evaluator(a.query, db);
  std::vector<Rational> taus;
  for (const auto& info : evaluator.answers()) {
    taus.push_back(a.tau->Evaluate(info.answer));
  }
  // A(E ∪ D_x) for the subset E given by `mask`.
  auto evaluate = [&](uint64_t mask) {
    std::vector<Rational> bag;
    for (size_t i = 0; i < taus.size(); ++i) {
      const auto& supports = evaluator.answers()[i].supports;
      if (std::any_of(supports.begin(), supports.end(),
                      [&](uint64_t s) { return (s & mask) == s; })) {
        bag.push_back(taus[i]);
      }
    }
    return a.alpha.Apply(bag);
  };
  const size_t n = static_cast<size_t>(evaluator.num_players());
  std::vector<size_t> row(n, 0);  // 0: not tracked
  for (size_t r = 0; r < facts.size(); ++r) {
    const int player = evaluator.PlayerIndex(facts[r]);
    SHAPCQ_CHECK(player >= 0);
    row[static_cast<size_t>(player)] = r + 1;
  }
  const int chunk_bits = std::min(static_cast<int>(n), kChunkBits);
  const int64_t num_chunks = int64_t{1} << (n - chunk_bits);
  const int workers = EffectiveThreadCount(options.num_threads, num_chunks);
  std::vector<Rows> sums(static_cast<size_t>(workers),
                         Rows(facts.size() + 1, std::vector<Rational>(n + 1)));
  std::vector<Status> stops(static_cast<size_t>(workers));
  ParallelFor(
      workers,
      [&](int64_t w) {
        Rows& mine = sums[static_cast<size_t>(w)];
        for (int64_t c = w; c < num_chunks; c += workers) {
          if (SolveCancelled(options)) {
            stops[static_cast<size_t>(w)] = DeadlineExceededError(
                "deadline exceeded while enumerating subsets");
            return;
          }
          const uint64_t first = static_cast<uint64_t>(c) << chunk_bits;
          const uint64_t end = first + (uint64_t{1} << chunk_bits);
          for (uint64_t mask = first; mask < end; ++mask) {
            const Rational value = evaluate(mask);
            if (value.is_zero()) continue;
            const size_t size = __builtin_popcountll(mask);
            mine[0][size] += value;
            for (uint64_t bits = mask; bits != 0; bits &= bits - 1) {
              if (size_t r = row[__builtin_ctzll(bits)]) mine[r][size] += value;
            }
          }
        }
      },
      workers);
  for (const Status& stop : stops) {
    if (!stop.ok()) return stop;
  }
  for (size_t w = 1; w < sums.size(); ++w) {
    for (size_t r = 0; r <= facts.size(); ++r) {
      for (size_t k = 0; k <= n; ++k) sums[0][r][k] += sums[w][r][k];
    }
  }
  return std::move(sums[0]);
}

// Scores of `facts` from one sweep tracking them.
StatusOr<std::vector<std::pair<FactId, Rational>>> ScoreFacts(
    const AggregateQuery& a, const Database& db,
    const std::vector<FactId>& facts, ScoreKind kind,
    const SolverOptions& options) {
  StatusOr<Rows> rows = Sweep(a, db, facts, options);
  if (!rows.ok()) return rows.status();
  const std::vector<Rational>& total = (*rows)[0];
  const int n = static_cast<int>(total.size()) - 1;
  Combinatorics comb;
  std::vector<std::pair<FactId, Rational>> scores;
  for (size_t r = 0; r < facts.size(); ++r) {
    const std::vector<Rational>& with = (*rows)[r + 1];
    Rational score;
    for (int k = 0; k < n; ++k) {
      // Σ A(S ∪ {f}) − A(S) over the size-k coalitions S ∌ f.
      Rational delta = with[k + 1] - (total[k] - with[k]);
      if (kind == ScoreKind::kShapley) delta *= comb.ShapleyCoefficient(n, k);
      score += delta;
    }
    if (kind == ScoreKind::kBanzhaf) score /= Rational(BigInt::TwoPow(n - 1));
    scores.emplace_back(facts[r], std::move(score));
  }
  return scores;
}

}  // namespace

StatusOr<SumKSeries> BruteForceSumK(const AggregateQuery& a,
                                    const Database& db,
                                    const SolverOptions& options) {
  StatusOr<Rows> rows = Sweep(a, db, {}, options);
  if (!rows.ok()) return rows.status();
  return std::move((*rows)[0]);
}

StatusOr<Rational> BruteForceScore(const AggregateQuery& a, const Database& db,
                                   FactId fact, ScoreKind kind,
                                   const SolverOptions& options) {
  auto scores = ScoreFacts(a, db, {fact}, kind, options);
  if (!scores.ok()) return scores.status();
  return std::move((*scores)[0].second);
}

StatusOr<std::vector<std::pair<FactId, Rational>>> BruteForceScoreAll(
    const AggregateQuery& a, const Database& db, const SolverOptions& options) {
  return ScoreFacts(a, db, db.EndogenousFacts(), options.score, options);
}

}  // namespace shapcq
