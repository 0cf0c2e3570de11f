#include "shapcq/shapley/score.h"

#include <memory>

#include "shapcq/query/decomposition.h"
#include "shapcq/shapley/solver_options.h"
#include "shapcq/util/check.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/parallel.h"

namespace shapcq {

Rational ScoreFromSumK(const SumKSeries& series_f_exogenous,
                       const SumKSeries& series_f_removed, ScoreKind kind) {
  SHAPCQ_CHECK(series_f_exogenous.size() == series_f_removed.size());
  SHAPCQ_CHECK(!series_f_exogenous.empty());
  int64_t n = static_cast<int64_t>(series_f_exogenous.size());  // players
  // Every Shapley weight k!(n−1−k)!/n! shares the denominator n!, and the
  // Banzhaf weight is 2^(1−n) for every k: accumulate with the integer
  // numerators and divide once, so no big-denominator sum is normalized
  // per k.
  Combinatorics comb;
  Rational score;
  for (int64_t k = 0; k < n; ++k) {
    Rational delta = series_f_exogenous[static_cast<size_t>(k)] -
                     series_f_removed[static_cast<size_t>(k)];
    if (delta.is_zero()) continue;
    switch (kind) {
      case ScoreKind::kShapley:
        score +=
            delta * Rational(comb.Factorial(k) * comb.Factorial(n - 1 - k));
        break;
      case ScoreKind::kBanzhaf:
        score += delta;
        break;
    }
  }
  if (kind == ScoreKind::kShapley) {
    score /= Rational(comb.Factorial(n));
  } else if (n > 1) {
    score /= Rational(BigInt::TwoPow(static_cast<uint64_t>(n - 1)));
  }
  return score;
}

SumKSeries RemovedSeriesFromIdentity(const SumKSeries& full_series,
                                     const SumKSeries& series_f_exogenous) {
  SHAPCQ_CHECK(full_series.size() == series_f_exogenous.size() + 1);
  SHAPCQ_CHECK(!series_f_exogenous.empty());
  const size_t n = series_f_exogenous.size();
  SumKSeries series_g(n);
  series_g[0] = full_series[0];  // the k = −1 term of F is zero
  for (size_t k = 1; k < n; ++k) {
    series_g[k] = full_series[k] - series_f_exogenous[k - 1];
  }
  return series_g;
}

Rational SemivalueFromSumK(const SumKSeries& series_f_exogenous,
                           const SumKSeries& series_f_removed,
                           const std::vector<Rational>& weights) {
  SHAPCQ_CHECK(series_f_exogenous.size() == series_f_removed.size());
  SHAPCQ_CHECK(weights.size() >= series_f_exogenous.size());
  Rational score;
  for (size_t k = 0; k < series_f_exogenous.size(); ++k) {
    if (weights[k].is_zero()) continue;
    score += weights[k] * (series_f_exogenous[k] - series_f_removed[k]);
  }
  return score;
}

Rational ExpectedValueFromSumK(const SumKSeries& series, const Rational& p) {
  SHAPCQ_CHECK(p >= Rational(0) && p <= Rational(1));
  SHAPCQ_CHECK(!series.empty());
  int64_t n = static_cast<int64_t>(series.size()) - 1;
  Rational expected;
  Rational one_minus_p = Rational(1) - p;
  for (int64_t k = 0; k <= n; ++k) {
    const Rational& value = series[static_cast<size_t>(k)];
    if (value.is_zero()) continue;
    // p^k (1−p)^{n−k}: exact rational powers.
    Rational weight(1);
    for (int64_t i = 0; i < k; ++i) weight *= p;
    for (int64_t i = 0; i < n - k; ++i) weight *= one_minus_p;
    expected += weight * value;
  }
  return expected;
}

StatusOr<Rational> ScoreViaSumK(const AggregateQuery& a, const Database& db,
                                FactId fact, const SumKEngine& engine,
                                const SolverOptions& options) {
  SHAPCQ_CHECK(db.fact(fact).endogenous);
  Database with_f_exogenous = db.WithFactExogenous(fact);
  Database without_f = db.WithoutFact(fact, /*old_to_new=*/nullptr);
  StatusOr<SumKSeries> series_f = engine(a, with_f_exogenous, options);
  if (!series_f.ok()) return series_f.status();
  StatusOr<SumKSeries> series_g = engine(a, without_f, options);
  if (!series_g.ok()) return series_g.status();
  return ScoreFromSumK(*series_f, *series_g, options.score);
}

StatusOr<Rational> ScoreViaSumK(const AggregateQuery& a, const Database& db,
                                FactId fact, const SumKEngine& engine,
                                ScoreKind kind) {
  SolverOptions options;
  options.score = kind;
  return ScoreViaSumK(a, db, fact, engine, options);
}

StatusOr<std::vector<std::pair<FactId, Rational>>> ScoreFactsByIdentity(
    const AggregateQuery& a, const Database& db, const SumKSeries& full_series,
    const std::function<ExogenousSeriesFn()>& new_worker,
    const SolverOptions& options) {
  const std::vector<FactId> endo = db.EndogenousFacts();
  // Relevance is independent of endogenous flags, so one split serves
  // every F_f.
  const bool split = !a.query.HasSelfJoin();
  std::vector<char> is_relevant(static_cast<size_t>(db.num_facts()),
                                split ? 0 : 1);
  if (split) {
    for (FactId id : SplitRelevantIndexed(a.query, db).relevant.facts) {
      is_relevant[static_cast<size_t>(id)] = 1;
    }
  }
  // Worker c owns the contiguous fact chunk [c·n/C, (c+1)·n/C) and stops at
  // its first failure or cancellation; chunk order is fact order, so the
  // first stop over all chunks is the same for every thread count.
  std::vector<std::pair<FactId, Rational>> scores(endo.size());
  const int num_chunks = EffectiveThreadCount(
      options.num_threads, static_cast<int64_t>(endo.size()));
  std::vector<Status> stops(static_cast<size_t>(num_chunks));
  ParallelFor(
      num_chunks,
      [&](int64_t c) {
        const auto [begin, end] =
            ChunkBounds(static_cast<int64_t>(endo.size()), num_chunks, c);
        ExogenousSeriesFn series_of;
        for (size_t i = static_cast<size_t>(begin);
             i < static_cast<size_t>(end); ++i) {
          if (SolveCancelled(options)) {
            stops[static_cast<size_t>(c)] =
                DeadlineExceededError("deadline exceeded while scoring facts");
            return;
          }
          const FactId f = endo[i];
          if (!is_relevant[static_cast<size_t>(f)]) {
            scores[i] = {f, Rational()};
            continue;
          }
          if (series_of == nullptr) series_of = new_worker();
          StatusOr<SumKSeries> series_f = series_of(f);
          if (!series_f.ok()) {
            stops[static_cast<size_t>(c)] = series_f.status();
            return;
          }
          const SumKSeries series_g =
              RemovedSeriesFromIdentity(full_series, *series_f);
          scores[i] = {f, ScoreFromSumK(*series_f, series_g, options.score)};
        }
      },
      num_chunks);
  for (const Status& stop : stops) {
    if (!stop.ok()) return stop;
  }
  return scores;
}

StatusOr<std::vector<std::pair<FactId, Rational>>> ScoreAllViaSumK(
    const AggregateQuery& a, const Database& db, const SumKEngine& engine,
    const SolverOptions& options) {
  StatusOr<SumKSeries> full_series = engine(a, db, options);
  if (!full_series.ok()) return full_series.status();
  // The workers already are the fan-out, and the trace sink belongs to the
  // calling thread: engine runs inside them are single-threaded and
  // untraced (neither changes a value).
  SolverOptions worker_options = options;
  worker_options.num_threads = 1;
  worker_options.trace = nullptr;
  return ScoreFactsByIdentity(
      a, db, *full_series,
      [&]() -> ExogenousSeriesFn {
        // F_f is D with f's flag flipped, on the worker's own copy.
        auto work = std::make_shared<Database>(db);
        return [&, work](FactId f) {
          work->SetEndogenous(f, false);
          StatusOr<SumKSeries> series = engine(a, *work, worker_options);
          work->SetEndogenous(f, true);
          return series;
        };
      },
      options);
}

StatusOr<std::vector<std::pair<FactId, Rational>>> ScoreAllViaSumK(
    const AggregateQuery& a, const Database& db, const SumKEngine& engine,
    ScoreKind kind) {
  SolverOptions options;
  options.score = kind;
  return ScoreAllViaSumK(a, db, engine, options);
}

}  // namespace shapcq
