#include "shapcq/shapley/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "shapcq/query/evaluator.h"
#include "shapcq/util/check.h"
#include "shapcq/util/parallel.h"

namespace shapcq {

namespace {

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;

// Samples per seeded block. Fixed, so the estimates never depend on how
// blocks are spread over workers.
constexpr int64_t kMonteCarloBlockSamples = 64;

// Blocks sampled per parallel wave. Per-block sums are buffered until the
// wave merges them in block order, so this bounds that buffer; it never
// changes an estimate.
constexpr int64_t kBlocksPerWave = 16;

// The SplitMix64 finalizer.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The SplitMix64 generator over one block's stream.
class BlockRng {
 public:
  BlockRng(uint64_t seed, int64_t block)
      : state_(Mix(seed + kGolden * (static_cast<uint64_t>(block) + 1))) {}

  uint64_t Next() {
    state_ += kGolden;
    return Mix(state_);
  }
  // Uniform in [0, bound) by multiply-shift; the bias is below
  // bound / 2^64.
  uint64_t Below(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

 private:
  uint64_t state_;
};

// The inclusion-minimal sets among `supports` (each sorted and
// duplicate-free), ascending by size: an answer is alive iff one of them is
// fully present. An empty support, if any, comes first and stands alone.
std::vector<std::vector<int>> MinimalSupports(
    std::vector<std::vector<int>> supports) {
  std::sort(supports.begin(), supports.end(),
            [](const std::vector<int>& x, const std::vector<int>& y) {
              return x.size() != y.size() ? x.size() < y.size() : x < y;
            });
  std::vector<std::vector<int>> minimal;
  for (std::vector<int>& support : supports) {
    bool dominated = false;
    for (const std::vector<int>& kept : minimal) {
      if (std::includes(support.begin(), support.end(), kept.begin(),
                        kept.end())) {
        dominated = true;
        break;
      }
    }
    if (!dominated) minimal.push_back(std::move(support));
  }
  return minimal;
}

bool TracksMultiplicity(AggKind kind) {
  return kind == AggKind::kCountDistinct || kind == AggKind::kHasDuplicates;
}

bool TracksOrder(AggKind kind) {
  return kind == AggKind::kMin || kind == AggKind::kMax ||
         kind == AggKind::kQuantile;
}

}  // namespace

// One sampler's incremental state: which supports are complete, which
// answers are alive, and the bag of alive answers' τ-ranks.
class MonteCarloGame::Walk {
 public:
  explicit Walk(const MonteCarloGame& game)
      : game_(game),
        kind_(game.alpha_.kind()),
        num_ranks_(static_cast<int>(game.rank_value_.size())) {
    empty_.missing.reserve(game.support_answer_.size());
    for (size_t s = 0; s < game.support_answer_.size(); ++s) {
      empty_.missing.push_back(game.support_begin_[s + 1] -
                               game.support_begin_[s]);
    }
    empty_.complete.assign(game.answer_rank_.size(), 0);
    if (TracksMultiplicity(kind_)) {
      empty_.multiplicity.assign(static_cast<size_t>(num_ranks_), 0);
    }
    if (TracksOrder(kind_)) {
      empty_.fenwick.assign(static_cast<size_t>(num_ranks_) + 1, 0);
      while (top_step_ * 2 <= num_ranks_) top_step_ *= 2;
    }
    now_ = empty_;
    for (int answer : game.always_alive_) {
      Add(game.answer_rank_[static_cast<size_t>(answer)]);
    }
    empty_ = now_;
  }

  // Back to the empty coalition (only the always-alive answers).
  void Reset() { now_ = empty_; }

  // Adds active player `p` to the coalition; true when an answer came
  // alive.
  bool Join(int p) {
    bool changed = false;
    for (int i = game_.player_begin_[static_cast<size_t>(p)];
         i < game_.player_begin_[static_cast<size_t>(p) + 1]; ++i) {
      const size_t s =
          static_cast<size_t>(game_.player_supports_[static_cast<size_t>(i)]);
      if (--now_.missing[s] != 0) continue;
      const size_t answer = static_cast<size_t>(game_.support_answer_[s]);
      if (now_.complete[answer]++ == 0) {
        Add(game_.answer_rank_[answer]);
        changed = true;
      }
    }
    return changed;
  }

  // Removes active player `p`; true when an answer died.
  bool Leave(int p) {
    bool changed = false;
    for (int i = game_.player_begin_[static_cast<size_t>(p)];
         i < game_.player_begin_[static_cast<size_t>(p) + 1]; ++i) {
      const size_t s =
          static_cast<size_t>(game_.player_supports_[static_cast<size_t>(i)]);
      if (now_.missing[s]++ != 0) continue;
      const size_t answer = static_cast<size_t>(game_.support_answer_[s]);
      if (--now_.complete[answer] == 0) {
        Remove(game_.answer_rank_[answer]);
        changed = true;
      }
    }
    return changed;
  }

  // v(S ∪ p) − v(S ∖ p) for the current coalition S, whose value is
  // `value`, leaving S exactly as it was: the integer counts undo
  // themselves and the running sum is restored, not recomputed.
  double ToggleMarginal(int p, bool member, double value) {
    const double saved_sum = now_.sum;
    double marginal = 0.0;
    if (member) {
      if (Leave(p)) marginal = value - Value();
      Join(p);
    } else {
      if (Join(p)) marginal = Value() - value;
      Leave(p);
    }
    now_.sum = saved_sum;
    return marginal;
  }

  // A(E ∪ D_x) of the current coalition; 0 on the empty bag.
  double Value() const {
    if (now_.count == 0) return 0.0;
    const std::vector<double>& value = game_.rank_value_;
    switch (kind_) {
      case AggKind::kSum:
        return now_.sum;
      case AggKind::kCount:
        return static_cast<double>(now_.count);
      case AggKind::kCountDistinct:
        return static_cast<double>(now_.distinct);
      case AggKind::kMin:
        return value[Kth(1)];
      case AggKind::kMax:
        return value[Kth(now_.count)];
      case AggKind::kAvg:
        return now_.sum / static_cast<double>(now_.count);
      case AggKind::kQuantile: {
        const size_t n = static_cast<size_t>(now_.count);
        return (value[Kth(game_.quantile_low_[n])] +
                value[Kth(game_.quantile_high_[n])]) /
               2.0;
      }
      case AggKind::kHasDuplicates:
        return now_.duplicated > 0 ? 1.0 : 0.0;
    }
    SHAPCQ_UNREACHABLE();
  }

 private:
  struct State {
    std::vector<int> missing;   // per support: players not yet joined
    std::vector<int> complete;  // per answer: complete supports
    // The bag of alive answers' τ-ranks.
    double sum = 0.0;
    int64_t count = 0;
    int64_t distinct = 0;
    int64_t duplicated = 0;         // ranks with multiplicity >= 2
    std::vector<int> multiplicity;  // per rank
    std::vector<int> fenwick;       // per rank, 1-based
  };

  void Add(int rank) {
    now_.sum += game_.rank_value_[static_cast<size_t>(rank)];
    ++now_.count;
    if (!now_.multiplicity.empty()) {
      int& m = now_.multiplicity[static_cast<size_t>(rank)];
      if (++m == 1) ++now_.distinct;
      if (m == 2) ++now_.duplicated;
    }
    if (!now_.fenwick.empty()) Bump(rank, 1);
  }

  void Remove(int rank) {
    now_.sum -= game_.rank_value_[static_cast<size_t>(rank)];
    --now_.count;
    if (!now_.multiplicity.empty()) {
      int& m = now_.multiplicity[static_cast<size_t>(rank)];
      if (m == 2) --now_.duplicated;
      if (--m == 0) --now_.distinct;
    }
    if (!now_.fenwick.empty()) Bump(rank, -1);
  }

  void Bump(int rank, int delta) {
    for (int i = rank + 1; i <= num_ranks_; i += i & -i) {
      now_.fenwick[static_cast<size_t>(i)] += delta;
    }
  }

  // The rank of the k-th smallest element of the bag (1-based k).
  size_t Kth(int64_t k) const {
    int position = 0;
    for (int step = top_step_; step > 0; step >>= 1) {
      const int next = position + step;
      if (next <= num_ranks_ && now_.fenwick[static_cast<size_t>(next)] < k) {
        position = next;
        k -= now_.fenwick[static_cast<size_t>(next)];
      }
    }
    return static_cast<size_t>(position);
  }

  const MonteCarloGame& game_;
  const AggKind kind_;
  const int num_ranks_;
  int top_step_ = 1;  // highest power of two <= num_ranks_
  State now_;
  State empty_;  // the empty coalition: only the always-alive answers
};

MonteCarloGame::MonteCarloGame(const AggregateQuery& a, const Database& db)
    : alpha_(a.alpha) {
  std::vector<FactId> players = db.EndogenousFacts();
  player_index_.assign(static_cast<size_t>(db.num_facts()), -1);
  for (size_t i = 0; i < players.size(); ++i) {
    player_index_[static_cast<size_t>(players[i])] = static_cast<int>(i);
  }
  num_players_ = static_cast<int>(players.size());

  // Minimal supports and exact τ per answer.
  std::vector<std::vector<std::vector<int>>> supports_by_answer;
  std::vector<Rational> taus;
  for (const AnswerHomomorphisms& group :
       GroupHomomorphismsByAnswer(a.query, db)) {
    std::vector<std::vector<int>> supports;
    supports.reserve(group.used_facts.size());
    for (const std::vector<FactId>& used : group.used_facts) {
      std::vector<int> support;
      for (FactId id : used) {
        int player = player_index_[static_cast<size_t>(id)];
        if (player >= 0) support.push_back(player);
      }
      std::sort(support.begin(), support.end());
      support.erase(std::unique(support.begin(), support.end()),
                    support.end());
      supports.push_back(std::move(support));
    }
    supports_by_answer.push_back(MinimalSupports(std::move(supports)));
    taus.push_back(a.tau->Evaluate(group.answer));
  }

  // τ-ranks over the exact values.
  std::vector<Rational> distinct = taus;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  rank_value_.reserve(distinct.size());
  for (const Rational& tau : distinct) rank_value_.push_back(tau.ToDouble());
  answer_rank_.reserve(taus.size());
  for (const Rational& tau : taus) {
    answer_rank_.push_back(static_cast<int>(
        std::lower_bound(distinct.begin(), distinct.end(), tau) -
        distinct.begin()));
  }

  // Active players (those in some minimal support) and their positions.
  std::vector<int> position(players.size(), -1);
  for (const auto& supports : supports_by_answer) {
    for (const std::vector<int>& support : supports) {
      for (int p : support) position[static_cast<size_t>(p)] = 0;
    }
  }
  for (size_t p = 0; p < players.size(); ++p) {
    if (position[p] < 0) continue;
    position[p] = static_cast<int>(active_.size());
    active_.push_back(static_cast<int>(p));
  }

  // Supports in CSR form, then the per-player index over them.
  std::vector<int> degree(active_.size(), 0);
  for (size_t answer = 0; answer < supports_by_answer.size(); ++answer) {
    const auto& supports = supports_by_answer[answer];
    if (!supports.empty() && supports.front().empty()) {
      always_alive_.push_back(static_cast<int>(answer));
      continue;
    }
    for (const std::vector<int>& support : supports) {
      support_begin_.push_back(static_cast<int>(support_players_.size()));
      support_answer_.push_back(static_cast<int>(answer));
      for (int p : support) {
        const int at = position[static_cast<size_t>(p)];
        support_players_.push_back(at);
        ++degree[static_cast<size_t>(at)];
      }
    }
  }
  support_begin_.push_back(static_cast<int>(support_players_.size()));
  player_begin_.assign(active_.size() + 1, 0);
  for (size_t p = 0; p < active_.size(); ++p) {
    player_begin_[p + 1] = player_begin_[p] + degree[p];
  }
  player_supports_.resize(support_players_.size());
  std::vector<int> fill(player_begin_.begin(), player_begin_.end() - 1);
  for (size_t s = 0; s + 1 < support_begin_.size(); ++s) {
    for (int i = support_begin_[s]; i < support_begin_[s + 1]; ++i) {
      const size_t p = static_cast<size_t>(support_players_[
          static_cast<size_t>(i)]);
      player_supports_[static_cast<size_t>(fill[p]++)] = static_cast<int>(s);
    }
  }

  // Qnt_q(B) = (x_⌈q|B|⌉ + x_⌊q|B|+1⌋) / 2, with exact indices per |B|.
  if (alpha_.kind() == AggKind::kQuantile) {
    const size_t answers = taus.size();
    quantile_low_.assign(answers + 1, 0);
    quantile_high_.assign(answers + 1, 0);
    Rational qn;
    for (size_t n = 1; n <= answers; ++n) {
      qn += alpha_.quantile();
      quantile_low_[n] = static_cast<int>(qn.Ceil().ToInt64());
      quantile_high_[n] =
          static_cast<int>((qn + Rational(1)).Floor().ToInt64());
    }
  }
}

StatusOr<std::vector<MonteCarloResult>> MonteCarloGame::Estimate(
    ScoreKind score, const MonteCarloOptions& options,
    int num_threads) const {
  if (options.num_samples <= 0) {
    return InvalidArgumentError("num_samples must be positive");
  }
  const size_t n = active_.size();
  const int64_t num_blocks =
      (options.num_samples - 1) / kMonteCarloBlockSamples + 1;

  // One block: its own seeded stream and walk; per-active-player sums of
  // the marginals and of their squares into `out` (2n doubles).
  auto run_block = [&](int64_t block, std::vector<double>* out) {
    out->assign(2 * n, 0.0);
    double* sum = out->data();
    double* sum_squares = out->data() + n;
    const int64_t samples =
        std::min(kMonteCarloBlockSamples,
                 options.num_samples - block * kMonteCarloBlockSamples);
    BlockRng rng(options.seed, block);
    Walk walk(*this);
    std::vector<int> order(n);
    for (size_t p = 0; p < n; ++p) order[p] = static_cast<int>(p);
    std::vector<char> member(n, 0);
    for (int64_t sample = 0; sample < samples; ++sample) {
      walk.Reset();
      double value = walk.Value();
      if (score == ScoreKind::kShapley) {
        for (size_t i = n; i > 1; --i) {
          std::swap(order[i - 1], order[rng.Below(i)]);
        }
        for (int p : order) {
          double marginal = 0.0;
          if (walk.Join(p)) {
            const double next = walk.Value();
            marginal = next - value;
            value = next;
          }
          sum[p] += marginal;
          sum_squares[p] += marginal * marginal;
        }
      } else {
        uint64_t bits = 0;
        for (size_t p = 0; p < n; ++p) {
          if (p % 64 == 0) bits = rng.Next();
          member[p] = static_cast<char>((bits >> (p % 64)) & 1);
          if (member[p]) walk.Join(static_cast<int>(p));
        }
        value = walk.Value();
        for (size_t p = 0; p < n; ++p) {
          const double marginal =
              walk.ToggleMarginal(static_cast<int>(p), member[p], value);
          sum[p] += marginal;
          sum_squares[p] += marginal * marginal;
        }
      }
    }
  };

  std::vector<double> sum(n, 0.0);
  std::vector<double> sum_squares(n, 0.0);
  std::vector<std::vector<double>> partial(
      static_cast<size_t>(std::min(kBlocksPerWave, num_blocks)));
  for (int64_t wave = 0; wave < num_blocks; wave += kBlocksPerWave) {
    const int64_t blocks = std::min(kBlocksPerWave, num_blocks - wave);
    ParallelFor(
        blocks,
        [&](int64_t i) {
          run_block(wave + i, &partial[static_cast<size_t>(i)]);
        },
        num_threads);
    for (int64_t i = 0; i < blocks; ++i) {
      const std::vector<double>& block = partial[static_cast<size_t>(i)];
      for (size_t p = 0; p < n; ++p) {
        sum[p] += block[p];
        sum_squares[p] += block[n + p];
      }
    }
  }

  std::vector<MonteCarloResult> results(static_cast<size_t>(num_players_));
  const double samples = static_cast<double>(options.num_samples);
  for (MonteCarloResult& result : results) {
    result.samples = options.num_samples;
  }
  for (size_t p = 0; p < n; ++p) {
    MonteCarloResult& result = results[static_cast<size_t>(active_[p])];
    result.estimate = sum[p] / samples;
    if (options.num_samples > 1) {
      const double variance =
          (sum_squares[p] - sum[p] * sum[p] / samples) / (samples - 1.0);
      result.std_error = std::sqrt(std::max(0.0, variance) / samples);
    }
  }
  return results;
}

namespace {

StatusOr<MonteCarloResult> EstimateOne(const AggregateQuery& a,
                                       const Database& db, FactId fact,
                                       ScoreKind score,
                                       const MonteCarloOptions& options) {
  if (!db.live(fact) || !db.fact(fact).endogenous) {
    return InvalidArgumentError("fact " + std::to_string(fact) +
                                " is not a live endogenous fact");
  }
  MonteCarloGame game(a, db);
  StatusOr<std::vector<MonteCarloResult>> all = game.Estimate(score, options);
  if (!all.ok()) return all.status();
  return (*all)[static_cast<size_t>(game.PlayerIndex(fact))];
}

}  // namespace

StatusOr<MonteCarloResult> MonteCarloShapley(const AggregateQuery& a,
                                             const Database& db, FactId fact,
                                             const MonteCarloOptions& options) {
  return EstimateOne(a, db, fact, ScoreKind::kShapley, options);
}

StatusOr<MonteCarloResult> MonteCarloBanzhaf(const AggregateQuery& a,
                                             const Database& db, FactId fact,
                                             const MonteCarloOptions& options) {
  return EstimateOne(a, db, fact, ScoreKind::kBanzhaf, options);
}

StatusOr<MonteCarloResult> MonteCarloShapleyWithGuarantee(
    const AggregateQuery& a, const Database& db, FactId fact, double range,
    double epsilon, double delta, uint64_t seed) {
  MonteCarloOptions options;
  options.num_samples = HoeffdingSampleCount(range, epsilon, delta);
  options.seed = seed;
  return MonteCarloShapley(a, db, fact, options);
}

int64_t HoeffdingSampleCount(double range, double epsilon, double delta) {
  SHAPCQ_CHECK(range > 0 && epsilon > 0 && delta > 0 && delta < 1);
  // P(|mean - mu| >= eps) <= 2 exp(-2 m eps^2 / (2 range)^2) <= delta.
  double m = std::log(2.0 / delta) * 2.0 * range * range / (epsilon * epsilon);
  return static_cast<int64_t>(std::ceil(m));
}

}  // namespace shapcq
