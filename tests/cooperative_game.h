// Cooperative games (Section 2 of the paper): the test oracle for the
// game-theoretic reductions.
//
// A cooperative game is (P, ν) with ν(∅) = 0. The database setting
// instantiates P with the endogenous facts and ν(C) = A(C ∪ D_x) − A(D_x);
// the hardness proofs instantiate it with e.g. the Set-Cover game. This
// module provides exact Shapley/Banzhaf values for arbitrary small games by
// enumeration — the reference semantics every reduction is checked against —
// plus the axioms as predicates for property tests.

#ifndef SHAPCQ_TESTS_COOPERATIVE_GAME_H_
#define SHAPCQ_TESTS_COOPERATIVE_GAME_H_

#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "shapcq/shapley/score.h"
#include "shapcq/util/check.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/rational.h"
#include "shapcq/util/status.h"

namespace shapcq {

// A cooperative game over players 0..num_players−1 with a set-function
// utility given on bitmasks. The implementation enforces ν(∅) = 0 by
// shifting: effective ν(C) = utility(C) − utility(∅).
class CooperativeGame {
 public:
  // `utility` is called with a bitmask over players; must be deterministic.
  CooperativeGame(int num_players, std::function<Rational(uint64_t)> utility);

  int num_players() const { return num_players_; }
  // Effective utility (shifted so that ν(∅) = 0).
  Rational Utility(uint64_t coalition) const;

  // Exact score by enumeration over the 2^(n−1) coalitions avoiding the
  // player. Requires num_players <= 26.
  StatusOr<Rational> Score(int player,
                           ScoreKind kind = ScoreKind::kShapley) const;
  StatusOr<std::vector<Rational>> AllScores(
      ScoreKind kind = ScoreKind::kShapley) const;

  // Axiom predicates (enumeration-based; same size limits).
  // Σ_p Shapley(p) == ν(P).
  StatusOr<bool> SatisfiesEfficiency() const;
  // ν(C ∪ {p}) == ν(C) for all C implies Shapley(p) == 0.
  StatusOr<bool> IsNullPlayer(int player) const;
  // Players p, q interchangeable w.r.t. ν.
  StatusOr<bool> AreSymmetric(int p, int q) const;

 private:
  int num_players_;
  std::function<Rational(uint64_t)> utility_;
  Rational empty_value_;
};

// The Set-Cover game of Lemma D.5: players are sets, ν(C) = 1 iff the
// chosen sets cover {1..universe_size}.
CooperativeGame SetCoverGame(int universe_size,
                             const std::vector<std::vector<int>>& sets);

inline CooperativeGame::CooperativeGame(
    int num_players, std::function<Rational(uint64_t)> utility)
    : num_players_(num_players), utility_(std::move(utility)) {
  SHAPCQ_CHECK(num_players >= 0);
  empty_value_ = utility_(0);
}

inline Rational CooperativeGame::Utility(uint64_t coalition) const {
  return utility_(coalition) - empty_value_;
}

inline StatusOr<Rational> CooperativeGame::Score(int player,
                                                ScoreKind kind) const {
  if (num_players_ > 26) {
    return UnsupportedError("game enumeration limited to 26 players");
  }
  SHAPCQ_CHECK(player >= 0 && player < num_players_);
  Combinatorics comb;
  uint64_t player_bit = uint64_t{1} << player;
  Rational score;
  for (uint64_t mask = 0; mask < (uint64_t{1} << num_players_); ++mask) {
    if (mask & player_bit) continue;
    Rational delta = Utility(mask | player_bit) - Utility(mask);
    if (delta.is_zero()) continue;
    switch (kind) {
      case ScoreKind::kShapley:
        score += comb.ShapleyCoefficient(num_players_,
                                         __builtin_popcountll(mask)) *
                 delta;
        break;
      case ScoreKind::kBanzhaf:
        score += delta;
        break;
    }
  }
  if (kind == ScoreKind::kBanzhaf && num_players_ > 1) {
    score /= Rational(BigInt::TwoPow(static_cast<uint64_t>(num_players_ - 1)));
  }
  return score;
}

inline StatusOr<std::vector<Rational>> CooperativeGame::AllScores(
    ScoreKind kind) const {
  std::vector<Rational> scores;
  scores.reserve(static_cast<size_t>(num_players_));
  for (int p = 0; p < num_players_; ++p) {
    StatusOr<Rational> score = Score(p, kind);
    if (!score.ok()) return score.status();
    scores.push_back(std::move(score).value());
  }
  return scores;
}

inline StatusOr<bool> CooperativeGame::SatisfiesEfficiency() const {
  StatusOr<std::vector<Rational>> scores = AllScores();
  if (!scores.ok()) return scores.status();
  Rational total;
  for (const Rational& score : *scores) total += score;
  uint64_t grand = num_players_ == 0
                       ? 0
                       : (uint64_t{1} << num_players_) - 1;
  return total == Utility(grand);
}

inline StatusOr<bool> CooperativeGame::IsNullPlayer(int player) const {
  if (num_players_ > 26) {
    return UnsupportedError("game enumeration limited to 26 players");
  }
  uint64_t player_bit = uint64_t{1} << player;
  for (uint64_t mask = 0; mask < (uint64_t{1} << num_players_); ++mask) {
    if (mask & player_bit) continue;
    if (Utility(mask | player_bit) != Utility(mask)) return false;
  }
  return true;
}

inline StatusOr<bool> CooperativeGame::AreSymmetric(int p, int q) const {
  if (num_players_ > 26) {
    return UnsupportedError("game enumeration limited to 26 players");
  }
  SHAPCQ_CHECK(p != q);
  uint64_t p_bit = uint64_t{1} << p;
  uint64_t q_bit = uint64_t{1} << q;
  for (uint64_t mask = 0; mask < (uint64_t{1} << num_players_); ++mask) {
    if ((mask & p_bit) || (mask & q_bit)) continue;
    if (Utility(mask | p_bit) != Utility(mask | q_bit)) return false;
  }
  return true;
}

inline CooperativeGame SetCoverGame(int universe_size,
                                    const std::vector<std::vector<int>>& sets) {
  SHAPCQ_CHECK(universe_size >= 1);
  std::vector<std::vector<int>> sets_copy = sets;
  int n = static_cast<int>(sets.size());
  return CooperativeGame(
      n, [universe_size, sets_copy](uint64_t coalition) {
        std::set<int> covered;
        for (size_t s = 0; s < sets_copy.size(); ++s) {
          if (coalition & (uint64_t{1} << s)) {
            covered.insert(sets_copy[s].begin(), sets_copy[s].end());
          }
        }
        return static_cast<int>(covered.size()) == universe_size
                   ? Rational(1)
                   : Rational(0);
      });
}


}  // namespace shapcq

#endif  // SHAPCQ_TESTS_COOPERATIVE_GAME_H_
