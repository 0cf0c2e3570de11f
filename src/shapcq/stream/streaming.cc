#include "shapcq/stream/streaming.h"

#include <algorithm>
#include <utility>

#include "shapcq/lineage/circuit.h"
#include "shapcq/lineage/lineage.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/shapley/linearity.h"
#include "shapcq/util/check.h"
#include "shapcq/util/combinatorics.h"

namespace shapcq {

namespace {

// The incremental path exists for Sum and Count only — one group game
// per answer, so a mutation dirties just the answers it touches — and
// respects an explicit method override (a requested Monte Carlo run must
// sample, not patch).
bool IncrementalApplies(const AggregateQuery& a, const SolverOptions& options) {
  if (a.alpha.kind() != AggKind::kSum && a.alpha.kind() != AggKind::kCount) {
    return false;
  }
  return options.method != SolveMethod::kMonteCarlo &&
         options.method != SolveMethod::kBruteForce;
}

// One answer's weighted contributions: its circuit game (a minimized DNF
// over FactId literals) scored at its own player count, or nothing for a
// zero weight.
StatusOr<std::vector<std::pair<int, Rational>>> ScoreAnswerClauses(
    const std::vector<std::vector<int>>& clauses, const Rational& weight,
    const SolverOptions& options, Combinatorics* comb) {
  if (weight.is_zero()) return std::vector<std::pair<int, Rational>>{};
  StatusOr<GroupGame> game = CircuitGroupGame(clauses, options.lineage, comb);
  if (!game.ok()) return game.status();
  return ScoreGroupGame(*game, weight, options.score, comb);
}

SolveResult ExactResult(Rational score) {
  SolveResult result;
  result.is_exact = true;
  result.approximation = score.ToDouble();
  result.exact = std::move(score);
  result.algorithm = "streaming/lineage-circuit";
  return result;
}

}  // namespace

StreamingSolver::StreamingSolver(AggregateQuery a, Database* db,
                                 SolverOptions options)
    : a_(std::move(a)),
      db_(db),
      options_(std::move(options)),
      incremental_(IncrementalApplies(a_, options_)) {
  SHAPCQ_CHECK(db_ != nullptr);
}

StatusOr<FactId> StreamingSolver::InsertFact(const std::string& relation,
                                             Tuple args, bool endogenous) {
  StatusOr<FactId> id = db_->InsertFact(relation, std::move(args), endogenous);
  if (id.ok()) OnInsert(*id);
  return id;
}

Status StreamingSolver::DeleteFact(FactId id) {
  if (!db_->live(id)) {
    return NotFoundError("no live fact with id " + std::to_string(id));
  }
  OnPreDelete(id);
  return db_->DeleteFact(id);
}

void StreamingSolver::CompactTombstones() {
  db_->CompactTombstones();
  OnCompact();
}

void StreamingSolver::MarkTouched(FactId fact) {
  std::vector<Tuple> touched = AnswersTouching(a_.query, *db_, fact);
  for (Tuple& answer : touched) dirty_.insert(std::move(answer));
}

void StreamingSolver::OnInsert(FactId id) {
  if (!incremental_ || !cache_valid_) return;
  // The insert already bumped the epoch; anything beyond one step means
  // unnotified mutations slipped in.
  if (db_->epoch() != cache_epoch_ + 1) {
    cache_valid_ = false;
    return;
  }
  MarkTouched(id);
  cache_epoch_ = db_->epoch();
}

void StreamingSolver::OnPreDelete(FactId id) {
  if (!incremental_ || !cache_valid_) return;
  if (db_->epoch() != cache_epoch_ || !db_->live(id)) {
    cache_valid_ = false;
    return;
  }
  // The pinned join runs against the still-live fact; the caller performs
  // the actual delete next, bumping the epoch to the value we record.
  MarkTouched(id);
  cache_epoch_ = db_->epoch() + 1;
}

void StreamingSolver::OnCompact() {
  if (!incremental_ || !cache_valid_) return;
  // Compaction changes no contents: just absorb its epoch bump.
  if (db_->epoch() != cache_epoch_ + 1) {
    cache_valid_ = false;
    return;
  }
  cache_epoch_ = db_->epoch();
}

Rational StreamingSolver::WeightOf(const Tuple& answer) const {
  // Same convention as the batched engine: τ(t) for Sum, 1 for Count.
  return a_.alpha.kind() == AggKind::kCount ? Rational(1)
                                            : a_.tau->Evaluate(answer);
}

std::vector<std::vector<int>> StreamingSolver::ExtractAnswerClauses(
    const Tuple& answer) const {
  // Residual query Q_{x̄ -> t}: bind every free variable to the answer's
  // constant (first head occurrence; repeated head variables agree by
  // construction of the answer).
  ConjunctiveQuery bound = a_.query;
  const std::vector<std::string>& head = a_.query.head();
  for (const std::string& var : a_.query.free_variables()) {
    for (size_t position = 0; position < head.size(); ++position) {
      if (head[position] == var) {
        bound = bound.Bind(var, answer[position]);
        break;
      }
    }
  }
  IdHomomorphisms ids = EnumerateHomomorphismIds(bound, *db_);
  std::vector<std::vector<int>> clauses;
  clauses.reserve(ids.used_facts.size());
  for (const std::vector<FactId>& used : ids.used_facts) {
    std::vector<int> clause;
    clause.reserve(used.size());
    for (FactId id : used) {
      if (db_->fact(id).endogenous) clause.push_back(id);
    }
    // Self-joins may use a fact in several atoms: dedup, like the batch
    // extractor.
    std::sort(clause.begin(), clause.end());
    clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
    clauses.push_back(std::move(clause));
  }
  if (clauses.empty()) return clauses;  // answer dead
  // Canonical minimal form — identical to ExtractLineage's because the
  // player-index -> FactId renaming is monotone.
  MinimizeClauses(&clauses);
  return clauses;
}

Status StreamingSolver::RebuildAll() {
  ++stats_.full_rebuilds;
  cache_.clear();
  dirty_.clear();
  const LineageSet lineage = ExtractLineage(a_.query, *db_);
  Combinatorics comb;
  for (const AnswerLineage& answer : lineage.answers) {
    CachedAnswer entry;
    entry.clauses.reserve(answer.clauses.size());
    for (const std::vector<int>& clause : answer.clauses) {
      std::vector<int> by_fact;
      by_fact.reserve(clause.size());
      for (int player : clause) {
        by_fact.push_back(lineage.players[static_cast<size_t>(player)]);
      }
      // players is ascending, so the monotone remap keeps literals sorted
      // and clause order canonical.
      entry.clauses.push_back(std::move(by_fact));
    }
    entry.weight = WeightOf(answer.answer);
    StatusOr<std::vector<std::pair<int, Rational>>> scored =
        ScoreAnswerClauses(entry.clauses, entry.weight, options_, &comb);
    if (!scored.ok()) return scored.status();
    entry.contributions = std::move(scored).value();
    cache_.emplace(answer.answer, std::move(entry));
  }
  cache_valid_ = true;
  cache_epoch_ = db_->epoch();
  return Status::Ok();
}

Status StreamingSolver::RefreshDirty() {
  stats_.dirty_last = dirty_.size();
  Combinatorics comb;
  uint64_t touched = 0;
  for (const Tuple& answer : dirty_) {
    std::vector<std::vector<int>> clauses = ExtractAnswerClauses(answer);
    if (clauses.empty()) {
      cache_.erase(answer);  // the mutation killed this answer
      continue;
    }
    auto it = cache_.find(answer);
    if (it != cache_.end() && it->second.clauses == clauses) {
      // The mutation grazed the answer without changing its minimized
      // lineage (e.g. a redundant homomorphism): the compiled circuit and
      // its contributions are still exact.
      ++stats_.circuits_reused;
      ++touched;
      continue;
    }
    CachedAnswer entry;
    entry.clauses = std::move(clauses);
    entry.weight = WeightOf(answer);
    StatusOr<std::vector<std::pair<int, Rational>>> scored =
        ScoreAnswerClauses(entry.clauses, entry.weight, options_, &comb);
    if (!scored.ok()) return scored.status();
    entry.contributions = std::move(scored).value();
    ++stats_.answers_recomputed;
    ++touched;
    cache_[answer] = std::move(entry);
  }
  stats_.answers_reused += cache_.size() - touched;
  dirty_.clear();
  return Status::Ok();
}

std::vector<std::pair<FactId, SolveResult>> StreamingSolver::MergeCache()
    const {
  // Same merge as the batched engine: per-answer contributions in sorted
  // answer order into a per-fact accumulator. Exact canonical rationals
  // make the sum independent of grouping, so this equals a fresh batched
  // solve bitwise.
  std::vector<Rational> by_fact(static_cast<size_t>(db_->num_facts()));
  for (const auto& [answer, entry] : cache_) {
    for (const auto& [fact, contribution] : entry.contributions) {
      by_fact[static_cast<size_t>(fact)] += contribution;
    }
  }
  std::vector<FactId> endo = db_->EndogenousFacts();
  std::vector<std::pair<FactId, SolveResult>> results;
  results.reserve(endo.size());
  for (FactId id : endo) {
    results.emplace_back(
        id, ExactResult(std::move(by_fact[static_cast<size_t>(id)])));
  }
  return results;
}

StatusOr<std::vector<std::pair<FactId, SolveResult>>>
StreamingSolver::FallbackSolve() {
  ++stats_.fallback_solves;
  SolverSession session(a_, *db_);
  return session.ComputeAll(options_);
}

StatusOr<std::vector<std::pair<FactId, SolveResult>>>
StreamingSolver::ComputeAll() {
  if (!incremental_) return FallbackSolve();
  Status refreshed = Status::Ok();
  if (!cache_valid_ || db_->epoch() != cache_epoch_) {
    // First solve, or a mutation we were not told about: start over.
    refreshed = RebuildAll();
  } else {
    refreshed = RefreshDirty();
  }
  if (!refreshed.ok()) {
    if (refreshed.code() == StatusCode::kUnsupported) {
      // Compilation budget blow-up: this database is out of the circuit
      // engine's reach, and will stay out — stop trying.
      incremental_ = false;
      cache_valid_ = false;
      cache_.clear();
      dirty_.clear();
      return FallbackSolve();
    }
    return refreshed;
  }
  ++stats_.incremental_solves;
  stats_.answers_cached = cache_.size();
  return MergeCache();
}

}  // namespace shapcq
