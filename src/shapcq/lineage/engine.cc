#include "shapcq/lineage/engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "shapcq/lineage/circuit_cache.h"
#include "shapcq/lineage/lineage.h"
#include "shapcq/obs/trace.h"
#include "shapcq/shapley/linearity.h"
#include "shapcq/util/check.h"
#include "shapcq/util/combinatorics.h"
#include "shapcq/util/parallel.h"

namespace shapcq {

namespace {

Status CheckLineageShape(const AggregateQuery& a) {
  if (a.alpha.kind() != AggKind::kSum && a.alpha.kind() != AggKind::kCount) {
    return UnsupportedError(
        "lineage-circuit handles the linear aggregates Sum and Count only");
  }
  return Status::Ok();
}

CircuitBudget BudgetFrom(const LineageOptions& options) {
  CircuitBudget budget;
  budget.max_nodes = options.max_circuit_nodes;
  budget.max_vars = options.max_answer_vars;
  budget.max_clauses = options.max_answer_clauses;
  return budget;
}

// τ(t) for Sum, 1 for Count (same convention as the linearity engine).
Rational AnswerWeight(const AggregateQuery& a, const Tuple& answer) {
  return a.alpha.kind() == AggKind::kCount ? Rational(1)
                                           : a.tau->Evaluate(answer);
}

// An answer alive with no endogenous support is constant-true: every fact
// is a null player of its indicator game (and it contributes w·C(n,k) to
// every sum_k level).
bool ConstantTrue(const AnswerLineage& lineage) {
  return lineage.clauses.size() == 1 && lineage.clauses.front().empty();
}

// The per-answer unit of work: the indicator game of one answer, reduced
// to the answer's own lineage variables. The circuit and its stratified
// counts live in a (possibly shared) CircuitCacheEntry over the canonical
// variable space; `players` is the remap table translating canonical
// variable v back to this caller's literal (global player index or
// FactId).
struct AnswerCircuit {
  std::vector<int> players;  // canonical var -> caller literal
  std::shared_ptr<const CircuitCacheEntry> entry;
};

// Compiles and counts one answer's lineage over its canonical variable
// space, consulting the cross-tenant CircuitCache first when
// options.share_circuits is set. Sharing is bitwise-safe: the stratified
// model counts a cached entry carries are semantic invariants of the
// clause set, so every formula of one canonical form scores identically.
StatusOr<AnswerCircuit> BuildAnswerCircuit(const AnswerLineage& lineage,
                                           const LineageOptions& options,
                                           Combinatorics* comb) {
  std::vector<std::vector<int>> minimized = lineage.clauses;
  MinimizeClauses(&minimized);
  CanonicalClauseForm canonical = CanonicalizeClauses(minimized);
  AnswerCircuit built;
  built.players = std::move(canonical.to_input);
  const CircuitBudget budget = BudgetFrom(options);
  if (options.share_circuits) {
    built.entry = CircuitCache::Global().Lookup(canonical.clauses, budget);
    if (options.cache_counters != nullptr) {
      std::atomic<uint64_t>& counter = built.entry != nullptr
                                           ? options.cache_counters->hits
                                           : options.cache_counters->misses;
      counter.fetch_add(1, std::memory_order_relaxed);
    }
    if (built.entry != nullptr) return built;
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
  built.entry = options.share_circuits
                    ? CircuitCache::Global().Insert(std::move(entry))
                    : std::move(entry);
  return built;
}

// The answer's game from its circuit's stratified model counts: with T[k]
// the satisfying assignments of weight k and P_v[j] those of weight j that
// set v, v pivots on P_v[k+1] − (T[k] − P_v[k]) coalitions of size k.
// Players are the caller's literals (global player index or FactId).
AnswerGame CircuitGame(const AnswerCircuit& built) {
  const size_t m = built.players.size();
  SHAPCQ_CHECK(m >= 1);
  const CircuitModelCounts& counts = built.entry->counts;
  const std::vector<BigInt>& total = counts.by_size;
  AnswerGame game;
  game.players.assign(built.players.begin(), built.players.end());
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

}  // namespace

LineageStats& LineageStats::Global() {
  static LineageStats* stats = new LineageStats();
  return *stats;
}

void LineageStats::RecordCircuit(const LineageCircuit& circuit) {
  circuits_compiled_.fetch_add(1, std::memory_order_relaxed);
  circuit_nodes_.fetch_add(static_cast<uint64_t>(circuit.num_nodes()),
                           std::memory_order_relaxed);
  cache_lookups_.fetch_add(static_cast<uint64_t>(circuit.cache_lookups),
                           std::memory_order_relaxed);
  cache_hits_.fetch_add(static_cast<uint64_t>(circuit.cache_hits),
                        std::memory_order_relaxed);
}

void LineageStats::RecordBudgetFallback() {
  budget_fallbacks_.fetch_add(1, std::memory_order_relaxed);
}

LineageStatsSnapshot LineageStats::Snapshot() const {
  LineageStatsSnapshot snapshot;
  snapshot.circuits_compiled =
      circuits_compiled_.load(std::memory_order_relaxed);
  snapshot.circuit_nodes = circuit_nodes_.load(std::memory_order_relaxed);
  snapshot.cache_lookups = cache_lookups_.load(std::memory_order_relaxed);
  snapshot.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  snapshot.budget_fallbacks =
      budget_fallbacks_.load(std::memory_order_relaxed);
  return snapshot;
}

void LineageStats::Reset() {
  circuits_compiled_.store(0, std::memory_order_relaxed);
  circuit_nodes_.store(0, std::memory_order_relaxed);
  cache_lookups_.store(0, std::memory_order_relaxed);
  cache_hits_.store(0, std::memory_order_relaxed);
  budget_fallbacks_.store(0, std::memory_order_relaxed);
}

StatusOr<std::vector<std::pair<int, Rational>>> ScoreAnswerClauses(
    const std::vector<std::vector<int>>& clauses, const Rational& weight,
    ScoreKind kind, const LineageOptions& options, Combinatorics* comb) {
  AnswerLineage lineage;
  lineage.clauses = clauses;
  if (clauses.empty() || ConstantTrue(lineage) || weight.is_zero()) {
    return std::vector<std::pair<int, Rational>>{};
  }
  StatusOr<AnswerCircuit> built = BuildAnswerCircuit(lineage, options, comb);
  if (!built.ok()) return built.status();
  return ScoreAnswerGame(CircuitGame(*built), weight, kind, comb);
}

StatusOr<std::vector<std::pair<FactId, Rational>>> LineageCircuitScoreAll(
    const AggregateQuery& a, const Database& db,
    const SolverOptions& options) {
  Status shape = CheckLineageShape(a);
  if (!shape.ok()) return shape;
  if (db.num_endogenous() == 0) {
    return std::vector<std::pair<FactId, Rational>>{};
  }

  // Span sites here run on the calling thread only (the sweep's thread);
  // the per-chunk circuit work below never touches options.trace.
  Span extract_span(options.trace, "lineage_extract");
  const LineageSet lineage = ExtractLineage(a.query, db);
  extract_span.Annotate("answers",
                        static_cast<int64_t>(lineage.answers.size()));
  extract_span.Annotate("players",
                        static_cast<int64_t>(lineage.players.size()));
  extract_span.End();

  std::vector<const Tuple*> answers;
  answers.reserve(lineage.answers.size());
  for (const AnswerLineage& answer : lineage.answers) {
    answers.push_back(&answer.answer);
  }
  auto count = [&](size_t t, Combinatorics* comb) -> StatusOr<AnswerGame> {
    const AnswerLineage& answer = lineage.answers[t];
    if (ConstantTrue(answer)) return AnswerGame{};  // all null players
    StatusOr<AnswerCircuit> built =
        BuildAnswerCircuit(answer, options.lineage, comb);
    if (!built.ok()) return built.status();
    AnswerGame game = CircuitGame(*built);
    for (FactId& player : game.players) {
      player = lineage.players[static_cast<size_t>(player)];
    }
    return game;
  };
  Span compile_span(options.trace, "lineage_compile");
  compile_span.Annotate("tasks", static_cast<int64_t>(answers.size()));
  return ScoreAnswersByLinearity(a, db, answers, count, options);
}

StatusOr<Rational> LineageCircuitScoreOne(const AggregateQuery& a,
                                          const Database& db, FactId fact,
                                          const SolverOptions& options) {
  SHAPCQ_CHECK(db.fact(fact).endogenous);
  SolverOptions serial = options;
  serial.num_threads = 1;  // the session fans per-fact calls out already
  StatusOr<std::vector<std::pair<FactId, Rational>>> all =
      LineageCircuitScoreAll(a, db, serial);
  if (!all.ok()) return all.status();
  for (auto& [id, score] : *all) {
    if (id == fact) return std::move(score);
  }
  return InternalError("lineage-circuit lost track of fact " +
                       std::to_string(fact));
}

StatusOr<SumKSeries> LineageCircuitSumK(const AggregateQuery& a,
                                        const Database& db,
                                        const SolverOptions& options) {
  Status shape = CheckLineageShape(a);
  if (!shape.ok()) return shape;
  const int64_t n = db.num_endogenous();
  const LineageSet lineage = ExtractLineage(a.query, db);
  Combinatorics comb;
  SumKSeries series(static_cast<size_t>(n) + 1);
  for (const AnswerLineage& answer : lineage.answers) {
    Rational weight = AnswerWeight(a, answer.answer);
    if (weight.is_zero()) continue;
    if (ConstantTrue(answer)) {
      // Alive in every sub-database: w·C(n, k) per level.
      const std::vector<BigInt>& row = comb.BinomialRow(n);
      for (int64_t k = 0; k <= n; ++k) {
        series[static_cast<size_t>(k)] +=
            weight * Rational(row[static_cast<size_t>(k)]);
      }
      continue;
    }
    StatusOr<AnswerCircuit> built =
        BuildAnswerCircuit(answer, options.lineage, &comb);
    if (!built.ok()) return built.status();
    // Pad the local counts to the n-player universe: the n − m facts
    // outside the lineage are free.
    const int64_t m = static_cast<int64_t>(built->players.size());
    const std::vector<BigInt>& pad = comb.BinomialRow(n - m);
    for (int64_t j = 0; j <= m; ++j) {
      const BigInt& models = built->entry->counts.by_size[static_cast<size_t>(j)];
      if (models.is_zero()) continue;
      Rational weighted = weight * Rational(models);
      for (int64_t g = 0; g <= n - m; ++g) {
        series[static_cast<size_t>(j + g)] +=
            weighted * Rational(pad[static_cast<size_t>(g)]);
      }
    }
  }
  return series;
}

void RegisterLineageCircuitEngine(EngineRegistry& registry) {
  EngineProvider provider;
  provider.name = "lineage-circuit";
  // After every frontier DP (priority 10/20) — those win whenever they
  // apply — and before the session's brute-force/Monte-Carlo fallback.
  provider.priority = 60;
  // Any CQ shape: self-joins and non-hierarchical queries included. The
  // per-database cost gate is the compilation budget, not the query.
  provider.applies = [](const AggregateQuery& a) {
    return a.alpha.kind() == AggKind::kSum ||
           a.alpha.kind() == AggKind::kCount;
  };
  provider.sum_k = LineageCircuitSumK;
  provider.score_one = LineageCircuitScoreOne;
  provider.score_all = LineageCircuitScoreAll;
  registry.Register(std::move(provider));
}

}  // namespace shapcq
