// Streaming attribution bench: delta solves vs mutation rate.
//
// Builds a database whose answer set is large and mostly disjoint, then
// interleaves single-fact mutations with StreamingSolver::ComputeAll at
// increasing mutation rates (mutations per solve). Reports per-solve
// latency, dirty-set size, and cache reuse in BENCH_JSON, plus a fresh
// SolverSession full solve on the same state as the non-incremental
// reference.
//
// CI regression gates, each exiting nonzero when broken:
//  * on a 1-fact mutation the dirty-answer set must be strictly smaller
//    than the full answer set (the delta path never degenerates into a
//    full sweep);
//  * at every rate the fresh solve (sum-count/linearity, the per-answer
//    satisfaction-count DP) and the delta solve (lineage circuits) must
//    return bitwise-identical exact scores on the same state.

#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/session.h"
#include "shapcq/stream/streaming.h"

using namespace shapcq;  // NOLINT

namespace {

// n mostly-disjoint answers (x = i joins its private S value) plus a
// shared hub value every fourth R row also joins — some answers carry
// multi-clause lineage, so dirty re-extraction exercises both the
// clause-changed and clauses-unchanged (circuit reuse) paths.
Database MakeDb(int n) {
  Database db;
  for (int i = 0; i < n; ++i) {
    db.AddEndogenous("R", {Value(i), Value(1000 + i)});
    db.AddEndogenous("S", {Value(1000 + i)});
    if (i % 4 == 0) db.AddEndogenous("R", {Value(i), Value(2000)});
  }
  db.AddEndogenous("S", {Value(2000)});
  return db;
}

using Scores = std::vector<std::pair<FactId, SolveResult>>;

// Same facts in the same order, every score exact and equal.
bool IdenticalExactScores(const Scores& x, const Scores& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].first != y[i].first || !x[i].second.is_exact ||
        !y[i].second.is_exact || x[i].second.exact != y[i].second.exact) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::ParseArgs(argc, argv);
  const std::vector<int> sizes =
      args.smoke ? std::vector<int>{12} : std::vector<int>{32, 96};
  const std::vector<int> rates = args.smoke ? std::vector<int>{1, 4}
                                            : std::vector<int>{1, 4, 16};
  const int rounds = args.smoke ? 2 : 5;

  ConjunctiveQuery q = MustParseQuery("Q(x) <- R(x, y), S(y)");
  std::printf("streaming attribution: dirty-answer delta solves vs fresh "
              "full solves\n");
  bench::Rule('=');

  for (int n : sizes) {
    Database db = MakeDb(n);
    AggregateQuery a{q, MakeTauId(0), AggregateFunction::Sum()};
    StreamingSolver solver(a, &db);

    double build_ms = bench::TimeMs([&] {
      auto r = solver.ComputeAll();
      if (!r.ok()) std::abort();
    });
    const uint64_t answers = solver.stats().answers_cached;

    // --- The regression gate: one mutation must NOT dirty everything. ---
    auto probe = db.FindFact("R", {Value(0), Value(1000)});
    if (!probe.ok()) std::abort();
    if (!solver.DeleteFact(*probe).ok()) std::abort();
    const size_t gate_dirty = solver.dirty_size();
    double gate_ms = bench::TimeMs([&] {
      auto r = solver.ComputeAll();
      if (!r.ok()) std::abort();
    });
    bool gate_pass = gate_dirty < answers;
    bench::JsonLine("streaming_gate")
        .Int("n", n)
        .Int("answers", static_cast<long long>(answers))
        .Int("dirty_on_one_mutation", static_cast<long long>(gate_dirty))
        .Num("solve_ms", gate_ms)
        .Bool("pass", gate_pass)
        .Emit();
    if (!gate_pass) {
      std::fprintf(stderr,
                   "FAIL: a 1-fact mutation dirtied all %llu answers — the "
                   "delta path degenerated into a full sweep\n",
                   static_cast<unsigned long long>(answers));
      return 1;
    }

    std::printf("n=%d: %llu answers, initial build %.2f ms\n", n,
                static_cast<unsigned long long>(answers), build_ms);
    std::printf("%6s %10s %12s %14s %12s\n", "rate", "dirty/solve",
                "delta (ms)", "circuits kept", "fresh (ms)");
    bench::Rule();

    int next_x = n + 1;
    std::vector<FactId> inserted;
    for (int rate : rates) {
      double delta_ms = 0;
      uint64_t dirty_total = 0;
      uint64_t circuits_before = solver.stats().circuits_reused;
      Scores delta_scores;
      for (int round = 0; round < rounds; ++round) {
        for (int m = 0; m < rate; ++m) {
          // Alternate inserts of fresh single-answer rows with deletes of
          // rows this loop inserted earlier — every mutation is 1-fact.
          if (inserted.empty() || m % 2 == 0) {
            auto id = solver.InsertFact(
                "R", {Value(next_x), Value(1000 + (next_x % n))});
            if (!id.ok()) std::abort();
            inserted.push_back(*id);
            ++next_x;
          } else {
            FactId victim = inserted.back();
            inserted.pop_back();
            if (!solver.DeleteFact(victim).ok()) std::abort();
          }
        }
        dirty_total += solver.dirty_size();
        delta_ms += bench::TimeMs([&] {
          auto r = solver.ComputeAll();
          if (!r.ok()) std::abort();
          delta_scores = std::move(r).value();
        });
      }
      uint64_t circuits_kept =
          solver.stats().circuits_reused - circuits_before;
      // Reference: what the daemon's non-streaming path pays on the same
      // state — plan + solve from scratch.
      Scores fresh_scores;
      double fresh_ms = bench::TimeMs([&] {
        SolverSession session(a, db);
        auto r = session.ComputeAll(SolverOptions{});
        if (!r.ok()) std::abort();
        fresh_scores = std::move(r).value();
      });
      const bool parity = IdenticalExactScores(delta_scores, fresh_scores);
      double avg_dirty = static_cast<double>(dirty_total) / rounds;
      double avg_delta_ms = delta_ms / rounds;
      std::printf("%6d %10.1f %12.3f %14llu %12.3f\n", rate, avg_dirty,
                  avg_delta_ms,
                  static_cast<unsigned long long>(circuits_kept), fresh_ms);
      bench::JsonLine("streaming_mutation_rate")
          .Int("n", n)
          .Int("rate", rate)
          .Int("rounds", rounds)
          .Int("answers", static_cast<long long>(solver.stats().answers_cached))
          .Num("dirty_per_solve", avg_dirty)
          .Num("delta_solve_ms", avg_delta_ms)
          .Num("fresh_solve_ms", fresh_ms)
          .Int("circuits_reused", static_cast<long long>(circuits_kept))
          .Int("incremental_solves",
               static_cast<long long>(solver.stats().incremental_solves))
          .Int("full_rebuilds",
               static_cast<long long>(solver.stats().full_rebuilds))
          .Bool("parity", parity)
          .Emit();
      if (!parity) {
        std::fprintf(stderr,
                     "FAIL: n=%d rate=%d: the fresh solve and the delta "
                     "solve disagree on the same state\n",
                     n, rate);
        return 1;
      }
    }
    bench::Rule();
  }
  std::printf("gates held on every size: 1-fact dirty set < answer set; "
              "fresh and delta scores bitwise identical\n");
  return 0;
}
