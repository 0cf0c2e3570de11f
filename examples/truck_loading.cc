// The paper's SECOND Example 2.2 query: a non-localized value function.
//
//   A' = Max ∘ (w_c + w_t) ∘ ( Q(c, t, wc, wt) <-
//            Cargo(c, wc), Carries(t, c), Truck(t, wt) )
//
// "the maximal weight of a truck loaded with cargo": τ adds attributes of
// Cargo AND Truck, so it is localized on no single atom, and the query is
// not even all-hierarchical (c and t overlap without nesting) — the solver
// falls back to brute force.
//
// The Section 7.3 extension handles the monotone-monoid core of this τ:
// on the all-hierarchical fleet-planning variant
//
//   Q2(wc, wt) <- CargoW(wc), TruckW(wt)        (any cargo on any truck)
//
// Max(wc + wt) is computed exactly in polynomial time by the Min/Max
// engine, which this example also demonstrates (validated against brute
// force).

#include <cstdio>

#include "shapcq/agg/aggregate.h"
#include "shapcq/agg/value_function.h"
#include "shapcq/data/database.h"
#include "shapcq/query/parser.h"
#include "shapcq/shapley/brute_force.h"
#include "shapcq/shapley/solver.h"

using namespace shapcq;  // NOLINT: example brevity

int main() {
  // --- Part 1: the paper's trucking query, non-localized τ ---------------
  Database db;
  db.AddEndogenous("Cargo", {Value("pipes"), Value(12)});
  db.AddEndogenous("Cargo", {Value("sand"), Value(30)});
  db.AddEndogenous("Cargo", {Value("tools"), Value(5)});
  db.AddEndogenous("Truck", {Value("t1"), Value(40)});
  db.AddEndogenous("Truck", {Value("t2"), Value(25)});
  db.AddExogenous("Carries", {Value("t1"), Value("pipes")});
  db.AddExogenous("Carries", {Value("t1"), Value("sand")});
  db.AddExogenous("Carries", {Value("t2"), Value("tools")});

  ConjunctiveQuery q = MustParseQuery(
      "Q(c, t, wc, wt) <- Cargo(c, wc), Carries(t, c), Truck(t, wt)");
  // τ(c, t, wc, wt) = wc + wt: depends on positions 3 and 4.
  auto tau = MakeCallbackTau(
      [](const Tuple& answer) {
        return answer[2].AsRational() + answer[3].AsRational();
      },
      {2, 3}, "wc+wt");
  AggregateQuery a{q, tau, AggregateFunction::Max()};
  std::printf("Paper Example 2.2 (second query):\n  %s\n", a.ToString().c_str());
  std::printf("  localized: %s;  class: not all-hierarchical\n",
              LocalizationAtoms(q, *tau).empty() ? "no" : "yes");
  std::printf("  A(D) = %s (heaviest loaded truck)\n\n",
              a.Evaluate(db).ToString().c_str());
  ShapleySolver solver(a);
  auto scores = solver.ComputeAll(db);
  if (!scores.ok()) {
    std::fprintf(stderr, "error: %s\n", scores.status().ToString().c_str());
    return 1;
  }
  for (const auto& [fact, result] : *scores) {
    std::printf("  %-26s %10.4f   [%s]\n", db.fact(fact).ToString().c_str(),
                result.approximation, result.algorithm.c_str());
  }

  // --- Part 2: the monoid-tractable fleet-planning variant ----------------
  std::printf("\nFleet planning variant (Section 7.3 monoid extension):\n");
  Database fleet;
  for (int w : {12, 30, 5, 18}) {
    fleet.AddEndogenous("CargoW", {Value(w)});
  }
  for (int w : {40, 25, 33}) {
    fleet.AddEndogenous("TruckW", {Value(w)});
  }
  ConjunctiveQuery q2 = MustParseQuery("Q2(wc, wt) <- CargoW(wc), TruckW(wt)");
  std::printf("  Max o (wc+wt) o %s\n", q2.ToString().c_str());
  AggregateQuery a2{q2, MakeMonoidTau(MonoidKind::kPlus, {0, 1}),
                    AggregateFunction::Max()};
  auto fleet_scores = ShapleySolver(a2).ComputeAll(fleet);
  if (!fleet_scores.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 fleet_scores.status().ToString().c_str());
    return 1;
  }
  std::printf("  %-20s %16s %16s\n", "fact", "exact engine", "brute force");
  for (const auto& [f, result] : *fleet_scores) {
    auto brute = BruteForceScore(a2, fleet, f);
    std::printf("  %-20s %16.4f %16.4f   [%s]%s\n",
                fleet.fact(f).ToString().c_str(), result.approximation,
                brute->ToDouble(), result.algorithm.c_str(),
                result.exact == *brute ? "" : "  MISMATCH");
  }
  std::printf("\nThe Min/Max engine runs in polynomial time; brute force is "
              "shown only to confirm the values at this toy size.\n");
  return 0;
}
