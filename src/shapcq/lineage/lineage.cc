#include "shapcq/lineage/lineage.h"

#include <algorithm>
#include <utility>

#include "shapcq/lineage/circuit.h"
#include "shapcq/query/evaluator.h"

namespace shapcq {

LineageSet ExtractLineage(const ConjunctiveQuery& q, const Database& db) {
  LineageSet lineage;
  lineage.players = db.EndogenousFacts();
  lineage.player_index.assign(static_cast<size_t>(db.num_facts()), -1);
  for (size_t p = 0; p < lineage.players.size(); ++p) {
    lineage.player_index[static_cast<size_t>(lineage.players[p])] =
        static_cast<int>(p);
  }

  for (AnswerHomomorphisms& group : GroupHomomorphismsByAnswer(q, db)) {
    std::vector<std::vector<int>> supports;
    supports.reserve(group.used_facts.size());
    for (const std::vector<FactId>& used : group.used_facts) {
      std::vector<int> support;
      for (FactId id : used) {
        int player = lineage.player_index[static_cast<size_t>(id)];
        if (player >= 0) support.push_back(player);
      }
      // One homomorphism may use a fact in several atoms (self-joins):
      // dedup the clause.
      std::sort(support.begin(), support.end());
      support.erase(std::unique(support.begin(), support.end()),
                    support.end());
      supports.push_back(std::move(support));
    }
    // Keep minimal supports only — shrinks the per-answer variable set
    // (the max_answer_vars budget gate) before compilation; the compiler
    // canonicalizes with the same shared helper.
    MinimizeClauses(&supports);
    lineage.answers.push_back({std::move(group.answer), std::move(supports)});
  }
  return lineage;
}

}  // namespace shapcq
