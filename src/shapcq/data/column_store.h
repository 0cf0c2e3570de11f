// ColumnStore: position-major interned columns plus dense posting lists.
//
// Each relation's facts are stored as arity many columns of ValueIds (one
// vector per argument position), and every (position, value id) pair keeps
// a posting list: the ascending FactIds whose argument at that position is
// that value. Posting lists are indexed densely by ValueId — a probe is one
// array lookup, no hashing — and replace the former per-(relation,
// position, value) hash indexes of Database.
//
// The store is append-friendly: facts arrive with ascending FactIds, so
// every list (facts, columns, postings) stays sorted by construction and
// const lookups are thread-safe. Deletion is a Database-level tombstone —
// the store keeps the dead ids in place until Compact() rebuilds the lists
// without them (FactIds are preserved; only rows move). Ids are never
// reused, so facts appended after a Compact() extend the same sorted lists
// and the galloping intersection below reads them with no merge step.

#ifndef SHAPCQ_DATA_COLUMN_STORE_H_
#define SHAPCQ_DATA_COLUMN_STORE_H_

#include <cstdint>
#include <vector>

#include "shapcq/data/value_pool.h"

namespace shapcq {

// Index of a fact within its Database (mirrors database.h; kept here so the
// store does not depend on the full Database header).
using FactId = int32_t;

// Dense id of a relation within its Database, in first-insertion order.
using RelationId = int32_t;
inline constexpr RelationId kNoRelationId = -1;

class ColumnStore {
 public:
  ColumnStore() = default;

  // Registers a relation of the given arity; returns its dense id.
  RelationId AddRelation(int arity);

  int num_relations() const { return static_cast<int>(relations_.size()); }
  int arity(RelationId relation) const;

  // Appends a fact (its args already interned) to `relation`. Fact ids must
  // be appended in ascending order so posting lists stay sorted.
  void AddFact(RelationId relation, FactId fact, const ValueId* args,
               int arity);

  // All facts of `relation`, ascending by FactId.
  const std::vector<FactId>& Facts(RelationId relation) const;

  // Posting list: facts of `relation` whose argument at `position` equals
  // `value`, ascending. O(1) dense lookup; empty when nothing matches.
  const std::vector<FactId>& Postings(RelationId relation, int position,
                                      ValueId value) const;

  // The value id at `position` of the `row`-th fact of `relation` (row
  // indexes Facts(relation)).
  ValueId At(RelationId relation, int position, int row) const {
    return relations_[static_cast<size_t>(relation)]
        .columns[static_cast<size_t>(position)][static_cast<size_t>(row)];
  }

  // Whole column, position-major: one ValueId per row of Facts(relation).
  const std::vector<ValueId>& Column(RelationId relation, int position) const;

  // Rebuilds every relation's lists without the facts marked in `dead`
  // (indexed by FactId; ids at or past dead.size() are live). FactIds are
  // preserved — only row indexes change. When `fact_row` is non-null it is
  // updated in place (indexed by FactId) to the surviving facts' new rows;
  // dead facts get row -1.
  void Compact(const std::vector<char>& dead, std::vector<int32_t>* fact_row);

 private:
  struct Relation {
    int arity = 0;
    std::vector<FactId> facts;                    // row -> FactId
    std::vector<std::vector<ValueId>> columns;    // [position][row]
    // [position][value id] -> ascending FactIds; grown on demand.
    std::vector<std::vector<std::vector<FactId>>> postings;
  };
  std::vector<Relation> relations_;
};

// Intersects ascending posting lists; `lists` must be non-empty and the
// result is ascending. The smallest list drives galloping (exponential)
// probes into the others, so a pair costs O(small · log(large)).
std::vector<FactId> IntersectPostings(
    std::vector<const std::vector<FactId>*> lists);

// Tombstone-aware intersection: IntersectPostings, then ids marked in
// `dead` (indexed by FactId; ids at or past dead.size() are live) are
// dropped from the result. Callers pass the Database's tombstone bitset so
// posting lists that still carry deleted ids (before compaction) never
// surface them to the join.
std::vector<FactId> IntersectPostingsLive(
    std::vector<const std::vector<FactId>*> lists,
    const std::vector<char>& dead);

}  // namespace shapcq

#endif  // SHAPCQ_DATA_COLUMN_STORE_H_
