// Relational database with endogenous/exogenous facts.
//
// A Database is a set of facts over named relations. Each fact is marked
// endogenous (a Shapley player) or exogenous (taken for granted), following
// the model of Livshits et al. and the paper. Facts get stable FactIds; the
// Shapley engines identify players by FactId.
//
// Storage is interned + columnar: every constant is interned once into a
// ValuePool (dense uint32_t ValueIds), relations get dense RelationIds, and
// each relation's facts live in a ColumnStore as position-major ValueId
// columns with dense posting lists per (position, value). The hot join and
// DP paths work entirely over ids; the Value-based accessors (FactsWith by
// Value, fact().args) remain as thin shims over the id layer.

#ifndef SHAPCQ_DATA_DATABASE_H_
#define SHAPCQ_DATA_DATABASE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "shapcq/data/column_store.h"
#include "shapcq/data/value.h"
#include "shapcq/data/value_pool.h"
#include "shapcq/util/status.h"

namespace shapcq {

struct Fact {
  std::string relation;
  Tuple args;
  bool endogenous = true;

  // Renders "R(1, 'a')".
  std::string ToString() const;
};

// Schema of one relation.
struct RelationSchema {
  std::string name;
  int arity = 0;
};

// A database schema: relation name -> arity.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<RelationSchema> relations);

  // Adds a relation; aborts if the name is already present.
  void AddRelation(const std::string& name, int arity);

  bool HasRelation(const std::string& name) const;
  // Returns the arity; aborts if unknown.
  int Arity(const std::string& name) const;
  const std::vector<RelationSchema>& relations() const { return relations_; }

 private:
  std::vector<RelationSchema> relations_;
  std::unordered_map<std::string, int> arity_by_name_;
};

class Database {
 public:
  Database() = default;

  // Adds a fact; aborts if an identical (relation, args) fact exists or if
  // the arity conflicts with earlier facts of the same relation. Arguments
  // are interned into the value pool on insertion.
  FactId AddFact(const std::string& relation, Tuple args,
                 bool endogenous = true);
  // Convenience for endogenous/exogenous insertion.
  FactId AddEndogenous(const std::string& relation, Tuple args) {
    return AddFact(relation, std::move(args), /*endogenous=*/true);
  }
  FactId AddExogenous(const std::string& relation, Tuple args) {
    return AddFact(relation, std::move(args), /*endogenous=*/false);
  }

  // --- Mutation API -------------------------------------------------------
  //
  // FactIds are assigned in ascending order and NEVER reused: an insert
  // always appends past every id ever issued, so posting lists stay sorted
  // and a deleted id stays dead forever (live(id) == false survives
  // compaction). Deletion is a tombstone — the columnar lists keep the dead
  // id until CompactTombstones() rebuilds them — so deletes are O(1) and
  // the id space may contain holes (num_live() <= num_facts()). Every
  // successful mutation (and compaction) bumps epoch(), a monotonic
  // change counter that caches key their snapshots on.

  // Validating AddFact: kInvalidArgument on an arity conflict,
  // kFailedPrecondition on a duplicate live fact. Bumps epoch.
  StatusOr<FactId> InsertFact(const std::string& relation, Tuple args,
                              bool endogenous = true);
  // Tombstones a live fact: kNotFound when out of range or already dead.
  // The (relation, args) key is freed for re-insertion (under a fresh id).
  // Bumps epoch.
  Status DeleteFact(FactId id);
  // Rebuilds the columnar lists without tombstoned facts (FactIds are
  // preserved; dead ids remain dead) and seals the per-relation delta
  // segments. Bumps epoch.
  void CompactTombstones();

  // Monotonic mutation counter: bumped by AddFact/InsertFact/DeleteFact/
  // CompactTombstones, and by SetEndogenous when it actually flips a flag
  // (the endogenous partition is part of the semantic state every score
  // depends on). Equal epochs on the same object imply identical contents.
  uint64_t epoch() const { return epoch_; }
  // False for tombstoned ids (forever, even after compaction).
  bool live(FactId id) const {
    return id >= 0 && id < num_facts() && dead_[static_cast<size_t>(id)] == 0;
  }
  bool has_tombstones() const { return num_dead_ > 0; }
  // The tombstone bitset, dense by FactId (1 = dead): what the
  // live-filtering intersection kernels consume.
  const std::vector<char>& dead() const { return dead_; }
  // Live facts (the id space minus tombstones).
  int num_live() const { return num_facts() - num_dead_; }

  // Size of the id space, holes included; live(id) distinguishes.
  int num_facts() const { return static_cast<int>(facts_.size()); }
  const Fact& fact(FactId id) const;
  // Looks up a fact id; returns kNotFound if absent.
  StatusOr<FactId> FindFact(const std::string& relation,
                            const Tuple& args) const;
  bool Contains(const std::string& relation, const Tuple& args) const;

  // --- Interned (id-based) access: the hot-path API -----------------------

  // The pool of interned constants.
  const ValuePool& pool() const { return pool_; }
  // The columnar fact storage.
  const ColumnStore& columns() const { return columns_; }

  int num_relations() const { return columns_.num_relations(); }
  // Dense relation id; kNoRelationId for unknown names.
  RelationId relation_id(const std::string& name) const;
  // Name of a relation id (insertion order matches relation_names()).
  const std::string& relation_name(RelationId relation) const {
    return relation_names_[static_cast<size_t>(relation)];
  }
  // Relation of a fact, as a dense id.
  RelationId fact_relation(FactId id) const {
    return fact_relation_[static_cast<size_t>(id)];
  }
  // Interned argument of a fact at `position` (O(1) columnar lookup).
  ValueId ArgId(FactId id, int position) const {
    return columns_.At(fact_relation_[static_cast<size_t>(id)], position,
                       fact_row_[static_cast<size_t>(id)]);
  }
  // All fact ids of a relation, ascending.
  const std::vector<FactId>& FactsOf(RelationId relation) const {
    return columns_.Facts(relation);
  }
  // Dense posting-list probe: facts of `relation` whose argument at
  // `position` is the interned `value`, ascending.
  const std::vector<FactId>& FactsWith(RelationId relation, int position,
                                       ValueId value) const {
    return columns_.Postings(relation, position, value);
  }

  // --- Value-based shims (interned lookup underneath) ---------------------

  // All fact ids of one relation (empty vector for unknown relations).
  const std::vector<FactId>& FactsOf(const std::string& relation) const;
  // Facts of `relation` whose argument at `position` equals `value`
  // (posting-list probe through the value pool; empty vector when nothing
  // matches). Ascending ids.
  const std::vector<FactId>& FactsWith(const std::string& relation,
                                       int position, const Value& value) const;
  // All relation names present, in first-insertion order.
  const std::vector<std::string>& relation_names() const {
    return relation_names_;
  }
  // Arity of a relation as observed from its facts; aborts if unknown.
  int Arity(const std::string& relation) const;

  // Live endogenous fact ids, ascending.
  std::vector<FactId> EndogenousFacts() const;
  // Live exogenous fact ids, ascending.
  std::vector<FactId> ExogenousFacts() const;
  // Live endogenous facts (tombstones excluded).
  int num_endogenous() const { return num_endogenous_; }

  // Flips the endogenous flag of `id` in place. Unlike WithFactExogenous
  // this is O(1): batched engines use it to realize the paper's derived
  // databases F (fact exogenous) without copying the database per fact —
  // always on their own local copies. Bumps epoch when the flag actually
  // changes (a no-op flip does not).
  void SetEndogenous(FactId id, bool endogenous);

  // Returns a copy where fact `id` is exogenous (the database F of the
  // paper's Section 3.2). Fact ids are preserved.
  Database WithFactExogenous(FactId id) const;
  // Returns a copy without fact `id` (the database G). Fact ids are NOT
  // preserved; use the returned mapping old->new (-1 for the removed fact).
  Database WithoutFact(FactId id, std::vector<FactId>* old_to_new) const;

  // Renders the whole database, one fact per line, endogenous first.
  std::string ToString() const;

 private:
  std::vector<Fact> facts_;
  std::vector<std::string> relation_names_;  // dense by RelationId
  std::unordered_map<std::string, RelationId> relation_ids_;
  ValuePool pool_;
  ColumnStore columns_;
  std::vector<RelationId> fact_relation_;  // by FactId
  std::vector<int32_t> fact_row_;          // by FactId: row within relation
  // Exact-fact lookup (duplicate detection, FindFact).
  std::unordered_map<std::string,
                     std::unordered_map<Tuple, FactId, TupleHash>>
      fact_index_;
  int num_endogenous_ = 0;
  std::vector<char> dead_;  // by FactId: 1 = tombstoned
  int num_dead_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace shapcq

#endif  // SHAPCQ_DATA_DATABASE_H_
