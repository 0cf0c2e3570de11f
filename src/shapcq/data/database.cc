#include "shapcq/data/database.h"

#include <algorithm>

#include "shapcq/util/check.h"

namespace shapcq {

std::string Fact::ToString() const {
  std::string out = relation + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i].ToString();
  }
  out += ")";
  return out;
}

Schema::Schema(std::vector<RelationSchema> relations) {
  for (RelationSchema& r : relations) {
    AddRelation(r.name, r.arity);
  }
}

void Schema::AddRelation(const std::string& name, int arity) {
  SHAPCQ_CHECK(arity >= 0);
  auto [it, inserted] = arity_by_name_.emplace(name, arity);
  SHAPCQ_CHECK(inserted && "duplicate relation name in schema");
  (void)it;
  relations_.push_back(RelationSchema{name, arity});
}

bool Schema::HasRelation(const std::string& name) const {
  return arity_by_name_.count(name) > 0;
}

int Schema::Arity(const std::string& name) const {
  auto it = arity_by_name_.find(name);
  SHAPCQ_CHECK(it != arity_by_name_.end());
  return it->second;
}

FactId Database::AddFact(const std::string& relation, Tuple args,
                         bool endogenous) {
  StatusOr<FactId> id = InsertFact(relation, std::move(args), endogenous);
  SHAPCQ_CHECK(id.ok() && "duplicate fact or arity conflict");
  return *id;
}

StatusOr<FactId> Database::InsertFact(const std::string& relation, Tuple args,
                                      bool endogenous) {
  RelationId relation_id;
  auto rel_it = relation_ids_.find(relation);
  if (rel_it == relation_ids_.end()) {
    relation_id = columns_.AddRelation(static_cast<int>(args.size()));
    relation_ids_.emplace(relation, relation_id);
    relation_names_.push_back(relation);
  } else {
    relation_id = rel_it->second;
    if (columns_.arity(relation_id) != static_cast<int>(args.size())) {
      return InvalidArgumentError("fact arity conflicts with relation " +
                                  relation);
    }
  }
  auto& index = fact_index_[relation];
  if (index.find(args) != index.end()) {
    return FailedPreconditionError("duplicate fact: " + relation +
                                   TupleToString(args));
  }
  FactId id = static_cast<FactId>(facts_.size());
  index.emplace(args, id);
  // Intern the arguments and append to the columnar store.
  ValueId interned[16];
  std::vector<ValueId> interned_overflow;
  ValueId* arg_ids = interned;
  if (args.size() > 16) {
    interned_overflow.resize(args.size());
    arg_ids = interned_overflow.data();
  }
  for (size_t position = 0; position < args.size(); ++position) {
    arg_ids[position] = pool_.Intern(args[position]);
  }
  fact_relation_.push_back(relation_id);
  fact_row_.push_back(
      static_cast<int32_t>(columns_.Facts(relation_id).size()));
  columns_.AddFact(relation_id, id, arg_ids, static_cast<int>(args.size()));
  if (endogenous) ++num_endogenous_;
  facts_.push_back(Fact{relation, std::move(args), endogenous});
  dead_.push_back(0);
  ++epoch_;
  return id;
}

Status Database::DeleteFact(FactId id) {
  if (id < 0 || id >= num_facts() || dead_[static_cast<size_t>(id)] != 0) {
    return NotFoundError("no live fact with id " + std::to_string(id));
  }
  const Fact& f = facts_[static_cast<size_t>(id)];
  dead_[static_cast<size_t>(id)] = 1;
  ++num_dead_;
  if (f.endogenous) --num_endogenous_;
  // Free the (relation, args) key: the same fact may be re-inserted later
  // under a fresh id.
  auto rel_it = fact_index_.find(f.relation);
  SHAPCQ_CHECK(rel_it != fact_index_.end());
  rel_it->second.erase(f.args);
  ++epoch_;
  return Status::Ok();
}

void Database::CompactTombstones() {
  columns_.Compact(dead_, &fact_row_);
  ++epoch_;
}

void Database::SetEndogenous(FactId id, bool endogenous) {
  SHAPCQ_CHECK(id >= 0 && id < num_facts());
  SHAPCQ_CHECK(live(id));
  Fact& f = facts_[static_cast<size_t>(id)];
  if (f.endogenous == endogenous) return;
  f.endogenous = endogenous;
  num_endogenous_ += endogenous ? 1 : -1;
  // The partition change is a semantic change: anything cached against
  // epoch() (keyed on the endogenous player set) must see itself as stale.
  // A no-op flip above returns without bumping.
  ++epoch_;
}

const Fact& Database::fact(FactId id) const {
  SHAPCQ_CHECK(id >= 0 && id < static_cast<FactId>(facts_.size()));
  return facts_[static_cast<size_t>(id)];
}

StatusOr<FactId> Database::FindFact(const std::string& relation,
                                    const Tuple& args) const {
  auto rel_it = fact_index_.find(relation);
  if (rel_it == fact_index_.end()) {
    return NotFoundError("unknown relation: " + relation);
  }
  auto fact_it = rel_it->second.find(args);
  if (fact_it == rel_it->second.end()) {
    return NotFoundError("fact not present: " + relation +
                         TupleToString(args));
  }
  return fact_it->second;
}

bool Database::Contains(const std::string& relation, const Tuple& args) const {
  return FindFact(relation, args).ok();
}

RelationId Database::relation_id(const std::string& name) const {
  auto it = relation_ids_.find(name);
  return it == relation_ids_.end() ? kNoRelationId : it->second;
}

const std::vector<FactId>& Database::FactsOf(
    const std::string& relation) const {
  static const std::vector<FactId> kEmpty;
  RelationId id = relation_id(relation);
  return id == kNoRelationId ? kEmpty : columns_.Facts(id);
}

const std::vector<FactId>& Database::FactsWith(const std::string& relation,
                                               int position,
                                               const Value& value) const {
  static const std::vector<FactId> kEmpty;
  RelationId id = relation_id(relation);
  if (id == kNoRelationId) return kEmpty;
  SHAPCQ_CHECK(position >= 0 && position < columns_.arity(id));
  ValueId value_id = pool_.Find(value);
  if (value_id == kNoValueId) return kEmpty;
  return columns_.Postings(id, position, value_id);
}

int Database::Arity(const std::string& relation) const {
  RelationId id = relation_id(relation);
  SHAPCQ_CHECK(id != kNoRelationId);
  return columns_.arity(id);
}

std::vector<FactId> Database::EndogenousFacts() const {
  std::vector<FactId> out;
  out.reserve(static_cast<size_t>(num_endogenous_));
  for (FactId id = 0; id < num_facts(); ++id) {
    if (!live(id)) continue;
    if (facts_[static_cast<size_t>(id)].endogenous) out.push_back(id);
  }
  return out;
}

std::vector<FactId> Database::ExogenousFacts() const {
  std::vector<FactId> out;
  for (FactId id = 0; id < num_facts(); ++id) {
    if (!live(id)) continue;
    if (!facts_[static_cast<size_t>(id)].endogenous) out.push_back(id);
  }
  return out;
}

Database Database::WithFactExogenous(FactId id) const {
  SHAPCQ_CHECK(live(id));
  SHAPCQ_CHECK(fact(id).endogenous);
  Database copy = *this;
  copy.facts_[static_cast<size_t>(id)].endogenous = false;
  --copy.num_endogenous_;
  return copy;
}

Database Database::WithoutFact(FactId id, std::vector<FactId>* old_to_new) const {
  SHAPCQ_CHECK(id >= 0 && id < num_facts());
  Database result;
  if (old_to_new != nullptr) {
    old_to_new->assign(static_cast<size_t>(num_facts()), -1);
  }
  for (FactId old_id = 0; old_id < num_facts(); ++old_id) {
    if (old_id == id || !live(old_id)) continue;
    const Fact& f = facts_[static_cast<size_t>(old_id)];
    FactId new_id = result.AddFact(f.relation, f.args, f.endogenous);
    if (old_to_new != nullptr) {
      (*old_to_new)[static_cast<size_t>(old_id)] = new_id;
    }
  }
  return result;
}

std::string Database::ToString() const {
  std::string out;
  for (bool endogenous : {true, false}) {
    for (FactId id = 0; id < num_facts(); ++id) {
      if (!live(id)) continue;
      const Fact& f = facts_[static_cast<size_t>(id)];
      if (f.endogenous != endogenous) continue;
      out += f.ToString();
      out += endogenous ? "  [endo]\n" : "  [exo]\n";
    }
  }
  return out;
}

}  // namespace shapcq
